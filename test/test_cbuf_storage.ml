(* Unit tests for the trusted substrates: the zero-copy buffer manager
   and the storage component. *)

module Sim = Sg_os.Sim
module Comp = Sg_os.Comp
module Cbuf = Sg_cbuf.Cbuf
module Storage = Sg_storage.Storage

let with_sim f =
  let sim = Sim.create () in
  f sim

let test_cbuf_alloc_write_read () =
  with_sim (fun sim ->
      let t = Cbuf.create () in
      let id = Cbuf.alloc t sim ~owner:1 ~size:16 in
      Alcotest.(check bool) "write ok" true
        (Cbuf.write t sim ~writer:1 id ~pos:0 "hello" = Ok ());
      Alcotest.(check bool) "read own" true
        (Cbuf.read t ~reader:1 id ~pos:0 ~len:5 = Ok "hello");
      Alcotest.(check (option int)) "size" (Some 16) (Cbuf.size t id);
      Alcotest.(check (option int)) "owner" (Some 1) (Cbuf.owner t id))

let test_cbuf_access_control () =
  with_sim (fun sim ->
      let t = Cbuf.create () in
      let id = Cbuf.alloc t sim ~owner:1 ~size:8 in
      ignore (Cbuf.write t sim ~writer:1 id ~pos:0 "data");
      (* only the producer may write; consumers map read-only *)
      Alcotest.(check bool) "foreign write denied" true
        (Cbuf.write t sim ~writer:2 id ~pos:0 "x" = Error `Denied);
      Alcotest.(check bool) "unshared read denied" true
        (Cbuf.read t ~reader:2 id ~pos:0 ~len:4 = Error `Denied);
      Cbuf.grant_read t sim id ~reader:2;
      Alcotest.(check bool) "granted read ok" true
        (Cbuf.read t ~reader:2 id ~pos:0 ~len:4 = Ok "data"))

let test_cbuf_bounds () =
  with_sim (fun sim ->
      let t = Cbuf.create () in
      let id = Cbuf.alloc t sim ~owner:1 ~size:4 in
      Alcotest.(check bool) "write out of bounds" true
        (Cbuf.write t sim ~writer:1 id ~pos:2 "abc" = Error `Bounds);
      Alcotest.(check bool) "read out of bounds" true
        (Cbuf.read t ~reader:1 id ~pos:0 ~len:5 = Error `Bounds);
      Alcotest.(check bool) "unknown buffer" true
        (Cbuf.read t ~reader:1 999 ~pos:0 ~len:1 = Error `Unknown))

let test_cbuf_free () =
  with_sim (fun sim ->
      let t = Cbuf.create () in
      let id = Cbuf.alloc t sim ~owner:1 ~size:4 in
      Alcotest.(check int) "count" 1 (Cbuf.count t);
      Cbuf.free t id;
      Alcotest.(check int) "freed" 0 (Cbuf.count t))

let test_storage_desc_registry () =
  with_sim (fun sim ->
      let t = Storage.create (Cbuf.create ()) in
      Storage.register_desc t sim ~space:"evt" ~id:7 ~creator:3
        ~meta:[ ("grp", Comp.VInt 1) ];
      (match Storage.lookup_desc t sim ~space:"evt" ~id:7 with
      | Some (3, [ ("grp", Comp.VInt 1) ]) -> ()
      | _ -> Alcotest.fail "lookup mismatch");
      Alcotest.(check bool) "other space empty" true
        (Storage.lookup_desc t sim ~space:"fs" ~id:7 = None);
      Alcotest.(check (list int)) "descs_in" [ 7 ] (Storage.descs_in t ~space:"evt");
      Storage.remove_desc t sim ~space:"evt" ~id:7;
      Alcotest.(check bool) "removed" true
        (Storage.lookup_desc t sim ~space:"evt" ~id:7 = None))

(* G0 reseed point: after every step of a register/remove sequence over
   two spaces, the running max equals the max of what [descs_in] lists.
   [Remove_max] and [Clear] force removing the current max and emptying
   a space. *)
type desc_op =
  | Register of string * int
  | Remove of string * int
  | Remove_max of string
  | Clear of string

let prop_max_desc_id =
  let space = QCheck.Gen.oneofl [ "evt"; "fs" ] in
  let id = QCheck.Gen.int_range 0 24 in
  let op =
    QCheck.Gen.(
      frequency
        [
          (5, map2 (fun s i -> Register (s, i)) space id);
          (2, map2 (fun s i -> Remove (s, i)) space id);
          (2, map (fun s -> Remove_max s) space);
          (1, map (fun s -> Clear s) space);
        ])
  in
  let show = function
    | Register (s, i) -> Printf.sprintf "reg %s %d" s i
    | Remove (s, i) -> Printf.sprintf "rm %s %d" s i
    | Remove_max s -> "rm-max " ^ s
    | Clear s -> "clear " ^ s
  in
  QCheck.Test.make ~name:"max_desc_id tracks descs_in" ~count:300
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map show ops))
       QCheck.Gen.(list_size (int_range 0 80) op))
    (fun ops ->
      with_sim (fun sim ->
          let t = Storage.create (Cbuf.create ()) in
          let remove space id = Storage.remove_desc t sim ~space ~id in
          List.for_all
            (fun o ->
              (match o with
              | Register (space, id) ->
                  Storage.register_desc t sim ~space ~id ~creator:1 ~meta:[]
              | Remove (space, id) -> remove space id
              | Remove_max space ->
                  remove space (Storage.max_desc_id t ~space)
              | Clear space -> List.iter (remove space) (Storage.descs_in t ~space));
              List.for_all
                (fun space ->
                  Storage.max_desc_id t ~space
                  = List.fold_left max 0 (Storage.descs_in t ~space))
                [ "evt"; "fs" ])
            ops))

let test_storage_slices () =
  with_sim (fun sim ->
      let cbufs = Cbuf.create () in
      let t = Storage.create cbufs in
      let c1 = Cbuf.alloc cbufs sim ~owner:1 ~size:4 in
      let c2 = Cbuf.alloc cbufs sim ~owner:1 ~size:4 in
      Storage.put_slice t sim ~space:"fs" ~id:5 ~off:4 ~len:4 ~cbuf:c2;
      Storage.put_slice t sim ~space:"fs" ~id:5 ~off:0 ~len:4 ~cbuf:c1;
      Alcotest.(check (list (triple int int int)))
        "slices replay in write order"
        [ (4, 4, c2); (0, 4, c1) ]
        (Storage.slices t sim ~space:"fs" ~id:5);
      (* a rewrite covering an old slice replaces it *)
      Storage.put_slice t sim ~space:"fs" ~id:5 ~off:0 ~len:4 ~cbuf:c2;
      Alcotest.(check int) "covered slice dropped" 2 (Storage.slice_count t);
      Storage.drop_slices t sim ~space:"fs" ~id:5;
      Alcotest.(check int) "dropped" 0 (Storage.slice_count t))

let test_storage_charges_time () =
  with_sim (fun sim ->
      let t = Storage.create (Cbuf.create ()) in
      let t0 = Sim.now sim in
      Storage.register_desc t sim ~space:"evt" ~id:1 ~creator:1 ~meta:[];
      Alcotest.(check bool) "virtual time charged" true (Sim.now sim > t0))

let () =
  Alcotest.run "sg_cbuf_storage"
    [
      ( "cbuf",
        [
          Alcotest.test_case "alloc/write/read" `Quick test_cbuf_alloc_write_read;
          Alcotest.test_case "access control" `Quick test_cbuf_access_control;
          Alcotest.test_case "bounds" `Quick test_cbuf_bounds;
          Alcotest.test_case "free" `Quick test_cbuf_free;
        ] );
      ( "storage",
        [
          Alcotest.test_case "descriptor registry" `Quick test_storage_desc_registry;
          QCheck_alcotest.to_alcotest prop_max_desc_id;
          Alcotest.test_case "data slices" `Quick test_storage_slices;
          Alcotest.test_case "charges time" `Quick test_storage_charges_time;
        ] );
    ]
