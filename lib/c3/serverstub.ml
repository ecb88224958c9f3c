module Sim = Sg_os.Sim
module Comp = Sg_os.Comp
module Storage = Sg_storage.Storage

type config = {
  ss_iface : string;
  ss_global : bool;
  ss_desc_arg : string -> int option;
  ss_parent_arg : string -> int option;
  ss_create_fns : string list;
  ss_create_meta :
    string -> Comp.value list -> Comp.value -> (string * Comp.value) list;
  ss_boot_init : Sim.t -> Comp.cid -> unit;
}

let no_boot_init _ _ = ()

let replace_nth l n v = List.mapi (fun i x -> if i = n then v else x) l

(* repeated reboots chain translations (old -> mid -> new) *)
let rec chase xlate id hops =
  if hops > 8 then id
  else
    match Sg_util.Inttbl.find_opt xlate id with
    | Some id' when id' <> id -> chase xlate id' (hops + 1)
    | Some _ | None -> id

(* top-level, like the cache's lookups, so that wrapping a spec builds
   no closures for them *)
let translate cfg xlate fn args =
  if Sg_util.Inttbl.length xlate = 0 then args
  else
    List.fold_left
      (fun args sel ->
        match sel fn with
        | None -> args
        | Some idx -> (
            match List.nth_opt args idx with
            | Some (Comp.VInt id) ->
                let id' = chase xlate id 0 in
                if id' <> id then replace_nth args idx (Comp.VInt id')
                else args
            | Some _ | None -> args))
      args
      [ cfg.ss_desc_arg; cfg.ss_parent_arg ]

let wrap ~storage cfg spec =
  (* Stale-id translation cache: clients keep using a recreated global
     descriptor's pre-fault id forever; after the first G0 recovery the
     stub translates it directly instead of paying the storage lookup
     and creator upcall on every invocation. The cache is stub state —
     it lives in the interface, outside the micro-rebooted image. *)
  let xlate : int Sg_util.Inttbl.t = Sg_util.Inttbl.create 2 in
  (* [recovering] guards the EINVAL path against re-entry; the replay
     itself goes through this wrapper again so that a creation replayed
     during recovery is registered with the storage component like any
     other (otherwise its id would be unrecoverable after the next
     fault). *)
  let rec dispatch ~recovering sim cid fn orig_args =
    let args = if recovering then orig_args else translate cfg xlate fn orig_args in
    match spec.Sim.sc_dispatch sim cid fn args with
    | Ok ret as r ->
        if cfg.ss_global && List.exists (String.equal fn) cfg.ss_create_fns
        then begin
          (* G0 bookkeeping: remember who created this descriptor *)
          let id =
            match ret with
            | Comp.VInt id -> id
            | _ -> invalid_arg "server stub: creation must return an id"
          in
          Storage.register_desc storage sim ~space:cfg.ss_iface ~id
            ~creator:(Sim.client_cid sim)
            ~meta:(cfg.ss_create_meta fn args ret)
        end;
        r
    | Error Comp.EINVAL when cfg.ss_global && not recovering -> (
        (* G0 recovery: a descriptor-bearing argument (the descriptor
           itself, or a creation's parent) may predate the micro-reboot *)
        let candidates =
          List.filter_map
            (fun sel -> sel fn)
            [ cfg.ss_desc_arg; cfg.ss_parent_arg ]
        in
        let try_recover idx =
          (* the storage registry and the creator's stub know descriptors
             by their original (client-visible) ids, so recovery always
             starts from the untranslated argument *)
          match List.nth_opt orig_args idx with
          | Some (Comp.VInt old_id) -> (
              match
                Storage.lookup_desc storage sim ~space:cfg.ss_iface ~id:old_id
              with
              | None -> None
              | Some (creator, _meta) -> (
                  (* U0: upcall into the creating component's client
                     stub to rebuild the descriptor, then replay *)
                  match
                    Sim.upcall sim ~client:creator
                      (Cstub.upcall_name cfg.ss_iface)
                      [ Comp.VInt old_id ]
                  with
                  | Ok (Comp.VInt new_id) ->
                      if new_id <> old_id then
                        Sg_util.Inttbl.replace xlate old_id new_id
                      else Sg_util.Inttbl.remove xlate old_id;
                      Some
                        (dispatch ~recovering:true sim cid fn
                           (replace_nth (translate cfg xlate fn orig_args) idx
                              (Comp.VInt new_id)))
                  | Ok _ | Error _ -> None))
          | Some _ | None -> None
        in
        match List.find_map try_recover candidates with
        | Some result -> result
        | None -> Error Comp.EINVAL)
    | (Error _ as r) -> r
  in
  let boot_init sim cid =
    spec.Sim.sc_boot_init sim cid;
    (* global descriptor namespaces must not re-issue ids that still
       name pre-fault descriptors held by clients: re-seed the counter
       past everything the storage registry remembers (G0) *)
    if cfg.ss_global then begin
      let max_id = Storage.max_desc_id storage ~space:cfg.ss_iface in
      ignore
        (spec.Sim.sc_dispatch sim cid "__sg_seed_ids"
           [ Comp.VInt (max_id + 1) ])
    end;
    cfg.ss_boot_init sim cid
  in
  {
    spec with
    Sim.sc_dispatch = (fun sim cid fn args -> dispatch ~recovering:false sim cid fn args);
    sc_boot_init = boot_init;
  }
