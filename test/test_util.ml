(* Unit and property tests for Sg_util. *)

module Rng = Sg_util.Rng
module Word32 = Sg_util.Word32
module Stats = Sg_util.Stats
module Table = Sg_util.Table
module Json = Sg_util.Json
module Inttbl = Sg_util.Inttbl

let test_rng_deterministic () =
  let a = Rng.create 7 and b = Rng.create 7 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.int64 a) (Rng.int64 b)
  done

let test_rng_split_independent () =
  let a = Rng.create 7 in
  let c = Rng.split a in
  (* the split stream must differ from the parent's continuation *)
  let xs = List.init 8 (fun _ -> Rng.int64 a) in
  let ys = List.init 8 (fun _ -> Rng.int64 c) in
  Alcotest.(check bool) "streams differ" true (xs <> ys)

(* The DST campaign layer splits one master generator into a workload
   stream and a plan stream; its replay guarantee rests on the split
   streams being (a) pinned functions of the master seed and (b)
   insensitive to how many draws the sibling stream has consumed. Pin
   the exact sequences so an accidental change to splitmix64 or to
   [split] shows up as a test diff, not as silently divergent repros. *)
let test_rng_split_pinned () =
  let expect_a =
    [ 0x57e1faba65107204L; 0xf4abd143feb24055L; 0x7c816738c12903b2L;
      0x113e5dec6f8fd8a8L; 0xad4a599062fd1739L ]
  and expect_b =
    [ 0xfc991bca1a1aa1aeL; 0x4f0482a72b57ee7dL; 0x81ba563d55228ab4L;
      0xaf53d69c4ec853d9L; 0x9541bf146980306aL ]
  in
  let master = Rng.create 42 in
  let a = Rng.split master in
  let b = Rng.split master in
  List.iter
    (fun v -> Alcotest.(check int64) "first split stream" v (Rng.int64 a))
    expect_a;
  List.iter
    (fun v -> Alcotest.(check int64) "second split stream" v (Rng.int64 b))
    expect_b;
  (* draws on the first child must not perturb the second child *)
  let master' = Rng.create 42 in
  let a' = Rng.split master' in
  ignore (Rng.int a' 1000);
  ignore (Rng.int a' 1000);
  ignore (Rng.bool a');
  let b' = Rng.split master' in
  List.iter
    (fun v ->
      Alcotest.(check int64) "sibling draws do not leak" v (Rng.int64 b'))
    expect_b;
  (* a different master seed moves every child stream *)
  let c = Rng.split (Rng.create 43) in
  Alcotest.(check bool) "seed reaches children" true
    (Rng.int64 c <> List.hd expect_a)

(* Every draw function pinned on one stream, with the values of the
   boxed-state implementation this one replaced: a change of
   representation must keep each sequence bit for bit. *)
let test_rng_draws_pinned () =
  let t = Rng.create 2026 in
  List.iter
    (fun v -> Alcotest.(check int64) "int64" v (Rng.int64 t))
    [ 0xdb9c559891948d23L; 0x78bc927ded35455dL; 0xaad71e75cde2b88eL;
      0x6280938ad5a104f2L ];
  List.iter
    (fun v -> Alcotest.(check int) "int" v (Rng.int t 1_000_003))
    [ 442467; 846733; 504280; 749389; 730150; 956248 ];
  List.iter
    (fun v -> Alcotest.(check (float 0.0)) "float" v (Rng.float t 10.0))
    [ 0x1.acfa4c3182336p+1; 0x1.20990c96961f8p+3; 0x1.97eaec947b406p+1 ];
  List.iter
    (fun v ->
      Alcotest.(check (float 0.0)) "exponential" v (Rng.exponential t ~mean:1000.0))
    [ 0x1.49775fb95bec2p+8; 0x1.01b41f7f66779p+10; 0x1.55c2c170d728fp+7 ];
  List.iter
    (fun v -> Alcotest.(check bool) "bool" v (Rng.bool t))
    [ true; true; true; true; false; false; false; false ];
  List.iter
    (fun v -> Alcotest.(check bool) "bernoulli" v (Rng.bernoulli t 0.5))
    [ true; true; false; false; false; false; true; true; true; false; false; true ];
  let c = Rng.copy t in
  Array.iter2
    (fun v r -> Alcotest.(check int64) "streams" v (Rng.int64 r))
    [| 0xc84a4a249d2d15b8L; 0xb7fd80c5818b07efL; 0x58779246adde6602L |]
    (Rng.streams t 3);
  Alcotest.(check int64) "copy keeps the state" 0xc3fd85913eb26d16L (Rng.int64 c);
  Alcotest.(check int64) "the original moves on" 0xd44aa38abc456c1eL (Rng.int64 t);
  Alcotest.(check int) "choose" 50 (Rng.choose t [| 10; 20; 30; 40; 50 |]);
  Alcotest.(check int) "weighted" 3 (Rng.weighted t [| (1, 1); (0, 2); (5, 3) |]);
  let r = Rng.create (-7) and h = ref 0 in
  for _ = 1 to 100_000 do
    h := ((!h * 31) + Rng.int r 1_000_000_007) land 0x3FFF_FFFF_FFFF
  done;
  Alcotest.(check int) "100k draws hashed" 45441926763687 !h

(* A draw keeps the state unboxed: 10k draws of each kind that returns
   an immediate allocate nothing. *)
let test_rng_draws_allocate_nothing () =
  let t = Rng.create 11 in
  let words f =
    let before = Gc.minor_words () in
    f ();
    Gc.minor_words () -. before
  in
  let acc = ref 0 and three = [| 1; 2; 3 |] and two = [| (1, 1); (2, 2) |] in
  let per_kind =
    [
      ("int", fun () -> for _ = 1 to 10_000 do acc := !acc + Rng.int t 1000 done);
      ("bool", fun () -> for _ = 1 to 10_000 do if Rng.bool t then incr acc done);
      ("gap_ns", fun () -> for _ = 1 to 10_000 do acc := !acc + Rng.gap_ns t ~mean:50.0 done);
      ("choose", fun () -> for _ = 1 to 10_000 do acc := !acc + Rng.choose t three done);
      ("weighted", fun () -> for _ = 1 to 10_000 do acc := !acc + Rng.weighted t two done);
      ("bernoulli", fun () -> for _ = 1 to 10_000 do if Rng.bernoulli t 0.5 then incr acc done);
    ]
  in
  ignore (words (fun () -> ()));
  List.iter
    (fun (name, f) ->
      (* the boxed float [Gc.minor_words] returns is 2 words *)
      let w = words f -. 2.0 in
      if w > 0.0 then Alcotest.failf "Rng.%s: %.0f minor words over 10k draws" name w)
    per_kind;
  Alcotest.(check bool) "draws used" true (!acc <> 0)

(* Key patterns the stubs track spread over the buckets: small ids,
   page-aligned addresses (C³'s mm descriptors, which all shared one
   bucket while the hash kept the low bits as they were), namespaced
   (ns lsl 32 lor vaddr) aliases and virtual ids. 4096 keys load a table
   to at most 2 per bucket on average. *)
let test_inttbl_spread () =
  List.iter
    (fun (what, key) ->
      let t = Inttbl.create 8 in
      for i = 1 to 4096 do
        Inttbl.replace t (key i) i
      done;
      let longest = Inttbl.longest_chain t in
      if longest > 12 then Alcotest.failf "%s: a bucket holds %d of 4096 keys" what longest)
    [
      ("small ids", Fun.id);
      ("page-aligned", fun i -> i lsl 13);
      ("namespaced aliases", fun i -> (7 lsl 32) lor ((i lsl 13) + 0x1000));
      ("virtual ids", fun i -> (1 lsl 40) + i);
    ]

let test_rng_bounds () =
  let r = Rng.create 3 in
  for _ = 1 to 1000 do
    let v = Rng.int r 17 in
    if v < 0 || v >= 17 then Alcotest.fail "Rng.int out of bounds"
  done;
  for _ = 1 to 1000 do
    let v = Rng.float r 2.5 in
    if v < 0.0 || v >= 2.5 then Alcotest.fail "Rng.float out of bounds"
  done

(* one draw per pick, uniform over the cumulative weights: a weight of
   0 or below is never picked, and no positive weight is an error *)
let test_rng_weighted () =
  let choices = [| (0, "zero"); (3, "a"); (-2, "negative"); (1, "b") |] in
  let r = Rng.create 5 and shadow = Rng.create 5 in
  for _ = 1 to 1000 do
    let expect = if Rng.int shadow 4 < 3 then "a" else "b" in
    Alcotest.(check string) "cumulative pick" expect (Rng.weighted r choices)
  done;
  Alcotest.check_raises "no positive weight"
    (Invalid_argument "Rng.weighted: no positive weight") (fun () ->
      ignore (Rng.weighted r [| (0, ()); (-1, ()) |]))

let test_rng_copy () =
  let a = Rng.create 11 in
  let _ = Rng.int64 a in
  let b = Rng.copy a in
  Alcotest.(check int64) "copy continues identically" (Rng.int64 a) (Rng.int64 b)

let test_word32_flip () =
  let w = 0b1010 in
  Alcotest.(check int) "flip set bit" 0b1000 (Word32.flip_bit w 1);
  Alcotest.(check int) "flip clear bit" 0b1011 (Word32.flip_bit w 0);
  Alcotest.(check int) "flip high bit" (0x8000000A) (Word32.flip_bit w 31)

let test_word32_mask () =
  Alcotest.(check int) "mask truncates" 0x1 (Word32.mask 0x100000001);
  Alcotest.(check int) "popcount" 8 (Word32.popcount 0xFF);
  Alcotest.(check string) "hex" "0x000000FF" (Word32.to_hex 0xFF)

let test_stats_basic () =
  let s = Stats.summarize [ 1.0; 2.0; 3.0; 4.0 ] in
  Alcotest.(check (float 1e-9)) "mean" 2.5 s.Stats.mean;
  Alcotest.(check (float 1e-6)) "stdev" 1.2909944 s.Stats.stdev;
  Alcotest.(check int) "n" 4 s.Stats.n;
  Alcotest.(check (float 1e-9)) "min" 1.0 s.Stats.min;
  Alcotest.(check (float 1e-9)) "max" 4.0 s.Stats.max

let test_stats_percentile () =
  let a = [| 10.0; 20.0; 30.0; 40.0; 50.0 |] in
  Alcotest.(check (float 1e-9)) "median" 30.0 (Stats.percentile a 0.5);
  Alcotest.(check (float 1e-9)) "p0" 10.0 (Stats.percentile a 0.0);
  Alcotest.(check (float 1e-9)) "p100" 50.0 (Stats.percentile a 1.0)

let test_stats_edge_cases () =
  Alcotest.check_raises "empty list rejected"
    (Invalid_argument "Stats.summarize: empty") (fun () ->
      ignore (Stats.summarize []));
  Alcotest.check_raises "empty percentile rejected"
    (Invalid_argument "Stats.percentile: empty") (fun () ->
      ignore (Stats.percentile [||] 0.5));
  let s = Stats.summarize [ 42.0 ] in
  Alcotest.(check int) "singleton n" 1 s.Stats.n;
  Alcotest.(check (float 1e-9)) "singleton mean" 42.0 s.Stats.mean;
  Alcotest.(check (float 1e-9)) "singleton stdev is zero" 0.0 s.Stats.stdev;
  Alcotest.(check (float 1e-9)) "singleton min" 42.0 s.Stats.min;
  Alcotest.(check (float 1e-9)) "singleton max" 42.0 s.Stats.max

let test_ratio_percent () =
  Alcotest.(check (float 1e-9)) "slowdown" 10.0
    (Stats.ratio_percent ~baseline:100.0 ~measured:90.0)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let test_table_render () =
  let s =
    Table.render ~header:[ "Comp"; "N" ] [ [ "Sched"; "500" ]; [ "MM"; "9" ] ]
  in
  Alcotest.(check bool) "contains header" true (contains s "Comp");
  Alcotest.(check bool) "contains row" true (contains s "Sched")

(* Pool: the deterministic speculative domain pool under the parallel
   campaign drivers. The contract under test is pool.mli's: in-order
   consumption, Stop discards the speculative tail, exceptions from
   either side propagate only after every domain is joined. *)

module Pool = Sg_util.Pool

let test_pool_ordered () =
  let seen = ref [] in
  Pool.run ~jobs:4 ~count:100
    ~task:(fun ~cancelled:_ i -> i * i)
    ~consume:(fun i v ->
      Alcotest.(check int) "task value" (i * i) v;
      seen := i :: !seen;
      Pool.Continue)
    ();
  Alcotest.(check (list int))
    "every index, in order" (List.init 100 Fun.id) (List.rev !seen)

let test_pool_stop () =
  let seen = ref [] in
  Pool.run ~jobs:4 ~count:1000
    ~task:(fun ~cancelled:_ i -> i)
    ~consume:(fun i _ ->
      seen := i :: !seen;
      if i = 12 then Pool.Stop else Pool.Continue)
    ();
  Alcotest.(check (list int))
    "consumed exactly [0..12]" (List.init 13 Fun.id) (List.rev !seen)

let test_pool_lookahead_one () =
  (* lookahead 1 serializes the ring: still correct, still ordered *)
  let seen = ref [] in
  Pool.run ~jobs:3 ~count:40 ~lookahead:1
    ~task:(fun ~cancelled:_ i -> (2 * i) + 1)
    ~consume:(fun i v ->
      Alcotest.(check int) "task value" ((2 * i) + 1) v;
      seen := i :: !seen;
      Pool.Continue)
    ();
  Alcotest.(check int) "all consumed" 40 (List.length !seen)

let test_pool_more_jobs_than_work () =
  let sum = ref 0 in
  Pool.run ~jobs:8 ~count:3
    ~task:(fun ~cancelled:_ i -> i + 1)
    ~consume:(fun _ v ->
      sum := !sum + v;
      Pool.Continue)
    ();
  Alcotest.(check int) "sum of 1+2+3" 6 !sum

let test_pool_task_exception () =
  let delivered = ref 0 in
  let raised =
    try
      Pool.run ~jobs:4 ~count:50
        ~task:(fun ~cancelled:_ i -> if i = 7 then failwith "task boom" else i)
        ~consume:(fun _ _ ->
          incr delivered;
          Pool.Continue)
        ();
      false
    with Failure msg -> msg = "task boom"
  in
  Alcotest.(check bool) "task exception propagates" true raised;
  Alcotest.(check int) "results before the failing index" 7 !delivered;
  (* every domain must have been joined before the raise: a fresh run
     on the same process has the whole domain budget available *)
  let n = ref 0 in
  Pool.run ~jobs:4 ~count:20
    ~task:(fun ~cancelled:_ i -> i)
    ~consume:(fun _ _ ->
      incr n;
      Pool.Continue)
    ();
  Alcotest.(check int) "pool usable after a failed run" 20 !n

let test_pool_consume_exception () =
  let raised =
    try
      Pool.run ~jobs:4 ~count:50
        ~task:(fun ~cancelled:_ i -> i)
        ~consume:(fun i _ ->
          if i = 5 then failwith "consume boom" else Pool.Continue)
        ();
      false
    with Failure msg -> msg = "consume boom"
  in
  Alcotest.(check bool) "consume exception propagates" true raised

let prop_pool_matches_sequential =
  QCheck.Test.make ~name:"Pool.run consumes what a sequential loop would"
    ~count:60
    QCheck.(triple (int_range 1 6) (int_range 0 80) (int_range 1 9))
    (fun (jobs, count, lookahead) ->
      let acc = ref [] in
      Pool.run ~jobs ~count ~lookahead
        ~task:(fun ~cancelled:_ i -> (i * 37) mod 101)
        ~consume:(fun i v ->
          acc := (i, v) :: !acc;
          Pool.Continue)
        ();
      List.rev !acc = List.init count (fun i -> (i, i * 37 mod 101)))

(* Property tests *)

let prop_flip_involutive =
  QCheck.Test.make ~name:"flip_bit is an involution" ~count:500
    QCheck.(pair (int_bound 0xFFFFFF) (int_bound 31))
    (fun (w, i) -> Word32.flip_bit (Word32.flip_bit w i) i = Word32.mask w)

let prop_rng_int_in_bounds =
  QCheck.Test.make ~name:"Rng.int stays in bounds" ~count:500
    QCheck.(pair small_int (int_range 1 1000))
    (fun (seed, bound) ->
      let r = Rng.create seed in
      let v = Rng.int r bound in
      v >= 0 && v < bound)

let prop_stats_mean_bounded =
  QCheck.Test.make ~name:"mean within min/max" ~count:300
    QCheck.(list_of_size Gen.(1 -- 50) (float_bound_exclusive 1000.0))
    (fun l ->
      let s = Stats.summarize l in
      s.Stats.mean >= s.Stats.min -. 1e-9 && s.Stats.mean <= s.Stats.max +. 1e-9)

(* ---------- json ---------- *)

let gen_json =
  let open QCheck.Gen in
  let finite = map (fun f -> if Float.is_finite f then f else 0.5) float in
  let scalar =
    oneof
      [
        return Json.Null;
        map (fun b -> Json.Bool b) bool;
        map (fun i -> Json.Int i) int;
        map (fun f -> Json.Float f) finite;
        map (fun s -> Json.Str s) (string_size (int_bound 12));
      ]
  in
  sized_size (int_bound 3)
  @@ fix (fun self depth ->
         if depth = 0 then scalar
         else
           frequency
             [
               (2, scalar);
               (1, map (fun l -> Json.List l) (list_size (int_bound 4) (self (depth - 1))));
               ( 1,
                 map
                   (fun l -> Json.Obj l)
                   (list_size (int_bound 4)
                      (pair (string_size (int_bound 8)) (self (depth - 1)))) );
             ])

let prop_json_roundtrip =
  QCheck.Test.make ~count:1000 ~name:"parse (to_string v) = v"
    (QCheck.make ~print:Json.to_string gen_json)
    (fun v -> Json.parse (Json.to_string v) = v)

let test_json_floats () =
  List.iter
    (fun (f, text) ->
      Alcotest.(check string) (Printf.sprintf "%h" f) text (Json.to_string (Json.Float f)))
    [
      (0.9, "0.9");
      (12000., "12000.0");
      (-3., "-3.0");
      (0.1 +. 0.2, "0.30000000000000004");
      (Float.nan, "null");
      (Float.infinity, "null");
      (Float.neg_infinity, "null");
    ];
  Alcotest.(check bool) "1e300 round-trips" true
    (Json.parse (Json.to_string (Json.Float 1e300)) = Json.Float 1e300);
  List.iter
    (fun (text, v) -> Alcotest.(check bool) text true (Json.parse text = v))
    [
      ("15", Json.Int 15);
      ("1.5", Json.Float 1.5);
      ("-2e3", Json.Float (-2000.));
      ("1E-1", Json.Float 0.1);
    ];
  List.iter
    (fun text ->
      match Json.parse text with
      | _ -> Alcotest.failf "%S accepted" text
      | exception Json.Parse_error _ -> ())
    [ "1."; "-"; "1e"; "1e+"; ".5"; "99999999999999999999" ]

(* the escaper Json.escape was before it shared the event codec's *)
let old_escape s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let test_json_escape_compat () =
  let escaped s =
    let b = Buffer.create 8 in
    Json.add_escaped b s;
    Buffer.contents b
  in
  for code = 0x00 to 0x7f do
    let s = String.make 1 (Char.chr code) in
    Alcotest.(check string) (Printf.sprintf "byte 0x%02x" code) (old_escape s) (escaped s)
  done;
  let all = String.init 128 Char.chr in
  Alcotest.(check string) "all ASCII in one string" (old_escape all) (escaped all)

let test_json_envelope () =
  Alcotest.(check string) "version, then schema, then fields"
    {|{"version":2,"schema":"s","k":[]}|}
    (Json.to_string (Json.versioned_report ~schema:"s" ~version:2 [ ("k", Json.List []) ]));
  let j = Json.parse {|{"n":3,"s":"x"}|} in
  Alcotest.(check int) "get_int" 3 (Json.get_int j "n");
  Alcotest.(check string) "get_str" "x" (Json.get_str j "s");
  match Json.get_int j "s" with
  | _ -> Alcotest.fail "a string read as an int"
  | exception Json.Parse_error _ -> ()

let () =
  Alcotest.run "sg_util"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "split independent" `Quick test_rng_split_independent;
          Alcotest.test_case "split pinned streams" `Quick
            test_rng_split_pinned;
          Alcotest.test_case "draws pinned" `Quick test_rng_draws_pinned;
          Alcotest.test_case "draws allocate nothing" `Quick
            test_rng_draws_allocate_nothing;
          Alcotest.test_case "bounds" `Quick test_rng_bounds;
          Alcotest.test_case "copy" `Quick test_rng_copy;
          Alcotest.test_case "weighted" `Quick test_rng_weighted;
          QCheck_alcotest.to_alcotest prop_rng_int_in_bounds;
        ] );
      ( "word32",
        [
          Alcotest.test_case "flip" `Quick test_word32_flip;
          Alcotest.test_case "mask/popcount/hex" `Quick test_word32_mask;
          QCheck_alcotest.to_alcotest prop_flip_involutive;
        ] );
      ( "stats",
        [
          Alcotest.test_case "basic" `Quick test_stats_basic;
          Alcotest.test_case "percentile" `Quick test_stats_percentile;
          Alcotest.test_case "empty and singleton" `Quick test_stats_edge_cases;
          Alcotest.test_case "ratio" `Quick test_ratio_percent;
          QCheck_alcotest.to_alcotest prop_stats_mean_bounded;
        ] );
      ("table", [ Alcotest.test_case "render" `Quick test_table_render ]);
      ("inttbl", [ Alcotest.test_case "spreads the keys stubs track" `Quick test_inttbl_spread ]);
      ( "json",
        [
          QCheck_alcotest.to_alcotest prop_json_roundtrip;
          Alcotest.test_case "float rendering and parsing" `Quick test_json_floats;
          Alcotest.test_case "escaper matches the old one on ASCII" `Quick
            test_json_escape_compat;
          Alcotest.test_case "envelope and field access" `Quick test_json_envelope;
        ] );
      ( "pool",
        [
          Alcotest.test_case "ordered consumption" `Quick test_pool_ordered;
          Alcotest.test_case "stop discards tail" `Quick test_pool_stop;
          Alcotest.test_case "lookahead 1" `Quick test_pool_lookahead_one;
          Alcotest.test_case "more jobs than work" `Quick
            test_pool_more_jobs_than_work;
          Alcotest.test_case "task exception joins then raises" `Quick
            test_pool_task_exception;
          Alcotest.test_case "consume exception joins then raises" `Quick
            test_pool_consume_exception;
          QCheck_alcotest.to_alcotest prop_pool_matches_sequential;
        ] );
    ]
