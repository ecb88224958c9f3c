(* Unit tests for the sg_obs observability layer: sink retention, the
   log2 histogram, the JSON-lines codec, the metrics fold, and every
   rule of the trace-invariant checker — each with a stream that must
   pass and a corrupted stream that must be rejected. *)

module E = Sg_obs.Event
module Sink = Sg_obs.Sink
module Hist = Sg_obs.Hist
module Jsonl = Sg_obs.Jsonl
module Check = Sg_obs.Check
module Metrics = Sg_obs.Metrics
module Episode = Sg_obs.Episode
module Profile = Sg_obs.Profile
module Reqjoin = Sg_obs.Reqjoin
module Json = Sg_util.Json

(* hand-build a stream: (at_ns, tid, kind) triples, seq auto-assigned *)
let stream l =
  List.mapi (fun i (at_ns, tid, kind) -> { E.seq = i; at_ns; tid; kind }) l

let rules vs = List.sort_uniq compare (List.map (fun v -> v.Check.rule) vs)

let check_rules ?mode ?(completed = true) name expected l =
  Alcotest.(check (list string)) name expected (rules (Check.run ?mode ~completed (stream l)))

(* ---------- sink ---------- *)

let span_begin ~span =
  E.Span_begin { span; client = 1; server = 7; fn = "tread" }

let test_sink_retention () =
  let fill sink =
    Sink.emit sink ~at_ns:10 ~tid:1 (span_begin ~span:1);
    Sink.emit sink ~at_ns:20 ~tid:1 (E.Crash { cid = 7; detector = "t" });
    Sink.emit sink ~at_ns:30 ~tid:1
      (E.Reboot { cid = 7; epoch = 1; image_kb = 64; cost_ns = 5 });
    Sink.emit sink ~at_ns:40 ~tid:1 (E.Span_end { span = 1; server = 7; ok = false })
  in
  let all = Sink.create () in
  Sink.set_retention all Sink.All;
  fill all;
  Alcotest.(check int) "All retains everything" 4 (Sink.count all);
  Alcotest.(check (list int))
    "seq assigned in order, oldest first" [ 0; 1; 2; 3 ]
    (List.map (fun e -> e.E.seq) (Sink.events all));
  let rec_ = Sink.create () in
  Alcotest.(check bool) "default retention is Recovery" true
    (Sink.retention rec_ = Sink.Recovery);
  fill rec_;
  Alcotest.(check (list string))
    "Recovery keeps only recovery-relevant kinds" [ "crash"; "reboot" ]
    (List.map (fun e -> E.kind_name e.E.kind) (Sink.events rec_));
  let seen = ref 0 in
  let watched = Sink.create () in
  Sink.subscribe watched (fun _ -> incr seen);
  fill watched;
  Alcotest.(check int) "subscribers see every emission regardless" 4 !seen;
  Sink.clear all;
  Alcotest.(check int) "clear empties the log" 0 (Sink.count all)

let test_subscribe_fold_equivalence () =
  (* a boxing subscriber and an unboxed fold subscriber on the same sink
     must observe the same emission sequence *)
  let sink = Sink.create () in
  let boxed = ref [] and folded = ref [] in
  Sink.subscribe sink (fun e ->
      boxed := (e.E.seq, e.E.at_ns, e.E.tid, e.E.kind) :: !boxed);
  Sink.subscribe_fold sink (fun ~seq ~at_ns ~tid kind ->
      folded := (seq, at_ns, tid, kind) :: !folded);
  List.iteri
    (fun i kind -> Sink.emit sink ~at_ns:(10 * i) ~tid:(i mod 4) kind)
    [
      span_begin ~span:1;
      E.Crash { cid = 7; detector = "t" };
      E.Reboot { cid = 7; epoch = 1; image_kb = 64; cost_ns = 5 };
      E.Note { name = "n"; data = "d" };
      E.Span_end { span = 1; server = 7; ok = true };
    ];
  Alcotest.(check int) "both saw every emission" 5 (List.length !boxed);
  Alcotest.(check bool) "identical observation sequences" true
    (!boxed = !folded)

(* ---------- histogram ---------- *)

let test_hist_buckets () =
  List.iter
    (fun (v, b) ->
      Alcotest.(check int) (Printf.sprintf "bucket_of %d" v) b (Hist.bucket_of v))
    [ (-5, 0); (0, 0); (1, 1); (2, 2); (3, 2); (4, 3); (7, 3); (8, 4); (1023, 10) ];
  List.iter
    (fun (i, u) ->
      Alcotest.(check int) (Printf.sprintf "bucket_upper %d" i) u (Hist.bucket_upper i))
    [ (0, 0); (1, 1); (2, 3); (3, 7); (10, 1023) ]

let test_hist_empty_and_singleton () =
  let h = Hist.create () in
  Alcotest.(check int) "empty n" 0 (Hist.n h);
  Alcotest.(check int) "empty percentile" 0 (Hist.percentile h 0.5);
  Hist.add h 5;
  Alcotest.(check int) "singleton n" 1 (Hist.n h);
  Alcotest.(check int) "singleton sum" 5 (Hist.sum h);
  Alcotest.(check (float 1e-9)) "singleton mean" 5.0 (Hist.mean h);
  Alcotest.(check int) "singleton min" 5 (Hist.min_value h);
  Alcotest.(check int) "singleton max" 5 (Hist.max_value h);
  (* bucket_of 5 = 3, interpolation lands on the [4,7] bucket top,
     clamped to the observed max *)
  Alcotest.(check int) "singleton p99 clamps to max" 5 (Hist.percentile h 0.99);
  Alcotest.(check (float 1e-9)) "singleton stddev" 0.0 (Hist.stddev h);
  Hist.clear h;
  Alcotest.(check int) "clear resets" 0 (Hist.n h)

let test_hist_percentiles () =
  let h = Hist.create () in
  List.iter (Hist.add h) [ 1; 2; 3; 100 ];
  Alcotest.(check int) "n" 4 (Hist.n h);
  Alcotest.(check int) "sum" 106 (Hist.sum h);
  (* cum counts: bucket1=1, bucket2=3, bucket7=4; p50 needs rank 2,
     which is the first of bucket [2,3]'s two samples: interpolation
     puts it halfway across the bucket, int-floored to 2 *)
  Alcotest.(check int) "p50 interpolates within its bucket" 2
    (Hist.percentile h 0.5);
  (* rank 3 is the bucket's last sample: the bucket top *)
  Alcotest.(check int) "p75 reaches the bucket top" 3 (Hist.percentile h 0.75);
  Alcotest.(check int) "p100 clamps to max" 100 (Hist.percentile h 1.0);
  let mean = 106.0 /. 4.0 in
  let var = ((1.0 +. 4.0 +. 9.0 +. 10000.0) /. 4.0) -. (mean *. mean) in
  Alcotest.(check (float 1e-9)) "stddev" (sqrt var) (Hist.stddev h)

let test_hist_merge () =
  (* merging two empties keeps the sentinels inert *)
  let a = Hist.create () in
  Hist.merge a (Hist.create ());
  Alcotest.(check int) "empty+empty n" 0 (Hist.n a);
  Alcotest.(check int) "empty+empty min" 0 (Hist.min_value a);
  Alcotest.(check int) "empty+empty max" 0 (Hist.max_value a);
  (* non-empty <- empty: nothing absorbed, especially not min/max *)
  Hist.add a 5;
  Hist.add a 100;
  Hist.merge a (Hist.create ());
  Alcotest.(check int) "after empty merge n" 2 (Hist.n a);
  Alcotest.(check int) "after empty merge sum" 105 (Hist.sum a);
  Alcotest.(check int) "after empty merge min" 5 (Hist.min_value a);
  Alcotest.(check int) "after empty merge max" 100 (Hist.max_value a);
  (* empty <- non-empty equals the source *)
  let c = Hist.create () in
  Hist.merge c a;
  Alcotest.(check bool) "empty <- non-empty copies" true (c = a);
  (* merge of disjoint halves equals histogramming the concatenation,
     including the top bucket (values past the last bucket boundary) *)
  let top = 1 lsl 60 in
  let d = Hist.create () and e = Hist.create () in
  List.iter (Hist.add d) [ 1; 2; 3 ];
  List.iter (Hist.add e) [ 100; top ];
  let m = Hist.create () in
  Hist.merge m d;
  Hist.merge m e;
  let direct = Hist.create () in
  List.iter (Hist.add direct) [ 1; 2; 3; 100; top ];
  Alcotest.(check bool) "merge = replay" true (m = direct);
  Alcotest.(check int) "merged n" 5 (Hist.n m);
  Alcotest.(check int) "merged max" top (Hist.max_value m);
  Alcotest.(check int) "merged p100" top (Hist.percentile m 1.0);
  (* bucket index saturates instead of wrapping for huge values *)
  Alcotest.(check int) "max_int stays in the last bucket"
    (Hist.bucket_of max_int)
    (Hist.bucket_of (max_int - 1))

let test_hist_log_linear () =
  (* k = 2: m = 4 sub-buckets per octave; values below 2m = 8 are exact *)
  let mode = Hist.Log_linear 2 in
  let h = Hist.create ~mode () in
  Alcotest.(check bool) "mode round-trips" true (Hist.mode h = mode);
  for v = 0 to 7 do
    let lo, hi = Hist.bounds_of_mode mode v in
    Alcotest.(check (pair int int))
      (Printf.sprintf "value %d is exact" v)
      (v, v) (lo, hi)
  done;
  (* octave [8,16) is cut into 4 sub-buckets of width 2 at indices 8..11 *)
  List.iter
    (fun (i, b) ->
      Alcotest.(check (pair int int))
        (Printf.sprintf "bounds of bucket %d" i)
        b
        (Hist.bounds_of_mode mode i))
    [ (8, (8, 9)); (9, (10, 11)); (11, (14, 15)); (12, (16, 19)) ];
  (* indexing is monotone and consistent with the bounds *)
  List.iter
    (fun v ->
      Hist.add h v;
      let i =
        match Hist.buckets_list h with [ (i, 1) ] -> i | _ -> assert false
      in
      let lo, hi = Hist.bounds_of_mode mode i in
      Alcotest.(check bool)
        (Printf.sprintf "value %d within its bucket [%d,%d]" v lo hi)
        true
        (lo <= v && v <= hi);
      Hist.clear h)
    [ 1; 7; 8; 9; 15; 16; 31; 32; 1_000; 1_000_000; 1 lsl 40; max_int ];
  (* relative resolution: bucket width <= lo / m for every octave *)
  List.iter
    (fun v ->
      Hist.add h v;
      let i =
        match Hist.buckets_list h with [ (i, 1) ] -> i | _ -> assert false
      in
      let lo, hi = Hist.bounds_of_mode mode i in
      Alcotest.(check bool)
        (Printf.sprintf "value %d bucket width bounds rel. error" v)
        true
        (hi - lo <= max 1 (lo / 4));
      Hist.clear h)
    [ 100; 10_000; 123_456_789; 1 lsl 50 ];
  (* mixed-mode merge is rejected: it cannot be exact *)
  Alcotest.check_raises "mixed-mode merge rejected"
    (Invalid_argument "Hist.merge: histograms use different bucketing modes")
    (fun () -> Hist.merge h (Hist.create ()))

(* merge of per-domain histograms must equal the histogram of the
   concatenated samples — counts, moments and every percentile — in
   both bucketing modes (the [Pool]/[Pardriver] determinism contract) *)
let prop_hist_merge_exact =
  let gen =
    QCheck.Gen.(
      triple
        (oneofl [ Hist.Log2; Hist.Log_linear 2; Hist.Log_linear 5 ])
        (list_size (int_range 0 40) (int_range (-5) 2_000_000))
        (list_size (int_range 0 40) (int_range (-5) 2_000_000)))
  in
  QCheck.Test.make ~count:500 ~name:"hist merge = hist of concatenation"
    (QCheck.make gen) (fun (mode, xs, ys) ->
      let a = Hist.create ~mode () and b = Hist.create ~mode () in
      List.iter (Hist.add a) xs;
      List.iter (Hist.add b) ys;
      let m = Hist.create ~mode () in
      Hist.merge m a;
      Hist.merge m b;
      let direct = Hist.create ~mode () in
      List.iter (Hist.add direct) (xs @ ys);
      Hist.buckets_list m = Hist.buckets_list direct
      && Hist.n m = Hist.n direct
      && Hist.sum m = Hist.sum direct
      && Hist.min_value m = Hist.min_value direct
      && Hist.max_value m = Hist.max_value direct
      && Float.abs (Hist.stddev m -. Hist.stddev direct) < 1e-6
      && List.for_all
           (fun p -> Hist.percentile m p = Hist.percentile direct p)
           [ 0.0; 0.5; 0.9; 0.99; 0.999; 1.0 ])

let test_hist_buckets_list () =
  let h = Hist.create () in
  Alcotest.(check (list (pair int int))) "empty buckets" [] (Hist.buckets_list h);
  List.iter (Hist.add h) [ 0; 1; 1; 5; 1_000_000 ];
  Alcotest.(check (list (pair int int)))
    "only occupied buckets, ascending"
    [ (0, 1); (1, 2); (3, 1); (20, 1) ]
    (Hist.buckets_list h);
  Alcotest.(check int) "counts sum to n" (Hist.n h)
    (List.fold_left (fun acc (_, c) -> acc + c) 0 (Hist.buckets_list h))

(* [add] runs at every successful span end: it must not box its sum
   of squares *)
let test_hist_add_allocates_nothing () =
  let h = Hist.create () in
  Hist.add h 1;
  let before = Gc.minor_words () in
  for v = 1 to 10_000 do
    Hist.add h v
  done;
  let words = Gc.minor_words () -. before in
  Alcotest.(check bool)
    (Printf.sprintf "10k adds took %.0f minor words" words)
    true (words < 100.)

(* [Hist] before on-demand buckets: every bucket allocated by [create],
   every scan from bucket 0 over the full layout. The property below
   holds the on-demand histogram to its results. *)
module Fixed_hist = struct
  type t = {
    mode : Hist.mode;
    counts : int array;
    mutable n : int;
    mutable sum : int;
    mutable sumsq : float;
    mutable min_v : int;
    mutable max_v : int;
  }

  let size = function Hist.Log2 -> 64 | Hist.Log_linear k -> (64 - k) * (1 lsl k)

  let create mode =
    {
      mode;
      counts = Array.make (size mode) 0;
      n = 0;
      sum = 0;
      sumsq = 0.0;
      min_v = max_int;
      max_v = min_int;
    }

  let rec bits v = if v = 0 then 0 else 1 + bits (v lsr 1)

  let index mode v =
    match mode with
    | Hist.Log2 -> Hist.bucket_of v
    | Hist.Log_linear k ->
        let m = 1 lsl k in
        if v <= 0 then 0
        else if v < 2 * m then v
        else
          let b = bits v in
          ((b - k - 1) * m) + (v asr (b - 1 - k))

  let add t v =
    let i = index t.mode v in
    t.counts.(i) <- t.counts.(i) + 1;
    t.n <- t.n + 1;
    t.sum <- t.sum + v;
    let fv = float_of_int v in
    t.sumsq <- t.sumsq +. (fv *. fv);
    if v < t.min_v then t.min_v <- v;
    if v > t.max_v then t.max_v <- v

  let merge dst src =
    Array.iteri (fun i c -> dst.counts.(i) <- dst.counts.(i) + c) src.counts;
    dst.n <- dst.n + src.n;
    dst.sum <- dst.sum + src.sum;
    dst.sumsq <- dst.sumsq +. src.sumsq;
    if src.n > 0 then begin
      if src.min_v < dst.min_v then dst.min_v <- src.min_v;
      if src.max_v > dst.max_v then dst.max_v <- src.max_v
    end

  let clear t =
    Array.fill t.counts 0 (Array.length t.counts) 0;
    t.n <- 0;
    t.sum <- 0;
    t.sumsq <- 0.0;
    t.min_v <- max_int;
    t.max_v <- min_int

  let mean t = if t.n = 0 then 0.0 else float_of_int t.sum /. float_of_int t.n

  let stddev t =
    if t.n = 0 then 0.0
    else
      let m = mean t in
      sqrt (Float.max 0.0 ((t.sumsq /. float_of_int t.n) -. (m *. m)))

  let percentile t p =
    if t.n = 0 then 0
    else begin
      let p = if p < 0.0 then 0.0 else if p > 1.0 then 1.0 else p in
      let target = max 1 (int_of_float (ceil (p *. float_of_int t.n))) in
      let rec go i before =
        if i >= Array.length t.counts then t.max_v
        else
          let c = t.counts.(i) in
          if before + c >= target then begin
            let lo, hi = Hist.bounds_of_mode t.mode i in
            let frac = float_of_int (target - before) /. float_of_int c in
            let v = lo + int_of_float (frac *. float_of_int (hi - lo)) in
            max t.min_v (min t.max_v v)
          end
          else go (i + 1) (before + c)
      in
      go 0 0
    end

  let buckets_list t =
    List.filter (fun (_, c) -> c > 0) (List.mapi (fun i c -> (i, c)) (Array.to_list t.counts))
end

(* on-demand buckets change no result: random adds, merges of a second
   histogram (which grows the destination) and clears, in every mode,
   checked after each step against [Fixed_hist]; and
   [percentile_of_samples] over the samples added since the last clear
   equals [percentile] *)
let prop_hist_on_demand =
  let value =
    QCheck.Gen.(
      oneof
        [
          int_range (-3) 70;
          int_range 0 5_000;
          int_range 0 2_000_000;
          map (fun b -> 1 lsl b) (int_range 10 61);
          oneofl [ max_int; min_int; 0 ];
        ])
  in
  let op =
    QCheck.Gen.(
      frequency
        [
          (12, map (fun v -> `Add v) value);
          (2, map (fun vs -> `Merge vs) (list_size (int_range 0 20) value));
          (1, return `Clear);
        ])
  in
  let gen =
    QCheck.Gen.(
      pair
        (oneofl [ Hist.Log2; Hist.Log_linear 1; Hist.Log_linear 2; Hist.Log_linear 5; Hist.Log_linear 8 ])
        (list_size (int_range 0 60) op))
  in
  QCheck.Test.make ~count:500 ~name:"on-demand buckets = fixed-width reference"
    (QCheck.make gen) (fun (mode, ops) ->
      let h = Hist.create ~mode () and r = Fixed_hist.create mode in
      let samples = ref [] in
      let agrees () =
        Hist.buckets_list h = Fixed_hist.buckets_list r
        && Hist.n h = r.Fixed_hist.n
        && Hist.sum h = r.Fixed_hist.sum
        && Hist.min_value h = (if r.Fixed_hist.n = 0 then 0 else r.Fixed_hist.min_v)
        && Hist.max_value h = (if r.Fixed_hist.n = 0 then 0 else r.Fixed_hist.max_v)
        && Float.equal (Hist.mean h) (Fixed_hist.mean r)
        && Float.equal (Hist.stddev h) (Fixed_hist.stddev r)
        && List.for_all
             (fun p ->
               Hist.percentile h p = Fixed_hist.percentile r p
               && Hist.percentile_of_samples mode (Array.of_list !samples) p
                  = Hist.percentile h p)
             [ 0.0; 0.01; 0.5; 0.9; 0.99; 0.999; 1.0 ]
      in
      List.for_all
        (fun op ->
          (match op with
          | `Add v ->
              Hist.add h v;
              Fixed_hist.add r v;
              samples := v :: !samples
          | `Merge vs ->
              let src = Hist.create ~mode () and rsrc = Fixed_hist.create mode in
              List.iter (Hist.add src) vs;
              List.iter (Fixed_hist.add rsrc) vs;
              Hist.merge h src;
              Fixed_hist.merge r rsrc;
              samples := vs @ !samples
          | `Clear ->
              Hist.clear h;
              Fixed_hist.clear r;
              samples := []);
          agrees ())
        ops)

(* ---------- JSON-lines codec ---------- *)

let all_kinds =
  [
    E.Span_begin { span = 3; client = 1; server = 7; fn = "tsplit" };
    E.Span_end { span = 3; server = 7; ok = false };
    E.Crash { cid = 7; detector = "cmon:\"hang\"\n" };
    E.Reboot { cid = 7; epoch = 2; image_kb = 128; cost_ns = 13440 };
    E.Divert { cid = 7; victim = 4 };
    E.Upcall { cid = 7; fn = "w_recover\tlocal" };
    E.Reflect { cid = 7; fn = "sched_blk" };
    E.Walk_begin
      { client = 1; server = 7; iface = "fs"; desc = 42; reason = E.Demand };
    E.Walk_end { client = 1; server = 7; ok = true };
    E.Recover_begin { client = 1; server = 7; iface = "fs" };
    E.Recover_end { client = 1; server = 7 };
    E.Storage_op { op = "put_slice"; space = "fs"; id = 366080704 };
    E.Inject { cid = 7; fn = "fs\\read"; reg = "r11"; bit = 31; outcome = "hang" };
    E.Http { cid = 9; path = "/index.html?q=\x01"; status = 404 };
    E.Http_req
      {
        cid = 9;
        client = 712_554;
        arrival_ns = 1_000;
        start_ns = 1_250;
        finish_ns = 63_400;
        status = 200;
        outcome = "ok";
      };
    E.Perturb
      { iface = "lock"; fn = "lock_take"; action = "delay \"x2\"\t\x1f"; in_walk = true };
    E.Note { name = "marker"; data = "a\"b\\c\r\nd" };
  ]

(* the line each [all_kinds] event renders to, with seq = i, at_ns = 17i
   and tid = i mod 3; the codec must never change a byte of them *)
let pinned_lines =
  [
    {|{"seq":0,"at_ns":0,"tid":0,"kind":"span_begin","span":3,"client":1,"server":7,"fn":"tsplit"}|};
    {|{"seq":1,"at_ns":17,"tid":1,"kind":"span_end","span":3,"server":7,"ok":false}|};
    {|{"seq":2,"at_ns":34,"tid":2,"kind":"crash","cid":7,"detector":"cmon:\"hang\"\n"}|};
    {|{"seq":3,"at_ns":51,"tid":0,"kind":"reboot","cid":7,"epoch":2,"image_kb":128,"cost_ns":13440}|};
    {|{"seq":4,"at_ns":68,"tid":1,"kind":"divert","cid":7,"victim":4}|};
    {|{"seq":5,"at_ns":85,"tid":2,"kind":"upcall","cid":7,"fn":"w_recover\tlocal"}|};
    {|{"seq":6,"at_ns":102,"tid":0,"kind":"reflect","cid":7,"fn":"sched_blk"}|};
    {|{"seq":7,"at_ns":119,"tid":1,"kind":"walk_begin","client":1,"server":7,"iface":"fs","desc":42,"reason":"demand"}|};
    {|{"seq":8,"at_ns":136,"tid":2,"kind":"walk_end","client":1,"server":7,"ok":true}|};
    {|{"seq":9,"at_ns":153,"tid":0,"kind":"recover_begin","client":1,"server":7,"iface":"fs"}|};
    {|{"seq":10,"at_ns":170,"tid":1,"kind":"recover_end","client":1,"server":7}|};
    {|{"seq":11,"at_ns":187,"tid":2,"kind":"storage_op","op":"put_slice","space":"fs","id":366080704}|};
    {|{"seq":12,"at_ns":204,"tid":0,"kind":"inject","cid":7,"fn":"fs\\read","reg":"r11","bit":31,"outcome":"hang"}|};
    {|{"seq":13,"at_ns":221,"tid":1,"kind":"http","cid":9,"path":"/index.html?q=\u0001","status":404}|};
    {|{"seq":14,"at_ns":238,"tid":2,"kind":"http_req","cid":9,"client":712554,"arrival_ns":1000,"start_ns":1250,"finish_ns":63400,"status":200,"outcome":"ok"}|};
    {|{"seq":15,"at_ns":255,"tid":0,"kind":"perturb","iface":"lock","fn":"lock_take","action":"delay \"x2\"\t\u001f","in_walk":true}|};
    {|{"seq":16,"at_ns":272,"tid":1,"kind":"note","name":"marker","data":"a\"b\\c\r\nd"}|};
  ]

let pinned_event i kind = { E.seq = i; at_ns = 17 * i; tid = i mod 3; kind }

let test_jsonl_roundtrip () =
  List.iteri
    (fun i kind ->
      let e = pinned_event i kind in
      let line = Jsonl.to_string e in
      Alcotest.(check bool)
        (Printf.sprintf "%s is one line" (E.kind_name kind))
        false
        (String.contains line '\n');
      Alcotest.(check bool)
        (Printf.sprintf "%s round-trips" (E.kind_name kind))
        true
        (Jsonl.of_string line = e))
    all_kinds;
  Alcotest.(check int) "all 17 constructors listed" 17
    (List.length (List.sort_uniq compare (List.map E.kind_name all_kinds)))

let test_jsonl_pinned_lines () =
  Alcotest.(check int) "one pinned line per kind" (List.length all_kinds)
    (List.length pinned_lines);
  List.iteri
    (fun i (kind, line) ->
      Alcotest.(check string)
        (Printf.sprintf "%s renders its pinned line" (E.kind_name kind))
        line
        (Jsonl.to_string (pinned_event i kind));
      let b = Buffer.create 16 in
      Jsonl.add_event b (pinned_event i kind);
      Alcotest.(check string) "add_event writes the same bytes" line (Buffer.contents b))
    (List.combine all_kinds pinned_lines)

let test_jsonl_dump_load () =
  let events = stream (List.map (fun k -> (5, 2, k)) all_kinds) in
  let path = Filename.temp_file "sgobs" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      Jsonl.dump oc events;
      close_out oc;
      let ic = open_in path in
      let back = Jsonl.load ic in
      close_in ic;
      Alcotest.(check bool) "dump/load round-trips" true (back = events))

let test_jsonl_load_names_line () =
  let good =
    Jsonl.to_string { E.seq = 0; at_ns = 0; tid = 1; kind = E.Crash { cid = 7; detector = "t" } }
  in
  let bad = "{\"seq\":1,\"at_ns\":x}" in
  let plain = match Jsonl.of_string bad with _ -> "" | exception Jsonl.Parse_error m -> m in
  let path = Filename.temp_file "sgobs" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc (good ^ "\n\n" ^ bad ^ "\n" ^ good ^ "\n");
      close_out oc;
      let ic = open_in path in
      let got = match Jsonl.load ic with _ -> "" | exception Jsonl.Parse_error m -> m in
      close_in ic;
      Alcotest.(check string) "1-based line number, blank lines counted"
        ("line 3: " ^ plain) got)

let test_jsonl_rejects_garbage () =
  List.iter
    (fun line ->
      let rejected =
        match Jsonl.of_string line with
        | exception Jsonl.Parse_error _ -> true
        | _ -> false
      in
      Alcotest.(check bool) (Printf.sprintf "rejects %S" line) true rejected)
    [
      "";
      "not json";
      "{\"seq\":0}";
      "{\"seq\":0,\"at_ns\":0,\"tid\":0,\"kind\":\"no_such_kind\"}";
      "{\"seq\":0,\"at_ns\":0,\"tid\":0,\"kind\":\"crash\",\"cid\":1";
      "{\"seq\":0,\"at_ns\":0,\"tid\":0,\"kind\":\"crash\",\"detector\":\"x\"}";
      (* beyond int's range, and a sign with no digits *)
      "{\"seq\":99999999999999999999,\"at_ns\":0,\"tid\":0,\"kind\":\"crash\",\"cid\":1,\"detector\":\"x\"}";
      "{\"seq\":-,\"at_ns\":0,\"tid\":0,\"kind\":\"crash\",\"cid\":1,\"detector\":\"x\"}";
    ]

(* ---------- checker: one pass + one rejection per rule ---------- *)

let crash cid = E.Crash { cid; detector = "t" }
let reboot cid = E.Reboot { cid; epoch = 1; image_kb = 64; cost_ns = 5 }
let s_end ?(server = 7) span ok = E.Span_end { span; server; ok }

let test_check_clean_stream () =
  check_rules "fault-free invoke stream" []
    [
      (0, 1, span_begin ~span:1);
      (5, 1, s_end 1 true);
      (9, 1, crash 7);
      (12, 1, reboot 7);
      (20, 1, span_begin ~span:2);
      (25, 1, s_end 2 true);
    ]

let test_check_reordered_reboot () =
  (* the corrupted stream of the acceptance criterion: the reboot record
     displaced past a successful invocation of the still-failed server *)
  check_rules "reordered reboot is rejected" [ "no-success-while-failed" ]
    [
      (0, 1, crash 7);
      (5, 1, span_begin ~span:1);
      (9, 1, s_end 1 true);
      (12, 1, reboot 7);
    ]

let test_check_alternation () =
  check_rules "reboot without crash" [ "crash-reboot-alternation" ]
    [ (0, 1, reboot 7) ];
  check_rules "double crash without reboot" [ "crash-reboot-alternation" ]
    [ (0, 1, crash 7); (5, 1, crash 7); (9, 1, reboot 7) ];
  check_rules "crash/reboot pairs alternate cleanly" []
    [ (0, 1, crash 7); (5, 1, reboot 7); (9, 1, crash 7); (12, 1, reboot 7) ]

let test_check_monotone () =
  let bad =
    [
      { E.seq = 0; at_ns = 50; tid = 1; kind = E.Note { name = "a"; data = "" } };
      { E.seq = 2; at_ns = 40; tid = 1; kind = E.Note { name = "b"; data = "" } };
      { E.seq = 1; at_ns = 60; tid = 1; kind = E.Note { name = "c"; data = "" } };
    ]
  in
  Alcotest.(check (list string))
    "time and seq regressions are both caught" [ "monotone-time" ]
    (rules (Check.run ~completed:true bad))

let test_check_span_nesting () =
  check_rules "end without begin" [ "span-nesting" ] [ (0, 1, s_end 9 true) ];
  check_rules "cross-thread end" [ "span-nesting" ]
    [ (0, 1, span_begin ~span:1); (5, 2, s_end 1 true) ];
  check_rules "non-LIFO ends" [ "span-nesting" ]
    [
      (0, 1, span_begin ~span:1);
      (2, 1, span_begin ~span:2);
      (4, 1, s_end 1 true);
      (6, 1, s_end 2 true);
    ];
  check_rules "properly nested spans pass" []
    [
      (0, 1, span_begin ~span:1);
      (2, 1, span_begin ~span:2);
      (4, 1, s_end 2 true);
      (6, 1, s_end 1 true);
    ]

let divert victim = E.Divert { cid = 7; victim }

let test_check_divert_unwind () =
  (* thread 2 is inside server 7 when it reboots; it must unwind the
     diverted span (faulted) before invoking anything again *)
  let prefix =
    [
      (0, 2, span_begin ~span:1);
      (3, 1, crash 7);
      (5, 1, reboot 7);
      (5, 1, divert 2);
    ]
  in
  check_rules "unwind then replay passes" []
    (prefix @ [ (8, 2, s_end 1 false); (10, 2, span_begin ~span:2); (12, 2, s_end 2 true) ]);
  check_rules "diverted span completing ok is rejected" [ "divert-unwind" ]
    (prefix @ [ (8, 2, s_end 1 true) ]);
  check_rules "replay before the unwind is rejected"
    [ "divert-unwind"; "end-of-stream" ]
    (prefix @ [ (8, 2, span_begin ~span:2); (10, 2, s_end 2 true) ])

let walk ?(reason = E.Demand) () =
  E.Walk_begin { client = 1; server = 7; iface = "fs"; desc = 3; reason }

let walk_end ok = E.Walk_end { client = 1; server = 7; ok }
let rec_begin = E.Recover_begin { client = 1; server = 7; iface = "fs" }
let rec_end = E.Recover_end { client = 1; server = 7 }

let test_check_walk_discipline () =
  check_rules "demand walk outside an episode passes" []
    [ (0, 1, walk ()); (5, 1, walk_end true) ];
  check_rules "interrupted walk restarting passes" []
    [ (0, 1, walk ()); (4, 1, walk_end false); (6, 1, walk ()); (9, 1, walk_end true) ];
  check_rules "eager walk outside an episode is rejected" [ "walk-discipline" ]
    [ (0, 1, walk ~reason:E.Eager ()); (5, 1, walk_end true) ];
  check_rules "demand walk inside an episode is rejected" [ "walk-discipline" ]
    [ (0, 1, rec_begin); (2, 1, walk ()); (5, 1, walk_end true); (7, 1, rec_end) ];
  check_rules "eager episode passes unmoded" []
    [ (0, 1, rec_begin); (2, 1, walk ~reason:E.Eager ()); (5, 1, walk_end true); (7, 1, rec_end) ];
  check_rules ~mode:`Ondemand "T1 mode bans eager episodes" [ "walk-discipline" ]
    [ (0, 1, rec_begin); (2, 1, rec_end) ];
  check_rules "episode end without begin" [ "walk-discipline" ] [ (0, 1, rec_end) ];
  check_rules "mismatched walk end" [ "walk-discipline" ]
    [ (0, 1, walk ()); (5, 1, E.Walk_end { client = 1; server = 8; ok = true }) ]

let inject outcome = E.Inject { cid = 7; fn = "fs_read"; reg = "r4"; bit = 3; outcome }

let test_check_inject_accounting () =
  check_rules "failstop followed by its crash passes" []
    [
      (0, 1, span_begin ~span:1);
      (2, 1, inject "failstop");
      (4, 1, crash 7);
      (6, 1, s_end 1 false);
      (8, 1, reboot 7);
    ];
  check_rules "segfault unwinding the span passes" []
    [ (0, 1, span_begin ~span:1); (2, 1, inject "segfault"); (4, 1, s_end 1 false) ];
  check_rules "undetected needs no detection record" []
    [ (0, 1, span_begin ~span:1); (2, 1, inject "undetected"); (4, 1, s_end 1 true) ];
  check_rules "failstop followed by a clean return is rejected"
    [ "inject-accounting" ]
    [ (0, 1, span_begin ~span:1); (2, 1, inject "failstop"); (4, 1, s_end 1 true) ];
  check_rules "unknown outcome is rejected" [ "inject-accounting" ]
    [ (0, 1, inject "meltdown") ];
  check_rules "activation at end of stream is rejected" [ "end-of-stream" ]
    [ (0, 1, inject "failstop") ]

let test_check_end_of_stream () =
  let open_span = [ (0, 1, span_begin ~span:1) ] in
  check_rules "open span at EOF rejected when completed" [ "end-of-stream" ]
    open_span;
  check_rules ~completed:false "open span tolerated on a prefix" [] open_span;
  check_rules "open walk at EOF rejected" [ "end-of-stream" ] [ (0, 1, walk ()) ];
  check_rules "open episode at EOF rejected" [ "end-of-stream" ]
    [ (0, 1, rec_begin) ]

(* the open obligations are reported in key order whatever the tables'
   order: spans by id, then each tid-keyed category by tid *)
let test_check_end_of_stream_order () =
  let msgs =
    List.map
      (fun v -> v.Check.msg)
      (Check.run ~completed:true
         (stream
            [
              (0, 1, span_begin ~span:5);
              (1, 1, span_begin ~span:2);
              (2, 2, span_begin ~span:9);
              (3, 3, walk ());
              (4, 1, walk ());
              ( 5,
                1,
                E.Walk_begin { client = 2; server = 7; iface = "fs"; desc = 4; reason = E.Demand } );
              (6, 4, rec_begin);
              (7, 2, rec_begin);
            ]))
  in
  Alcotest.(check (list string))
    "spans by id, walks by tid (innermost first), episodes by tid"
    [
      "span 2 (tid 1, server 7) never ended";
      "span 5 (tid 1, server 7) never ended";
      "span 9 (tid 2, server 7) never ended";
      "walk 2->7 (tid 1) never ended";
      "walk 1->7 (tid 1) never ended";
      "walk 1->7 (tid 3) never ended";
      "1 recover-all episode(s) still open on tid 2";
      "1 recover-all episode(s) still open on tid 4";
    ]
    msgs

(* The checker against the reference it replaced ([Check_ref], the
   previous table-per-rule implementation): the same violations, in the
   same order, in every mode, on prefixes and completed streams, over
   well-formed streams and over damaged copies that drive it off its
   common path (dropped and re-threaded events, duplicated span begins,
   a spliced chunk boundary, notes outside any thread) or keep it on
   that path until a diverted span fails to unwind (every faulted span
   end dropped). *)
let damage ~salt events =
  let n = List.length events in
  List.concat
    (List.mapi
       (fun i (e : E.t) ->
         let j = i + salt in
         if j mod 7 = 6 then []
         else
           let e = if j mod 11 = 10 then { e with E.tid = e.E.tid + 1 } else e in
           let dup =
             match e.E.kind with E.Span_begin _ when j mod 3 = 0 -> [ e ] | _ -> []
           in
           let note name = { e with E.tid = -1; kind = E.Note { name; data = "" } } in
           let reboot = if i = n / 2 then [ note "sys-reboot" ] else [] in
           let probe = if j mod 13 = 0 then [ note "probe" ] else [] in
           (e :: dup) @ reboot @ probe)
       events)

(* a -j campaign trace as superglue-campaign --trace writes it *)
let campaign_stream ~iface =
  let out = ref [] and seq = ref 0 and last_at = ref 0 in
  let push ~at_ns ~tid kind =
    out := { E.seq = !seq; at_ns; tid; kind } :: !out;
    incr seq;
    last_at := max !last_at at_ns
  in
  let on_chunk ~seed:_ events =
    if !seq > 0 then
      push ~at_ns:!last_at ~tid:(-1) (E.Note { name = "sys-reboot"; data = "" });
    let base = !last_at in
    List.iter
      (fun (e : E.t) -> push ~at_ns:(base + e.E.at_ns) ~tid:e.E.tid e.E.kind)
      events
  in
  ignore
    (Sg_swifi.Pardriver.run ~seed:9 ~cmon_period_ns:5_000 ~on_chunk ~jobs:1
       ~mode:Superglue.Stubset.mode ~iface ~injections:300 ());
  List.rev !out

let test_check_differential () =
  let streams = ref [] in
  let unwound (e : E.t) =
    match e.E.kind with E.Span_end { ok = false; _ } -> false | _ -> true
  in
  let add s =
    streams :=
      s :: damage ~salt:(List.length !streams) s :: List.filter unwound s
      :: !streams
  in
  for seed = 1 to 2000 do
    match (Sg_dst.Dst.run_seed seed).Sg_dst.Dst.rr_result with
    | Ok o -> add o.Sg_dst.Exec.oc_stream
    | Error msg -> Alcotest.failf "seed %d: %s" seed msg
  done;
  add (campaign_stream ~iface:"evt");
  (match
     Sg_components.Workloads.run_storm
       (Sg_components.Sysbuild.build ~seed:42 Superglue.Stubset.mode)
       ~iface:"lock" ~iters:30 ~every:(Some 7) ~detector:"sgtrace-storm"
   with
  | Ok events -> add events
  | Error msg -> Alcotest.failf "lock storm: %s" msg);
  let mismatches = ref 0 and violations = ref 0 and runs = ref 0 in
  List.iter
    (fun s ->
      List.iter
        (fun mode ->
          List.iter
            (fun completed ->
              let got =
                List.map
                  (fun v -> (v.Check.at_seq, v.Check.rule, v.Check.msg))
                  (Check.run ?mode ~completed s)
              and want =
                List.map
                  (fun v -> (v.Check_ref.at_seq, v.Check_ref.rule, v.Check_ref.msg))
                  (Check_ref.run ?mode ~completed s)
              in
              incr runs;
              violations := !violations + List.length want;
              if got <> want then incr mismatches)
            [ false; true ])
        [ None; Some `Ondemand; Some `Eager ])
    !streams;
  Alcotest.(check int) "streams" 6006 (List.length !streams);
  Alcotest.(check int) "runs" (6006 * 6) !runs;
  Alcotest.(check bool) "the damaged copies violate" true (!violations > 100_000);
  Alcotest.(check int) "mismatches" 0 !mismatches

(* ---------- metrics fold ---------- *)

let test_metrics_fold () =
  let m = Metrics.create () in
  let events =
    stream
      [
        (0, 1, span_begin ~span:1);
        (10, 1, s_end 1 true);
        (12, 1, crash 7);
        (20, 1, reboot 7);
        (21, 1, divert 2);
        (22, 1, E.Upcall { cid = 7; fn = "w_recover" });
        (24, 1, walk ());
        (30, 1, walk_end true);
        (32, 1, E.Storage_op { op = "slices"; space = "fs"; id = 1 });
        (40, 1, span_begin ~span:2);
        (45, 1, s_end 2 false);
        (50, 1, span_begin ~span:3);
        (60, 1, s_end 3 true);
        (61, 1, inject "hang");
        (62, 1, E.Http { cid = 9; path = "/"; status = 200 });
        (63, 1, E.Http { cid = 9; path = "/nope"; status = 404 });
        ( 64,
          1,
          E.Perturb
            { iface = "fs"; fn = "twrite"; action = "corrupt:data";
              in_walk = false } );
        ( 65,
          1,
          E.Perturb
            { iface = "fs"; fn = "tsplit"; action = "corrupt:name";
              in_walk = true } );
      ]
  in
  List.iter (Metrics.feed m) events;
  let s = Metrics.summary events in
  Alcotest.(check int) "invocations" 3 (Metrics.invocations m);
  Alcotest.(check int) "spans ok" 2 s.Metrics.spans_ok;
  Alcotest.(check int) "spans faulted" 1 s.Metrics.spans_fault;
  Alcotest.(check int) "crashes" 1 s.Metrics.crashes;
  Alcotest.(check int) "reboots" 1 (Metrics.reboots m);
  Alcotest.(check int) "reboot cost total" 5 s.Metrics.reboot_ns;
  Alcotest.(check int) "diverts" 1 s.Metrics.diverts;
  Alcotest.(check int) "upcalls" 1 s.Metrics.upcalls;
  Alcotest.(check int) "walks" 1 (Metrics.walks m);
  Alcotest.(check int) "walks by client" 1 (Metrics.walks ~client:1 m);
  Alcotest.(check int) "no walks by another client" 0 (Metrics.walks ~client:7 m);
  Alcotest.(check int) "storage ops" 1 s.Metrics.storage_ops;
  Alcotest.(check int) "injections" 1 (Metrics.injections m);
  Alcotest.(check int) "hang outcomes" 1 (Metrics.outcome_count m "hang");
  Alcotest.(check int) "http requests" 2 s.Metrics.http_requests;
  Alcotest.(check int) "http errors" 1 s.Metrics.http_errors;
  Alcotest.(check int) "perturbations" 2 s.Metrics.perturbs;
  Alcotest.(check int) "in-walk perturbations" 1 s.Metrics.perturbs_in_walk;
  (* the summary's own fold counts what the live one does *)
  let sm = s.Metrics.metrics in
  Alcotest.(check (list int)) "summary fold = live fold"
    [ Metrics.invocations m; Metrics.reboots m; Metrics.walks m;
      Metrics.injections m; Metrics.outcome_count m "hang" ]
    [ Metrics.invocations sm; Metrics.reboots sm; Metrics.walks sm;
      Metrics.injections sm; Metrics.outcome_count sm "hang" ];
  (let summary = Format.asprintf "%a" Metrics.pp_summary events in
   let has needle =
     let nl = String.length needle and sl = String.length summary in
     let rec go i = i + nl <= sl && (String.sub summary i nl = needle || go (i + 1)) in
     go 0
   in
   Alcotest.(check bool)
     "summary counts walk-time perturbations" true
     (has "perturbations      2 (1 during walks)"));
  Alcotest.(check int) "span latencies recorded" 2 (Hist.n s.Metrics.span_hist);
  Alcotest.(check int) "walk latency 6 ns" 6 (Hist.sum s.Metrics.walk_hist);
  (* the first ok span end after the reboot: 60 - 20 = 40 ns... except
     span 1 ended before the reboot, so the first is span 3 at 60 ns *)
  Alcotest.(check int) "first-access latency" 40
    (Hist.sum (Metrics.first_access_hist m));
  Alcotest.(check int) "summary first-access latency" 40
    (Hist.sum (Metrics.first_access_hist sm))

(* The span half of the counter fold and of [Metrics.summary] against
   a reference model of both: a generic [Hashtbl] of open spans where a
   duplicate begin replaces the time and an end without a begin is
   ignored, counters per server, and the first successful span end
   after a reboot. Streams mix duplicate begins, ends without begins,
   interleaved threads, negative ids, many spans open at once, and chunk
   restarts (span ids counting from 1 again under spans still open). *)
type span_op =
  | Op_begin of int * int * int  (* span, tid, server *)
  | Op_next of int * int  (* the chunk's next span id, on tid into server *)
  | Op_end of int * int * int * bool  (* span, tid, server, ok *)
  | Op_reboot of int
  | Op_restart

let gen_span_op =
  let open QCheck.Gen in
  let span =
    frequency
      [
        (4, int_range 0 15);
        (2, int_range 0 400);
        (1, int_range (-20) (-1));
      ]
  and tid = int_range 1 4
  and server = int_range 1 5 in
  frequency
    [
      (4, map3 (fun sp t sv -> Op_begin (sp, t, sv)) span tid server);
      (4, map2 (fun t sv -> Op_next (t, sv)) tid server);
      ( 5,
        map3
          (fun (sp, t) sv ok -> Op_end (sp, t, sv, ok))
          (pair span tid) server bool );
      (1, map (fun c -> Op_reboot c) server);
      (1, return Op_restart);
    ]

let stream_of_ops ops =
  let next = ref 0 and at = ref 0 in
  stream
    (List.map
       (fun op ->
         at := !at + 1 + (!at * 7 mod 13);
         let kind, tid =
           match op with
           | Op_begin (span, tid, server) ->
               (E.Span_begin { span; client = 1; server; fn = "f" }, tid)
           | Op_next (tid, server) ->
               incr next;
               (E.Span_begin { span = !next; client = 1; server; fn = "f" }, tid)
           | Op_end (span, tid, server, ok) -> (E.Span_end { span; server; ok }, tid)
           | Op_reboot cid ->
               (E.Reboot { cid; epoch = 1; image_kb = 1; cost_ns = 3 }, 0)
           | Op_restart ->
               next := 0;
               (E.Note { name = "sys-reboot"; data = "" }, 0)
         in
         (!at, tid, kind))
       ops)

(* the fold as a plain reference: (invocations, ok, faulted, span
   histogram, first-access histogram) *)
let reference_span_fold events =
  let open_spans = Hashtbl.create 16 and pending = Hashtbl.create 4 in
  let invocations = ref 0 and ok_n = ref 0 and fault_n = ref 0 in
  let spans = Hist.create () and first = Hist.create () in
  List.iter
    (fun (e : E.t) ->
      match e.kind with
      | E.Span_begin { span; _ } ->
          incr invocations;
          Hashtbl.replace open_spans span e.at_ns
      | E.Span_end { span; server; ok } ->
          (match Hashtbl.find_opt open_spans span with
          | Some t0 ->
              Hashtbl.remove open_spans span;
              if ok then Hist.add spans (e.at_ns - t0)
          | None -> ());
          if ok then begin
            incr ok_n;
            match Hashtbl.find_opt pending server with
            | Some r ->
                Hashtbl.remove pending server;
                Hist.add first (e.at_ns - r)
            | None -> ()
          end
          else incr fault_n
      | E.Reboot { cid; _ } -> Hashtbl.replace pending cid e.at_ns
      | _ -> ())
    events;
  (!invocations, !ok_n, !fault_n, spans, first)

let hist_view h = (Hist.n h, Hist.sum h, Hist.min_value h, Hist.max_value h, Hist.buckets_list h)

let prop_metrics_span_map =
  QCheck.Test.make ~count:500 ~name:"span map folds like the reference model"
    (QCheck.make QCheck.Gen.(list_size (int_range 0 600) gen_span_op))
    (fun ops ->
      let events = stream_of_ops ops in
      let m = Metrics.create () in
      List.iter (Metrics.feed m) events;
      let s = Metrics.summary events in
      let invocations, ok_n, fault_n, spans, first = reference_span_fold events in
      Metrics.invocations m = invocations
      && s.Metrics.spans_ok = ok_n
      && s.Metrics.spans_fault = fault_n
      && hist_view s.Metrics.span_hist = hist_view spans
      && hist_view (Metrics.first_access_hist m) = hist_view first
      && hist_view (Metrics.first_access_hist s.Metrics.metrics) = hist_view first)

let wbegin client server =
  E.Walk_begin { client; server; iface = "fs"; desc = 1; reason = E.Demand }

let wend ?(ok = true) client server = E.Walk_end { client; server; ok }

let test_metrics_walk_pairing () =
  (* two walks of different client/server pairs overlapping on one
     thread: ends must pair with their own begins. A blind LIFO pop
     would cross them and record durations {20, 40}; correct pairing
     records {30, 30}. *)
  let walks =
    (Metrics.summary
       (stream
          [
            (0, 1, wbegin 1 7);
            (10, 1, wbegin 2 8);
            (30, 1, wend 1 7);
            (40, 1, wend 2 8);
          ]))
      .Metrics.walk_hist
  in
  Alcotest.(check int) "both walks recorded" 2 (Hist.n walks);
  Alcotest.(check int) "durations not crossed (max)" 30 (Hist.max_value walks);
  Alcotest.(check int) "durations not crossed (min)" 30 (Hist.min_value walks)

let test_metrics_walk_interrupted () =
  (* an interrupted walk pops its begin without recording, and must not
     shift the pairing of the retry or of an enclosing walk *)
  let walks =
    (Metrics.summary
       (stream
          [
            (0, 1, wbegin 3 9);
            (* outer walk, still open *)
            (2, 1, wbegin 1 7);
            (5, 1, wend ~ok:false 1 7);
            (* interrupted: no sample *)
            (6, 1, wbegin 1 7);
            (9, 1, wend 1 7);
            (* retry: 3 ns *)
            (20, 1, wend 3 9);
            (* outer: 20 ns *)
          ]))
      .Metrics.walk_hist
  in
  Alcotest.(check int) "interrupted walk drops its sample" 2 (Hist.n walks);
  Alcotest.(check int) "retry measured from its own begin" 3
    (Hist.min_value walks);
  Alcotest.(check int) "outer walk unaffected" 20 (Hist.max_value walks);
  (* an end with no matching open walk is ignored *)
  let unmatched = Metrics.summary (stream [ (5, 1, wend 4 4) ]) in
  Alcotest.(check int) "unmatched end ignored" 0
    (Hist.n unmatched.Metrics.walk_hist)

(* ---------- JSON-lines round-trip property ---------- *)

(* strings exercising quotes, backslashes, newlines and control bytes *)
let gen_str =
  QCheck.Gen.(string_size ~gen:(map Char.chr (int_range 1 126)) (int_range 0 12))

let gen_reason = QCheck.Gen.oneofl [ E.Demand; E.Eager; E.Dep; E.Upcall_driven ]

let gen_kind =
  let open QCheck.Gen in
  let i = small_nat in
  oneof
    [
      map
        (fun (span, client, server, fn) -> E.Span_begin { span; client; server; fn })
        (quad i i i gen_str);
      map
        (fun (span, server, ok) -> E.Span_end { span; server; ok })
        (triple i i bool);
      map (fun (cid, detector) -> E.Crash { cid; detector }) (pair i gen_str);
      map
        (fun (cid, epoch, image_kb, cost_ns) ->
          E.Reboot { cid; epoch; image_kb; cost_ns })
        (quad i i i i);
      map (fun (cid, victim) -> E.Divert { cid; victim }) (pair i i);
      map (fun (cid, fn) -> E.Upcall { cid; fn }) (pair i gen_str);
      map (fun (cid, fn) -> E.Reflect { cid; fn }) (pair i gen_str);
      map
        (fun (client, server, (iface, desc, reason)) ->
          E.Walk_begin { client; server; iface; desc; reason })
        (triple i i (triple gen_str i gen_reason));
      map
        (fun (client, server, ok) -> E.Walk_end { client; server; ok })
        (triple i i bool);
      map
        (fun (client, server, iface) -> E.Recover_begin { client; server; iface })
        (triple i i gen_str);
      map (fun (client, server) -> E.Recover_end { client; server }) (pair i i);
      map
        (fun (op, space, id) -> E.Storage_op { op; space; id })
        (triple gen_str gen_str i);
      map
        (fun (cid, fn, (reg, bit, outcome)) -> E.Inject { cid; fn; reg; bit; outcome })
        (triple i gen_str (triple gen_str i gen_str));
      map
        (fun (cid, path, status) -> E.Http { cid; path; status })
        (triple i gen_str i);
      map
        (fun ((cid, client, arrival_ns), (start_ns, finish_ns, status), outcome)
           ->
          E.Http_req
            { cid; client; arrival_ns; start_ns; finish_ns; status; outcome })
        (triple (triple i i i) (triple i i i) gen_str);
      map
        (fun (iface, fn, (action, in_walk)) ->
          E.Perturb { iface; fn; action; in_walk })
        (triple gen_str gen_str (pair gen_str bool));
      map (fun (name, data) -> E.Note { name; data }) (pair gen_str gen_str);
    ]

let gen_event =
  QCheck.Gen.(
    map
      (fun (seq, at_ns, tid, kind) -> { E.seq; at_ns; tid; kind })
      (quad small_nat small_nat small_nat gen_kind))

let prop_jsonl_roundtrip =
  QCheck.Test.make ~count:2000 ~name:"jsonl round-trip is identity"
    (QCheck.make ~print:(Format.asprintf "%a" E.pp) gen_event)
    (fun e ->
      let line = Jsonl.to_string e in
      (not (String.contains line '\n')) && Jsonl.of_string line = e)

(* every constructor must actually be emitted by the generator *)
let prop_jsonl_covers_all_kinds () =
  let seen = Hashtbl.create 16 in
  let st = Random.State.make [| 7 |] in
  for _ = 1 to 3000 do
    Hashtbl.replace seen (E.kind_name (gen_kind st)) ()
  done;
  Alcotest.(check int) "all 17 constructors generated" 17 (Hashtbl.length seen)

(* The members of a rendered line, as raw ["key":value] texts: split at
   the commas outside strings. *)
let members line =
  let body = String.sub line 1 (String.length line - 2) in
  let parts = ref [] and start = ref 0 and in_str = ref false and esc = ref false in
  String.iteri
    (fun i c ->
      if !esc then esc := false
      else if c = '\\' then esc := !in_str
      else if c = '"' then in_str := not !in_str
      else if c = ',' && not !in_str then begin
        parts := String.sub body !start (i - !start) :: !parts;
        start := i + 1
      end)
    body;
  List.rev (String.sub body !start (String.length body - !start) :: !parts)

let gen_ws = QCheck.Gen.(string_size ~gen:(oneofl [ ' '; '\t' ]) (int_range 0 2))

let gen_json_value =
  QCheck.Gen.(
    oneof
      [
        map (fun s -> "\"" ^ Jsonl.escape s ^ "\"") gen_str;
        map string_of_int int;
        map string_of_bool bool;
      ])

(* Edits that keep a line's meaning: members shuffled, an unknown field
   and a later duplicate of some key spliced in, and spaces or tabs
   around every token. *)
let gen_tolerated =
  let open QCheck.Gen in
  gen_event >>= fun e ->
  let ms = members (Jsonl.to_string e) in
  let n = List.length ms in
  shuffle_l ms >>= fun ms ->
  int_bound n >>= fun extra_at ->
  gen_json_value >>= fun extra ->
  int_bound (n - 1) >>= fun dup_of ->
  gen_json_value >>= fun dup_value ->
  let dup_key = List.hd (String.split_on_char ':' (List.nth ms dup_of)) in
  let ms =
    List.concat
      (List.mapi
         (fun i m ->
           (if i = extra_at then [ "\"x_unknown\":" ^ extra ] else [])
           @ (m :: (if i = dup_of then [ dup_key ^ ":" ^ dup_value ] else [])))
         ms)
    @ if extra_at = n then [ "\"x_unknown\":" ^ extra ] else []
  in
  let spaced m =
    let i = String.index m ':' in
    map
      (fun (a, b, c, d) ->
        a ^ String.sub m 0 i ^ b ^ ":" ^ c
        ^ String.sub m (i + 1) (String.length m - i - 1)
        ^ d)
      (quad gen_ws gen_ws gen_ws gen_ws)
  in
  flatten_l (List.map spaced ms) >>= fun ms ->
  pair gen_ws gen_ws >>= fun (lead, trail) ->
  let line = lead ^ "{" ^ String.concat "," ms ^ "}" ^ trail in
  return (e, line)

let prop_jsonl_tolerates =
  QCheck.Test.make ~count:2000
    ~name:"jsonl reads reordered, spaced, extended and duplicated fields"
    (QCheck.make ~print:(fun (_, l) -> l) gen_tolerated)
    (fun (e, line) -> Jsonl.of_string line = e)

(* Damage that may change a line's meaning: a truncation or one byte
   replaced. Parsing yields an event or Parse_error, nothing else. *)
let gen_damaged =
  let open QCheck.Gen in
  gen_event >>= fun e ->
  let line = Jsonl.to_string e in
  let n = String.length line in
  int_bound (n - 1) >>= fun at ->
  oneof
    [
      return (String.sub line 0 at);
      map
        (fun c -> String.mapi (fun i b -> if i = at then c else b) line)
        (oneof [ oneofl (List.of_seq (String.to_seq "{}\":,\\-0u_ tf")); char ]);
    ]

let prop_jsonl_total =
  QCheck.Test.make ~count:3000 ~name:"jsonl parse is total on damaged lines"
    (QCheck.make ~print:(Printf.sprintf "%S") gen_damaged)
    (fun line ->
      match Jsonl.of_string line with
      | _ -> true
      | exception Jsonl.Parse_error _ -> true)

(* The scanner [Jsonl.of_string] replaced: a fresh slot array per line,
   numbers read in two passes, whitespace skipped through a call at
   every token. The differential property below holds the new scanner
   to its results and its [Parse_error] messages. *)
module Ref_jsonl = struct
  type key = { name : string; slot : int }

  let keys = ref []

  let key name =
    let k = { name; slot = List.length !keys } in
    keys := k :: !keys;
    k

  let k_seq = key "seq"
  let k_at_ns = key "at_ns"
  let k_tid = key "tid"
  let k_kind = key "kind"
  let k_span = key "span"
  let k_client = key "client"
  let k_server = key "server"
  let k_fn = key "fn"
  let k_ok = key "ok"
  let k_cid = key "cid"
  let k_detector = key "detector"
  let k_epoch = key "epoch"
  let k_image_kb = key "image_kb"
  let k_cost_ns = key "cost_ns"
  let k_victim = key "victim"
  let k_iface = key "iface"
  let k_desc = key "desc"
  let k_reason = key "reason"
  let k_op = key "op"
  let k_space = key "space"
  let k_id = key "id"
  let k_reg = key "reg"
  let k_bit = key "bit"
  let k_outcome = key "outcome"
  let k_path = key "path"
  let k_status = key "status"
  let k_arrival_ns = key "arrival_ns"
  let k_start_ns = key "start_ns"
  let k_finish_ns = key "finish_ns"
  let k_action = key "action"
  let k_in_walk = key "in_walk"
  let k_name = key "name"
  let k_data = key "data"
  let n_slots = List.length !keys

  let by_first =
    let t = Array.make 256 [] in
    List.iter
      (fun k ->
        let c = Char.code k.name.[0] in
        t.(c) <- k :: t.(c))
      !keys;
    t

  let fail = Sg_util.Json.fail

  let rec skip_ws line n i =
    if i < n && (match String.unsafe_get line i with ' ' | '\t' -> true | _ -> false)
    then skip_ws line n (i + 1)
    else i

  let hex_value = function
    | '0' .. '9' as c -> Char.code c - Char.code '0'
    | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
    | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
    | _ -> -1

  (* The code of the four bytes after a \u at [i], read as
     [int_of_string ("0x" ^ hex)] reads them: a hex digit, then hex
     digits or '_'. *)
  let u_escape line i =
    let rec go code j =
      if j = 4 then code
      else
        match line.[i + j] with
        | '_' when j > 0 -> go code (j + 1)
        | c ->
            let d = hex_value c in
            if d < 0 then fail "bad \\u escape %s" (String.sub line i 4);
            go ((code * 16) + d) (j + 1)
    in
    go 0 0

  (* the index just past the escape whose backslash is at [j] *)
  let skip_escape line n j =
    let j = j + 1 in
    if j >= n then fail "dangling escape in %s" line;
    match String.unsafe_get line j with
    | '"' | '\\' | '/' | 'n' | 'r' | 't' -> j + 1
    | 'u' ->
        if j + 4 >= n then fail "short \\u escape in %s" line;
        ignore (u_escape line (j + 1));
        j + 5
    | c -> fail "bad escape \\%c in %s" c line

  (* Checks the body of a string that starts at [i], just past its
     opening quote. Returns the index of the closing quote, or [-q - 1]
     for a closing quote at [q] when the body holds an escape. *)
  let rec string_end line n i escaped =
    if i >= n then fail "unterminated string in %s" line
    else
      match String.unsafe_get line i with
      | '"' -> if escaped then -i - 1 else i
      | '\\' -> string_end line n (skip_escape line n i) true
      | _ -> string_end line n (i + 1) escaped

  let close_quote e = if e >= 0 then e else -e - 1

  (* the body [i, stop) of a string [string_end] has checked, unescaped *)
  let unescape line i stop =
    let b = Buffer.create (stop - i) in
    let rec go j =
      if j < stop then
        match line.[j] with
        | '\\' -> (
            match line.[j + 1] with
            | 'n' ->
                Buffer.add_char b '\n';
                go (j + 2)
            | 'r' ->
                Buffer.add_char b '\r';
                go (j + 2)
            | 't' ->
                Buffer.add_char b '\t';
                go (j + 2)
            | 'u' ->
                (* emitted escapes are all < 0x20; keep it byte-sized *)
                Buffer.add_char b (Char.chr (u_escape line (j + 2) land 0xff));
                go (j + 6)
            | c ->
                Buffer.add_char b c;
                go (j + 2))
        | c ->
            Buffer.add_char b c;
            go (j + 1)
    in
    go i;
    Buffer.contents b

  (* whether [line] holds [lit] from [i] on *)
  let rec spells line i lit j =
    j = String.length lit
    || (String.unsafe_get line (i + j) = String.unsafe_get lit j && spells line i lit (j + 1))

  let has_lit line n i lit = i + String.length lit <= n && spells line i lit 0

  let rec find_slot line i len = function
    | [] -> -1
    | k :: rest ->
        if String.length k.name = len && spells line i k.name 0 then k.slot
        else find_slot line i len rest

  (* the slot of the key spelled by the [len] bytes at [i], or -1 *)
  let slot_at line i len =
    if len = 0 then -1 else find_slot line i len by_first.(Char.code (String.unsafe_get line i))

  let rec digits_end line n i =
    if i < n && (match String.unsafe_get line i with '0' .. '9' -> true | _ -> false)
    then digits_end line n (i + 1)
    else i

  let neg_limit = min_int / 10

  (* Minus the value of the digits in [i, j) of the number at [at].
     Counting down reaches [min_int], so this rejects what
     [int_of_string] rejects. *)
  let rec neg_digits line at i j acc =
    if i = j then acc
    else
      let d = Char.code (String.unsafe_get line i) - Char.code '0' in
      if acc < neg_limit || acc * 10 < min_int + d then
        fail "number out of range at %d in %s" at line;
      neg_digits line at (i + 1) j ((acc * 10) - d)

  (* The parser's slots: [pos.(2s)] is where the first value of the key
     with slot [s] starts, -1 if none; [pos.(2s + 1)] is that value when it
     is an int, and [string_end]'s result when it is a string (a bool is
     read off its first byte). A later duplicate of a key is checked but
     not kept. *)
  type slots = { line : string; pos : int array }

  let store pos slot at v =
    if slot >= 0 && pos.(2 * slot) < 0 then begin
      pos.(2 * slot) <- at;
      pos.((2 * slot) + 1) <- v
    end

  (* parse the value at [i] into [slot]; returns the index past it *)
  let value line n pos slot i =
    if i >= n then fail "bad value at %d in %s" i line;
    match String.unsafe_get line i with
    | '"' ->
        let e = string_end line n (i + 1) false in
        store pos slot i e;
        close_quote e + 1
    | 't' ->
        if has_lit line n i "true" then begin
          store pos slot i 0;
          i + 4
        end
        else fail "bad literal at %d in %s" i line
    | 'f' ->
        if has_lit line n i "false" then begin
          store pos slot i 0;
          i + 5
        end
        else fail "bad literal at %d in %s" i line
    | ('-' | '0' .. '9') as c ->
        let first = if c = '-' then i + 1 else i in
        let j = digits_end line n first in
        if j = first then fail "bad number at %d in %s" i line;
        let neg = neg_digits line i first j 0 in
        if c <> '-' && neg = min_int then fail "number out of range at %d in %s" i line;
        store pos slot i (if c = '-' then neg else -neg);
        j
    | _ -> fail "bad value at %d in %s" i line

  let expect line n c i =
    let i = skip_ws line n i in
    if i >= n || String.unsafe_get line i <> c then fail "expected %C at %d in %s" c i line;
    i + 1

  (* the members after '{' up to and including the closing '}' *)
  let rec members line n pos i =
    let i = expect line n '"' i in
    let e = string_end line n i false in
    let slot =
      if e >= 0 then slot_at line i (e - i)
      else
        let k = unescape line i (-e - 1) in
        slot_at k 0 (String.length k)
    in
    let i = expect line n ':' (close_quote e + 1) in
    let i = skip_ws line n (value line n pos slot (skip_ws line n i)) in
    if i < n && String.unsafe_get line i = ',' then members line n pos (i + 1)
    else if i < n && String.unsafe_get line i = '}' then i + 1
    else fail "expected ',' or '}' at %d in %s" i line

  let scan line =
    let n = String.length line in
    let pos = Array.make (2 * n_slots) (-1) in
    let i = skip_ws line n (expect line n '{' 0) in
    let i = if i < n && String.unsafe_get line i = '}' then i + 1 else members line n pos i in
    let i = skip_ws line n i in
    if i <> n then fail "trailing bytes at %d in %s" i line;
    { line; pos }

  let start s k =
    let p = s.pos.(2 * k.slot) in
    if p < 0 then fail "missing field %s" k.name else p

  let int_f s k =
    match String.unsafe_get s.line (start s k) with
    | '-' | '0' .. '9' -> s.pos.((2 * k.slot) + 1)
    | _ -> fail "field %s: expected int" k.name

  let str_f s k =
    let p = start s k in
    if String.unsafe_get s.line p <> '"' then fail "field %s: expected string" k.name
    else
      let e = s.pos.((2 * k.slot) + 1) in
      if e >= 0 then String.sub s.line (p + 1) (e - p - 1)
      else unescape s.line (p + 1) (-e - 1)

  let bool_f s k =
    match String.unsafe_get s.line (start s k) with
    | 't' -> true
    | 'f' -> false
    | _ -> fail "field %s: expected bool" k.name

  let of_string line =
    let f = scan line in
    let kind =
      match str_f f k_kind with
      | "span_begin" ->
          E.Span_begin
            {
              span = int_f f k_span;
              client = int_f f k_client;
              server = int_f f k_server;
              fn = str_f f k_fn;
            }
      | "span_end" ->
          E.Span_end
            { span = int_f f k_span; server = int_f f k_server; ok = bool_f f k_ok }
      | "crash" -> E.Crash { cid = int_f f k_cid; detector = str_f f k_detector }
      | "reboot" ->
          E.Reboot
            {
              cid = int_f f k_cid;
              epoch = int_f f k_epoch;
              image_kb = int_f f k_image_kb;
              cost_ns = int_f f k_cost_ns;
            }
      | "divert" -> E.Divert { cid = int_f f k_cid; victim = int_f f k_victim }
      | "upcall" -> E.Upcall { cid = int_f f k_cid; fn = str_f f k_fn }
      | "reflect" -> E.Reflect { cid = int_f f k_cid; fn = str_f f k_fn }
      | "walk_begin" ->
          let reason_s = str_f f k_reason in
          let reason =
            match E.reason_of_string reason_s with
            | Some r -> r
            | None -> fail "unknown walk reason %s" reason_s
          in
          E.Walk_begin
            {
              client = int_f f k_client;
              server = int_f f k_server;
              iface = str_f f k_iface;
              desc = int_f f k_desc;
              reason;
            }
      | "walk_end" ->
          E.Walk_end
            { client = int_f f k_client; server = int_f f k_server; ok = bool_f f k_ok }
      | "recover_begin" ->
          E.Recover_begin
            {
              client = int_f f k_client;
              server = int_f f k_server;
              iface = str_f f k_iface;
            }
      | "recover_end" ->
          E.Recover_end { client = int_f f k_client; server = int_f f k_server }
      | "storage_op" ->
          E.Storage_op
            { op = str_f f k_op; space = str_f f k_space; id = int_f f k_id }
      | "inject" ->
          E.Inject
            {
              cid = int_f f k_cid;
              fn = str_f f k_fn;
              reg = str_f f k_reg;
              bit = int_f f k_bit;
              outcome = str_f f k_outcome;
            }
      | "http" ->
          E.Http
            { cid = int_f f k_cid; path = str_f f k_path; status = int_f f k_status }
      | "http_req" ->
          E.Http_req
            {
              cid = int_f f k_cid;
              client = int_f f k_client;
              arrival_ns = int_f f k_arrival_ns;
              start_ns = int_f f k_start_ns;
              finish_ns = int_f f k_finish_ns;
              status = int_f f k_status;
              outcome = str_f f k_outcome;
            }
      | "perturb" ->
          E.Perturb
            {
              iface = str_f f k_iface;
              fn = str_f f k_fn;
              action = str_f f k_action;
              in_walk = bool_f f k_in_walk;
            }
      | "note" -> E.Note { name = str_f f k_name; data = str_f f k_data }
      | k -> fail "unknown event kind %s" k
    in
    { E.seq = int_f f k_seq; at_ns = int_f f k_at_ns; tid = int_f f k_tid; kind }
end

(* A value that tests the number reader's edges, for an int field. *)
let gen_edge_number =
  QCheck.Gen.oneofl
    [
      string_of_int max_int;
      string_of_int min_int;
      "4611686018427387904";
      "-4611686018427387905";
      "99999999999999999999";
      "-0";
      "007";
      "-";
      "- 1";
      "1-";
      "12a";
      "";
    ]

(* One key of a member rewritten with a \u escape, e.g. "s\u0065q". *)
let escape_key m =
  let open QCheck.Gen in
  let q = String.index_from m 1 '"' in
  if q <= 1 then return m
  else
    map
      (fun (j, upper) ->
        let c = m.[1 + j] in
        String.sub m 0 (1 + j)
        ^ Printf.sprintf (if upper then "\\u%04X" else "\\u%04x") (Char.code c)
        ^ String.sub m (2 + j) (String.length m - 2 - j))
      (pair (int_bound (q - 2)) bool)

(* Lines for the differential property: tolerated lines with escaped
   and over-long unknown keys, lines with an edge number in one int
   field, and the damaged lines of [gen_damaged]. *)
let gen_diff_line =
  let open QCheck.Gen in
  let escaped =
    gen_tolerated >>= fun (_, line) ->
    let ms = members (String.trim line) in
    flatten_l
      (List.map (fun m -> frequency [ (2, return m); (1, escape_key (String.trim m)) ]) ms)
    >>= fun ms ->
    oneofl [ []; [ "\"x_unknown_key_longer_than_any\":1" ] ] >>= fun extra ->
    return ("{" ^ String.concat "," (ms @ extra) ^ "}")
  in
  let edge_number =
    gen_event >>= fun e ->
    let ms = Array.of_list (members (Jsonl.to_string e)) in
    int_bound (Array.length ms - 1) >>= fun i ->
    gen_edge_number >>= fun v ->
    let m = ms.(i) in
    let c = String.index m ':' in
    if c + 1 < String.length m && m.[c + 1] <> '"' then ms.(i) <- String.sub m 0 (c + 1) ^ v;
    return ("{" ^ String.concat "," (Array.to_list ms) ^ "}")
  in
  (* a rendered line with one member dropped, duplicated, renamed,
     swapped with its neighbour, or spaced around its colon: each edit
     makes the scanner leave its predicted keys at that member *)
  let one_off =
    gen_event >>= fun e ->
    let ms = Array.of_list (members (Jsonl.to_string e)) in
    let n = Array.length ms in
    int_bound (n - 1) >>= fun i ->
    let m = ms.(i) in
    let c = String.index m ':' in
    let key = String.sub m 0 c and rest = String.sub m (c + 1) (String.length m - c - 1) in
    let replaced by =
      Array.to_list (Array.sub ms 0 i) @ by @ Array.to_list (Array.sub ms (i + 1) (n - i - 1))
    in
    let swapped =
      let a = Array.copy ms and j = if i + 1 < n then i else i - 1 in
      a.(j) <- ms.(j + 1);
      a.(j + 1) <- ms.(j);
      Array.to_list a
    in
    let names = "kin" :: "kindx" :: List.map (fun k -> k.Ref_jsonl.name) !Ref_jsonl.keys in
    oneof
      [
        return (replaced []);
        map (fun v -> replaced [ m; key ^ ":" ^ v ]) gen_json_value;
        map (fun name -> replaced [ "\"" ^ name ^ "\":" ^ rest ]) (oneofl names);
        return swapped;
        map (fun colon -> replaced [ key ^ colon ^ rest ]) (oneofl [ " :"; ": " ]);
      ]
    >>= fun ms -> return ("{" ^ String.concat "," ms ^ "}")
  in
  frequency
    [
      (3, escaped);
      (2, edge_number);
      (3, gen_damaged);
      (1, map snd gen_tolerated);
      (3, one_off);
    ]

let parse_outcome of_string line =
  match of_string line with
  | e -> Ok e
  | exception Jsonl.Parse_error msg -> Error msg

let prop_jsonl_matches_reference =
  QCheck.Test.make ~count:4000
    ~name:"jsonl scanner returns the reference scanner's event or message"
    (QCheck.make ~print:(Printf.sprintf "%S") gen_diff_line)
    (fun line -> parse_outcome Jsonl.of_string line = parse_outcome Ref_jsonl.of_string line)

(* [f] over [inputs] in chunks of 100 on [jobs] domains *)
let on_domains ~jobs f inputs =
  let chunk = 100 in
  let out = Array.make (Array.length inputs / chunk) [] in
  Sg_util.Pool.run ~jobs ~count:(Array.length out)
    ~task:(fun ~cancelled:_ k -> List.init chunk (fun j -> f inputs.((k * chunk) + j)))
    ~consume:(fun k r ->
      out.(k) <- r;
      Sg_util.Pool.Continue)
    ();
  out

(* Each domain parses into scratch slots of its own: the same 10k lines
   parsed on two domains and on one give equal results. *)
let test_jsonl_parse_on_domains () =
  let lines =
    Array.of_list
      (QCheck.Gen.generate ~rand:(Random.State.make [| 18 |]) ~n:10_000 gen_diff_line)
  in
  let chunk = 100 in
  let parse_all jobs = on_domains ~jobs (parse_outcome Jsonl.of_string) lines in
  let one = parse_all 1 in
  let reference =
    Array.init (Array.length one) (fun k ->
        List.init chunk (fun j -> parse_outcome Ref_jsonl.of_string lines.((k * chunk) + j)))
  in
  Alcotest.(check bool) "2 domains parse what 1 does" true (parse_all 2 = one);
  Alcotest.(check bool) "and what the reference scanner does" true (one = reference)

(* Each domain renders into a scratch of its own: the same 10k events
   rendered on two domains and on one give equal lines. *)
let test_jsonl_render_on_domains () =
  let events =
    Array.of_list (QCheck.Gen.generate ~rand:(Random.State.make [| 35 |]) ~n:10_000 gen_event)
  in
  Alcotest.(check bool) "2 domains render what 1 does" true
    (on_domains ~jobs:2 Jsonl.to_string events = on_domains ~jobs:1 Jsonl.to_string events)

(* The renderer's digits at every length and sign, and at the ends of
   [int]: what [string_of_int] prints, and read back. *)
let test_jsonl_int_edges () =
  let powers = List.init 19 (fun k -> int_of_float (10. ** float_of_int k)) in
  let ints =
    [ 0; max_int; min_int; max_int - 1; min_int + 1 ]
    @ List.concat_map (fun p -> [ p; p - 1; -p; 1 - p ]) powers
  in
  List.iter
    (fun v ->
      let e = { E.seq = v; at_ns = v; tid = v; kind = E.Divert { cid = v; victim = v } } in
      let s = string_of_int v in
      Alcotest.(check string) s
        (Printf.sprintf {|{"seq":%s,"at_ns":%s,"tid":%s,"kind":"divert","cid":%s,"victim":%s}|}
           s s s s s)
        (Jsonl.to_string e);
      Alcotest.(check bool) (s ^ " reads back") true (Jsonl.of_string (Jsonl.to_string e) = e))
    ints

(* Minor words per event of the codec over a fixed generated stream
   holding every kind, with escapes in its strings. The renderer writes
   into a per-domain scratch and copies the line out once; the scanner
   allocates the event and its strings (an escaped one decoded straight
   into a string of its decoded size). The ceilings sit at what the
   codec allocates now, so added boxing fails here whatever the host
   speed. *)
let test_jsonl_allocation_budget () =
  let events =
    Array.of_list (QCheck.Gen.generate ~rand:(Random.State.make [| 35 |]) ~n:2000 gen_event)
  in
  let kinds = Array.to_list (Array.map (fun e -> E.kind_name e.E.kind) events) in
  Alcotest.(check int) "every kind in the stream" 17 (List.length (List.sort_uniq compare kinds));
  let lines = Array.map Jsonl.to_string events in
  let b = Buffer.create 4096 in
  let per_event f =
    (* once to size the scratch and the buffer *)
    f ();
    let before = Gc.minor_words () in
    f ();
    (Gc.minor_words () -. before) /. float_of_int (Array.length events)
  in
  let check what ~ceiling f =
    let words = per_event f in
    Alcotest.(check bool)
      (Printf.sprintf "%s: %.2f words per event, ceiling %.2f" what words ceiling)
      true (words <= ceiling)
  in
  check "to_string" ~ceiling:13.35 (fun () ->
      for i = 0 to Array.length events - 1 do
        ignore (Sys.opaque_identity (Jsonl.to_string events.(i)))
      done);
  check "add_event" ~ceiling:0. (fun () ->
      for i = 0 to Array.length events - 1 do
        Buffer.clear b;
        Jsonl.add_event b events.(i)
      done);
  check "of_string" ~ceiling:29.90 (fun () ->
      for i = 0 to Array.length lines - 1 do
        ignore (Sys.opaque_identity (Jsonl.of_string lines.(i)))
      done)

(* ---------- episode stitching & profiling ---------- *)

(* a hand-written single-fault recovery: inject -> crash (unwinding the
   in-flight span) -> reboot [6,16] -> divert -> demand walk wrapping a
   replay span whose success ends the episode at 25 ns *)
let episode_stream =
  stream
    [
      (0, 1, E.Span_begin { span = 1; client = 2; server = 7; fn = "tread" });
      (2, 1, E.Inject { cid = 7; fn = "f"; reg = "EAX"; bit = 3; outcome = "failstop" });
      (5, 1, E.Crash { cid = 7; detector = "assert" });
      (5, 1, E.Span_end { span = 1; server = 7; ok = false });
      (6, 1, E.Reboot { cid = 7; epoch = 1; image_kb = 64; cost_ns = 10 });
      (16, 1, E.Divert { cid = 7; victim = 2 });
      (20, 2, E.Walk_begin { client = 2; server = 7; iface = "fs"; desc = 9; reason = E.Demand });
      (22, 2, E.Span_begin { span = 5; client = 2; server = 7; fn = "tsplit" });
      (25, 2, E.Span_end { span = 5; server = 7; ok = true });
      (26, 2, E.Walk_end { client = 2; server = 7; ok = true });
    ]

let test_episode_stitching () =
  match Episode.of_events episode_stream with
  | [ ep ] ->
      Alcotest.(check int) "crashed component" 7 ep.Episode.ep_cid;
      Alcotest.(check int) "detected at crash" 5 ep.Episode.ep_detect_ns;
      Alcotest.(check bool) "complete" true ep.Episode.ep_complete;
      Alcotest.(check int) "ends at first successful access" 25
        ep.Episode.ep_end_ns;
      Alcotest.(check int) "span" 20 (Episode.span_ns ep);
      (match ep.Episode.ep_trigger with
      | Some tr ->
          Alcotest.(check string) "trigger fn" "f" tr.Episode.tr_fn;
          Alcotest.(check string) "trigger outcome" "failstop"
            tr.Episode.tr_outcome
      | None -> Alcotest.fail "missing trigger");
      Alcotest.(check int) "five nodes" 5 (List.length ep.Episode.ep_nodes);
      (* pre-crash span 1 must not appear; walk open at completion is
         truncated to the episode end *)
      List.iter
        (fun n ->
          match n.Episode.n_kind with
          | Episode.N_span { span; _ } ->
              Alcotest.(check int) "only the replay span attached" 5 span
          | Episode.N_walk { ok; _ } ->
              (* its Walk_end arrived after the close: truncated, which
                 is distinct from completed *)
              Alcotest.(check bool) "truncated walk is not marked ok" false ok;
              Alcotest.(check int) "walk truncated to episode end" 25
                n.Episode.n_end_ns
          | _ -> ())
        ep.Episode.ep_nodes
  | eps -> Alcotest.failf "expected 1 episode, got %d" (List.length eps)

let test_episode_incomplete () =
  (* a chunk boundary abandons the in-flight episode as incomplete *)
  let events =
    stream
      [
        (5, 1, E.Crash { cid = 7; detector = "assert" });
        (6, 1, E.Reboot { cid = 7; epoch = 1; image_kb = 64; cost_ns = 10 });
        (20, -1, E.Note { name = "sys-reboot"; data = "chunk" });
        (25, 1, E.Crash { cid = 3; detector = "pagefault" });
      ]
  in
  match Episode.of_events events with
  | [ a; b ] ->
      Alcotest.(check bool) "first sealed incomplete" false a.Episode.ep_complete;
      Alcotest.(check int) "first ends at its last activity" 16
        a.Episode.ep_end_ns;
      Alcotest.(check int) "second opened after the boundary" 3
        b.Episode.ep_cid;
      Alcotest.(check bool) "second incomplete at EOF" false
        b.Episode.ep_complete
  | eps -> Alcotest.failf "expected 2 episodes, got %d" (List.length eps)

let test_profile_phases_and_critical_path () =
  let ep = List.hd (Episode.of_events episode_stream) in
  let p = Profile.phases ep in
  Alcotest.(check int) "detect->reboot" 11 p.Profile.ph_detect_reboot_ns;
  Alcotest.(check int) "reboot->walks" 4 p.Profile.ph_reboot_walks_ns;
  Alcotest.(check int) "walks->access" 5 p.Profile.ph_walks_access_ns;
  Alcotest.(check int) "phases sum to the episode span" (Episode.span_ns ep)
    (Profile.phases_total p);
  let cp = Profile.critical_path ep in
  Alcotest.(check (list string))
    "critical path detect -> reboot -> walk -> span"
    [ "detect"; "reboot"; "walk"; "span" ]
    (List.map
       (fun n ->
         match n.Episode.n_kind with
         | Episode.N_detect _ -> "detect"
         | Episode.N_reboot _ -> "reboot"
         | Episode.N_walk _ -> "walk"
         | Episode.N_span _ -> "span"
         | _ -> "other")
       cp);
  (* reboot 10 + walk (20..25 truncated) 5 + replay span 3 *)
  Alcotest.(check int) "critical path length" 18 (Profile.critical_path_ns ep)

let test_profile_attribution () =
  let eps = Episode.of_events episode_stream in
  let attrs = Profile.attribution eps in
  let find cid = List.find (fun a -> a.Profile.at_cid = cid) attrs in
  let server = find 7 and client = find 2 in
  Alcotest.(check int) "reboot cost charged to the crashed cid" 10
    server.Profile.at_reboot_ns;
  Alcotest.(check int) "crash counted on the crashed cid" 1
    server.Profile.at_crashes;
  Alcotest.(check int) "walk time charged to the walking client" 5
    client.Profile.at_walk_ns;
  Alcotest.(check int) "replay span charged to its client" 3
    client.Profile.at_span_ns;
  Alcotest.(check int) "sorted by total descending" 7
    (List.hd attrs).Profile.at_cid;
  (* rendering smoke: both reporters run without raising, and the JSON
     profile carries its version *)
  let text = Format.asprintf "%a" Profile.pp eps in
  Alcotest.(check bool) "text report mentions the phases" true
    (String.length text > 0);
  let rendered = Json.to_string (Profile.to_json ~source:"test" eps) in
  let envelope = "{\"version\":1,\"schema\":\"sg-profile\",\"source\":\"test\"," in
  Alcotest.(check string) "sg-profile envelope, version first" envelope
    (String.sub rendered 0 (String.length envelope));
  let json = Json.parse rendered in
  Alcotest.(check int) "one attribution row per component" (List.length attrs)
    (match Json.member "attribution" json with Some (Json.List l) -> List.length l | _ -> -1);
  Alcotest.(check int) "episodes_total" 1 (Json.get_int json "episodes_total")

(* ---------- request/episode join ---------- *)

(* the canned single-crash episode of [episode_stream] (detect=5,
   end=25) with request spans on every side of it *)
let test_reqjoin_attribution () =
  let req ~client ~arrival ~start ~finish ~status ~outcome =
    E.Http_req
      {
        cid = 40;
        client;
        arrival_ns = arrival;
        start_ns = start;
        finish_ns = finish;
        status;
        outcome;
      }
  in
  let events =
    stream
      ((0, 3, req ~client:100 ~arrival:0 ~start:0 ~finish:3 ~status:200 ~outcome:"ok")
       :: (2, 3, req ~client:101 ~arrival:2 ~start:2 ~finish:10 ~status:200 ~outcome:"ok")
       :: (6, 3, req ~client:102 ~arrival:6 ~start:8 ~finish:24 ~status:200 ~outcome:"ok")
       :: (7, 3, req ~client:103 ~arrival:7 ~start:7 ~finish:7 ~status:503 ~outcome:"dropped")
       :: (30, 3, req ~client:104 ~arrival:30 ~start:30 ~finish:40 ~status:200 ~outcome:"ok")
      :: List.map (fun e -> (e.E.at_ns, e.E.tid, e.E.kind)) episode_stream)
  in
  let t = Reqjoin.of_events events in
  Alcotest.(check int) "offered" 5 t.Reqjoin.tj_offered;
  Alcotest.(check int) "served" 4 t.Reqjoin.tj_served;
  Alcotest.(check int) "dropped" 1 t.Reqjoin.tj_dropped;
  Alcotest.(check int) "no errors or failures" 0
    (t.Reqjoin.tj_errors + t.Reqjoin.tj_failed);
  Alcotest.(check int) "window spans first arrival to last finish" 40
    t.Reqjoin.tj_window_ns;
  (* [0,3] precedes and [30,40] follows the [5,25] episode window;
     [2,10], [6,24] and the instantaneous drop at 7 overlap it *)
  Alcotest.(check int) "clean population" 2 (Hist.n t.Reqjoin.tj_clean);
  Alcotest.(check int) "shadowed population" 3 (Hist.n t.Reqjoin.tj_shadowed);
  match t.Reqjoin.tj_episodes with
  | [ e ] ->
      Alcotest.(check int) "crashed component" 7 e.Reqjoin.ei_cid;
      Alcotest.(check int) "detect" 5 e.Reqjoin.ei_detect_ns;
      Alcotest.(check int) "end" 25 e.Reqjoin.ei_end_ns;
      Alcotest.(check bool) "complete" true e.Reqjoin.ei_complete;
      Alcotest.(check int) "three shadowed requests" 3 e.Reqjoin.ei_requests;
      (* sojourns 8, 18 and 0: exact sub-64 buckets in log-linear mode *)
      Alcotest.(check int) "episode p99" 18 e.Reqjoin.ei_p99_ns;
      Alcotest.(check int) "episode max" 18 e.Reqjoin.ei_max_ns;
      Alcotest.(check (float 0.01)) "episode mean" (26.0 /. 3.0)
        e.Reqjoin.ei_mean_ns
  | eps -> Alcotest.failf "expected 1 episode impact, got %d" (List.length eps)

let test_reqjoin_json () =
  let t = Reqjoin.of_events episode_stream in
  (* no requests: counts are zero but the report still renders *)
  let json = Json.parse (Json.to_string (Reqjoin.to_json t)) in
  Alcotest.(check int) "offered zero" 0 (Json.get_int json "offered");
  Alcotest.(check int) "episode row present" 1 (Json.get_int json "episodes_total");
  (match Json.member "latency" json with
  | Some lat -> (
      match Json.member "all" lat with
      | Some all ->
          Alcotest.(check bool) "an empty population's mean is 0.0" true
            (Json.member "mean_ns" all = Some (Json.Float 0.0))
      | None -> Alcotest.fail "no latency.all")
  | None -> Alcotest.fail "no latency");
  Alcotest.(check int) "version" 1 Reqjoin.json_version

(* [Reqjoin.join] before the sort-and-sweep: every request scans every
   episode detected before it finished, each episode keeps its own
   histogram, and the queue profile sorts with the polymorphic compare.
   The property below holds the new join to its bytes. *)
module Linear_join = struct
  open Reqjoin

  let queue_depth_profile reqs =
    let hist = Hist.create ~mode:(Hist.Log_linear 5) () in
    let events =
      List.concat
        (List.mapi
           (fun uid r ->
             if r.rq_outcome = "dropped" then [ (r.rq_arrival_ns, 0, uid, `Sample) ]
             else
               [
                 (r.rq_arrival_ns, 0, uid, `Arrive);
                 (r.rq_start_ns, 1, uid, `Start);
               ])
           reqs)
    in
    let events =
      List.sort
        (fun (t0, k0, u0, _) (t1, k1, u1, _) -> compare (t0, k0, u0) (t1, k1, u1))
        events
    in
    let depth = ref 0 and max_d = ref 0 in
    List.iter
      (fun (_, _, _, ev) ->
        match ev with
        | `Arrive ->
            incr depth;
            if !depth > !max_d then max_d := !depth;
            Hist.add hist !depth
        | `Sample -> Hist.add hist (max 1 (!depth + 1))
        | `Start -> decr depth)
      events;
    (hist, !max_d)

  let join ~episodes reqs =
    let mode = Hist.Log_linear 5 in
    let eps =
      List.sort
        (fun a b -> compare a.Episode.ep_detect_ns b.Episode.ep_detect_ns)
        episodes
      |> Array.of_list
    in
    let per_ep = Array.map (fun _ -> Hist.create ~mode ()) eps in
    let all = Hist.create ~mode () and clean = Hist.create ~mode () in
    let shadowed = Hist.create ~mode () in
    let served = ref 0 and errors = ref 0 and dropped = ref 0 and failed = ref 0 in
    let first_arrival = ref max_int and last_finish = ref min_int in
    List.iter
      (fun r ->
        (match r.rq_outcome with
        | "ok" -> incr served
        | "error" -> incr errors
        | "dropped" -> incr dropped
        | _ -> incr failed);
        if r.rq_arrival_ns < !first_arrival then first_arrival := r.rq_arrival_ns;
        if r.rq_finish_ns > !last_finish then last_finish := r.rq_finish_ns;
        let lat = latency_ns r in
        Hist.add all lat;
        let hit = ref false in
        let i = ref 0 in
        while
          !i < Array.length eps && eps.(!i).Episode.ep_detect_ns <= r.rq_finish_ns
        do
          if eps.(!i).Episode.ep_end_ns >= r.rq_arrival_ns then begin
            hit := true;
            Hist.add per_ep.(!i) lat
          end;
          incr i
        done;
        Hist.add (if !hit then shadowed else clean) lat)
      reqs;
    let impacts =
      Array.to_list
        (Array.mapi
           (fun i ep ->
             let h = per_ep.(i) in
             {
               ei_cid = ep.Episode.ep_cid;
               ei_detect_ns = ep.Episode.ep_detect_ns;
               ei_end_ns = ep.Episode.ep_end_ns;
               ei_complete = ep.Episode.ep_complete;
               ei_requests = Hist.n h;
               ei_p99_ns = Hist.percentile h 0.99;
               ei_max_ns = Hist.max_value h;
               ei_mean_ns = Hist.mean h;
             })
           eps)
    in
    let queue_depth, queue_max = queue_depth_profile reqs in
    {
      tj_offered = List.length reqs;
      tj_served = !served;
      tj_errors = !errors;
      tj_dropped = !dropped;
      tj_failed = !failed;
      tj_first_arrival_ns = (if !first_arrival = max_int then 0 else !first_arrival);
      tj_window_ns =
        (if !last_finish = min_int then 0
         else max 1 (!last_finish - !first_arrival));
      tj_all = all;
      tj_clean = clean;
      tj_shadowed = shadowed;
      tj_queue_depth = queue_depth;
      tj_queue_max = queue_max;
      tj_episodes = impacts;
    }
end

(* random requests (some dropped, some never started), and episodes
   that overlap, nest, share detect instants or are incomplete. Half the
   inputs draw every instant from a pool of a dozen, so drops share
   their instant with other arrivals and with starts, and starts share
   theirs. The records come in generation order, in finish order (as
   [Loadgen] records them) or in reverse finish order; most inputs hold
   up to 80 requests, some up to 2000. *)
let gen_join_input =
  let open QCheck.Gen in
  let req ~dense =
    let* arrival = if dense then int_range 0 12 else int_range 0 3000 in
    let* wait = if dense then int_range 0 3 else int_range 0 400 in
    let* service = if dense then int_range 0 4 else int_range 0 900 in
    let* outcome = oneofl [ "ok"; "ok"; "ok"; "error"; "dropped"; "failed" ] in
    let* client = int_range 1 50 in
    let start, finish =
      if outcome = "dropped" then (arrival, arrival)
      else (arrival + wait, arrival + wait + service)
    in
    return
      {
        Reqjoin.rq_client = client;
        rq_arrival_ns = arrival;
        rq_start_ns = start;
        rq_finish_ns = finish;
        rq_status = (if outcome = "ok" then 200 else 503);
        rq_outcome = outcome;
      }
  in
  let episode =
    let* cid = int_range 1 8 in
    let* detect = oneof [ int_range 0 3500; oneofl [ 0; 500; 1000 ] ] in
    let* span = oneof [ int_range 0 200; int_range 0 3000 ] in
    let* complete = bool in
    return
      {
        Episode.ep_cid = cid;
        ep_seq = detect;
        ep_detect_ns = detect;
        ep_trigger = None;
        ep_complete = complete;
        ep_end_ns = detect + span;
        ep_nodes = [];
      }
  in
  let by_finish =
    List.stable_sort (fun a b -> Int.compare a.Reqjoin.rq_finish_ns b.Reqjoin.rq_finish_ns)
  in
  let* dense = bool in
  let* reqs =
    list_size (frequency [ (6, int_range 0 80); (1, int_range 0 2000) ]) (req ~dense)
  in
  let* order = oneofl [ Fun.id; by_finish; (fun l -> List.rev (by_finish l)) ] in
  pair (return (order reqs)) (list_size (int_range 0 14) episode)

let prop_reqjoin_sweep =
  QCheck.Test.make ~name:"sweep join renders the linear scan's bytes" ~count:400
    (QCheck.make gen_join_input)
    (fun (reqs, episodes) ->
      let render t = Json.to_string (Reqjoin.to_json t) in
      String.equal
        (render (Reqjoin.join ~episodes reqs))
        (render (Linear_join.join ~episodes reqs)))

let () =
  Alcotest.run "obs"
    [
      ( "sink",
        [
          Alcotest.test_case "retention policies" `Quick test_sink_retention;
          Alcotest.test_case "subscribe/subscribe_fold equivalence" `Quick
            test_subscribe_fold_equivalence;
        ] );
      ( "hist",
        [
          Alcotest.test_case "bucket math" `Quick test_hist_buckets;
          Alcotest.test_case "empty and singleton" `Quick
            test_hist_empty_and_singleton;
          Alcotest.test_case "percentiles" `Quick test_hist_percentiles;
          Alcotest.test_case "merge" `Quick test_hist_merge;
          Alcotest.test_case "buckets_list" `Quick test_hist_buckets_list;
          Alcotest.test_case "log-linear mode" `Quick test_hist_log_linear;
          QCheck_alcotest.to_alcotest prop_hist_merge_exact;
          Alcotest.test_case "add allocates nothing" `Quick
            test_hist_add_allocates_nothing;
          QCheck_alcotest.to_alcotest prop_hist_on_demand;
        ] );
      ( "jsonl",
        [
          Alcotest.test_case "every kind round-trips" `Quick test_jsonl_roundtrip;
          Alcotest.test_case "dump/load" `Quick test_jsonl_dump_load;
          Alcotest.test_case "rejects malformed lines" `Quick
            test_jsonl_rejects_garbage;
          QCheck_alcotest.to_alcotest prop_jsonl_roundtrip;
          Alcotest.test_case "generator covers all 17 kinds" `Quick
            prop_jsonl_covers_all_kinds;
          Alcotest.test_case "every kind renders its pinned line" `Quick
            test_jsonl_pinned_lines;
          QCheck_alcotest.to_alcotest prop_jsonl_tolerates;
          QCheck_alcotest.to_alcotest prop_jsonl_total;
          QCheck_alcotest.to_alcotest prop_jsonl_matches_reference;
          Alcotest.test_case "load names the failing line" `Quick
            test_jsonl_load_names_line;
          Alcotest.test_case "parse on 2 domains equals 1" `Quick
            test_jsonl_parse_on_domains;
          Alcotest.test_case "render on 2 domains equals 1" `Quick
            test_jsonl_render_on_domains;
          Alcotest.test_case "allocation budget" `Quick test_jsonl_allocation_budget;
          Alcotest.test_case "ints render as string_of_int" `Quick test_jsonl_int_edges;
        ] );
      ( "check",
        [
          Alcotest.test_case "clean stream" `Quick test_check_clean_stream;
          Alcotest.test_case "reordered reboot rejected" `Quick
            test_check_reordered_reboot;
          Alcotest.test_case "crash-reboot alternation" `Quick
            test_check_alternation;
          Alcotest.test_case "monotone time" `Quick test_check_monotone;
          Alcotest.test_case "span nesting" `Quick test_check_span_nesting;
          Alcotest.test_case "divert unwind" `Quick test_check_divert_unwind;
          Alcotest.test_case "walk discipline" `Quick test_check_walk_discipline;
          Alcotest.test_case "inject accounting" `Quick
            test_check_inject_accounting;
          Alcotest.test_case "end of stream" `Quick test_check_end_of_stream;
          Alcotest.test_case "end-of-stream reports in key order" `Quick
            test_check_end_of_stream_order;
          Alcotest.test_case "agrees with the reference checker" `Quick
            test_check_differential;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "counter fold" `Quick test_metrics_fold;
          Alcotest.test_case "overlapping walk pairing" `Quick
            test_metrics_walk_pairing;
          Alcotest.test_case "interrupted walk pairing" `Quick
            test_metrics_walk_interrupted;
          QCheck_alcotest.to_alcotest prop_metrics_span_map;
        ] );
      ( "episode",
        [
          Alcotest.test_case "stitches a recovery episode" `Quick
            test_episode_stitching;
          Alcotest.test_case "chunk boundary seals incomplete" `Quick
            test_episode_incomplete;
        ] );
      ( "profile",
        [
          Alcotest.test_case "phases and critical path" `Quick
            test_profile_phases_and_critical_path;
          Alcotest.test_case "attribution and reporting" `Quick
            test_profile_attribution;
        ] );
      ( "reqjoin",
        [
          Alcotest.test_case "tail attribution on a canned trace" `Quick
            test_reqjoin_attribution;
          Alcotest.test_case "empty-request report renders" `Quick
            test_reqjoin_json;
          QCheck_alcotest.to_alcotest prop_reqjoin_sweep;
        ] );
    ]
