(* Bucketed histogram for virtual-time durations.

   Two bucketing modes share one representation:

   - [Log2] (the default, and the layout every pre-existing call site
     gets): bucket [i] holds values whose bit length is [i]
     (2^(i-1) <= v < 2^i), all non-positive values in bucket 0. Cheap,
     fixed-size, and exact enough for recovery latencies.

   - [Log_linear k]: HdrHistogram-style log-linear buckets with
     m = 2^k linear sub-buckets per octave, so relative resolution is
     bounded by 1/m everywhere — tail percentiles (p99/p999) resolve
     far finer than the 2x steps of [Log2]. Values below 2m are exact
     (index = value); above, each octave [2^(b-1), 2^b) is cut into m
     equal sub-buckets of width 2^(b-1-k).

   Both modes are closed under [merge] (bucket-wise count addition), so
   merging per-domain histograms equals histogramming the concatenated
   samples — the property [Pardriver]/[Pool] determinism rests on. *)

type mode = Log2 | Log_linear of int

let log2_buckets = 64

(* OCaml ints have bit length <= 62; the octave of bit length b uses
   indices [(b-k)m, (b-k+1)m) on top of the 2m exact low buckets, so
   the largest octave (b = 63, one beyond max_int for safety) ends at
   (64-k)m - 1 *)
let size_of_mode = function
  | Log2 -> log2_buckets
  | Log_linear k ->
      if k < 1 || k > 8 then
        invalid_arg "Hist.create: log-linear sub-bucket exponent not in 1..8";
      (64 - k) * (1 lsl k)

type t = {
  mode : mode;
  counts : int array;
  mutable n : int;
  mutable sum : int;
  sumsq : float array;
      (* one cell: the sum of squares of the ns values (an int overflows
         at ~3e9 ns), kept unboxed so that [add] allocates nothing *)
  mutable min_v : int;
  mutable max_v : int;
}

let create ?(mode = Log2) () =
  {
    mode;
    counts = Array.make (size_of_mode mode) 0;
    n = 0;
    sum = 0;
    sumsq = [| 0.0 |];
    min_v = max_int;
    max_v = min_int;
  }

let mode t = t.mode

(* bit length of [v >= 0] by halving steps: every span end adds a
   sample, so this is on the invocation path *)
let bits v =
  let s32 = if v lsr 32 <> 0 then 32 else 0 in
  let v = v lsr s32 in
  let s16 = if v lsr 16 <> 0 then 16 else 0 in
  let v = v lsr s16 in
  let s8 = if v lsr 8 <> 0 then 8 else 0 in
  let v = v lsr s8 in
  let s4 = if v lsr 4 <> 0 then 4 else 0 in
  let v = v lsr s4 in
  let s2 = if v lsr 2 <> 0 then 2 else 0 in
  let v = v lsr s2 in
  let s1 = if v lsr 1 <> 0 then 1 else 0 in
  s32 + s16 + s8 + s4 + s2 + s1 + (v lsr s1)

let bucket_of v =
  if v <= 0 then 0 else min (log2_buckets - 1) (bits v)

(* inclusive upper bound of a [Log2] bucket's value range *)
let bucket_upper i = if i = 0 then 0 else (1 lsl i) - 1

let index_of_mode mode v =
  match mode with
  | Log2 -> bucket_of v
  | Log_linear k ->
      if v <= 0 then 0
      else
        let m = 1 lsl k in
        if v < 2 * m then v
        else
          let b = bits v in
          (* v >> (b-1-k) is in [m, 2m): the sub-bucket plus an m bias *)
          ((b - k - 1) * m) + (v asr (b - 1 - k))

(* inclusive [lo, hi] value range of bucket [i] under [mode] *)
let bounds_of_mode mode i =
  match mode with
  | Log2 -> ((if i <= 1 then i else 1 lsl (i - 1)), bucket_upper i)
  | Log_linear k ->
      let m = 1 lsl k in
      if i < 2 * m then (i, i)
      else
        let octave = (i / m) - 1 in
        let b = octave + k + 1 in
        let width = 1 lsl (b - 1 - k) in
        let lo = (1 lsl (b - 1)) + ((i mod m) * width) in
        (lo, lo + width - 1)

let add t v =
  let i = index_of_mode t.mode v in
  t.counts.(i) <- t.counts.(i) + 1;
  t.n <- t.n + 1;
  t.sum <- t.sum + v;
  let fv = float_of_int v in
  t.sumsq.(0) <- t.sumsq.(0) +. (fv *. fv);
  if v < t.min_v then t.min_v <- v;
  if v > t.max_v then t.max_v <- v

let n t = t.n
let sum t = t.sum
let mean t = if t.n = 0 then 0.0 else float_of_int t.sum /. float_of_int t.n

let stddev t =
  if t.n = 0 then 0.0
  else
    let m = mean t in
    let var = (t.sumsq.(0) /. float_of_int t.n) -. (m *. m) in
    sqrt (Float.max 0.0 var)

let min_value t = if t.n = 0 then 0 else t.min_v
let max_value t = if t.n = 0 then 0 else t.max_v

let percentile t p =
  if t.n = 0 then 0
  else begin
    let p = if p < 0.0 then 0.0 else if p > 1.0 then 1.0 else p in
    let target =
      let x = int_of_float (ceil (p *. float_of_int t.n)) in
      if x < 1 then 1 else x
    in
    let nbuckets = Array.length t.counts in
    let rec go i before =
      if i >= nbuckets then t.max_v
      else
        let c = t.counts.(i) in
        if before + c >= target then begin
          (* interpolate linearly within the winning bucket: the value a
             rank [target] sample would have if the bucket's [c] samples
             were spread evenly over its range *)
          let lo, hi = bounds_of_mode t.mode i in
          let frac = float_of_int (target - before) /. float_of_int c in
          let v = lo + int_of_float (frac *. float_of_int (hi - lo)) in
          let v = if v > t.max_v then t.max_v else v in
          if v < t.min_v then t.min_v else v
        end
        else go (i + 1) (before + c)
    in
    go 0 0
  end

let merge dst src =
  if dst.mode <> src.mode then
    invalid_arg "Hist.merge: histograms use different bucketing modes";
  for i = 0 to Array.length dst.counts - 1 do
    dst.counts.(i) <- dst.counts.(i) + src.counts.(i)
  done;
  dst.n <- dst.n + src.n;
  dst.sum <- dst.sum + src.sum;
  dst.sumsq.(0) <- dst.sumsq.(0) +. src.sumsq.(0);
  (* sentinels in an empty histogram must not leak into the merge *)
  if src.n > 0 then begin
    if src.min_v < dst.min_v then dst.min_v <- src.min_v;
    if src.max_v > dst.max_v then dst.max_v <- src.max_v
  end

let buckets_list t =
  let rec go i acc =
    if i < 0 then acc
    else
      go (i - 1)
        (if t.counts.(i) = 0 then acc else (i, t.counts.(i)) :: acc)
  in
  go (Array.length t.counts - 1) []

let clear t =
  (* every sample sits at or below [max_v]'s bucket: the rest is zero *)
  if t.n > 0 then Array.fill t.counts 0 (index_of_mode t.mode t.max_v + 1) 0;
  t.n <- 0;
  t.sum <- 0;
  t.sumsq.(0) <- 0.0;
  t.min_v <- max_int;
  t.max_v <- min_int

let pp ppf t =
  if t.n = 0 then Format.pp_print_string ppf "(empty)"
  else
    Format.fprintf ppf "n=%d mean=%.1f min=%d p50=%d p99=%d max=%d" t.n
      (mean t) (min_value t)
      (percentile t 0.50)
      (percentile t 0.99)
      (max_value t)
