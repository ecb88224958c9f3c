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
   samples — the property [Pardriver]/[Pool] determinism rests on.

   Buckets are allocated on demand: [create] allocates none, and the
   first sample past the end of the array grows it. Every sample lies in
   buckets [index min_v, index max_v], so [percentile], [clear] and
   [merge] touch only that range, and a latency histogram whose samples
   share two octaves costs a few hundred words, not the 1888 of a full
   [Log_linear 5] layout. *)

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
  cap : int;  (* [size_of_mode mode] *)
  mutable counts : int array;
      (* buckets [0, length); every bucket past the end is empty *)
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
    cap = size_of_mode mode;
    counts = [||];
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

(* make bucket [i >= length counts] addressable. A [Log2] histogram
   takes all of its 64 buckets at once; a [Log_linear] one grows to a
   quarter past [i], so a run of ever larger samples reallocates a
   logarithmic number of times *)
let grow t i =
  let len = Array.length t.counts in
  let size =
    match t.mode with Log2 -> t.cap | Log_linear _ -> min t.cap (i + 1 + (i / 4))
  in
  let counts = Array.make size 0 in
  Array.blit t.counts 0 counts 0 len;
  t.counts <- counts

let add t v =
  let i = index_of_mode t.mode v in
  if i >= Array.length t.counts then grow t i;
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

(* the 1-based rank of the [p]-quantile among [n] samples, [p] clamped
   to [0;1] *)
let rank n p =
  let p = if p < 0.0 then 0.0 else if p > 1.0 then 1.0 else p in
  let x = int_of_float (ceil (p *. float_of_int n)) in
  if x < 1 then 1 else x

(* interpolate linearly within the winning bucket [i], which holds [c]
   samples after [before] smaller ones: the value a rank [target] sample
   would have if the bucket's samples were spread evenly over its range,
   clamped to the observed [min_v, max_v] *)
let interpolate mode i ~before ~c ~target ~min_v ~max_v =
  let lo, hi = bounds_of_mode mode i in
  let frac = float_of_int (target - before) /. float_of_int c in
  let v = lo + int_of_float (frac *. float_of_int (hi - lo)) in
  let v = if v > max_v then max_v else v in
  if v < min_v then min_v else v

let percentile t p =
  if t.n = 0 then 0
  else begin
    let target = rank t.n p in
    let last = index_of_mode t.mode t.max_v in
    let rec go i before =
      if i > last then t.max_v
      else
        let c = t.counts.(i) in
        if before + c >= target then
          interpolate t.mode i ~before ~c ~target ~min_v:t.min_v ~max_v:t.max_v
        else go (i + 1) (before + c)
    in
    go (index_of_mode t.mode t.min_v) 0
  end

(* the [k]-th largest of [a], [1 <= k <= length a]: a min-heap of the
   [k] largest seen so far, O(n log k) *)
let kth_largest (a : int array) k =
  let heap = Array.sub a 0 k in
  let rec sift i =
    let l = (2 * i) + 1 in
    if l < k then begin
      let c = if l + 1 < k && heap.(l + 1) < heap.(l) then l + 1 else l in
      if heap.(c) < heap.(i) then begin
        let x = heap.(i) in
        heap.(i) <- heap.(c);
        heap.(c) <- x;
        sift c
      end
    end
  in
  for i = (k / 2) - 1 downto 0 do
    sift i
  done;
  for j = k to Array.length a - 1 do
    if a.(j) > heap.(0) then begin
      heap.(0) <- a.(j);
      sift 0
    end
  done;
  heap.(0)

let percentile_of_samples mode a p =
  let n = Array.length a in
  if n = 0 then 0
  else begin
    let target = rank n p in
    (* the rank's sample is the (n - target + 1)-th largest: one heap
       entry for a p99 over fewer than 100 samples *)
    let i = index_of_mode mode (kth_largest a (n - target + 1)) in
    let before = ref 0 and c = ref 0 in
    let min_v = ref max_int and max_v = ref min_int in
    for k = 0 to n - 1 do
      let v = a.(k) in
      let j = index_of_mode mode v in
      if j < i then incr before else if j = i then incr c;
      if v < !min_v then min_v := v;
      if v > !max_v then max_v := v
    done;
    interpolate mode i ~before:!before ~c:!c ~target ~min_v:!min_v ~max_v:!max_v
  end

let merge dst src =
  if dst.mode <> src.mode then
    invalid_arg "Hist.merge: histograms use different bucketing modes";
  if src.n > 0 then begin
    let last = index_of_mode src.mode src.max_v in
    if last >= Array.length dst.counts then grow dst last;
    for i = index_of_mode src.mode src.min_v to last do
      dst.counts.(i) <- dst.counts.(i) + src.counts.(i)
    done
  end;
  dst.n <- dst.n + src.n;
  dst.sum <- dst.sum + src.sum;
  dst.sumsq.(0) <- dst.sumsq.(0) +. src.sumsq.(0);
  (* sentinels in an empty histogram must not leak into the merge *)
  if src.n > 0 then begin
    if src.min_v < dst.min_v then dst.min_v <- src.min_v;
    if src.max_v > dst.max_v then dst.max_v <- src.max_v
  end

let buckets_list t =
  if t.n = 0 then []
  else begin
    let first = index_of_mode t.mode t.min_v in
    let rec go i acc =
      if i < first then acc
      else go (i - 1) (if t.counts.(i) = 0 then acc else (i, t.counts.(i)) :: acc)
    in
    go (index_of_mode t.mode t.max_v) []
  end

let clear t =
  if t.n > 0 then begin
    let first = index_of_mode t.mode t.min_v in
    Array.fill t.counts first (index_of_mode t.mode t.max_v + 1 - first) 0
  end;
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
