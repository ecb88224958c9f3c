(* Separate chaining over a power-of-two bucket array, one binding per
   key (replace semantics only), doubling when the load passes 2. *)

type 'a bucket =
  | Nil
  | Cons of { key : int; mutable data : 'a; mutable next : 'a bucket }

type 'a t = { mutable size : int; mutable buckets : 'a bucket array }

let create n =
  let rec pow2 k = if k >= n || k >= 1 lsl 28 then k else pow2 (2 * k) in
  (* up to four buckets the array is a literal, allocated inline rather
     than through a C call *)
  let buckets =
    match pow2 1 with
    | 1 -> [| Nil |]
    | 2 -> [| Nil; Nil |]
    | 4 -> [| Nil; Nil; Nil; Nil |]
    | k -> Array.make k Nil
  in
  { size = 0; buckets }

(* multiply by an odd constant, then fold the well-mixed high bits into
   the low bits the mask keeps. Keys that differ only in high bits
   (namespaced ids [ns lsl 32 lor id], virtual ids above [1 lsl 40]) and
   keys with many low zero bits (page-aligned addresses, which C³'s mm
   stub tracks: they used to share one bucket) spread like small ones. *)
let[@inline] index t key =
  let h = key * 0x4F1BBCDCBFA53E0B in
  (h lxor (h lsr 29)) land (Array.length t.buckets - 1)

let length t = t.size

let rec find_in key = function
  | Nil -> None
  | Cons c -> if c.key = key then Some c.data else find_in key c.next

let find_opt t key = find_in key t.buckets.(index t key)

let rec find_or_in key default = function
  | Nil -> default
  | Cons c -> if c.key = key then c.data else find_or_in key default c.next

let find_or t key default = find_or_in key default t.buckets.(index t key)

let rec mem_in key = function
  | Nil -> false
  | Cons c -> c.key = key || mem_in key c.next

let mem t key = mem_in key t.buckets.(index t key)

let resize t =
  let old = t.buckets in
  t.buckets <- Array.make (2 * Array.length old) Nil;
  (* re-link oldest first within each chain, so a chain keeps its
     relative order *)
  let rec relink = function
    | Nil -> ()
    | Cons c as cell ->
        relink c.next;
        let i = index t c.key in
        c.next <- t.buckets.(i);
        t.buckets.(i) <- cell
  in
  Array.iter relink old

let rec replace_in key data = function
  | Nil -> false
  | Cons c ->
      if c.key = key then begin
        c.data <- data;
        true
      end
      else replace_in key data c.next

let insert t i key data =
  t.buckets.(i) <- Cons { key; data; next = t.buckets.(i) };
  t.size <- t.size + 1;
  if t.size > 2 * Array.length t.buckets then resize t

let replace t key data =
  let i = index t key in
  if not (replace_in key data t.buckets.(i)) then insert t i key data

let rec add_in key by = function
  | Nil -> false
  | Cons c ->
      if c.key = key then begin
        c.data <- c.data + by;
        true
      end
      else add_in key by c.next

let add t key by =
  let i = index t key in
  if not (add_in key by t.buckets.(i)) then insert t i key by

let remove t key =
  let i = index t key in
  let rec go prev = function
    | Nil -> ()
    | Cons c as cell ->
        if c.key = key then begin
          t.size <- t.size - 1;
          match prev with
          | Nil -> t.buckets.(i) <- c.next
          | Cons p -> p.next <- c.next
        end
        else go cell c.next
  in
  go Nil t.buckets.(i)

let clear t =
  if t.size > 0 then begin
    Array.fill t.buckets 0 (Array.length t.buckets) Nil;
    t.size <- 0
  end

let fold f t acc =
  let rec chain acc = function
    | Nil -> acc
    | Cons c -> chain (f c.key c.data acc) c.next
  in
  Array.fold_left chain acc t.buckets

let longest_chain t =
  let rec length n = function Nil -> n | Cons c -> length (n + 1) c.next in
  Array.fold_left (fun m b -> max m (length 0 b)) 0 t.buckets
