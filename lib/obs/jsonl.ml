(* JSON-lines codec for events. One flat object per line; values are
   strings, ints and bools only. This is the host-time hot path of a
   traced run, so it is the one place that writes JSON by hand instead
   of building a [Sg_util.Json.t]; it shares that module's escaper.

   The wire layout of every event kind is declared once, in [layouts]
   below: its name and its fields in the order they are written. The
   renderer writes a line from that table into a per-domain scratch,
   one merged literal per kind (,"kind":"crash","cid":). The scanner
   reads a line in the table's order, testing each predicted ,"key":
   in place; at the first member it did not predict it hands the line
   over to the general scanner, which takes fields in any order. *)

module Json = Sg_util.Json

(* {2 Literals} *)

external get64 : string -> int -> int64 = "%caml_string_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

(* A literal both directions use. [padded] is its [len] bytes followed
   by NULs up to a whole number of 8-byte words: the renderer stores it
   a word at a time, the scanner compares it a word at a time. A
   literal shorter than a word is compared as one load of the line
   masked to its [len] bytes: [w0] is its word, [mask] keeps its bytes.
   No literal is empty. *)
type lit = { len : int; padded : string; w0 : int64; mask : int64 }

let lit text =
  let len = String.length text in
  let padded = text ^ String.make (7 - ((len + 7) mod 8)) '\000' in
  let mask = get64 (String.init 8 (fun j -> if j < len then '\xff' else '\000')) 0 in
  { len; padded; w0 = get64 padded 0; mask }

(* [l]'s words from byte [j] on at [i + j], for [l.len >= 8]: the last
   word ends with [l]'s last byte, overlapping the one before it *)
let rec words_at line i (l : lit) j =
  if j + 8 >= l.len then get64 line (i + l.len - 8) = get64 l.padded (l.len - 8)
  else get64 line (i + j) = get64 l.padded j && words_at line i l (j + 8)

(* whether [line] holds [l] at [i]. A literal shorter than a word needs
   a word of line there; without it the answer is "no", and the caller
   takes its general path. *)
let lit_at line n i (l : lit) =
  if l.len < 8 then i + 8 <= n && Int64.logand (get64 line i) l.mask = l.w0
  else i + l.len <= n && words_at line i l 0

(* {2 Keys} *)

(* Every key some event carries. [lit] is ,"name": as it sits before
   the value; [slot] is where the parser files it, and [len] is the
   length of [name]. *)
type key = { name : string; len : int; slot : int; lit : lit }

let keys = ref []

let key name =
  let k =
    { name; len = String.length name; slot = List.length !keys; lit = lit (",\"" ^ name ^ "\":") }
  in
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

(* the keys by their first byte, for the parser's in-place lookup *)
let by_first =
  let t = Array.make 256 [] in
  List.iter
    (fun k ->
      let c = Char.code k.name.[0] in
      t.(c) <- k :: t.(c))
    !keys;
  t

(* no key is longer: a longer one is unknown before any byte is read *)
let max_key_len = List.fold_left (fun m k -> max m k.len) 0 !keys

(* every line starts {"seq":N,"at_ns":N,"tid":N, then its kind *)
let seq_open = lit "{\"seq\":"

(* {2 Slots} *)

exception Parse_error = Sg_util.Json.Parse_error

let fail = Sg_util.Json.fail

(* The parser's slots: [pos.(2s)] is where the first value of the key
   with slot [s] starts, -1 if none; [pos.(2s + 1)] is that value when it
   is an int, and [string_end]'s result when it is a string (a bool is
   read off its first byte). A later duplicate of a key is checked but
   not kept. [lay] is the index in [layouts] of the line's kind when the
   scanner read it where its layout puts it (the kind's slot then stays
   unset), -1 otherwise. One record
   per domain, reset at the start of each line; a value is read only
   while its start is set. *)
type slots = { mutable line : string; pos : int array; mutable lay : int }

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

(* the decoded length of the body [j, stop), plus [n] *)
let rec unescaped_length line stop j n =
  if j >= stop then n
  else if String.unsafe_get line j <> '\\' then unescaped_length line stop (j + 1) (n + 1)
  else unescaped_length line stop (j + if line.[j + 1] = 'u' then 6 else 2) (n + 1)

(* decode the body [j, stop) into [b] from [k] *)
let rec unescape_into b line stop j k =
  if j < stop then
    match String.unsafe_get line j with
    | '\\' -> (
        match line.[j + 1] with
        | 'u' ->
            (* emitted escapes are all < 0x20; keep it byte-sized *)
            Bytes.unsafe_set b k (Char.chr (u_escape line (j + 2) land 0xff));
            unescape_into b line stop (j + 6) (k + 1)
        | c ->
            Bytes.unsafe_set b k (match c with 'n' -> '\n' | 'r' -> '\r' | 't' -> '\t' | c -> c);
            unescape_into b line stop (j + 2) (k + 1))
    | c ->
        Bytes.unsafe_set b k c;
        unescape_into b line stop (j + 1) (k + 1)

(* the body [i, stop) of a string [string_end] has checked, unescaped:
   one pass sizes it, one fills a string of that size *)
let unescape line i stop =
  let b = Bytes.create (unescaped_length line stop i 0) in
  unescape_into b line stop i 0;
  Bytes.unsafe_to_string b

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

(* {2 Layouts} *)

type ty = Int | Str | Bool

(* One event kind on the wire: [name], then [fields] in the order the
   renderer writes them. [lits.(j)] is what precedes field [j]'s value;
   [lits.(0)] merges the kind member with the first key,
   ,"kind":"crash","cid":. [read] builds the kind from filled slots. *)
type layout = {
  ix : int;
  name : string;
  fields : (key * ty) array;
  lits : lit array;
  read : slots -> Event.kind;
}

let layout_list = ref []

let layout name fields read =
  let fields = Array.of_list fields in
  let lits =
    Array.mapi
      (fun j (k, _) ->
        if j > 0 then k.lit
        else lit (",\"" ^ k_kind.name ^ "\":\"" ^ name ^ "\",\"" ^ k.name ^ "\":"))
      fields
  in
  let l = { ix = List.length !layout_list; name; fields; lits; read } in
  layout_list := l :: !layout_list;
  l

let l_span_begin =
  layout "span_begin"
    [ (k_span, Int); (k_client, Int); (k_server, Int); (k_fn, Str) ]
    (fun f ->
      Event.Span_begin
        {
          span = int_f f k_span;
          client = int_f f k_client;
          server = int_f f k_server;
          fn = str_f f k_fn;
        })

let l_span_end =
  layout "span_end"
    [ (k_span, Int); (k_server, Int); (k_ok, Bool) ]
    (fun f ->
      Event.Span_end { span = int_f f k_span; server = int_f f k_server; ok = bool_f f k_ok })

let l_crash =
  layout "crash"
    [ (k_cid, Int); (k_detector, Str) ]
    (fun f -> Event.Crash { cid = int_f f k_cid; detector = str_f f k_detector })

let l_reboot =
  layout "reboot"
    [ (k_cid, Int); (k_epoch, Int); (k_image_kb, Int); (k_cost_ns, Int) ]
    (fun f ->
      Event.Reboot
        {
          cid = int_f f k_cid;
          epoch = int_f f k_epoch;
          image_kb = int_f f k_image_kb;
          cost_ns = int_f f k_cost_ns;
        })

let l_divert =
  layout "divert"
    [ (k_cid, Int); (k_victim, Int) ]
    (fun f -> Event.Divert { cid = int_f f k_cid; victim = int_f f k_victim })

let l_upcall =
  layout "upcall"
    [ (k_cid, Int); (k_fn, Str) ]
    (fun f -> Event.Upcall { cid = int_f f k_cid; fn = str_f f k_fn })

let l_reflect =
  layout "reflect"
    [ (k_cid, Int); (k_fn, Str) ]
    (fun f -> Event.Reflect { cid = int_f f k_cid; fn = str_f f k_fn })

let l_walk_begin =
  layout "walk_begin"
    [ (k_client, Int); (k_server, Int); (k_iface, Str); (k_desc, Int); (k_reason, Str) ]
    (fun f ->
      let reason_s = str_f f k_reason in
      let reason =
        match Event.reason_of_string reason_s with
        | Some r -> r
        | None -> fail "unknown walk reason %s" reason_s
      in
      Event.Walk_begin
        {
          client = int_f f k_client;
          server = int_f f k_server;
          iface = str_f f k_iface;
          desc = int_f f k_desc;
          reason;
        })

let l_walk_end =
  layout "walk_end"
    [ (k_client, Int); (k_server, Int); (k_ok, Bool) ]
    (fun f ->
      Event.Walk_end { client = int_f f k_client; server = int_f f k_server; ok = bool_f f k_ok })

let l_recover_begin =
  layout "recover_begin"
    [ (k_client, Int); (k_server, Int); (k_iface, Str) ]
    (fun f ->
      Event.Recover_begin
        { client = int_f f k_client; server = int_f f k_server; iface = str_f f k_iface })

let l_recover_end =
  layout "recover_end"
    [ (k_client, Int); (k_server, Int) ]
    (fun f -> Event.Recover_end { client = int_f f k_client; server = int_f f k_server })

let l_storage_op =
  layout "storage_op"
    [ (k_op, Str); (k_space, Str); (k_id, Int) ]
    (fun f -> Event.Storage_op { op = str_f f k_op; space = str_f f k_space; id = int_f f k_id })

let l_inject =
  layout "inject"
    [ (k_cid, Int); (k_fn, Str); (k_reg, Str); (k_bit, Int); (k_outcome, Str) ]
    (fun f ->
      Event.Inject
        {
          cid = int_f f k_cid;
          fn = str_f f k_fn;
          reg = str_f f k_reg;
          bit = int_f f k_bit;
          outcome = str_f f k_outcome;
        })

let l_http =
  layout "http"
    [ (k_cid, Int); (k_path, Str); (k_status, Int) ]
    (fun f -> Event.Http { cid = int_f f k_cid; path = str_f f k_path; status = int_f f k_status })

let l_http_req =
  layout "http_req"
    [
      (k_cid, Int);
      (k_client, Int);
      (k_arrival_ns, Int);
      (k_start_ns, Int);
      (k_finish_ns, Int);
      (k_status, Int);
      (k_outcome, Str);
    ]
    (fun f ->
      Event.Http_req
        {
          cid = int_f f k_cid;
          client = int_f f k_client;
          arrival_ns = int_f f k_arrival_ns;
          start_ns = int_f f k_start_ns;
          finish_ns = int_f f k_finish_ns;
          status = int_f f k_status;
          outcome = str_f f k_outcome;
        })

let l_perturb =
  layout "perturb"
    [ (k_iface, Str); (k_fn, Str); (k_action, Str); (k_in_walk, Bool) ]
    (fun f ->
      Event.Perturb
        {
          iface = str_f f k_iface;
          fn = str_f f k_fn;
          action = str_f f k_action;
          in_walk = bool_f f k_in_walk;
        })

let l_note =
  layout "note"
    [ (k_name, Str); (k_data, Str) ]
    (fun f -> Event.Note { name = str_f f k_name; data = str_f f k_data })

let layouts = Array.of_list (List.rev !layout_list)

(* the layouts by the first byte of their name *)
let by_kind_first =
  let t = Array.make 256 [] in
  Array.iter (fun l -> t.(Char.code l.name.[0]) <- l :: t.(Char.code l.name.[0])) layouts;
  t

let layout_named name =
  match
    if name = "" then None
    else List.find_opt (fun l -> String.equal l.name name) by_kind_first.(Char.code name.[0])
  with
  | Some l -> l
  | None -> fail "unknown event kind %s" name

(* {2 Rendering} *)

let add_escaped = Json.add_escaped
let escape = Json.escape

(* The most bytes a line can take besides its string bodies, plus a
   word of slack for [put_lit]'s whole-word stores and [dump]'s
   newline: the scratch keeps this much room past every string. *)
let room =
  let value = function Int -> String.length (string_of_int min_int) | Str -> 2 | Bool -> 5 in
  let kind l =
    Array.fold_left ( + ) 0 (Array.mapi (fun j (_, ty) -> l.lits.(j).len + value ty) l.fields)
  in
  seq_open.len + k_at_ns.lit.len + k_tid.lit.len + (3 * value Int)
  + Array.fold_left (fun m l -> max m (kind l)) 0 layouts
  + 1 + 8

(* The renderer's scratch, one per domain: a line is written at its
   start and then copied out once. *)
type out = { mutable bytes : Bytes.t }

let out = Domain.DLS.new_key (fun () -> { bytes = Bytes.create (2 * room) })

(* [o.bytes] with room for [need] more bytes past [p] *)
let ensure o p need =
  if p + need > Bytes.length o.bytes then begin
    let b = Bytes.create (max (p + need) (2 * Bytes.length o.bytes)) in
    Bytes.blit o.bytes 0 b 0 p;
    o.bytes <- b
  end;
  o.bytes

let rec put_words b p (l : lit) j =
  if j < l.len then begin
    set64 b (p + j) (get64 l.padded j);
    put_words b p l (j + 8)
  end

let put_lit o p (l : lit) =
  put_words o.bytes p l 0;
  p + l.len

(* the number of decimal digits of [n >= 0] *)
let rec digits n d p10 = if d = 19 || n < p10 then d else digits n (d + 1) (p10 * 10)

(* "00", "01", ... "99" *)
let pairs =
  String.init 200 (fun i ->
      Char.chr (Char.code '0' + if i land 1 = 0 then i / 20 else i / 2 mod 10))

(* the digits of [n >= 0] ending at [q], two at a time *)
let rec put_digits b q n =
  if n >= 10 then begin
    let r = 2 * (n mod 100) in
    Bytes.unsafe_set b q (String.unsafe_get pairs (r + 1));
    Bytes.unsafe_set b (q - 1) (String.unsafe_get pairs r);
    if n >= 100 then put_digits b (q - 2) (n / 100)
  end
  else Bytes.unsafe_set b q (Char.unsafe_chr (Char.code '0' + n))

let min_int_text = string_of_int min_int

(* the bytes of [string_of_int n] *)
let put_int o p n =
  let b = o.bytes in
  if n = min_int then begin
    Bytes.blit_string min_int_text 0 b p (String.length min_int_text);
    p + String.length min_int_text
  end
  else begin
    if n < 0 then Bytes.unsafe_set b p '-';
    let p = if n < 0 then p + 1 else p and n = abs n in
    let d = digits n 1 10 in
    put_digits b (p + d - 1) n;
    p + d
  end

(* the body of [s] from its byte [i] on, escaped, at [q]; returns the
   index past it *)
let rec put_body b q s i =
  if i = String.length s then q
  else
    let c = String.unsafe_get s i in
    if Json.needs_escape c then begin
      let e = Json.escape_of c in
      Bytes.blit_string e 0 b q (String.length e);
      put_body b (q + String.length e) s (i + 1)
    end
    else begin
      Bytes.unsafe_set b q c;
      put_body b (q + 1) s (i + 1)
    end

let put_str o p s =
  let b = ensure o p ((6 * String.length s) + room) in
  Bytes.unsafe_set b p '"';
  let q = put_body b (p + 1) s 0 in
  Bytes.unsafe_set b q '"';
  q + 1

let bool_true = lit "true"
let bool_false = lit "false"

(* field [j] of layout [l], as the literal before it and its value *)
let int_at o p l j v = put_int o (put_lit o p l.lits.(j)) v
let str_at o p l j v = put_str o (put_lit o p l.lits.(j)) v
let bool_at o p l j v = put_lit o (put_lit o p l.lits.(j)) (if v then bool_true else bool_false)

(* writes [e] at the start of [o.bytes]; returns its length *)
let render o (e : Event.t) =
  let p = put_int o (put_lit o 0 seq_open) e.seq in
  let p = put_int o (put_lit o p k_at_ns.lit) e.at_ns in
  let p = put_int o (put_lit o p k_tid.lit) e.tid in
  let p =
    match e.kind with
    | Event.Span_begin { span; client; server; fn } ->
        let l = l_span_begin in
        let p = int_at o p l 0 span in
        let p = int_at o p l 1 client in
        let p = int_at o p l 2 server in
        str_at o p l 3 fn
    | Event.Span_end { span; server; ok } ->
        let l = l_span_end in
        let p = int_at o p l 0 span in
        let p = int_at o p l 1 server in
        bool_at o p l 2 ok
    | Event.Crash { cid; detector } -> str_at o (int_at o p l_crash 0 cid) l_crash 1 detector
    | Event.Reboot { cid; epoch; image_kb; cost_ns } ->
        let l = l_reboot in
        let p = int_at o p l 0 cid in
        let p = int_at o p l 1 epoch in
        let p = int_at o p l 2 image_kb in
        int_at o p l 3 cost_ns
    | Event.Divert { cid; victim } -> int_at o (int_at o p l_divert 0 cid) l_divert 1 victim
    | Event.Upcall { cid; fn } -> str_at o (int_at o p l_upcall 0 cid) l_upcall 1 fn
    | Event.Reflect { cid; fn } -> str_at o (int_at o p l_reflect 0 cid) l_reflect 1 fn
    | Event.Walk_begin { client; server; iface; desc; reason } ->
        let l = l_walk_begin in
        let p = int_at o p l 0 client in
        let p = int_at o p l 1 server in
        let p = str_at o p l 2 iface in
        let p = int_at o p l 3 desc in
        str_at o p l 4 (Event.reason_to_string reason)
    | Event.Walk_end { client; server; ok } ->
        let l = l_walk_end in
        let p = int_at o p l 0 client in
        let p = int_at o p l 1 server in
        bool_at o p l 2 ok
    | Event.Recover_begin { client; server; iface } ->
        let l = l_recover_begin in
        let p = int_at o p l 0 client in
        let p = int_at o p l 1 server in
        str_at o p l 2 iface
    | Event.Recover_end { client; server } ->
        int_at o (int_at o p l_recover_end 0 client) l_recover_end 1 server
    | Event.Storage_op { op; space; id } ->
        let l = l_storage_op in
        let p = str_at o p l 0 op in
        let p = str_at o p l 1 space in
        int_at o p l 2 id
    | Event.Inject { cid; fn; reg; bit; outcome } ->
        let l = l_inject in
        let p = int_at o p l 0 cid in
        let p = str_at o p l 1 fn in
        let p = str_at o p l 2 reg in
        let p = int_at o p l 3 bit in
        str_at o p l 4 outcome
    | Event.Http { cid; path; status } ->
        let l = l_http in
        let p = int_at o p l 0 cid in
        let p = str_at o p l 1 path in
        int_at o p l 2 status
    | Event.Http_req { cid; client; arrival_ns; start_ns; finish_ns; status; outcome } ->
        let l = l_http_req in
        let p = int_at o p l 0 cid in
        let p = int_at o p l 1 client in
        let p = int_at o p l 2 arrival_ns in
        let p = int_at o p l 3 start_ns in
        let p = int_at o p l 4 finish_ns in
        let p = int_at o p l 5 status in
        str_at o p l 6 outcome
    | Event.Perturb { iface; fn; action; in_walk } ->
        let l = l_perturb in
        let p = str_at o p l 0 iface in
        let p = str_at o p l 1 fn in
        let p = str_at o p l 2 action in
        bool_at o p l 3 in_walk
    | Event.Note { name; data } -> str_at o (str_at o p l_note 0 name) l_note 1 data
  in
  Bytes.unsafe_set o.bytes p '}';
  p + 1

let add_event b e =
  let o = Domain.DLS.get out in
  let n = render o e in
  Buffer.add_subbytes b o.bytes 0 n

let to_string e =
  let o = Domain.DLS.get out in
  let n = render o e in
  Bytes.sub_string o.bytes 0 n

(* {2 Parsing} *)

let rec skip_ws line n i =
  if i < n && (match String.unsafe_get line i with ' ' | '\t' -> true | _ -> false)
  then skip_ws line n (i + 1)
  else i

(* [skip_ws] with its common case, no space or tab at [i], inline *)
let[@inline] ws line n i =
  if i < n && (match String.unsafe_get line i with ' ' | '\t' -> true | _ -> false)
  then skip_ws line n (i + 1)
  else i

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

(* whether [line] holds the first [len] bytes of [lit] from [i] on,
   given that it holds those before [j] *)
let rec spells line i lit j len =
  j = len
  || (String.unsafe_get line (i + j) = String.unsafe_get lit j
      && spells line i lit (j + 1) len)

let has_lit line n i lit =
  let len = String.length lit in
  i + len <= n && spells line i lit 0 len

(* the slot of the key [name], or -1 *)
let slot_of name =
  let len = String.length name in
  if len = 0 || len > max_key_len then -1
  else
    let named (k : key) = String.equal k.name name in
    match List.find_opt named by_first.(Char.code name.[0]) with
    | Some k -> k.slot
    | None -> -1

let scratch =
  Domain.DLS.new_key (fun () -> { line = ""; pos = Array.make (2 * n_slots) (-1); lay = -1 })

let store pos slot at v =
  if slot >= 0 && Array.unsafe_get pos (2 * slot) < 0 then begin
    Array.unsafe_set pos (2 * slot) at;
    Array.unsafe_set pos ((2 * slot) + 1) v
  end

let neg_limit = min_int / 10

(* Reads the digits from [i] on of the number at [at], counting [acc]
   down (minus the value so far), into [slot]; returns the index past
   them. Counting down reaches [min_int], so this rejects what
   [int_of_string] rejects. *)
let rec number line n pos slot at neg i acc =
  match if i < n then String.unsafe_get line i else ' ' with
  | '0' .. '9' as c ->
      let d = Char.code c - Char.code '0' in
      if acc < neg_limit || acc * 10 < min_int + d then
        fail "number out of range at %d in %s" at line;
      number line n pos slot at neg (i + 1) ((acc * 10) - d)
  | _ ->
      if (not neg) && acc = min_int then fail "number out of range at %d in %s" at line;
      store pos slot at (if neg then acc else -acc);
      i

(* [number] for digits from [at] on: a run of at most 18 digits cannot
   overflow, so it is summed without checks; a longer one is read again
   by [number] *)
let rec short_number line n pos slot at i acc =
  if i < n && (match String.unsafe_get line i with '0' .. '9' -> true | _ -> false) then
    if i - at = 18 then number line n pos slot at false at 0
    else
      short_number line n pos slot at (i + 1)
        ((acc * 10) + Char.code (String.unsafe_get line i) - Char.code '0')
  else begin
    store pos slot at acc;
    i
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
  | '0' .. '9' -> short_number line n pos slot i i 0
  | '-' ->
      let j = number line n pos slot i true (i + 1) 0 in
      if j = i + 1 then fail "bad number at %d in %s" i line;
      j
  | _ -> fail "bad value at %d in %s" i line

let expect_ws line n c i =
  let i = skip_ws line n i in
  if i >= n || String.unsafe_get line i <> c then fail "expected %C at %d in %s" c i line;
  i + 1

(* [c] at [i], or after spaces and tabs; returns the index past it *)
let[@inline] expect line n c i =
  if i < n && String.unsafe_get line i = c then i + 1 else expect_ws line n c i

let no_key = { name = ""; len = 0; slot = -1; lit = seq_open }

(* The key of [ks] that is spelled at [i] and closed by a quote there,
   or [no_key]. [ks] all start with the byte at [i]. A known key
   without escapes, the common case, is read once. *)
let rec known_key line n i = function
  | [] -> no_key
  | k :: rest ->
      let e = i + k.len in
      if e < n && String.unsafe_get line e = '"' && spells line i k.name 1 k.len then k
      else known_key line n i rest

(* The general scanner. [members]: the members after '{' up to and
   including the closing '}' *)
let rec members line n pos i =
  let i = expect line n '"' i in
  let k =
    if i >= n then no_key
    else known_key line n i (Array.unsafe_get by_first (Char.code (String.unsafe_get line i)))
  in
  if k != no_key then member_value line n pos k.slot (i + k.len + 1)
  else
    (* an unknown key, or a key spelled with escapes *)
    let e = string_end line n i false in
    let slot = if e >= 0 then -1 else slot_of (unescape line i (-e - 1)) in
    member_value line n pos slot (close_quote e + 1)

(* the ':' after a key, its value, then the rest *)
and member_value line n pos slot i =
  let i = expect line n ':' i in
  after_value line n pos (value line n pos slot (ws line n i))

(* just past a value: ',' and the next member, or '}' *)
and after_value line n pos i =
  let i = ws line n i in
  if i < n && String.unsafe_get line i = ',' then members line n pos (i + 1)
  else if i < n && String.unsafe_get line i = '}' then i + 1
  else fail "expected ',' or '}' at %d in %s" i line

(* The predicted path: [i] is just past a value. If [lit], the ,"key":
   of [k], is there, reads [k]'s value and returns the index past it;
   otherwise returns -1 and the general scanner takes over at [i]. *)
let[@inline] predicted line n pos k (lit : lit) i =
  if lit_at line n i lit then value line n pos k.slot (ws line n (i + lit.len)) else -1

(* the fields of [l] from [j] on, then the rest of the line *)
let rec fields line n pos l j i =
  if j = Array.length l.fields then after_value line n pos i
  else
    let k, _ = Array.unsafe_get l.fields j in
    let i' = predicted line n pos k (Array.unsafe_get l.lits j) i in
    if i' < 0 then after_value line n pos i else fields line n pos l (j + 1) i'

(* [i] just past the tid: the kind and its fields, through a layout
   whose merged literal is there *)
let rec kind_member line n f i = function
  | [] -> after_value line n f.pos i
  | l :: rest ->
      if lit_at line n i l.lits.(0) then begin
        f.lay <- l.ix;
        let k, _ = l.fields.(0) in
        fields line n f.pos l 1 (value line n f.pos k.slot (ws line n (i + l.lits.(0).len)))
      end
      else kind_member line n f i rest

(* the layouts whose merged literal may be at [i]: those whose name
   starts with the byte after the kind value's opening quote *)
let candidates line n i =
  let c = i + k_kind.lit.len + 1 in
  if c < n then Array.unsafe_get by_kind_first (Char.code (String.unsafe_get line c)) else []

(* the members of a line that may start {"seq": *)
let canonical line n f =
  let pos = f.pos in
  let i = predicted line n pos k_seq seq_open 0 in
  if i < 0 then
    let i = ws line n (expect line n '{' 0) in
    if i < n && String.unsafe_get line i = '}' then i + 1 else members line n pos i
  else
    let past_at = predicted line n pos k_at_ns k_at_ns.lit i in
    if past_at < 0 then after_value line n pos i
    else
      let past_tid = predicted line n pos k_tid k_tid.lit past_at in
      if past_tid < 0 then after_value line n pos past_at
      else kind_member line n f past_tid (candidates line n past_tid)

let scan line =
  let n = String.length line in
  let f = Domain.DLS.get scratch in
  for s = 0 to n_slots - 1 do
    Array.unsafe_set f.pos (2 * s) (-1)
  done;
  f.line <- line;
  f.lay <- -1;
  let i = ws line n (canonical line n f) in
  if i <> n then fail "trailing bytes at %d in %s" i line;
  f

let of_string line =
  let f = scan line in
  let l = if f.lay >= 0 then layouts.(f.lay) else layout_named (str_f f k_kind) in
  let kind = l.read f in
  { Event.seq = int_f f k_seq; at_ns = int_f f k_at_ns; tid = int_f f k_tid; kind }

let dump oc events =
  let o = Domain.DLS.get out in
  List.iter
    (fun e ->
      let n = render o e in
      Bytes.unsafe_set o.bytes n '\n';
      output oc o.bytes 0 (n + 1))
    events

let load ic =
  let rec go no acc =
    match input_line ic with
    | line ->
        let acc =
          if String.trim line = "" then acc
          else
            match of_string line with
            | e -> e :: acc
            | exception Parse_error msg -> fail "line %d: %s" no msg
        in
        go (no + 1) acc
    | exception End_of_file -> List.rev acc
  in
  go 1 []
