(* JSON-lines codec for events. One flat object per line; values are
   strings, ints and bools only. This is the host-time hot path of a
   traced run, so it is the one place that writes JSON by hand instead
   of building a [Sg_util.Json.t]; it shares that module's escaper.
   Both directions take one pass over a line: rendering writes each
   kind's fields straight into a buffer, parsing reads every key in
   place into a slot of its own. *)

(* {2 Keys} *)

(* Every key some event carries. [lit] is what the renderer writes
   before the value; [slot] is where the parser files it, and [len] is
   the length of [name]. *)
type key = { name : string; len : int; slot : int; lit : string }

let keys = ref []

let key name =
  let k =
    { name; len = String.length name; slot = List.length !keys; lit = ",\"" ^ name ^ "\":" }
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

(* {2 Rendering} *)

let add_escaped = Sg_util.Json.add_escaped
let escape = Sg_util.Json.escape

let rec add_digits b n =
  if n >= 10 then add_digits b (n / 10);
  Buffer.add_char b (Char.unsafe_chr (Char.code '0' + (n mod 10)))

(* the bytes of [string_of_int n] *)
let add_int b n =
  if n >= 0 then add_digits b n
  else if n = min_int then Buffer.add_string b (string_of_int n)
  else begin
    Buffer.add_char b '-';
    add_digits b (-n)
  end

let int_field b k v =
  Buffer.add_string b k.lit;
  add_int b v

let str_field b k v =
  Buffer.add_string b k.lit;
  Buffer.add_char b '"';
  add_escaped b v;
  Buffer.add_char b '"'

let bool_field b k v =
  Buffer.add_string b k.lit;
  Buffer.add_string b (if v then "true" else "false")

let add_event b (e : Event.t) =
  Buffer.add_string b "{\"seq\":";
  add_int b e.seq;
  int_field b k_at_ns e.at_ns;
  int_field b k_tid e.tid;
  Buffer.add_string b k_kind.lit;
  Buffer.add_char b '"';
  Buffer.add_string b (Event.kind_name e.kind);
  Buffer.add_char b '"';
  (match e.kind with
  | Event.Span_begin { span; client; server; fn } ->
      int_field b k_span span;
      int_field b k_client client;
      int_field b k_server server;
      str_field b k_fn fn
  | Event.Span_end { span; server; ok } ->
      int_field b k_span span;
      int_field b k_server server;
      bool_field b k_ok ok
  | Event.Crash { cid; detector } ->
      int_field b k_cid cid;
      str_field b k_detector detector
  | Event.Reboot { cid; epoch; image_kb; cost_ns } ->
      int_field b k_cid cid;
      int_field b k_epoch epoch;
      int_field b k_image_kb image_kb;
      int_field b k_cost_ns cost_ns
  | Event.Divert { cid; victim } ->
      int_field b k_cid cid;
      int_field b k_victim victim
  | Event.Upcall { cid; fn } | Event.Reflect { cid; fn } ->
      int_field b k_cid cid;
      str_field b k_fn fn
  | Event.Walk_begin { client; server; iface; desc; reason } ->
      int_field b k_client client;
      int_field b k_server server;
      str_field b k_iface iface;
      int_field b k_desc desc;
      str_field b k_reason (Event.reason_to_string reason)
  | Event.Walk_end { client; server; ok } ->
      int_field b k_client client;
      int_field b k_server server;
      bool_field b k_ok ok
  | Event.Recover_begin { client; server; iface } ->
      int_field b k_client client;
      int_field b k_server server;
      str_field b k_iface iface
  | Event.Recover_end { client; server } ->
      int_field b k_client client;
      int_field b k_server server
  | Event.Storage_op { op; space; id } ->
      str_field b k_op op;
      str_field b k_space space;
      int_field b k_id id
  | Event.Inject { cid; fn; reg; bit; outcome } ->
      int_field b k_cid cid;
      str_field b k_fn fn;
      str_field b k_reg reg;
      int_field b k_bit bit;
      str_field b k_outcome outcome
  | Event.Http { cid; path; status } ->
      int_field b k_cid cid;
      str_field b k_path path;
      int_field b k_status status
  | Event.Http_req { cid; client; arrival_ns; start_ns; finish_ns; status; outcome }
    ->
      int_field b k_cid cid;
      int_field b k_client client;
      int_field b k_arrival_ns arrival_ns;
      int_field b k_start_ns start_ns;
      int_field b k_finish_ns finish_ns;
      int_field b k_status status;
      str_field b k_outcome outcome
  | Event.Perturb { iface; fn; action; in_walk } ->
      str_field b k_iface iface;
      str_field b k_fn fn;
      str_field b k_action action;
      bool_field b k_in_walk in_walk
  | Event.Note { name; data } ->
      str_field b k_name name;
      str_field b k_data data);
  Buffer.add_char b '}'

let to_string e =
  let b = Buffer.create 128 in
  add_event b e;
  Buffer.contents b

(* {2 Parsing} *)

exception Parse_error = Sg_util.Json.Parse_error

let fail = Sg_util.Json.fail

let rec skip_ws line n i =
  if i < n && (match String.unsafe_get line i with ' ' | '\t' -> true | _ -> false)
  then skip_ws line n (i + 1)
  else i

(* [skip_ws] with its common case, no space or tab at [i], inline *)
let[@inline] ws line n i =
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
    match List.find_opt (fun k -> String.equal k.name name) by_first.(Char.code name.[0]) with
    | Some k -> k.slot
    | None -> -1

(* The parser's slots: [pos.(2s)] is where the first value of the key
   with slot [s] starts, -1 if none; [pos.(2s + 1)] is that value when it
   is an int, and [string_end]'s result when it is a string (a bool is
   read off its first byte). A later duplicate of a key is checked but
   not kept. [pos] is one array per domain, reset at the start of each
   line; a value is read only while its start is set. *)
type slots = { line : string; pos : int array }

let scratch = Domain.DLS.new_key (fun () -> Array.make (2 * n_slots) (-1))

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
      let j = number line n pos slot i (c = '-') first 0 in
      if j = first then fail "bad number at %d in %s" i line;
      j
  | _ -> fail "bad value at %d in %s" i line

let expect_ws line n c i =
  let i = skip_ws line n i in
  if i >= n || String.unsafe_get line i <> c then fail "expected %C at %d in %s" c i line;
  i + 1

(* [c] at [i], or after spaces and tabs; returns the index past it *)
let[@inline] expect line n c i =
  if i < n && String.unsafe_get line i = c then i + 1 else expect_ws line n c i

let no_key = { name = ""; len = 0; slot = -1; lit = "" }

(* The key of [ks] that is spelled at [i] and closed by a quote there,
   or [no_key]. [ks] all start with the byte at [i]. A known key
   without escapes, the common case, is read once. *)
let rec known_key line n i = function
  | [] -> no_key
  | k :: rest ->
      let e = i + k.len in
      if e < n && String.unsafe_get line e = '"' && spells line i k.name 1 k.len then k
      else known_key line n i rest

(* the members after '{' up to and including the closing '}' *)
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

(* the ':' after a key, its value, then ',' and the next member or '}' *)
and member_value line n pos slot i =
  let i = expect line n ':' i in
  let i = ws line n (value line n pos slot (ws line n i)) in
  if i < n && String.unsafe_get line i = ',' then members line n pos (i + 1)
  else if i < n && String.unsafe_get line i = '}' then i + 1
  else fail "expected ',' or '}' at %d in %s" i line

let scan line =
  let n = String.length line in
  let pos = Domain.DLS.get scratch in
  for s = 0 to n_slots - 1 do
    Array.unsafe_set pos (2 * s) (-1)
  done;
  let i = ws line n (expect line n '{' 0) in
  let i = if i < n && String.unsafe_get line i = '}' then i + 1 else members line n pos i in
  let i = ws line n i in
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
        Event.Span_begin
          {
            span = int_f f k_span;
            client = int_f f k_client;
            server = int_f f k_server;
            fn = str_f f k_fn;
          }
    | "span_end" ->
        Event.Span_end
          { span = int_f f k_span; server = int_f f k_server; ok = bool_f f k_ok }
    | "crash" -> Event.Crash { cid = int_f f k_cid; detector = str_f f k_detector }
    | "reboot" ->
        Event.Reboot
          {
            cid = int_f f k_cid;
            epoch = int_f f k_epoch;
            image_kb = int_f f k_image_kb;
            cost_ns = int_f f k_cost_ns;
          }
    | "divert" -> Event.Divert { cid = int_f f k_cid; victim = int_f f k_victim }
    | "upcall" -> Event.Upcall { cid = int_f f k_cid; fn = str_f f k_fn }
    | "reflect" -> Event.Reflect { cid = int_f f k_cid; fn = str_f f k_fn }
    | "walk_begin" ->
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
          }
    | "walk_end" ->
        Event.Walk_end
          { client = int_f f k_client; server = int_f f k_server; ok = bool_f f k_ok }
    | "recover_begin" ->
        Event.Recover_begin
          {
            client = int_f f k_client;
            server = int_f f k_server;
            iface = str_f f k_iface;
          }
    | "recover_end" ->
        Event.Recover_end { client = int_f f k_client; server = int_f f k_server }
    | "storage_op" ->
        Event.Storage_op
          { op = str_f f k_op; space = str_f f k_space; id = int_f f k_id }
    | "inject" ->
        Event.Inject
          {
            cid = int_f f k_cid;
            fn = str_f f k_fn;
            reg = str_f f k_reg;
            bit = int_f f k_bit;
            outcome = str_f f k_outcome;
          }
    | "http" ->
        Event.Http
          { cid = int_f f k_cid; path = str_f f k_path; status = int_f f k_status }
    | "http_req" ->
        Event.Http_req
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
        Event.Perturb
          {
            iface = str_f f k_iface;
            fn = str_f f k_fn;
            action = str_f f k_action;
            in_walk = bool_f f k_in_walk;
          }
    | "note" -> Event.Note { name = str_f f k_name; data = str_f f k_data }
    | k -> fail "unknown event kind %s" k
  in
  { Event.seq = int_f f k_seq; at_ns = int_f f k_at_ns; tid = int_f f k_tid; kind }

let dump oc events =
  let b = Buffer.create 256 in
  List.iter
    (fun e ->
      Buffer.clear b;
      add_event b e;
      Buffer.add_char b '\n';
      Buffer.output_buffer oc b)
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
