(* The one JSON value, printer and parser behind every machine-readable
   report (sgc-*, sg-profile, sg-reqjoin, sg-webbench, DST artifacts).
   Only the event-line codec ([Sg_obs.Jsonl]) writes JSON by hand, and
   it shares this module's escaper. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of string

let fail fmt = Printf.ksprintf (fun m -> raise (Parse_error m)) fmt

(* ---------- printing ---------- *)

let needs_escape c = c < ' ' || c = '"' || c = '\\'
let hex_digits = "0123456789abcdef"

(* what [add_escaped] writes for each byte that [needs_escape] *)
let escapes =
  Array.init 32 (fun c ->
      match Char.chr c with
      | '\n' -> "\\n"
      | '\r' -> "\\r"
      | '\t' -> "\\t"
      | _ ->
          "\\u00" ^ String.make 1 hex_digits.[c lsr 4] ^ String.make 1 hex_digits.[c land 0xf])

let escape_of = function
  | '"' -> "\\\""
  | '\\' -> "\\\\"
  | c -> escapes.(Char.code c)

(* copies each run of bytes that need no escaping in one piece, so a
   clean string is a single [add_substring] *)
let add_escaped b s =
  let n = String.length s in
  let run = ref 0 in
  for i = 0 to n - 1 do
    let c = String.unsafe_get s i in
    if needs_escape c then begin
      Buffer.add_substring b s !run (i - !run);
      run := i + 1;
      Buffer.add_string b (escape_of c)
    end
  done;
  Buffer.add_substring b s !run (n - !run)

let escape s =
  if String.exists needs_escape s then begin
    let b = Buffer.create (String.length s + 8) in
    add_escaped b s;
    Buffer.contents b
  end
  else s

(* the shortest of %.15g/%.16g/%.17g that reads back as [f]; an
   integral value keeps a ".0" so it reads back as a float *)
let float_repr f =
  let fits p =
    let s = Printf.sprintf "%.*g" p f in
    if float_of_string s = f then Some s else None
  in
  let s =
    match fits 15 with
    | Some s -> s
    | None -> ( match fits 16 with Some s -> s | None -> Printf.sprintf "%.17g" f)
  in
  if String.exists (function '.' | 'e' -> true | _ -> false) s then s else s ^ ".0"

let rec add b = function
  | Null -> Buffer.add_string b "null"
  | Bool v -> Buffer.add_string b (if v then "true" else "false")
  | Int i -> Buffer.add_string b (string_of_int i)
  | Float f ->
      Buffer.add_string b (if Float.is_finite f then float_repr f else "null")
  | Str s ->
      Buffer.add_char b '"';
      add_escaped b s;
      Buffer.add_char b '"'
  | List vs ->
      Buffer.add_char b '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char b ',';
          add b v)
        vs;
      Buffer.add_char b ']'
  | Obj kvs ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b ',';
          Buffer.add_char b '"';
          add_escaped b k;
          Buffer.add_string b "\":";
          add b v)
        kvs;
      Buffer.add_char b '}'

let to_string v =
  let b = Buffer.create 256 in
  add b v;
  Buffer.contents b

(* ---------- parsing ---------- *)

type cursor = { src : string; mutable pos : int }

let peek c = if c.pos < String.length c.src then Some c.src.[c.pos] else None

let skip_ws c =
  while
    match peek c with
    | Some (' ' | '\t' | '\n' | '\r') ->
        c.pos <- c.pos + 1;
        true
    | _ -> false
  do
    ()
  done

let expect c ch =
  skip_ws c;
  match peek c with
  | Some x when x = ch -> c.pos <- c.pos + 1
  | Some x -> fail "expected %c at offset %d, found %c" ch c.pos x
  | None -> fail "expected %c at offset %d, found end of input" ch c.pos

let literal c word value =
  let n = String.length word in
  if c.pos + n <= String.length c.src && String.sub c.src c.pos n = word then begin
    c.pos <- c.pos + n;
    value
  end
  else fail "invalid literal at offset %d" c.pos

let parse_string c =
  expect c '"';
  let buf = Buffer.create 16 in
  let rec go () =
    match peek c with
    | None -> fail "unterminated string at offset %d" c.pos
    | Some '"' -> c.pos <- c.pos + 1
    | Some '\\' ->
        c.pos <- c.pos + 1;
        let unescaped ch =
          Buffer.add_char buf ch;
          c.pos <- c.pos + 1
        in
        (match peek c with
        | Some (('"' | '\\' | '/') as ch) -> unescaped ch
        | Some 'n' -> unescaped '\n'
        | Some 'r' -> unescaped '\r'
        | Some 't' -> unescaped '\t'
        | Some 'u' ->
            if c.pos + 5 > String.length c.src then
              fail "truncated \\u escape at offset %d" c.pos;
            let code =
              match int_of_string_opt ("0x" ^ String.sub c.src (c.pos + 1) 4) with
              | Some code -> code
              | None -> fail "invalid \\u escape at offset %d" c.pos
            in
            Buffer.add_char buf (if code >= 0 && code < 0x80 then Char.chr code else '?');
            c.pos <- c.pos + 5
        | _ -> fail "invalid escape at offset %d" c.pos);
        go ()
    | Some ch ->
        Buffer.add_char buf ch;
        c.pos <- c.pos + 1;
        go ()
  in
  go ();
  Buffer.contents buf

(* -? digits (. digits)? ([eE] [+-]? digits)? — an [Int] unless it has a
   fraction or an exponent *)
let parse_number c =
  let start = c.pos in
  let advance_if p =
    match peek c with
    | Some ch when p ch ->
        c.pos <- c.pos + 1;
        true
    | _ -> false
  in
  let digits () =
    let from = c.pos in
    while advance_if (function '0' .. '9' -> true | _ -> false) do
      ()
    done;
    if c.pos = from then fail "expected a digit at offset %d" c.pos
  in
  ignore (advance_if (( = ) '-'));
  digits ();
  let frac = advance_if (( = ) '.') in
  if frac then digits ();
  let exp = advance_if (function 'e' | 'E' -> true | _ -> false) in
  if exp then begin
    ignore (advance_if (function '+' | '-' -> true | _ -> false));
    digits ()
  end;
  let text = String.sub c.src start (c.pos - start) in
  if frac || exp then Float (float_of_string text)
  else
    match int_of_string_opt text with
    | Some i -> Int i
    | None -> fail "number out of range at offset %d" start

let rec parse_value c =
  skip_ws c;
  match peek c with
  | None -> fail "unexpected end of input"
  | Some 'n' -> literal c "null" Null
  | Some 't' -> literal c "true" (Bool true)
  | Some 'f' -> literal c "false" (Bool false)
  | Some '"' -> Str (parse_string c)
  | Some '[' ->
      c.pos <- c.pos + 1;
      skip_ws c;
      if peek c = Some ']' then begin
        c.pos <- c.pos + 1;
        List []
      end
      else
        let rec items acc =
          let v = parse_value c in
          skip_ws c;
          match peek c with
          | Some ',' ->
              c.pos <- c.pos + 1;
              items (v :: acc)
          | Some ']' ->
              c.pos <- c.pos + 1;
              List.rev (v :: acc)
          | _ -> fail "expected , or ] at offset %d" c.pos
        in
        List (items [])
  | Some '{' ->
      c.pos <- c.pos + 1;
      skip_ws c;
      if peek c = Some '}' then begin
        c.pos <- c.pos + 1;
        Obj []
      end
      else
        let rec members acc =
          skip_ws c;
          let k = parse_string c in
          expect c ':';
          let v = parse_value c in
          skip_ws c;
          match peek c with
          | Some ',' ->
              c.pos <- c.pos + 1;
              members ((k, v) :: acc)
          | Some '}' ->
              c.pos <- c.pos + 1;
              List.rev ((k, v) :: acc)
          | _ -> fail "expected , or } at offset %d" c.pos
        in
        Obj (members [])
  | Some ('-' | '0' .. '9') -> parse_number c
  | Some ch -> fail "unexpected %c at offset %d" ch c.pos

let parse s =
  let c = { src = s; pos = 0 } in
  let v = parse_value c in
  skip_ws c;
  if c.pos <> String.length s then fail "trailing input at offset %d" c.pos;
  v

(* ---------- access ---------- *)

let member key = function Obj kvs -> List.assoc_opt key kvs | _ -> None

let get_int j field =
  match member field j with
  | Some (Int n) -> n
  | _ -> fail "field %s missing or not an integer" field

let get_str j field =
  match member field j with
  | Some (Str s) -> s
  | _ -> fail "field %s missing or not a string" field

let versioned_report ~schema ~version fields =
  Obj (("version", Int version) :: ("schema", Str schema) :: fields)
