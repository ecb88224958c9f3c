type request = {
  rq_method : string;
  rq_path : string;
  rq_version : string;
  rq_headers : (string * string) list;
}

let split_lines s =
  String.split_on_char '\n' s
  |> List.map (fun l ->
         let n = String.length l in
         if n > 0 && l.[n - 1] = '\r' then String.sub l 0 (n - 1) else l)

(* A request and a status line are read in place, by index: a line is
   [pos, eol) with [eol] its '\n' (or the end of the text), and its
   content stops before one trailing '\r', as in [split_lines]. Only the
   fields a parse returns are copied. *)

(* the index of [c] in [s] within [pos, stop), or [stop] *)
let rec index_before s pos stop c =
  if pos >= stop || String.unsafe_get s pos = c then pos
  else index_before s (pos + 1) stop c

let line_end s pos = index_before s pos (String.length s) '\n'
let content_end s pos eol = if eol > pos && s.[eol - 1] = '\r' then eol - 1 else eol

(* [String.trim]'s whitespace *)
let is_space = function ' ' | '\012' | '\n' | '\r' | '\t' -> true | _ -> false

let lowercase_sub s pos stop =
  let b = Bytes.create (stop - pos) in
  for i = 0 to stop - pos - 1 do
    Bytes.unsafe_set b i (Char.lowercase_ascii (String.unsafe_get s (pos + i)))
  done;
  Bytes.unsafe_to_string b

let trimmed_sub s pos stop =
  let lo = ref pos and hi = ref stop in
  while !lo < !hi && is_space (String.unsafe_get s !lo) do
    incr lo
  done;
  while !hi > !lo && is_space (String.unsafe_get s (!hi - 1)) do
    decr hi
  done;
  String.sub s !lo (!hi - !lo)

(* the header lines after the line ending at [eol], up to the first
   empty one or the end of the text: keys lowercased, values trimmed *)
let rec parse_headers s acc eol =
  if eol = String.length s then Ok (List.rev acc)
  else
    let pos = eol + 1 in
    let eol = line_end s pos in
    let stop = content_end s pos eol in
    if stop = pos then Ok (List.rev acc)
    else
      let colon = index_before s pos stop ':' in
      if colon = stop then Error ("malformed header: " ^ String.sub s pos (stop - pos))
      else
        parse_headers s
          ((lowercase_sub s pos colon, trimmed_sub s (colon + 1) stop) :: acc)
          eol

let parse_request s =
  let eol = line_end s 0 in
  let stop = content_end s 0 eol in
  if eol = String.length s && stop = 0 then Error "empty request"
  else begin
    (* exactly two spaces: method, path, version *)
    let sp1 = index_before s 0 stop ' ' in
    let sp2 = if sp1 = stop then stop else index_before s (sp1 + 1) stop ' ' in
    if sp2 = stop || index_before s (sp2 + 1) stop ' ' < stop then
      Error ("malformed request line: " ^ String.sub s 0 stop)
    else
      match parse_headers s [] eol with
      | Error e -> Error e
      | Ok hs ->
          Ok
            {
              rq_method = String.sub s 0 sp1;
              rq_path = String.sub s (sp1 + 1) (sp2 - sp1 - 1);
              rq_version = String.sub s (sp2 + 1) (stop - sp2 - 1);
              rq_headers = hs;
            }
  end

let render_request ~path =
  Printf.sprintf
    "GET %s HTTP/1.1\r\nHost: localhost\r\nUser-Agent: ab/2.3\r\n\r\n" path

type response = {
  rs_status : int;
  rs_reason : string;
  rs_headers : (string * string) list;
  rs_body : string;
}

(* [string_of_int]'s digits without its C call: the length first, then
   the digits written back to front. A negative [n] is written from its
   negative remainders, so [min_int] needs no negation. *)
let decimal_length n =
  let rec go n acc = if n > -10 then acc else go (n / 10) (acc + 1) in
  if n < 0 then go n 2 else go (-n) 1

(* the digits of [n <= 0], the last one at [i] *)
let rec write_digits b i n =
  Bytes.unsafe_set b i (Char.unsafe_chr (48 - (n mod 10)));
  if n <= -10 then write_digits b (i - 1) (n / 10)

let write_decimal b pos n =
  let stop = pos + decimal_length n in
  if n < 0 then Bytes.unsafe_set b pos '-';
  write_digits b (stop - 1) (if n < 0 then n else -n);
  stop

let write_string b pos s =
  Bytes.unsafe_blit_string s 0 b pos (String.length s);
  pos + String.length s

let rec write_headers b pos = function
  | [] -> pos
  | (k, v) :: rest ->
      let pos = write_string b pos "\r\n" in
      let pos = write_string b pos k in
      let pos = write_string b pos ": " in
      write_headers b (write_string b pos v) rest

let rec headers_length acc = function
  | [] -> acc
  | (k, v) :: rest -> headers_length (acc + String.length k + String.length v + 4) rest

(* The response's exact length first, then one [Bytes] filled in place:
   status line, Content-Length, the response's own headers, a blank
   line, the body. No intermediate strings or lists, and no buffer that
   doubles past the minor heap's largest block. *)
let render_response r =
  let body_len = String.length r.rs_body in
  let len =
    String.length "HTTP/1.1 " + decimal_length r.rs_status + 1
    + String.length r.rs_reason + 2
    + String.length "Content-Length: " + decimal_length body_len + 2
    + headers_length 0 r.rs_headers + 2 + body_len
  in
  let b = Bytes.create len in
  let pos = write_string b 0 "HTTP/1.1 " in
  let pos = write_decimal b pos r.rs_status in
  Bytes.unsafe_set b pos ' ';
  let pos = write_string b (pos + 1) r.rs_reason in
  let pos = write_string b pos "\r\nContent-Length: " in
  let pos = write_decimal b pos body_len in
  let pos = write_headers b pos r.rs_headers in
  let pos = write_string b pos "\r\n\r\n" in
  ignore (write_string b pos r.rs_body : int);
  Bytes.unsafe_to_string b

(* RFC 9112: status-code = 3DIGIT. The code of [s]'s [pos, stop), or
   -1 when that is not exactly three ASCII digits *)
let status_code s pos stop =
  if stop - pos <> 3 then -1
  else
    let d0 = Char.code s.[pos] - 48
    and d1 = Char.code s.[pos + 1] - 48
    and d2 = Char.code s.[pos + 2] - 48 in
    if d0 lor d1 lor d2 < 0 || d0 > 9 || d1 > 9 || d2 > 9 then -1
    else (100 * d0) + (10 * d1) + d2

let parse_response s =
  match split_lines s with
  | first :: rest -> (
      match String.split_on_char ' ' first with
      | "HTTP/1.1" :: code :: reason -> (
          match status_code code 0 (String.length code) with
          | -1 -> Error ("bad status: " ^ first)
          | status ->
              let rec skip_headers = function
                | "" :: body -> String.concat "\n" body
                | _ :: rest -> skip_headers rest
                | [] -> ""
              in
              Ok
                {
                  rs_status = status;
                  rs_reason = String.concat " " reason;
                  rs_headers = [];
                  rs_body = skip_headers rest;
                })
      | _ -> Error ("malformed status line: " ^ first))
  | [] -> Error "empty response"

let status_prefix = "HTTP/1.1 "

let status_of_response s =
  let eol = content_end s 0 (line_end s 0) in
  let p = String.length status_prefix in
  if eol >= p && String.starts_with ~prefix:status_prefix s then
    match status_code s p (index_before s p eol ' ') with
    | -1 -> Error ("bad status: " ^ String.sub s 0 eol)
    | status -> Ok status
  else Error ("malformed status line: " ^ String.sub s 0 eol)

let ok ~body =
  {
    rs_status = 200;
    rs_reason = "OK";
    rs_headers = [ ("Server", "composite-httpd"); ("Content-Type", "text/html") ];
    rs_body = body;
  }

let not_found =
  {
    rs_status = 404;
    rs_reason = "Not Found";
    rs_headers = [ ("Server", "composite-httpd") ];
    rs_body = "<html>404</html>";
  }
