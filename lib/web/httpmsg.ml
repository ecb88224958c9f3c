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

let parse_header line =
  match String.index_opt line ':' with
  | None -> Error ("malformed header: " ^ line)
  | Some i ->
      let key = String.sub line 0 i in
      let v = String.sub line (i + 1) (String.length line - i - 1) in
      Ok (String.lowercase_ascii key, String.trim v)

let parse_request s =
  match split_lines s with
  | [] | [ "" ] -> Error "empty request"
  | first :: rest -> (
      match String.split_on_char ' ' first with
      | [ m; path; version ] ->
          let rec headers acc = function
            | [] | "" :: _ -> Ok (List.rev acc)
            | line :: rest -> (
                match parse_header line with
                | Ok kv -> headers (kv :: acc) rest
                | Error e -> Error e)
          in
          Result.map
            (fun hs ->
              { rq_method = m; rq_path = path; rq_version = version; rq_headers = hs })
            (headers [] rest)
      | _ -> Error ("malformed request line: " ^ first))

let render_request ?(headers = [ ("Host", "localhost"); ("User-Agent", "ab/2.3") ])
    ~path () =
  let hs =
    headers |> List.map (fun (k, v) -> k ^ ": " ^ v ^ "\r\n") |> String.concat ""
  in
  Printf.sprintf "GET %s HTTP/1.1\r\n%s\r\n" path hs

type response = {
  rs_status : int;
  rs_reason : string;
  rs_headers : (string * string) list;
  rs_body : string;
}

(* One exactly sized concatenation: a [Printf.sprintf] buffer doubles
   past the minor heap's largest block and is allocated on the major
   heap, once per response. *)
let render_response r =
  let headers =
    List.fold_right
      (fun (k, v) acc -> k :: ": " :: v :: "\r\n" :: acc)
      (("Content-Length", string_of_int (String.length r.rs_body)) :: r.rs_headers)
      [ "\r\n"; r.rs_body ]
  in
  String.concat ""
    ("HTTP/1.1 " :: string_of_int r.rs_status :: " " :: r.rs_reason :: "\r\n"
   :: headers)

let parse_response s =
  match split_lines s with
  | first :: rest -> (
      match String.split_on_char ' ' first with
      | "HTTP/1.1" :: code :: reason -> (
          match int_of_string_opt code with
          | None -> Error ("bad status: " ^ first)
          | Some status ->
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
  let eol =
    match String.index_opt s '\n' with Some i -> i | None -> String.length s
  in
  let eol = if eol > 0 && s.[eol - 1] = '\r' then eol - 1 else eol in
  let p = String.length status_prefix in
  if eol >= p && String.starts_with ~prefix:status_prefix s then
    let stop =
      match String.index_from_opt s p ' ' with
      | Some j when j < eol -> j
      | Some _ | None -> eol
    in
    match int_of_string_opt (String.sub s p (stop - p)) with
    | Some status -> Ok status
    | None -> Error ("bad status: " ^ String.sub s 0 eol)
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
