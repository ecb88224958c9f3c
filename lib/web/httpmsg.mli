(** HTTP/1.1 message parsing and rendering for the web-server workload.

    A real (if minimal) implementation: request-line and header parsing,
    and status-line/header/body response building — the server component
    genuinely parses the request text the load generator produces. *)

type request = {
  rq_method : string;
  rq_path : string;
  rq_version : string;
  rq_headers : (string * string) list;
}

val parse_request : string -> (request, string) result
val render_request : path:string -> string
(** An [ab]-style GET with its [Host] and [User-Agent] headers. *)

type response = {
  rs_status : int;
  rs_reason : string;
  rs_headers : (string * string) list;
  rs_body : string;
}

val render_response : response -> string
(** Status line, [Content-Length], the response's own headers, a blank
    line and the body, built in one string of the exact length. *)

val parse_response : string -> (response, string) result
(** The status code must be exactly three ASCII digits (RFC 9112
    [status-code = 3DIGIT]); any other spelling is a bad status. *)

val status_of_response : string -> (int, string) result
(** The status code {!parse_response} would return, read in place from
    the status line alone: the rest of the message is not split or
    copied. Its [Error] is {!parse_response}'s too. *)

val ok : body:string -> response
val not_found : response
