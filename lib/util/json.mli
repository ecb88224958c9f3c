(** The JSON value every machine-readable report is built from, with
    its printer and parser.

    Reports: [sgc-lint], [sgc-bound], [sgc-taint], [sgc-race],
    [sg-profile], [sg-reqjoin], [sg-webbench] and DST artifacts
    ([superglue-dst]). Only the event-line codec
    [Sg_obs.Jsonl] renders JSON by hand, for speed, and it uses
    {!add_escaped} from here. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of string

val fail : ('a, unit, string, 'b) format4 -> 'a
(** Raises {!Parse_error} with a formatted message. *)

val needs_escape : char -> bool
(** Whether [add_escaped] rewrites the byte: a quote, a backslash or
    a byte below 0x20. *)

val escape_of : char -> string
(** What [add_escaped] writes for a byte that {!needs_escape}. *)

val add_escaped : Buffer.t -> string -> unit
(** Appends the JSON string-body escaping of a string (no surrounding
    quotes): a quote, a backslash, newline, return and tab get their
    two-byte escapes, the other bytes below 0x20 a six-byte [u00XX]
    escape. A string with nothing to escape is copied unchanged. *)

val escape : string -> string
(** [add_escaped] into a fresh string; returns its argument when
    nothing needs escaping. *)

val add : Buffer.t -> t -> unit
(** Appends the compact rendering (no insignificant whitespace). A
    [Float] prints as the shortest of [%.15g], [%.16g] and [%.17g] that
    reads back as the same float, with [.0] appended when that looks
    like an integer; a NaN or an infinity prints as [null], so every
    value renders as valid JSON. *)

val to_string : t -> string
(** {!add} into a fresh string. *)

val parse : string -> t
(** A number with a fraction or an exponent parses as [Float], any
    other as [Int]. [\u] escapes above ASCII decode to [?].
    @raise Parse_error on malformed input, including an integer outside
    the range of [int]. *)

val member : string -> t -> t option
(** Field lookup on an [Obj]; [None] otherwise. *)

val get_int : t -> string -> int
val get_str : t -> string -> string
(** [get_int j field]: the field's value.
    @raise Parse_error when it is missing or of another type. *)

val versioned_report : schema:string -> version:int -> (string * t) list -> t
(** The envelope of every report: a top-level
    object whose first two fields are [version] then [schema], followed
    by the schema-specific fields in the given order. *)
