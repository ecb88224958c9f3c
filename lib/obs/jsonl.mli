(** JSON-lines codec for event streams.

    One flat JSON object per line, with only string/int/bool fields, so
    the format stays greppable and the parser stays dependency-free.
    [of_string (to_string e) = e] for every event.

    Each event kind's wire layout (its name, then its fields in order,
    each an int, a string or a bool) is declared once in the
    implementation, and both directions follow it. Rendering writes a
    line into a scratch kept per domain, one merged literal per kind
    ([,"kind":"crash","cid":]) and digits in place, then copies it out
    once; [add_event] allocates nothing. Parsing tests the key the
    layout predicts next with word-sized compares; at the first member
    it did not predict (a line reordered, spaced, extended or damaged)
    the general scanner reads the rest of the line, in any order, into
    the same slots, so such a line gives the same event or the same
    {!Parse_error} message. Neither path allocates for a key or an int;
    an unescaped string value costs one [String.sub]. *)

exception Parse_error of string
(** The same exception as {!Sg_util.Json.Parse_error}. *)

val add_escaped : Buffer.t -> string -> unit
(** {!Sg_util.Json.add_escaped}. *)

val escape : string -> string
(** {!Sg_util.Json.escape}. *)

val add_event : Buffer.t -> Event.t -> unit
(** Appends one line, without a trailing newline. *)

val to_string : Event.t -> string
(** One line, no trailing newline. *)

val of_string : string -> Event.t
(** Raises {!Parse_error} on malformed input, including a number
    outside the range of [int] or a lone [-]. Fields may come in any
    order, with spaces or tabs between tokens; unknown fields are
    checked and ignored, and of a repeated key the first one counts. *)

val dump : out_channel -> Event.t list -> unit
(** One line per event, rendered through one buffer. *)

val load : in_channel -> Event.t list
(** Reads to EOF, skipping blank lines; raises {!Parse_error} with
    [of_string]'s message prefixed by the 1-based line number,
    ["line 42: ..."]. *)
