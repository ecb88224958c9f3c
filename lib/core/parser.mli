(** Recursive-descent parser for the SuperGlue IDL. Produces an {!Ast.t}
    with source positions threaded onto every declaration so downstream
    diagnostics can print [file:line:col] spans. *)

exception Parse_error of { line : int; col : int; message : string }

val parse : string -> Ast.t
(** Parse an interface specification from a string.
    @raise Parse_error on syntax errors
    @raise Lexer.Lex_error on illegal characters *)
