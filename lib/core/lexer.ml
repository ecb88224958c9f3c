type token =
  | Ident of string
  | Number of string
  | Lparen
  | Rparen
  | Lbrace
  | Rbrace
  | Comma
  | Semicolon
  | Equals
  | Star
  | Eof

type located = { tok : token; line : int; col : int }

exception Lex_error of { line : int; col : int; message : string }

(* Comments are blanked rather than removed so that every surviving
   character keeps its original line AND column — diagnostics downstream
   print real source spans. *)
let strip_comments src =
  let b = Bytes.of_string src in
  let n = String.length src in
  (* blank [i, stop) except its newlines; comment text is rarely long *)
  let blank i stop =
    for k = i to stop - 1 do
      if Bytes.get b k <> '\n' then Bytes.set b k ' '
    done
  in
  let rec code i =
    match String.index_from_opt src i '/' with
    | None -> ()
    | Some i when i + 1 >= n -> ()
    | Some i -> (
        match src.[i + 1] with
        | '*' -> block i (i + 2)
        | '/' ->
            let stop =
              match String.index_from_opt src (i + 2) '\n' with
              | Some e -> e
              | None -> n
            in
            blank i stop;
            code stop
        | _ -> code (i + 1))
  (* a block comment opened at [start], scanned from [i]: its closing
     star-slash is blanked with it; an unterminated one runs to the end *)
  and block start i =
    match String.index_from_opt src i '*' with
    | None -> blank start n
    | Some j when j + 1 < n && src.[j + 1] = '/' ->
        blank start (j + 2);
        code (j + 2)
    | Some j -> block start (j + 1)
  in
  if n > 0 then code 0;
  Bytes.unsafe_to_string b

let is_ident_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'

let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9')
let is_digit c = c >= '0' && c <= '9'

let tokenize src =
  let src = strip_comments src in
  let n = String.length src in
  let toks = ref [] in
  let line = ref 1 in
  let bol = ref 0 in
  (* index of the current line's first character *)
  let col_of i = i - !bol + 1 in
  let emit i tok = toks := { tok; line = !line; col = col_of i } :: !toks in
  let rec go i =
    if i >= n then ()
    else
      let c = src.[i] in
      if c = '\n' then begin
        incr line;
        bol := i + 1;
        go (i + 1)
      end
      else if c = ' ' || c = '\t' || c = '\r' then go (i + 1)
      else if is_ident_start c then begin
        let j = ref i in
        while !j < n && is_ident_char src.[!j] do
          incr j
        done;
        emit i (Ident (String.sub src i (!j - i)));
        go !j
      end
      else if is_digit c then begin
        let j = ref i in
        while !j < n && is_digit src.[!j] do
          incr j
        done;
        emit i (Number (String.sub src i (!j - i)));
        go !j
      end
      else begin
        (match c with
        | '(' -> emit i Lparen
        | ')' -> emit i Rparen
        | '{' -> emit i Lbrace
        | '}' -> emit i Rbrace
        | ',' -> emit i Comma
        | ';' -> emit i Semicolon
        | '=' -> emit i Equals
        | '*' -> emit i Star
        | c ->
            raise
              (Lex_error
                 {
                   line = !line;
                   col = col_of i;
                   message = Printf.sprintf "illegal character %C" c;
                 }));
        go (i + 1)
      end
  in
  go 0;
  emit n Eof;
  List.rev !toks

let token_to_string = function
  | Ident s -> s
  | Number s -> s
  | Lparen -> "("
  | Rparen -> ")"
  | Lbrace -> "{"
  | Rbrace -> "}"
  | Comma -> ","
  | Semicolon -> ";"
  | Equals -> "="
  | Star -> "*"
  | Eof -> "<eof>"
