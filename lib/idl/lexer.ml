type error = { line : int; col : int; message : string }

let pp_error ppf e =
  Format.fprintf ppf "line %d, column %d: %s" e.line e.col e.message

type token =
  | Ident of string
  | Lbrace
  | Rbrace
  | Lparen
  | Rparen
  | Langle
  | Rangle
  | Colon
  | Semi
  | Comma
  | Star
  | Eof

let token_name = function
  | Ident s -> Printf.sprintf "identifier %S" s
  | Lbrace -> "'{'"
  | Rbrace -> "'}'"
  | Lparen -> "'('"
  | Rparen -> "')'"
  | Langle -> "'<'"
  | Rangle -> "'>'"
  | Colon -> "':'"
  | Semi -> "';'"
  | Comma -> "','"
  | Star -> "'*'"
  | Eof -> "end of input"

type lexed = { tok : token; line : int; col : int }

exception Parse_error of error

let fail ~line ~col fmt =
  Format.kasprintf (fun message -> raise (Parse_error { line; col; message })) fmt

let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9')

let lex src =
  let n = String.length src in
  let toks = ref [] in
  let line = ref 1 and col = ref 1 in
  let i = ref 0 in
  let advance () =
    (if !i < n then
       if src.[!i] = '\n' then begin
         incr line;
         col := 1
       end
       else incr col);
    incr i
  in
  let emit tok = toks := { tok; line = !line; col = !col } :: !toks in
  while !i < n do
    let c = src.[!i] in
    if c = ' ' || c = '\t' || c = '\n' || c = '\r' then advance ()
    else if c = '/' && !i + 1 < n && src.[!i + 1] = '/' then
      while !i < n && src.[!i] <> '\n' do
        advance ()
      done
    else if c = '/' && !i + 1 < n && src.[!i + 1] = '*' then begin
      let closed = ref false in
      advance ();
      advance ();
      while !i < n && not !closed do
        if src.[!i] = '*' && !i + 1 < n && src.[!i + 1] = '/' then begin
          advance ();
          advance ();
          closed := true
        end
        else advance ()
      done;
      if not !closed then fail ~line:!line ~col:!col "unterminated comment"
    end
    else if is_ident_start c then begin
      let start = !i in
      let start_line = !line and start_col = !col in
      while !i < n && is_ident_char src.[!i] do
        advance ()
      done;
      toks :=
        {
          tok = Ident (String.sub src start (!i - start));
          line = start_line;
          col = start_col;
        }
        :: !toks
    end
    else begin
      (match c with
      | '{' -> emit Lbrace
      | '}' -> emit Rbrace
      | '(' -> emit Lparen
      | ')' -> emit Rparen
      | '<' -> emit Langle
      | '>' -> emit Rangle
      | ':' -> emit Colon
      | ';' -> emit Semi
      | ',' -> emit Comma
      | '*' -> emit Star
      | c -> fail ~line:!line ~col:!col "unexpected character %C" c);
      advance ()
    end
  done;
  toks := { tok = Eof; line = !line; col = !col } :: !toks;
  List.rev !toks

type state = { mutable toks : lexed list }

let peek st = match st.toks with [] -> assert false | t :: _ -> t

let next st =
  let t = peek st in
  (match st.toks with [] -> () | _ :: rest -> st.toks <- rest);
  t

let expect st tok =
  let t = next st in
  if t.tok <> tok then
    fail ~line:t.line ~col:t.col "expected %s, found %s" (token_name tok)
      (token_name t.tok)

let ident st =
  let t = next st in
  match t.tok with
  | Ident s -> s
  | other ->
      fail ~line:t.line ~col:t.col "expected identifier, found %s" (token_name other)

let run f src =
  match f { toks = lex src } with
  | v -> Ok v
  | exception Parse_error e -> Error e

let whole f src =
  run
    (fun st ->
      let v = f st in
      expect st Eof;
      v)
    src

let body st ~name ~at parse_method =
  expect st Lbrace;
  let rec loop acc =
    match (peek st).tok with
    | Rbrace ->
        ignore (next st);
        List.rev acc
    | _ -> loop (parse_method st :: acc)
  in
  let sigs = loop [] in
  (match (peek st).tok with Semi -> ignore (next st) | _ -> ());
  match Interface.make ~name sigs with
  | iface -> iface
  | exception Invalid_argument msg -> fail ~line:at.line ~col:at.col "%s" msg

let file parse_one src =
  run
    (fun st ->
      let rec loop acc =
        match (peek st).tok with
        | Eof -> List.rev acc
        | _ -> loop (parse_one st :: acc)
      in
      loop [])
    src
