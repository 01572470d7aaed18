open Lexer

type error = Lexer.error = { line : int; col : int; message : string }

let pp_error = Lexer.pp_error

let rec parse_ty st : Ty.t =
  let t = next st in
  match t.tok with
  | Ident "unit" -> Ty.Tunit
  | Ident "bool" -> Ty.Tbool
  | Ident "int" -> Ty.Tint
  | Ident "float" -> Ty.Tfloat
  | Ident "str" -> Ty.Tstr
  | Ident "blob" -> Ty.Tblob
  | Ident "loid" -> Ty.Tloid
  | Ident "binding" -> Ty.Tbinding
  | Ident "any" -> Ty.Tany
  | Ident "list" ->
      expect st Langle;
      let inner = parse_ty st in
      expect st Rangle;
      Ty.Tlist inner
  | Ident "opt" ->
      expect st Langle;
      let inner = parse_ty st in
      expect st Rangle;
      Ty.Topt inner
  | Ident "record" ->
      expect st Lbrace;
      let fields = ref [] in
      let rec loop () =
        match (peek st).tok with
        | Rbrace -> ignore (next st)
        | _ ->
            let name = ident st in
            expect st Colon;
            let ty = parse_ty st in
            fields := (name, ty) :: !fields;
            (match (peek st).tok with
            | Comma -> ignore (next st)
            | _ -> ());
            loop ()
      in
      loop ();
      Ty.Trecord (List.rev !fields)
  | Ident other -> fail ~line:t.line ~col:t.col "unknown type %S" other
  | other -> fail ~line:t.line ~col:t.col "expected a type, found %s" (token_name other)

let parse_params st =
  expect st Lparen;
  match (peek st).tok with
  | Rparen ->
      ignore (next st);
      []
  | _ ->
      let rec loop acc =
        let name = ident st in
        expect st Colon;
        let ty = parse_ty st in
        let acc = (name, ty) :: acc in
        let t = next st in
        match t.tok with
        | Comma -> loop acc
        | Rparen -> List.rev acc
        | other ->
            fail ~line:t.line ~col:t.col "expected ',' or ')', found %s"
              (token_name other)
      in
      loop []

let parse_method st : Interface.signature =
  let meth = ident st in
  let params = parse_params st in
  let ret =
    match (peek st).tok with
    | Colon ->
        ignore (next st);
        parse_ty st
    | _ -> Ty.Tunit
  in
  expect st Semi;
  { Interface.meth; params; ret }

let parse_interface st =
  let t = next st in
  (match t.tok with
  | Ident "interface" -> ()
  | other ->
      fail ~line:t.line ~col:t.col "expected 'interface', found %s" (token_name other));
  let iname = ident st in
  body st ~name:iname ~at:t parse_method

let interface src = whole parse_interface src
let file src = Lexer.file parse_interface src
let ty src = whole parse_ty src
