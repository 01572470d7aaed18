open Lexer

type error = Lexer.error = { line : int; col : int; message : string }

let pp_error = Lexer.pp_error

(* Mentat's concurrency qualifiers: meaningful to its compiler, not to
   the interface. *)
let qualifiers = [ "regular"; "sequential"; "select"; "stateless"; "persistent" ]

let skip_qualifiers st =
  let rec loop () =
    match (peek st).tok with
    | Ident q when List.mem q qualifiers ->
        ignore (next st);
        loop ()
    | _ -> ()
  in
  loop ()

(* C++-flavoured type expressions. "char *" and "string" both map to
   Tstr; "double"/"float" to Tfloat. *)
let rec parse_ty st : Ty.t =
  let t = next st in
  match t.tok with
  | Ident "void" -> Ty.Tunit
  | Ident "bool" -> Ty.Tbool
  | Ident ("int" | "long" | "short") -> Ty.Tint
  | Ident ("float" | "double") -> Ty.Tfloat
  | Ident "string" -> Ty.Tstr
  | Ident "char" ->
      expect st Star;
      Ty.Tstr
  | Ident ("blob" | "bytes") -> Ty.Tblob
  | Ident "loid" -> Ty.Tloid
  | Ident "binding" -> Ty.Tbinding
  | Ident "any" -> Ty.Tany
  | Ident "sequence" ->
      expect st Langle;
      let inner = parse_ty st in
      expect st Rangle;
      Ty.Tlist inner
  | Ident "optional" ->
      expect st Langle;
      let inner = parse_ty st in
      expect st Rangle;
      Ty.Topt inner
  | Ident other -> fail ~line:t.line ~col:t.col "unknown MPL type %S" other
  | other -> fail ~line:t.line ~col:t.col "expected a type, found %s" (token_name other)

let parse_params st =
  expect st Lparen;
  match (peek st).tok with
  | Rparen ->
      ignore (next st);
      []
  | _ ->
      let rec loop acc =
        skip_qualifiers st;
        let ty = parse_ty st in
        let name = ident st in
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
  skip_qualifiers st;
  let ret = parse_ty st in
  let meth = ident st in
  let params = parse_params st in
  expect st Semi;
  { Interface.meth; params; ret }

let parse_class st =
  skip_qualifiers st;
  let t = next st in
  (match t.tok with
  | Ident "mentat" -> ()
  | other ->
      fail ~line:t.line ~col:t.col "expected 'mentat', found %s" (token_name other));
  let t2 = next st in
  (match t2.tok with
  | Ident "class" -> ()
  | other ->
      fail ~line:t2.line ~col:t2.col "expected 'class', found %s" (token_name other));
  let cname = ident st in
  body st ~name:cname ~at:t parse_method

let interface src = whole parse_class src
let file src = Lexer.file parse_class src
