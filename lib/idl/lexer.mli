(** The lexer, token cursor and interface-level loops shared by the two
    IDL front-ends, {!Parser} (CORBA-flavoured IDL) and {!Mpl}. Both
    read the same tokens — the union of the two syntaxes — and accept
    [// …] and [/* … */] comments; each front-end rejects the tokens
    its grammar has no place for. *)

type error = { line : int; col : int; message : string }

val pp_error : Format.formatter -> error -> unit

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

val token_name : token -> string
(** How a token is named in an error message. *)

type lexed = { tok : token; line : int; col : int }

type state
(** The unread tokens of one {!run}. *)

val fail : line:int -> col:int -> ('a, Format.formatter, unit, 'b) format4 -> 'a
(** Abort the enclosing {!run} with an error at the given position. *)

val peek : state -> lexed
(** The next token, left unread; [Eof] once the input is used up. *)

val next : state -> lexed
val expect : state -> token -> unit
val ident : state -> string

val run : (state -> 'a) -> string -> ('a, error) result
(** Lex the whole source, then parse it with [f]; a lexical or parse
    failure becomes [Error]. *)

val whole : (state -> 'a) -> string -> ('a, error) result
(** {!run}, then require the end of input. *)

val body :
  state ->
  name:string ->
  at:lexed ->
  (state -> Interface.signature) ->
  Interface.t
(** The interface body shared by both syntaxes: ["{" method* "}" ";"?].
    An invalid interface (say, a repeated method) is reported at
    [at], the token that opened the declaration. *)

val file : (state -> Interface.t) -> string -> (Interface.t list, error) result
(** A sequence of declarations up to the end of input. *)
