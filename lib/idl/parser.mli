(** Parser for the concrete IDL syntax.

    Grammar (comments are [// to end of line] or [/* … */]; the lexer
    is {!Lexer}, shared with {!Mpl}):
    {v
    file       ::= interface*
    interface  ::= "interface" IDENT "{" method* "}" ";"?
    method     ::= IDENT "(" params? ")" (":" type)? ";"
    params     ::= param ("," param)*
    param      ::= IDENT ":" type
    type       ::= "unit" | "bool" | "int" | "float" | "str" | "blob"
                 | "loid" | "binding" | "any"
                 | "list" "<" type ">" | "opt" "<" type ">"
                 | "record" "{" (IDENT ":" type ",")* "}"
    v}
    A method without a result type returns [unit]. Parsing a printed
    {!Interface.pp} round-trips. *)

type error = Lexer.error = { line : int; col : int; message : string }

val pp_error : Format.formatter -> error -> unit

val interface : string -> (Interface.t, error) result
(** Parse exactly one interface. *)

val file : string -> (Interface.t list, error) result
(** Parse a sequence of interfaces. *)

val ty : string -> (Ty.t, error) result
(** Parse a single type expression (for tests and tools). *)
