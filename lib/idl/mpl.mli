(** The MPL front-end.

    The paper (§2, footnote) commits to "at least two different IDLs …
    the CORBA IDL Interface Definition Language, and the Mentat
    Programming Language (MPL)". {!Parser} is the CORBA-flavoured
    syntax; this module accepts MPL's C++-flavoured class declarations
    and produces the same {!Interface.t}:

    {v
    mentat class Counter {
      int Increment(int d);      // C++ parameter order: type name
      int Get();
      void Reset();
      sequence<string> Names(stateless int k);
    };
    v}

    Mapping: [void] → unit return; C++ type names ([int], [bool],
    [float]/[double], [string], [char*], [sequence<T>], [optional<T>],
    [loid], [binding], [any]) map onto {!Ty.t}. The [mentat], [regular],
    [sequential], [select] and [stateless] keywords — Mentat's
    concurrency annotations — are accepted and discarded: they direct
    Mentat's compiler, not the interface. Comments are [// …] or
    [/* … */], read by the {!Lexer} that {!Parser} also uses. *)

type error = Lexer.error = { line : int; col : int; message : string }

val pp_error : Format.formatter -> error -> unit

val interface : string -> (Interface.t, error) result
(** Parse one [mentat class]. *)

val file : string -> (Interface.t list, error) result
(** Parse a sequence of [mentat class] declarations. *)
