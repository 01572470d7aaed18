(** The runtime's message: a method call or its reply, as one typed
    value.

    Calls and replies travel through {!Legion_net.Network} as [t]
    itself; nothing is encoded or parsed on the way. The string-keyed
    record of PROTOCOL.md §3 is the {e edge encoding}, built by
    {!to_value} only where bytes or a generic view really exist: the
    network's tap, the checksummed envelope of the corruption fault,
    and tests. {!size} gives that encoding's byte count without
    building it. *)

module Loid := Legion_naming.Loid
module Value := Legion_wire.Value
module Env := Legion_sec.Env

type call = { meth : string; args : Value.t list; env : Env.t }
type reply = (Value.t, Err.t) result

type t =
  | Call of {
      id : int;  (** Per-runtime call id; replies are matched by it. *)
      src_loid : Loid.t;
      src_host : int;  (** Where the reply goes. *)
      dst_loid : Loid.t;  (** The all-zero LOID is a wildcard. *)
      dst_slot : int;
      call : call;
    }
  | Reply of { id : int; reply : reply }

val to_value : t -> Value.t
(** The §3 record: [{k:"c"; id; sl; sh; dl; ds; m; a; e}] for a call,
    [{k:"r"; id; ok; v}] for a reply. *)

val of_value : Value.t -> t option
(** Inverse of {!to_value}; [None] for any value that is not a
    well-formed call or reply. Never raises. *)

val size : t -> int
(** [Value.size_bytes (to_value m)], computed without building the
    record. *)

val codec : t Legion_net.Network.codec
(** {!size}, {!to_value} and {!of_value}, for {!Legion_net.Network.create}. *)
