(** Named monotonic counters.

    The scalability experiments of the paper's §5 are statements about the
    number of requests arriving at individual system components. Every
    component in the simulator owns a [Counter.t] registered in a
    [Registry.t]; experiments read the registry after a run.

    Counters are grouped by a [group] string (e.g. ["binding_agent"],
    ["class"], ["magistrate"]) so queries like "the most-loaded binding
    agent" are one call. *)

type t

val value : t -> int
val incr : t -> unit
val add : t -> int -> unit
val name : t -> string
val group : t -> string

module Registry : sig
  type r

  val create : unit -> r

  val make : r -> group:string -> name:string -> t
  (** Create and register a counter. Registering the same (group, name)
      twice returns the existing counter. *)

  val find : r -> group:string -> name:string -> t option

  val retire : r -> t -> unit
  (** Unregister a counter whose value is final (its owner is gone),
      in O(1). Its value is folded into its group's retired total and
      maximum, so [group_total] and [group_max] answer as if it were
      still registered; [find], [all], [by_group] and [pp] no longer
      list it. Retiring an unregistered counter does nothing. *)

  val all : r -> t list
  (** Registered counters, oldest first. *)

  val by_group : r -> string -> t list
  val group_total : r -> string -> int

  val group_max : r -> string -> (string * int) option
  (** Counter name and value of the largest counter in a group, retired
      ones included; the oldest wins a tie. *)

  val reset : r -> unit
  (** Zero every counter, keeping registrations, and forget the retired
      totals and maxima. *)

  val pp : Format.formatter -> r -> unit
end
