(** Trace-query and assertion combinators.

    A matcher consumes an event stream (oldest first) and either
    succeeds, returning the events it matched, or fails with a message
    naming the first step that could not be satisfied. [matches] steps
    skip intervening events, so a protocol assertion reads as the §4.1
    subsequence it checks:

    {[
      Trace.(run (seq [
        matches ~label:"comm miss" (cache_miss ~owner:client ~target:obj ());
        matches ~label:"ask agent" (resolve ~owner:client ~target:obj ());
        matches ~label:"install"   (binding_install ~owner:client ~target:obj ());
        matches ~label:"real call" (call ~dst:obj ~meth:"Get" ());
      ]) events)
    ]} *)

module Loid := Legion_naming.Loid

type pred = Event.t -> bool

type t
(** A sequence matcher. *)

(** {1 Matchers} *)

val matches : ?label:string -> pred -> t
(** Scan forward to the first event satisfying the predicate; skipped
    events are not consumed by later steps. Fails if none remains.
    [label] names the step in failure messages. *)

val next : ?label:string -> pred -> t
(** The strictly next event must satisfy the predicate. *)

val then_ : t -> t -> t
(** Sequence two matchers; the second starts after the first's last
    match. *)

val seq : t list -> t
(** [then_] folded over a list; the empty list matches trivially. *)

val within : float -> t -> t
(** Constrain the matched span: last matched event's time minus first's
    must not exceed the budget (seconds of virtual time). *)

(** {1 Running} *)

val run : t -> Event.t list -> (Event.t list, string) result
(** The matched events in order, or why matching failed. *)

val holds : t -> Event.t list -> bool
val explain : t -> Event.t list -> string option
(** [None] when the matcher holds, otherwise the failure message. *)

(** {1 Stream queries} *)

val count_of : pred -> Event.t list -> int
val find : pred -> Event.t list -> Event.t option

(** {1 Predicates}

    Builders take optional field constraints; omitted fields match
    anything, so [call ()] is "any Call event" and
    [call ~meth:"Get" ()] constrains only the method. *)

val any : pred
val named : string -> pred
(** Match by {!Event.name} (["Send"], ["CacheMiss"], …). *)

val ( &&& ) : pred -> pred -> pred
val ( ||| ) : pred -> pred -> pred
val not_ : pred -> pred

val send : ?src:int -> ?dst:int -> unit -> pred
val deliver : ?src:int -> ?dst:int -> unit -> pred
val drop : ?src:int -> ?dst:int -> ?reason:Event.drop_reason -> unit -> pred
val duplicate : ?src:int -> ?dst:int -> unit -> pred
val reorder : ?src:int -> ?dst:int -> unit -> pred
val call : ?src:Loid.t -> ?dst:Loid.t -> ?meth:string -> unit -> pred
val reply : ?ok:bool -> unit -> pred
val timeout : unit -> pred
val retry : ?id:int -> ?attempt:int -> unit -> pred
val giveup : ?id:int -> unit -> pred
val cancel : ?id:int -> unit -> pred
val cache_hit : ?owner:Loid.t -> ?target:Loid.t -> unit -> pred
val cache_miss : ?owner:Loid.t -> ?target:Loid.t -> unit -> pred
val resolve : ?owner:Loid.t -> ?target:Loid.t -> ?stale:bool -> unit -> pred
val binding_install : ?owner:Loid.t -> ?target:Loid.t -> unit -> pred
val rebind : ?owner:Loid.t -> ?target:Loid.t -> ?attempt:int -> unit -> pred
val activate : ?loid:Loid.t -> unit -> pred
val deactivate : ?loid:Loid.t -> unit -> pred
val migrate : ?loid:Loid.t -> unit -> pred
val replica_fanout : ?target:Loid.t -> unit -> pred
val checkpoint : ?loid:Loid.t -> unit -> pred
val suspect : ?host_obj:Loid.t -> unit -> pred
val confirm_dead : ?host_obj:Loid.t -> unit -> pred
val reactivate : ?loid:Loid.t -> unit -> pred
val fence : ?loid:Loid.t -> ?epoch:int -> unit -> pred
val admit :
  ?loid:Loid.t -> ?meth:string -> ?queued:bool -> ?tenant:string -> unit -> pred
(** [?tenant] matches only tenant-tagged admits with that exact tenant. *)

val shed : ?loid:Loid.t -> ?meth:string -> ?tenant:string -> unit -> pred
val deny : ?loid:Loid.t -> ?meth:string -> ?tenant:string -> unit -> pred
val breaker_open : ?host:int -> unit -> pred
val breaker_probe : ?host:int -> unit -> pred
val breaker_close : ?host:int -> unit -> pred
val stale_serve : ?owner:Loid.t -> ?target:Loid.t -> unit -> pred
val replica_lost : ?loid:Loid.t -> ?host:int -> unit -> pred
val replica_repair : ?loid:Loid.t -> ?host:int -> ?epoch:int -> unit -> pred
val no_quorum : ?loid:Loid.t -> unit -> pred
val reconcile : ?loid:Loid.t -> ?divergent:int -> unit -> pred

val clone_ev : ?cls:Loid.t -> ?clone:Loid.t -> unit -> pred
(** [Clone] events ([clone_ev] because [clone] would shadow nothing but
    reads badly next to the record field). *)

val merge : ?cls:Loid.t -> ?clone:Loid.t -> unit -> pred
val split : ?magistrate:Loid.t -> ?dst:Loid.t -> unit -> pred
val prepare : ?txn:string -> ?participant:Loid.t -> unit -> pred
val txn_commit : ?txn:string -> unit -> pred
val txn_abort : ?txn:string -> ?reason:string -> unit -> pred
val compensate : ?txn:string -> ?participant:Loid.t -> unit -> pred
val resume : ?txn:string -> ?decision:string -> unit -> pred
