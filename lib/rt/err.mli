(** Method-invocation errors.

    Errors travel in reply messages and are also synthesised locally by
    the communication layer (timeouts, binding failures). The
    distinction that matters to callers is {!is_delivery_failure}:
    delivery failures mean "the binding may be stale, rebinding might
    help" (paper §4.1.4); the rest are genuine answers from the callee. *)

type t =
  | No_such_object
      (** The destination host has no such object at that address — the
          canonical stale-binding signal. *)
  | No_such_method of string
  | Refused of string
      (** A security or policy rejection (MayI said no, or a Magistrate
          declined a request; §3.8 "requests rather than commands"). *)
  | Bad_args of string
  | Not_bound of string
      (** A definitive "no binding exists / no such object recorded"
          answer from an authority (class object or Binding Agent).
          Unlike [No_such_object] this is not a delivery failure: the
          authoritative name service has spoken, rebinding won't help. *)
  | Timeout
  | Unreachable of string
      (** The communication layer gave up: no route, no binding agent,
          or retries exhausted. *)
  | Stale_epoch
      (** The destination placement belongs to a superseded incarnation
          of the object: it has been reactivated elsewhere with a higher
          epoch, and the runtime fences the old placement rather than
          let it answer. A delivery failure — rebinding finds the
          current incarnation. *)
  | Overloaded of { retry_after : float }
      (** The destination (or the circuit breaker guarding the path to
          it) shed the call to protect itself: admission budgets were
          exhausted. The object is alive and correctly bound, so this is
          {e not} a delivery failure — rebinding will not help — but it
          {e is} retryable: the caller should back off at least
          [retry_after] seconds of virtual time and try again, which the
          comm layer does automatically within the call budget. *)
  | No_quorum of { have : int; need : int; epoch : int }
      (** A fenced replicated write was rejected because only [have] of
          the members in the current membership view (epoch [epoch])
          were reachable, short of the strict majority [need]. Like
          [Overloaded] this is {e not} a delivery failure — the group
          head is alive and correctly bound — but it {e is} retryable:
          once the partition heals (or membership changes) the same
          write can succeed. Nothing was applied anywhere. *)
  | Txn_locked of { holder : string; retry_after : float }
      (** A transaction participant refused [TxnPrepare] because another
          transaction ([holder]) already holds its prepare lock. Not a
          delivery failure — the participant is alive and correctly
          bound — but retryable: the lock clears when the holding
          transaction commits or aborts, so back off at least
          [retry_after] and re-prepare. *)
  | Txn_aborted of { txn : string }
      (** The coordinator aborted the multi-object invocation [txn]: a
          participant voted no (epoch fence, refused prepare, crash) or
          a saga step failed. All prepared participants have been (or
          will be, after recovery) released and compensated; nothing
          remains partially applied. Definitive — not retryable as-is,
          though the caller may submit a fresh transaction. *)
  | Quota_exceeded of { tenant : string; retry_after : float }
      (** The destination shed the call because [tenant]'s own budget
          (inflight or token-bucket rate) was exhausted, not because the
          destination as a whole is overloaded — other tenants are still
          being served. Like [Overloaded] this is {e not} a delivery
          failure but {e is} retryable: back off at least [retry_after]
          seconds and try again, which the comm layer does automatically
          within the call budget. *)
  | Denied of { tenant : string; reason : string }
      (** A binding-path policy rejection: [tenant] is not cleared by the
          target's policy, so the request — including [GetBinding], which
          means an unauthorized tenant cannot even {e resolve} a binding
          — is refused. Terminal: not retryable, not a delivery failure.
          Distinct from [Refused] (a per-method MayI/activation-policy
          answer) in that it carries the judged principal for per-tenant
          attribution. *)
  | Internal of string

val is_delivery_failure : t -> bool
(** True for [No_such_object], [Timeout], [Unreachable] and
    [Stale_epoch] — failures where the call never executed, so
    retrying (after a rebind if needed) is meaningful. [Overloaded] is
    deliberately excluded: the binding is good, the destination just
    wants the caller to slow down. *)

val is_overload : t -> bool
(** True for the shed answers, [Overloaded] and [Quota_exceeded]. *)

val is_retryable : t -> bool
(** True for the typed backpressure answers — [Overloaded], [No_quorum],
    [Txn_locked] and [Quota_exceeded] — where the destination is healthy
    and correctly bound and the same call can succeed later without
    rebinding. *)

val retry_after : t -> float option
(** The backoff hint carried by [Overloaded], [Txn_locked] and
    [Quota_exceeded]; [None] otherwise. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
val to_string : t -> string

val to_value : t -> Legion_wire.Value.t
val of_value : Legion_wire.Value.t -> (t, string) result
