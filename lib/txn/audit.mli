(** The E20 atomicity audit.

    Judges a transactional run from the event-sourced version history
    alone, plus two live probes: every participant's prepare lock
    ([TxnHeld]) and every coordinator's in-doubt count ([TxnStats]).
    The E20 bench, the [legion-sim txn] subcommand, the chaos explorer
    and the soak suite all call {!run}; none re-implements it.

    A run is atomic when no transaction left a [Staged] history entry,
    none carries both [Committed] and [Compensated] marks, no commit
    acknowledged to a client is recorded compensated, no participant
    still holds a prepare lock, and no coordinator has anything in
    doubt. *)

type t = {
  txns : int;  (** Distinct transaction ids seen or submitted. *)
  committed : int;  (** ... with a [Committed] mark. *)
  compensated : int;  (** ... with a [Compensated] mark. *)
  partial_commits : int;
      (** ... with a [Staged] entry left over or mixed marks. *)
  orphaned_locks : int;
      (** Participants whose [TxnHeld] probe did not answer empty. *)
  in_doubt : int;  (** Sum of the coordinators' reported in-doubt counts. *)
  violations : string list;  (** One message per failed check, in order. *)
}

val run :
  call:
    (Legion_naming.Loid.t ->
    string ->
    (Legion_wire.Value.t, Legion_rt.Err.t) result) ->
  ?submitted:string list ->
  ?acked:string list ->
  participants:Legion_naming.Loid.t list ->
  coordinators:Legion_naming.Loid.t list ->
  Legion_store.Persistent.t ->
  t
(** [run ~call ~participants ~coordinators store] audits [store]'s
    histories in one pass, then probes each participant and coordinator
    through [call dst meth] (a synchronous no-argument invocation).
    [submitted] adds transaction ids the client learned of (they count
    even if no history mentions them); [acked] are ids acknowledged as
    committed, which must never be recorded compensated. *)
