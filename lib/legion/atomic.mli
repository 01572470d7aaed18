(** E20 — atomic multi-object invocations under fault schedules.

    A transactional workload (2PC and saga transactions over pairs of
    participant counters, through one {!Legion_txn.Coordinator}) runs
    under one fault schedule. After the system heals and quiesces,
    {!Legion_txn.Audit} proves atomicity from the store histories and
    the live lock and in-doubt probes.

    Shared by [bench/exp_txn] (one run per schedule), the [legion-sim
    txn] subcommand and the scenario tests. *)

type mode = Two_phase | Saga | Mix  (** [Mix]: a seeded coin per transaction. *)

type schedule =
  | Clean
  | Crash_participant  (** Power-fail a participant host at rounds 8 and 18. *)
  | Crash_coordinator
      (** Power-fail the coordinator's host right after the commit of
          round [rounds / 3] is acknowledged (forced 2PC unless [Saga]). *)
  | Partition  (** Split the first two sites for 2 s at rounds 10 and 20. *)
  | Shed  (** Three racing transactions per round on the same pair. *)

val schedules : schedule list
(** Every schedule, in the E20 table order. *)

val schedule_name : schedule -> string

type config = {
  seed : int64;
  sites : (string * int) list;
      (** The first site's name also names the coordinator's WAL store. *)
  rounds : int;
  mode : mode;
  schedule : schedule;
}

val default : config
(** The E20 bench's clean row: seed 53, two sites of three hosts, 30
    rounds, mixed modes. *)

type report = {
  cfg : config;
  submitted : int;  (** Distinct transaction ids the client learned of. *)
  resumes : int;  (** [Resume] events: WAL decisions re-driven. *)
  prepares : int;
  crashes : int;
  partitions : int;
  audit : Legion_txn.Audit.t;
}

val run : config -> report

val txn_step : Legion_naming.Loid.t -> int -> Legion_wire.Value.t
(** [txn_step dst d]: one [TxnRun] step that increments [dst] by [d],
    compensated by incrementing it by [-d]. *)

val create_coordinator :
  System.t ->
  Legion_rt.Runtime.ctx ->
  cls:Legion_naming.Loid.t ->
  Legion_naming.Loid.t
(** Create eager instances of the coordinator class [cls] until one
    lands off the infrastructure hosts (at most 16 retries), so a crash
    can kill it without beheading its site's Jurisdiction. *)

val to_json : report -> string
(** The E20 per-schedule row (no trailing newline). *)

val gates : report -> (string * bool) list
(** The audit found no violation (one false gate per violation, named
    by it) and, in the crash-coordinator schedule unless every
    transaction is a saga, at least one [Resume] was traced. *)
