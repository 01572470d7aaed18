(** E17 — self-healing replication (§4.3): repair, fencing,
    anti-entropy.

    Repair part: a counter is replicated [replicas] ways with the
    repair manager armed, and the current primary's host is crashed
    every [kill_every] seconds while an open-loop workload calls the
    LOID. Partition part, once per entry of [fencing]: a five-member
    quorum group is split 3/2, the last of the first three sites
    holding the minority. Fenced, the minority's writes are refused
    with [No_quorum] and a heal-triggered anti-entropy sweep drains
    divergence to zero; unfenced (the baseline), the failed minority
    writes still mutate the reachable members and the divergence
    survives the heal.

    Shared by [bench/exp_repair] (fenced and unfenced arms), the
    [legion-sim replicate] subcommand and the scenario tests. *)

type config = {
  seed : int64;
      (** The repair part's seed; the partition boots with [seed + 2]. *)
  sites : (string * int) list;
      (** The repair topology; the partition uses its first three sites
          (at least two). *)
  replicas : int;
  kills : int;
  kill_every : float;
  period : float;  (** Seconds between workload calls. *)
  fencing : bool list;  (** One partition arm per entry: fenced or not. *)
}

val default : config
(** The E17 bench: seed 29, four sites of three hosts, three replicas,
    three kills 4 s apart, a call every 50 ms, fenced and unfenced
    partition arms. *)

type repair = {
  calls : int;
  answered : int;
  lost : int;  (** Traced replica losses. *)
  repaired : int;  (** Traced repairs. *)
  final_factor : int;
  factor_samples : int list;
      (** Replication factor half a second before each next kill. *)
}

type partition = {
  fenced : bool;
  majority_commits : int;
  minority_fenced : int;  (** Minority writes refused with [No_quorum]. *)
  minority_drift : int;  (** How far the minority members moved while cut off. *)
  divergent_after : int;
      (** Members still divergent after anti-entropy ([-1] unfenced). *)
  distinct_states : int;  (** Distinct member values after the heal. *)
  noquorum_events : int;
  reconciles : int;
}

type report = { cfg : config; repair : repair; partitions : partition list }

val partition_writes : int
(** Writes issued from each side during the split (5). *)

val run : config -> report

val to_json : report -> string
(** The E17 object: [{"experiment":"e17","repair":..,"partition":[..]}]. *)

val gates : report -> (string * bool) list
(** Repair: availability at least 99%, the factor restored before every
    kill and at the end, every kill traced as a loss and a repair.
    Fenced arm: every minority write refused, zero drift, zero
    divergence after anti-entropy, one state, NoQuorum and Reconcile
    traced. Unfenced arm: the minority drifted and the divergence
    survived. *)
