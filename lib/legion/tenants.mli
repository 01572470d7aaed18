(** Multi-tenant hardening (E21, the noisy-neighbor gate).

    The runtime's tenancy layer keys every budget off the §2.4
    {e Responsible Agent}: a {!Legion_rt.Tenant} registry holds each
    principal's weight, inflight cap and token-bucket rate, budgeted
    objects queue per tenant under deficit round robin, and the class
    machinery judges its binding policy before handing out bindings.

    {!run} is the deterministic experiment the E21 bench, the
    [legion-sim tenants] subcommand and the regression tests share:
    four registered tenants drive a pool of budgeted workers; in the
    {e noisy} arm one of them ([mallory]) is driven at 10x its token
    budget, and in both arms an unauthorized principal ([eve]) probes
    from the other site. The {!gates}: the offender must not move the
    well-behaved tenants' p99 (vs the quiet arm, same seed) by more
    than the documented bound, every [Shed] must be attributed to the
    offender, and eve must be answered [Err.Denied] at [GetBinding] —
    she never receives a binding. *)

type lane = {
  tenant : string;
  sent : int;  (** Open-loop arrivals issued by this tenant. *)
  oks : int;
  quota_shed : int;
      (** Caller-visible [Quota_exceeded] / [Overloaded] replies (after
          the comm layer's budget-aware retries gave up). *)
  errors : int;  (** Any other failed reply. *)
  p50_ms : float;  (** End-to-end Work latency percentiles. *)
  p99_ms : float;
}

type arm = {
  noisy : bool;
  seed : int64;
  lanes : lane list;  (** alpha, beta, gamma, mallory — fixed order. *)
  shed_events : int;  (** [Shed] events in the scenario window. *)
  shed_by_offender : int;  (** ... attributed to mallory. *)
  shed_unattributed : int;  (** ... carrying no tenant tag (gate: 0). *)
  deny_events : int;  (** [Deny] events in the window. *)
  deny_by_eve : int;  (** ... attributed to eve. *)
  eve_probes : int;
  eve_denied : int;  (** Probes answered [Err.Denied] (gate: all). *)
  eve_bindings : int;  (** Probes that got through (gate: 0). *)
}

val offender : string
(** ["mallory"]. *)

val well_behaved : string list
(** [["alpha"; "beta"; "gamma"]]. *)

val run_scenario : ?seed:int64 -> noisy:bool -> unit -> arm
(** Run one arm: two sites of three hosts, two budgeted workers
    (one inflight slot, 8 ms service) in the east Jurisdiction; alpha,
    beta and gamma each drive 20 Poisson arrivals/s for 30 virtual
    seconds under ample budgets; mallory holds a 25 calls/s token
    budget and drives 20/s when quiet, 250/s when [noisy]; eve, on the
    west site, probes every 500 ms against a class whose binding
    policy ([Allow_responsible]) excludes her. Fully deterministic:
    the same [seed] yields a byte-identical {!scenario_json}. *)

val scenario_json : arm -> string
(** One-line JSON rendering of an arm (no trailing newline). *)

val find_lane : arm -> string -> lane option

(** {1 The E21 experiment} *)

type config = {
  seed : int64;
  baseline : bool;  (** Run the quiet arm only, with no gates. *)
}

val default : config
(** Seed 42, both arms: the E21 bench's configuration. *)

type report = {
  cfg : config;
  quiet_arm : arm;
  noisy_arm : arm option;  (** [None] for a baseline run. *)
  deterministic : bool;
      (** A second noisy run reproduced the first byte for byte ([true]
          for a baseline run). *)
}

val run : config -> report
(** The quiet arm, then (unless [baseline]) the noisy arm twice. *)

val to_json : report -> string
(** The whole E21 object, [BENCH_E21.json] byte for byte (no trailing
    newline); for a baseline run, the quiet arm's {!scenario_json}. *)

val max_p99_shift_ms : float
(** 25.0: the ceiling on any well-behaved tenant's |noisy - quiet| p99. *)

val worst_p99_shift : arm -> arm -> float
(** [worst_p99_shift quiet noisy]: the largest well-behaved
    |noisy - quiet| p99, in ms. *)

val gates : report -> (string * bool) list
(** Empty for a baseline run. Otherwise: the noisy report is
    deterministic; no well-behaved p99 moves by more than
    {!max_p99_shift_ms}; the noisy arm shed at least once, every shed
    attributed to the offender and none untagged; in both arms every
    eve probe is answered [Denied] and logged as a [Deny], eve never
    resolves a binding, and the well-behaved lanes see no quota sheds
    and no errors. *)

val work_unit : string
(** The scenario's application unit, exposed for tests. *)

val register_units : unit -> unit
