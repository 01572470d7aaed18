(** E16 — overload: admission control, load shedding, circuit breakers.

    One serial-service counter is driven by an open-loop arrival ramp
    scaled off its measured saturation rate. With protection on, each
    object admits a bounded inflight/queue budget and sheds the excess
    with [Err.Overloaded], and a per-destination circuit breaker fails
    the worst bursts fast; with it off (the baseline) every arrival is
    delivered, the queue grows without bound and retransmissions
    amplify the load until goodput collapses.

    Shared by [bench/exp_overload] (both arms), the [legion-sim
    overload] subcommand and the scenario tests. *)

type config = {
  seed : int64;
  sites : (string * int) list;
  rates : float list;  (** Offered load per step, as multiples of saturation. *)
  step : float;  (** Virtual seconds per ramp step. *)
  service : float;  (** Service time of the serial object. *)
  protected : bool;  (** Admission control and circuit breakers on. *)
}

val default : config
(** The E16 bench's protected arm: seed 53, two sites of three hosts,
    0.5x to 2.5x saturation in five 5 s steps, 20 ms service. *)

type step = {
  rate : float;  (** Offered calls per second. *)
  issued : int;
  ok : int;
  failed : int;
  p99 : float;  (** Of successful calls issued in this step; [nan] if none. *)
}

type report = {
  cfg : config;
  saturation : float;  (** Measured closed-loop calls per second. *)
  steps : step list;
  sheds : int;
  opens : int;  (** Circuit-breaker transitions. *)
  probes : int;
  closes : int;
  retries : int;
  dropped : int;  (** Messages dropped during the ramp. *)
}

val run : config -> report

val to_json : report -> string
(** The E16 per-run object (no trailing newline). *)

val goodput : config -> step -> float
(** Successful calls per second of the step. *)

val p99_bound : float
(** A successful call lives inside one call budget (1.5 s; the workload
    pins rebinds to 0) plus 0.2 s for resolution and the last reply. *)

val gates : report -> (string * bool) list
(** Protected: at every step at or past 2x saturation, goodput stays at
    least 70% of the run's peak and the p99 of successful calls under
    {!p99_bound}; the run shed at least once. Baseline: goodput at the
    last step falls below half its peak, or a past-knee p99 blows
    through {!p99_bound}. *)
