(** E15 — crash recovery under power failure (§4.2).

    A non-infrastructure host power-fails under an open-loop counter
    workload with the recovery machinery armed: periodic Magistrate
    checkpoints, heartbeat failure detection (Suspect -> ConfirmDead),
    class-driven reactivation on a surviving host, and epoch fencing of
    the placements the crash stranded. The host reboots later.

    The scenario is shared by [bench/exp_recover] (one run per
    checkpoint interval), the [legion-sim recover] subcommand and the
    scenario tests. Every field of a {!report} is a deterministic
    function of the {!config}. *)

type config = {
  seed : int64;
  sites : (string * int) list;
  duration : float;  (** Virtual seconds of workload. *)
  period : float;  (** Seconds between calls (open loop). *)
  checkpoint_period : float;  (** Magistrate checkpoint sweep interval. *)
  heartbeat_period : float;
  threshold : int;  (** Missed heartbeats before ConfirmDead. *)
  crash_at : float;  (** Power failure, seconds into the workload. *)
  reboot_after : float;  (** Seconds from the crash to the reboot. *)
}

val default : config
(** The E15 bench's configuration at a 1 s checkpoint interval: seed
    53, two sites of three hosts, 16 s of calls every 100 ms, heartbeat
    250 ms x 3, power failure at 6 s, reboot 4 s later. *)

type report = {
  cfg : config;
  checkpoints : int;
  suspects : int;
  confirmed : int;
  reactivated : int;
  fenced : int;
  detect_s : float;  (** Crash -> ConfirmDead; [nan] if never confirmed. *)
  mttr_max_s : float;  (** [rt.mttr] p100; [nan] without samples. *)
  mttr_p50_s : float;
  lost : int;
      (** Acked updates from before each object's last pre-crash
          checkpoint that are missing afterwards. *)
  unreachable : int;  (** Objects that did not answer [Get] after recovery. *)
  zombies : int;  (** Application placements stranded on the victim. *)
  zombie_answers : int;  (** Calls those placements served after the crash. *)
  stale_zombies : int;  (** Zombies whose epoch was superseded. *)
}

val run : config -> report

val to_json : report -> string
(** The E15 per-interval row (no trailing newline). *)

val gates : report -> (string * bool) list
(** ConfirmDead within [threshold] probe rounds (heartbeat period plus
    a 50 ms probe timeout, a tenth of the 0.5 s call budget), one more
    heartbeat period and 0.5 s of slack after the crash; MTTR samples
    present and bounded; no acked pre-checkpoint update lost and every
    object reachable; no zombie answers; every stale zombie fenced. *)
