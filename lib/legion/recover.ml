(* E15 — crash recovery: power failure under an open-loop workload with
   checkpoints, heartbeat detection and epoch fencing armed. *)

module Value = Legion_wire.Value
module Loid = Legion_naming.Loid
module Network = Legion_net.Network
module Runtime = Legion_rt.Runtime
module Well_known = Legion_core.Well_known
module Recorder = Legion_obs.Recorder
module Event = Legion_obs.Event
module Trace = Legion_obs.Trace
module Script = Legion_sim.Script
module Histogram = Legion_util.Stats.Histogram
module Prng = Legion_util.Prng

type config = {
  seed : int64;
  sites : (string * int) list;
  duration : float;
  period : float;
  checkpoint_period : float;
  heartbeat_period : float;
  threshold : int;
  crash_at : float;
  reboot_after : float;
}

let default =
  {
    seed = 53L;
    sites = [ ("a", 3); ("b", 3) ];
    duration = 16.0;
    period = 0.1;
    checkpoint_period = 1.0;
    heartbeat_period = 0.25;
    threshold = 3;
    crash_at = 6.0;
    reboot_after = 4.0;
  }

let call_timeout = 0.5
let n_objects = 8

type report = {
  cfg : config;
  checkpoints : int;
  suspects : int;
  confirmed : int;
  reactivated : int;
  fenced : int;
  detect_s : float;
  mttr_max_s : float;
  mttr_p50_s : float;
  lost : int;
  unreachable : int;
  zombies : int;
  zombie_answers : int;
  stale_zombies : int;
}

let run cfg =
  let sys =
    System.boot ~seed:cfg.seed ~trace_capacity:500_000
      ~rt_config:{ Runtime.default_config with call_timeout }
      ~sites:cfg.sites ()
  in
  let ctx = System.client sys () in
  let cls = Fixture.counter_class sys ctx "recover.counter" in
  let objects =
    Array.init n_objects (fun _ -> Api.create_object_exn sys ctx ~cls ~eager:true ())
  in
  Array.iter (fun o -> ignore (Api.call sys ctx ~dst:o ~meth:"Get" ~args:[])) objects;
  let sim = System.sim sys
  and net = System.net sys
  and obs = System.obs sys
  and rt = System.rt sys in
  let mark = Recorder.total obs in
  let t0 = System.now sys in
  let t_end = t0 +. cfg.duration in
  System.enable_recovery sys ~checkpoint_period:cfg.checkpoint_period
    ~heartbeat_period:cfg.heartbeat_period ~threshold:cfg.threshold
    ~until:t_end ();
  let infra = List.map (fun s -> List.hd s.System.net_hosts) (System.sites sys) in
  let victim =
    match List.filter (fun h -> not (List.mem h infra)) (Network.hosts net) with
    | h :: _ -> h
    | [] -> failwith "recover: no non-infrastructure host (use site:2 or more)"
  in
  let t_crash = t0 +. cfg.crash_at in
  (* At the instant of the power failure, snapshot every application
     placement stranded on the victim with its delivered-call count;
     the epoch fence must keep those counts flat. *)
  let zombies = ref [] in
  Script.at sim ~time:t_crash (fun () ->
      zombies :=
        Runtime.procs_on_host rt victim
        |> List.filter (fun p -> Runtime.proc_kind p = Well_known.kind_app)
        |> List.map (fun p -> (p, Runtime.requests_of p));
      Runtime.power_fail rt victim);
  Script.at sim ~time:(t_crash +. cfg.reboot_after) (fun () ->
      Network.set_host_up net victim true);
  (* Acks carry their virtual time so durability can be judged against
     each object's checkpoint times. *)
  let acks = Array.make n_objects [] in
  let prng = Prng.create ~seed:(Int64.add cfg.seed 6L) in
  Script.every sim ~period:cfg.period ~until:(t_end -. 1e-9) (fun () ->
      let i = Prng.int prng n_objects in
      Runtime.invoke ctx ~dst:objects.(i) ~meth:"Increment" ~args:[ Value.Int 1 ]
        (function
          | Ok (Value.Int n) -> acks.(i) <- (System.now sys, n) :: acks.(i)
          | Ok _ | Error _ -> ()));
  System.run sys;
  let events = Recorder.events_since obs mark in
  let count p = Trace.count_of p events in
  let detect_s =
    match List.find_opt (Trace.confirm_dead ()) events with
    | Some e -> e.Event.time -. t_crash
    | None -> nan
  in
  let mttr = Recorder.latency obs ~component:"rt.mttr" in
  let pct p = match mttr with Some h -> Histogram.percentile h p | None -> nan in
  let mttr_max_s = pct 100.0 in
  (* Durability: whatever was acked before an object's last pre-crash
     checkpoint must be visible now. The margin covers acks that raced
     the SaveState capture across the wire. *)
  let margin = 0.1 in
  let lost = ref 0 and unreachable = ref 0 in
  Array.iteri
    (fun i o ->
      let last_ckpt =
        List.fold_left
          (fun acc e ->
            match e.Event.kind with
            | Event.Checkpoint { loid }
              when Loid.equal loid o && e.Event.time <= t_crash ->
                Float.max acc e.Event.time
            | _ -> acc)
          neg_infinity events
      in
      let floor_value =
        List.fold_left
          (fun acc (t, v) -> if t <= last_ckpt -. margin then max acc v else acc)
          0 acks.(i)
      in
      match Api.call sys ctx ~dst:o ~meth:"Get" ~args:[] with
      | Ok (Value.Int n) -> lost := !lost + max 0 (floor_value - n)
      | Ok _ | Error _ -> incr unreachable)
    objects;
  let zombie_answers =
    List.fold_left
      (fun acc (p, before) -> acc + (Runtime.requests_of p - before))
      0 !zombies
  in
  let stale_zombies =
    List.length
      (List.filter
         (fun (p, _) ->
           Runtime.proc_epoch p < Runtime.current_epoch rt (Runtime.proc_loid p))
         !zombies)
  in
  {
    cfg;
    checkpoints = count (Trace.checkpoint ());
    suspects = count (Trace.suspect ());
    confirmed = count (Trace.confirm_dead ());
    reactivated = count (Trace.reactivate ());
    fenced = count (Trace.fence ());
    detect_s;
    mttr_max_s;
    mttr_p50_s = pct 50.0;
    lost = !lost;
    unreachable = !unreachable;
    zombies = List.length !zombies;
    zombie_answers;
    stale_zombies;
  }

let to_json r =
  Printf.sprintf
    "{\"interval\":%.2f,\"checkpoints\":%d,\"suspects\":%d,\"confirmed\":%d,\
     \"reactivated\":%d,\"fenced\":%d,\"detect_s\":%.2f,\"mttr_p50_s\":%.2f,\
     \"lost\":%d,\"zombies\":%d}"
    r.cfg.checkpoint_period r.checkpoints r.suspects r.confirmed r.reactivated
    r.fenced r.detect_s r.mttr_p50_s r.lost r.zombies

let detect_bound cfg =
  let probe_timeout = call_timeout /. 10.0 in
  (float_of_int cfg.threshold *. (cfg.heartbeat_period +. probe_timeout))
  +. cfg.heartbeat_period +. 0.5

let gates r =
  let gate fmt = Printf.ksprintf (fun name ok -> (name, ok)) fmt in
  let bound = detect_bound r.cfg in
  (* Worst first delivery after recovery: one timed-out call against
     the dead placement, a rebind, plus workload spacing; histogram
     buckets round the estimate up. *)
  let mttr_bound = bound +. (2.0 *. call_timeout) +. 3.0 in
  [
    gate "ConfirmDead %.2f s after the crash (bound %.2f s)" r.detect_s bound
      (r.detect_s <= bound);
    gate "MTTR p100 %.2f s (bound %.2f s)" r.mttr_max_s mttr_bound
      (r.mttr_max_s <= mttr_bound);
    gate "%d objects unreachable after recovery" r.unreachable (r.unreachable = 0);
    gate "%d acked pre-checkpoint updates lost" r.lost (r.lost = 0);
    gate "zombies answered %d calls after the crash" r.zombie_answers
      (r.zombie_answers = 0);
    gate "%d reactivations, %d fence events" r.reactivated r.fenced
      (r.reactivated = 0 || r.fenced > 0);
    gate "%d stale zombies, %d fence events" r.stale_zombies r.fenced
      (r.fenced >= r.stale_zombies);
  ]
