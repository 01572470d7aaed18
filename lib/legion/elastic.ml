(* Autonomic elasticity: arming the self-managing loops, plus the
   shared E19 flash-crowd scenario.

   [enable] wires three mechanisms the paper leaves to policy code:
   - §5.2.2 class cloning made automatic: each supervised class gets an
     admission budget (so its load factor means something) and a
     [StartElastic] loop that grows/shrinks a redirect ring of clones;
   - §3.8 Scheduling Agents: a ["legion.sched.rebalance"] agent is
     derived, configured with every Jurisdiction plus freshly
     provisioned spare Magistrates, and set loose to migrate hot
     objects toward their callers and split oversized Jurisdictions;
   - §5.2.2 Binding Agent combining trees: a watch on per-period
     lookup demand at the site agents re-tiers them under a root layer
     once the flat arrangement is saturated.

   [run_scenario] is the deterministic flash-crowd experiment shared by
   bench E19, the [legion-sim elastic] subcommand and the regression
   tests: a two-site Legion where the whole object population lives in
   the east Jurisdiction and a flash crowd lands from the west. *)

module Value = Legion_wire.Value
module Loid = Legion_naming.Loid
module Address = Legion_naming.Address
module Engine = Legion_sim.Engine
module Script = Legion_sim.Script
module Runtime = Legion_rt.Runtime
module Err = Legion_rt.Err
module Impl = Legion_core.Impl
module Well_known = Legion_core.Well_known
module C = Legion_core.Convert
module Sched_part = Legion_sched.Sched_part
module Recorder = Legion_obs.Recorder
module Trace = Legion_obs.Trace
module Stats = Legion_util.Stats
module Prng = Legion_util.Prng

type config = {
  class_admission : Runtime.admission;
  clone_period : float;
  clone_hi : float;
  clone_sustain : int;
  clone_grow_rate : float;
  clone_lo_rate : float;
  clone_merge_sustain : int;
  max_clones : int;
  rebalance_period : float;
  hot_calls : int;
  split_objects : int;
  spares_per_site : int;
  retier_fanout : int;
  retier_lookups : int;
}

let default_config =
  {
    (* Generous on purpose: the class is also the control hub —
       NotifyMagistrates, binding refreshes and the clone handshakes all
       land here, and shedding those wedges migrations half-done. The
       cloning trigger rides the demand rate, not budget exhaustion. *)
    class_admission =
      { Runtime.max_inflight = 16; max_queue = 64; retry_after_hint = 0.05 };
    clone_period = 2.0;
    clone_hi = 0.5;
    clone_sustain = 2;
    clone_grow_rate = 15.0;
    clone_lo_rate = 8.0;
    clone_merge_sustain = 3;
    max_clones = 2;
    rebalance_period = 2.0;
    hot_calls = 12;
    split_objects = 200;
    spares_per_site = 1;
    retier_fanout = 2;
    retier_lookups = 60;
  }

type enabled = { rebalancer : Loid.t; retier_fired : unit -> bool }

(* A spare Magistrate parked on the site, sharing its storage (§2.2
   non-disjoint Jurisdictions) so a later [TransferObjects] moves
   responsibility without moving bytes. Like [System.split_jurisdiction]
   minus the transfer: the rebalancer decides later whether it is ever
   needed. *)
let provision_spare t ctx ~site ~ordinal =
  let s = System.site t site in
  let name = Printf.sprintf "%s.spare%d" s.System.site_name ordinal in
  let mag, proc =
    System.start_jurisdiction t ~site ~name ~hosts:s.System.host_objects
  in
  ignore
    (Api.call_exn t ctx ~dst:Well_known.legion_magistrate
       ~meth:"RegisterInstance"
       ~args:[ Loid.to_value mag; Address.to_value (Runtime.address_of proc) ]);
  mag

(* Watch the per-period lookup demand reaching the site Binding Agents;
   once a period serves [retier_lookups] or more, the flat arrangement
   is saturated — re-tier exactly once. *)
let retier_watch t ~cfg ~until =
  let rt = System.rt t in
  let eng = System.sim t in
  let fired = ref false in
  let agent_requests () =
    List.fold_left
      (fun acc s ->
        match Runtime.find_proc rt s.System.agent with
        | Some p -> acc + Runtime.requests_of p
        | None -> acc)
      0 (System.sites t)
  in
  let last = ref (agent_requests ()) in
  let rec tick time =
    if time <= until && not !fired then
      ignore
        (Engine.schedule_at eng ~time (fun () ->
             let now_rq = agent_requests () in
             let delta = now_rq - !last in
             last := now_rq;
             if delta >= cfg.retier_lookups then begin
               fired := true;
               System.wire_agent_tree t ~fanout:cfg.retier_fanout ignore
             end
             else tick (time +. cfg.rebalance_period)))
  in
  tick (Engine.now eng +. cfg.rebalance_period);
  fun () -> !fired

let enable t ctx ~classes ~until ?(cfg = default_config) () =
  let rt = System.rt t in
  (* Supervised classes: an admission budget (the load-factor signal
     StartElastic samples) and the autonomic cloning loop. *)
  List.iter
    (fun cls ->
      (match Runtime.find_proc rt cls with
      | Some p -> Runtime.set_admission p (Some cfg.class_admission)
      | None -> ());
      let v =
        Value.Record
          [
            ("period", Value.Float cfg.clone_period);
            ("until", Value.Float until);
            ("hi", Value.Float cfg.clone_hi);
            ("sustain", Value.Int cfg.clone_sustain);
            ("grow_rate", Value.Float cfg.clone_grow_rate);
            ("lo_rate", Value.Float cfg.clone_lo_rate);
            ("merge_sustain", Value.Int cfg.clone_merge_sustain);
            ("max_clones", Value.Int cfg.max_clones);
          ]
      in
      ignore (Api.call_exn t ctx ~dst:cls ~meth:"StartElastic" ~args:[ v ]))
    classes;
  (* Spare Magistrates, then the rebalancing Scheduling Agent. *)
  let spares =
    List.concat
      (List.mapi
         (fun i s ->
           List.init cfg.spares_per_site (fun j ->
               (provision_spare t ctx ~site:i ~ordinal:j, s.System.site_id)))
         (System.sites t))
  in
  let reb_cls =
    Api.derive_class_exn t ctx ~parent:Well_known.legion_object
      ~name:"Rebalancer"
      ~units:[ Sched_part.unit_rebalance ]
      ~idl:
        "interface Rebalancer { Configure(cfg: any); StartRebalance(period: \
         float, until: float); }"
      ~kind:Well_known.kind_sched ()
  in
  let rebalancer = Api.create_object_exn t ctx ~cls:reb_cls ~eager:true () in
  let mag_entry (mag, site) =
    Value.Record [ ("mag", Loid.to_value mag); ("site", Value.Int site) ]
  in
  let mags =
    List.map (fun s -> (s.System.magistrate, s.System.site_id)) (System.sites t)
  in
  let conf =
    Value.Record
      [
        ("magistrates", Value.List (List.map mag_entry mags));
        ("spares", Value.List (List.map mag_entry spares));
        ("hot_calls", Value.Int cfg.hot_calls);
        ("split_objects", Value.Int cfg.split_objects);
      ]
  in
  ignore (Api.call_exn t ctx ~dst:rebalancer ~meth:"Configure" ~args:[ conf ]);
  ignore
    (Api.call_exn t ctx ~dst:rebalancer ~meth:"StartRebalance"
       ~args:[ Value.Float cfg.rebalance_period; Value.Float until ]);
  let retier_fired = retier_watch t ~cfg ~until in
  { rebalancer; retier_fired }

(* ------------------------------------------------------------------ *)
(* The shared flash-crowd scenario (E19).                              *)

(* The scenario's application unit: [Work(d)] holds an inflight slot
   for [d] virtual seconds, so demand shows up in admission load and in
   the caller's latency. *)
let work_unit = "legion.elastic.work"
let work_idl = "interface ElasticWorker { Work(d: float): int; }"

let register_units () = Impl.register work_unit (Fixture.worker work_unit)

type report = {
  elastic : bool;
  seed : int64;
  arrivals : int;
  works : int;
  oks : int;
  sheds : int;
  errors : int;
  created : int;
  p50_ms : float;
  p99_ms : float;
  flash_p50_ms : float;
  flash_p99_ms : float;
  max_host_share : float;
  clones : int;
  merges : int;
  moves : int;
  splits : int;
  retier : bool;
}

let scenario_objects = 16
let scenario_zipf_s = 1.2
let scenario_horizon = 60.0
let scenario_flash_at = 20.0
let scenario_flash_width = 20.0

let scenario_profile =
  {
    Script.base_rate = 40.0;
    diurnal_amplitude = 0.25;
    diurnal_period = 60.0;
    flashes = [];
    (* The flash is attached in [run_scenario], where absolute times
       are known (the virtual clock is not 0 after bootstrap). *)
  }

(* Follow §5.2.2 redirects asynchronously — the open-loop generator
   must never block on the engine, so it cannot use [Api.create_object]. *)
let async_create ctx ~cls ~hints k =
  let rec issue dst hops =
    Runtime.invoke ctx ~dst ~meth:"Create" ~args:[ Value.Record []; hints ]
      (fun r ->
        match r with
        | Ok v -> (
            match C.loid_field v "redirect" with
            | Ok clone when hops > 0 -> issue clone (hops - 1)
            | _ -> k r)
        | Error _ -> k r)
  in
  issue cls 3

let pct stats p = if Stats.is_empty stats then 0.0 else Stats.percentile stats p

let run_scenario ?(seed = 7L) ~elastic () =
  register_units ();
  let cfg = default_config in
  let sys =
    System.boot ~seed
      ~rt_config:
        {
          Runtime.default_config with
          admission = Some Runtime.default_admission;
        }
      ~trace_capacity:(1 lsl 18)
      ~sites:[ ("east", 3); ("west", 3) ]
      ()
  in
  let rt = System.rt sys in
  let eng = System.sim sys in
  let s0 = System.site sys 0 in
  let ctx = System.client sys () in
  let cls =
    Api.derive_class_exn sys ctx ~parent:Well_known.legion_object
      ~name:"ElasticWorker" ~units:[ work_unit ] ~idl:work_idl ()
  in
  (* The whole population is deliberately placed in the east
     Jurisdiction: the imbalance the elastic machinery must discover. *)
  let objs =
    Array.init scenario_objects (fun _ ->
        Api.create_object_exn sys ctx ~cls ~magistrate:s0.System.magistrate ())
  in
  let start = System.now sys in
  let flash_at = start +. scenario_flash_at in
  let until = start +. scenario_horizon in
  let enabled =
    if elastic then Some (enable sys ctx ~classes:[ cls ] ~until ~cfg ())
    else None
  in
  let mark = Recorder.total (System.obs sys) in
  let clients =
    Array.init (List.length (System.sites sys)) (fun i ->
        System.client sys ~site:i ())
  in
  let workload =
    {
      Script.objects = scenario_objects;
      zipf_s = scenario_zipf_s;
      site_mix = [| 0.75; 0.25 |];
      profile =
        {
          scenario_profile with
          Script.flashes =
            [
              {
                Script.at = flash_at;
                width = scenario_flash_width;
                boost = 6.0;
                site = Some 1;
              };
            ];
        };
    }
  in
  let dbg = Sys.getenv_opt "LEGION_ELASTIC_DEBUG" <> None in
  let err_tally : (string, int) Hashtbl.t = Hashtbl.create 8 in
  let note_err where e =
    if dbg then begin
      let key = Printf.sprintf "%s: %s" where (Err.to_string e) in
      Hashtbl.replace err_tally key
        (1 + Option.value ~default:0 (Hashtbl.find_opt err_tally key))
    end
  in
  let arrivals = ref 0 in
  let works = ref 0 in
  let oks = ref 0 in
  let sheds = ref 0 in
  let errors = ref 0 in
  let created = ref 0 in
  let all = Stats.create () in
  let flash = Stats.create () in
  let host_served = Hashtbl.create 16 in
  let create_hints =
    Value.Record
      [
        ("magistrate", C.vopt Loid.to_value (Some s0.System.magistrate));
        ("host", C.vopt Loid.to_value None);
        ("sched", C.vopt Loid.to_value None);
        ("candidates", C.vloids []);
        ("public_key", C.vopt Value.of_string None);
        ("eager", Value.Bool false);
      ]
  in
  (* The settled half of the flash window: the first half is where
     clones and migrations are still catching up. *)
  let flash_settled_lo = flash_at +. (scenario_flash_width /. 2.0) in
  let flash_settled_hi = flash_at +. scenario_flash_width in
  let fire ~seq ~obj ~site =
    incr arrivals;
    let c = clients.(site) in
    if seq mod 8 = 0 then
      (* Population churn: every eighth arrival is an instantiation
         request against the class — the §5.2.2 cloning load. *)
      async_create c ~cls ~hints:create_hints (fun r ->
          match r with
          | Ok _ -> incr created
          | Error (Err.Overloaded _ as e) ->
              incr sheds;
              note_err "create" e
          | Error e ->
              incr errors;
              note_err "create" e)
    else begin
      incr works;
      let t0 = Engine.now eng in
      let dst = objs.(obj) in
      Runtime.invoke c ~dst ~meth:"Work"
        ~args:[ Value.Float 0.002 ]
        (fun r ->
          match r with
          | Ok _ ->
              incr oks;
              let dt = Engine.now eng -. t0 in
              Stats.add all dt;
              if site = 1 && t0 >= flash_settled_lo && t0 <= flash_settled_hi
              then Stats.add flash dt;
              (match Runtime.find_proc rt dst with
              | Some p ->
                  let h = Runtime.proc_host p in
                  Hashtbl.replace host_served h
                    (1 + Option.value ~default:0 (Hashtbl.find_opt host_served h))
              | None -> ())
          | Error (Err.Overloaded _ as e) ->
              incr sheds;
              note_err "work" e
          | Error e ->
              incr errors;
              note_err "work" e)
    end
  in
  let prng = Prng.create ~seed:(Int64.logxor seed 0x9e3779b97f4a7c15L) in
  Script.drive eng ~prng workload ~start ~until fire;
  System.run_for sys (scenario_horizon +. 10.0);
  let total_served = Hashtbl.fold (fun _ n acc -> acc + n) host_served 0 in
  let max_served = Hashtbl.fold (fun _ n acc -> Stdlib.max acc n) host_served 0 in
  let max_host_share =
    if total_served = 0 then 0.0
    else float_of_int max_served /. float_of_int total_served
  in
  if dbg then
    Hashtbl.iter (fun k n -> Printf.eprintf "  [dbg] %5d  %s\n%!" n k) err_tally;
  let evs = Recorder.events_since (System.obs sys) mark in
  {
    elastic;
    seed;
    arrivals = !arrivals;
    works = !works;
    oks = !oks;
    sheds = !sheds;
    errors = !errors;
    created = !created;
    p50_ms = pct all 50.0 *. 1000.0;
    p99_ms = pct all 99.0 *. 1000.0;
    flash_p50_ms = pct flash 50.0 *. 1000.0;
    flash_p99_ms = pct flash 99.0 *. 1000.0;
    max_host_share;
    clones = Trace.count_of (Trace.clone_ev ()) evs;
    merges = Trace.count_of (Trace.merge ()) evs;
    moves = Trace.count_of (Trace.migrate ()) evs;
    splits = Trace.count_of (Trace.split ()) evs;
    retier =
      (match enabled with Some e -> e.retier_fired () | None -> false);
  }

let scenario_json r =
  Printf.sprintf
    "{\"elastic\": %b, \"seed\": %Ld, \"arrivals\": %d, \"works\": %d, \
     \"oks\": %d, \"sheds\": %d, \"errors\": %d, \"created\": %d, \
     \"p50_ms\": %.3f, \"p99_ms\": %.3f, \"flash_p50_ms\": %.3f, \
     \"flash_p99_ms\": %.3f, \"max_host_share\": %.4f, \"clones\": %d, \
     \"merges\": %d, \"moves\": %d, \"splits\": %d, \"retier\": %b}"
    r.elastic r.seed r.arrivals r.works r.oks r.sheds r.errors r.created
    r.p50_ms r.p99_ms r.flash_p50_ms r.flash_p99_ms r.max_host_share r.clones
    r.merges r.moves r.splits r.retier
