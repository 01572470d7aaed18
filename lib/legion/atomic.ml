(* E20 — a transactional workload under one fault schedule, audited
   from the store histories once the system has healed. *)

module Value = Legion_wire.Value
module Loid = Legion_naming.Loid
module Network = Legion_net.Network
module Runtime = Legion_rt.Runtime
module Err = Legion_rt.Err
module Impl = Legion_core.Impl
module Well_known = Legion_core.Well_known
module Recorder = Legion_obs.Recorder
module Trace = Legion_obs.Trace
module Prng = Legion_util.Prng
module Participant = Legion_txn.Participant
module Coordinator = Legion_txn.Coordinator
module Audit = Legion_txn.Audit

type mode = Two_phase | Saga | Mix

type schedule =
  | Clean
  | Crash_participant
  | Crash_coordinator
  | Partition
  | Shed

let schedules = [ Clean; Crash_participant; Crash_coordinator; Partition; Shed ]

let schedule_name = function
  | Clean -> "clean"
  | Crash_participant -> "crash-participant"
  | Crash_coordinator -> "crash-coordinator"
  | Partition -> "partition"
  | Shed -> "shed"

type config = {
  seed : int64;
  sites : (string * int) list;
  rounds : int;
  mode : mode;
  schedule : schedule;
}

let default =
  {
    seed = 53L;
    sites = [ ("a", 3); ("b", 3) ];
    rounds = 30;
    mode = Mix;
    schedule = Clean;
  }

type report = {
  cfg : config;
  submitted : int;
  resumes : int;
  prepares : int;
  crashes : int;
  partitions : int;
  audit : Audit.t;
}

let counter_unit = "atomic.counter"
let n_participants = 6

let txn_step dst d =
  Value.Record
    [
      ("dst", Loid.to_value dst);
      ("meth", Value.Str "Increment");
      ("args", Value.List [ Value.Int d ]);
      ("cmeth", Value.Str "Increment");
      ("cargs", Value.List [ Value.Int (-d) ]);
    ]

(* The coordinator must live off the infrastructure hosts so a crash can
   kill it without beheading the Jurisdiction (magistrates are
   externally started, §4.2.1). *)
let create_coordinator sys ctx ~cls =
  let infra = List.map (fun s -> List.hd s.System.net_hosts) (System.sites sys) in
  let create () = Api.create_object_exn sys ctx ~cls ~eager:true () in
  let rec place co attempts =
    match Runtime.find_proc (System.rt sys) co with
    | Some p when not (List.mem (Runtime.proc_host p) infra) -> co
    | _ when attempts >= 16 -> co
    | _ -> place (create ()) (attempts + 1)
  in
  place (create ()) 0

let run cfg =
  Impl.register counter_unit (Fixture.counter counter_unit);
  let sys =
    System.boot ~seed:cfg.seed ~trace_capacity:500_000
      ~rt_config:
        { Runtime.default_config with call_timeout = 0.5; max_rebinds = 4 }
      ~sites:cfg.sites ()
  in
  let ctx = System.client sys () in
  let net = System.net sys and rt = System.rt sys and obs = System.obs sys in
  let part_cls =
    Api.derive_class_exn sys ctx ~parent:Well_known.legion_object
      ~name:"TxnCounter"
      ~units:[ counter_unit; Participant.unit_name ]
      ()
  in
  let coord_cls =
    Api.derive_class_exn sys ctx ~parent:Well_known.legion_object
      ~name:"TxnCoordinator" ~units:[ Coordinator.unit_name ] ()
  in
  let infra = List.map (fun s -> List.hd s.System.net_hosts) (System.sites sys) in
  let participants =
    Array.init n_participants (fun _ ->
        Api.create_object_exn sys ctx ~cls:part_cls ~eager:true ())
  in
  let co = create_coordinator sys ctx ~cls:coord_cls in
  let coord_host =
    match Runtime.find_proc rt co with
    | Some p -> Runtime.proc_host p
    | None -> failwith "txn: coordinator placement not found"
  in
  (match
     Api.call sys ctx ~dst:co ~meth:"Configure"
       ~args:[ Value.Record [ ("store", Value.Str (fst (List.hd cfg.sites))) ] ]
   with
  | Ok _ -> ()
  | Error e -> failwith ("txn: Configure failed: " ^ Err.to_string e));
  let t0 = System.now sys in
  System.enable_recovery sys ~checkpoint_period:0.5 ~heartbeat_period:0.25
    ~threshold:3
    ~until:(t0 +. float_of_int cfg.rounds +. 170.0)
    ();
  System.run_for sys 2.0;
  let mark = Recorder.total obs in
  let prng = Prng.create ~seed:(Int64.add cfg.seed 5L) in
  let submitted = ref [] and acked = ref [] in
  let crashes = ref 0 and partitions = ref 0 in
  let crash_round = max 1 (cfg.rounds / 3) in
  let submit ?(async = false) ?(forced = false) i j =
    (* Only 2PC has a Committing window (decision durable, acks
       pending) for a coordinator crash to strand and recovery to
       resume, so the crash round is forced to 2PC unless every
       transaction is a saga. *)
    let mode =
      match cfg.mode with
      | Two_phase -> "2pc"
      | Saga -> "saga"
      | Mix when forced -> "2pc"
      | Mix -> if Prng.bernoulli prng ~p:0.5 then "2pc" else "saga"
    in
    let d = 1 + Prng.int prng 5 in
    let args =
      [
        Value.Str mode;
        Value.List [ txn_step participants.(i) d; txn_step participants.(j) d ];
      ]
    in
    let on_reply = function
      | Ok (Value.Str id) ->
          submitted := id :: !submitted;
          acked := id :: !acked
      | Ok _ -> ()
      | Error (Err.Txn_aborted { txn }) -> submitted := txn :: !submitted
      | Error _ -> () (* the outcome is resolved from the histories *)
    in
    if async then Runtime.invoke ctx ~dst:co ~meth:"TxnRun" ~args on_reply
    else on_reply (Api.call sys ctx ~dst:co ~meth:"TxnRun" ~args)
  in
  let crash_host h =
    Runtime.power_fail rt h;
    incr crashes;
    ignore
      (Legion_sim.Engine.schedule (System.sim sys) ~delay:6.0 (fun () ->
           Network.set_host_up net h true))
  in
  for round = 1 to cfg.rounds do
    (match cfg.schedule with
    | Shed ->
        (* Three overlapping transactions race for the same pair;
           prepare locks shed the losers and the runtime's backoff
           retries them after the holder resolves. *)
        submit ~async:true 0 1;
        submit ~async:true 1 0;
        submit ~async:true 0 1
    | _ ->
        let i = Prng.int prng n_participants in
        let j =
          (i + 1 + Prng.int prng (n_participants - 1)) mod n_participants
        in
        submit
          ~forced:(cfg.schedule = Crash_coordinator && round = crash_round)
          i j);
    (match cfg.schedule with
    | Crash_participant when round = 8 || round = 18 ->
        let candidates =
          List.filter
            (fun h ->
              (not (List.mem h infra))
              && h <> coord_host && Network.host_is_up net h)
            (Network.hosts net)
        in
        if candidates <> [] then
          crash_host
            (List.nth candidates (Prng.int prng (List.length candidates)))
    | Crash_coordinator when round = crash_round ->
        (* The synchronous submit above already acknowledged a commit;
           the decision now lives only in the coordinator's WAL. *)
        crash_host coord_host
    | Partition when round = 10 || round = 20 ->
        Network.set_partitioned net 0 1 true;
        incr partitions;
        ignore
          (Legion_sim.Engine.schedule (System.sim sys) ~delay:2.0 (fun () ->
               Network.set_partitioned net 0 1 false))
    | _ -> ());
    System.run_for sys 1.0
  done;
  (* Heal and drain: reactivations, TxnResume, redrives. *)
  List.iter (fun h -> Network.set_host_up net h true) (Network.hosts net);
  if cfg.schedule = Partition then Network.set_partitioned net 0 1 false;
  System.run_for sys 60.0;
  System.run sys;
  let events = Recorder.events_since obs mark in
  let audit =
    Audit.run
      ~call:(fun dst meth -> Api.call sys ctx ~dst ~meth ~args:[])
      ~submitted:!submitted ~acked:!acked
      ~participants:(Array.to_list participants)
      ~coordinators:[ co ]
      (System.site sys 0).System.storage
  in
  {
    cfg;
    submitted = List.length (List.sort_uniq String.compare !submitted);
    resumes = Trace.count_of (Trace.resume ()) events;
    prepares = Trace.count_of (Trace.prepare ()) events;
    crashes = !crashes;
    partitions = !partitions;
    audit;
  }

let to_json r =
  Printf.sprintf
    "{\"schedule\":%S,\"acked\":%d,\"committed\":%d,\"compensated\":%d,\
     \"resumes\":%d,\"prepares\":%d,\"crashes\":%d,\"partitions\":%d,\
     \"in_doubt\":%d,\"partial_commits\":%d,\"orphaned_locks\":%d}"
    (schedule_name r.cfg.schedule)
    r.submitted r.audit.committed r.audit.compensated r.resumes r.prepares
    r.crashes r.partitions r.audit.in_doubt r.audit.partial_commits
    r.audit.orphaned_locks

let gates r =
  (* Only a 2PC crash round leaves a durable decision to resume. *)
  (if r.cfg.schedule = Crash_coordinator && r.cfg.mode <> Saga then
     [
       ( Printf.sprintf "coordinator crash resumed its WAL decision (%d resumes)"
           r.resumes,
         r.resumes > 0 );
     ]
   else [])
  @
  match r.audit.violations with
  | [] -> [ ("atomicity audit clean", true) ]
  | vs -> List.map (fun v -> ("atomicity audit: " ^ v, false)) vs
