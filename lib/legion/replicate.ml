(* E17 — self-healing replication: a replica-kill sweep against the
   repair manager, then a 3/2 quorum split with and without fencing. *)

module Value = Legion_wire.Value
module Loid = Legion_naming.Loid
module Address = Legion_naming.Address
module Network = Legion_net.Network
module Runtime = Legion_rt.Runtime
module Err = Legion_rt.Err
module Opr = Legion_core.Opr
module Well_known = Legion_core.Well_known
module Recorder = Legion_obs.Recorder
module Trace = Legion_obs.Trace
module Script = Legion_sim.Script
module Group_part = Legion_repl.Group_part
module Repair = Legion_repl.Repair

type config = {
  seed : int64;
  sites : (string * int) list;
  replicas : int;
  kills : int;
  kill_every : float;
  period : float;
  fencing : bool list;
}

let default =
  {
    seed = 29L;
    sites = [ ("a", 3); ("b", 3); ("c", 3); ("d", 3) ];
    replicas = 3;
    kills = 3;
    kill_every = 4.0;
    period = 0.05;
    fencing = [ true; false ];
  }

type repair = {
  calls : int;
  answered : int;
  lost : int;
  repaired : int;
  final_factor : int;
  factor_samples : int list;
}

type partition = {
  fenced : bool;
  majority_commits : int;
  minority_fenced : int;
  minority_drift : int;
  divergent_after : int;
  distinct_states : int;
  noquorum_events : int;
  reconciles : int;
}

type report = { cfg : config; repair : repair; partitions : partition list }

let counter_unit = "replicate.counter"
let partition_writes = 5

let boot ~seed ~call_timeout ~sites =
  System.boot ~seed ~trace_capacity:500_000
    ~rt_config:{ Runtime.default_config with call_timeout }
    ~sites ()

let counter_class sys ctx = Fixture.counter_class sys ctx counter_unit

(* --- Repair: kill the current primary every [kill_every] seconds. --- *)

let run_repair cfg =
  let sys = boot ~seed:cfg.seed ~call_timeout:0.4 ~sites:cfg.sites in
  let ctx = System.client sys () in
  let net = System.net sys
  and rt = System.rt sys
  and sim = System.sim sys
  and obs = System.obs sys in
  let cls = counter_class sys ctx in
  let loid = Api.create_object_exn sys ctx ~cls () in
  let opr =
    Opr.make ~kind:Well_known.kind_app
      ~units:[ counter_unit; Well_known.unit_object ]
      ()
  in
  (* Workers only: index 0 of each site hosts the infrastructure.
     Replicas take the first tier round-robin across sites so they
     spread before they stack; spares are the deeper tiers, then any
     first-tier host left over. *)
  let sites = System.sites sys in
  let tier i =
    List.filter_map (fun s -> List.nth_opt s.System.net_hosts i) sites
  in
  let depth =
    List.fold_left (fun a s -> max a (List.length s.System.net_hosts)) 0 sites
  in
  let tiers from =
    List.concat (List.init (max 0 (depth - from)) (fun i -> tier (from + i)))
  in
  let workers = tiers 1 in
  if List.length workers < cfg.replicas + cfg.kills then
    failwith
      (Printf.sprintf
         "replicate: topology has %d worker hosts; need replicas + kills = %d"
         (List.length workers) (cfg.replicas + cfg.kills));
  let hosts = List.filteri (fun i _ -> i < cfg.replicas) workers in
  let pool =
    hosts @ List.filter (fun h -> not (List.mem h hosts)) (tiers 2 @ tier 1)
  in
  let mgr =
    match
      Api.sync sys (fun k ->
          Repair.deploy ~ctx ~net ~loid ~opr ~hosts ~pool
            ~semantic:Address.Ordered_failover ~register_with:cls k)
    with
    | Ok m -> m
    | Error e -> failwith ("replicate: deploy: " ^ Err.to_string e)
  in
  let t0 = System.now sys in
  let t_end = t0 +. (cfg.kill_every *. (float_of_int cfg.kills +. 1.5)) in
  Repair.start mgr ~period:0.3 ~until:t_end;
  let mark = Recorder.total obs in
  let factor_samples = ref [] in
  for i = 1 to cfg.kills do
    let t_kill = t0 +. (float_of_int i *. cfg.kill_every) in
    Script.at sim ~time:t_kill (fun () ->
        match Repair.replica_hosts mgr with
        | h :: _ -> Runtime.crash_host rt h
        | [] -> ());
    Script.at sim
      ~time:(t_kill +. cfg.kill_every -. 0.5)
      (fun () -> factor_samples := Repair.replica_count mgr :: !factor_samples)
  done;
  let ok = ref 0 and total = ref 0 in
  Script.every sim ~period:cfg.period ~until:(t_end -. 1e-9) (fun () ->
      incr total;
      Runtime.invoke ctx ~dst:loid ~meth:"Increment" ~args:[ Value.Int 1 ]
        (function Ok _ -> incr ok | Error _ -> ()));
  System.run sys;
  let events = Recorder.events_since obs mark in
  {
    calls = !total;
    answered = !ok;
    lost = Trace.count_of (Trace.replica_lost ~loid ()) events;
    repaired = Trace.count_of (Trace.replica_repair ~loid ()) events;
    final_factor = Repair.replica_count mgr;
    factor_samples = List.rev !factor_samples;
  }

(* --- Partition: a 3/2 split of a quorum group. --- *)

let run_partition cfg ~fenced =
  Group_part.register ();
  (* The minority is the last of (at most) the first three sites; the
     majority's three members span the sites before it. *)
  let sites = List.filteri (fun i _ -> i < 3) cfg.sites in
  let last = List.length sites - 1 in
  if last < 1 then failwith "replicate: the partition needs two sites";
  let sys = boot ~seed:(Int64.add cfg.seed 2L) ~call_timeout:0.5 ~sites in
  let net = System.net sys and obs = System.obs sys in
  let ctx = System.client sys () in
  let ctx_min = System.client sys ~site:last () in
  let counter_cls = counter_class sys ctx in
  let group_cls =
    Api.derive_class_exn sys ctx ~parent:Well_known.legion_object ~name:"Group"
      ~units:[ Group_part.unit_name ] ()
  in
  let site n = System.site sys n in
  let head s =
    Api.create_object_exn sys ctx ~cls:group_cls ~eager:true
      ~magistrate:(site s).System.magistrate ()
  in
  let g_maj = head 0 in
  let g_min = head last in
  let member s =
    Api.create_object_exn sys ctx ~cls:counter_cls ~eager:true
      ~magistrate:(site s).System.magistrate ()
  in
  let members =
    [ member 0; member 0; member (min 1 (last - 1)); member last; member last ]
  in
  let minority = [ List.nth members 3; List.nth members 4 ] in
  let configure g =
    List.iter
      (fun m ->
        ignore
          (Api.call_exn sys ctx ~dst:g ~meth:"AddMember"
             ~args:[ Loid.to_value m ]))
      members;
    ignore
      (Api.call_exn sys ctx ~dst:g ~meth:"SetMode" ~args:[ Value.Str "quorum" ]);
    ignore
      (Api.call_exn sys ctx ~dst:g ~meth:"SetFenced"
         ~args:[ Value.Bool fenced ])
  in
  configure g_maj;
  configure g_min;
  let invoke_via c g args =
    Api.call sys c ~dst:g ~meth:"Invoke"
      ~args:[ Value.Str "Increment"; Value.List args ]
  in
  let value_via c m =
    match Api.call_exn sys c ~dst:m ~meth:"Get" ~args:[] with
    | Value.Int n -> n
    | _ -> failwith "replicate: bad Get reply"
  in
  (* Warm both heads' member bindings before the cut. *)
  ignore (invoke_via ctx g_maj [ Value.Int 1 ]);
  ignore (invoke_via ctx_min g_min [ Value.Int 1 ]);
  System.run sys;
  let v0_min = List.map (value_via ctx_min) minority in
  let cut on =
    for s = 0 to last - 1 do
      Network.set_partitioned net s last on
    done
  in
  cut true;
  let mark = Recorder.total obs in
  let maj_ok = ref 0 and min_fenced = ref 0 in
  for _ = 1 to partition_writes do
    (match invoke_via ctx g_maj [ Value.Int 10 ] with
    | Ok _ -> incr maj_ok
    | Error _ -> ());
    match invoke_via ctx_min g_min [ Value.Int 100 ] with
    | Error (Err.No_quorum _) -> incr min_fenced
    | _ -> ()
  done;
  let minority_drift =
    List.fold_left2
      (fun acc m v0 -> acc + (value_via ctx_min m - v0))
      0 minority v0_min
  in
  (* Heal with the anti-entropy watcher armed (fenced arm only: the
     baseline shows what happens without the machinery). *)
  if fenced then ignore (Repair.reconcile_on_heal ctx ~net ~groups:[ g_maj ]);
  cut false;
  System.run sys;
  let divergent_after =
    if fenced then begin
      (* One sweep catches retransmission stragglers; the next must
         find nothing left to repair. *)
      ignore (Api.call_exn sys ctx ~dst:g_maj ~meth:"Reconcile" ~args:[]);
      match Api.call_exn sys ctx ~dst:g_maj ~meth:"Reconcile" ~args:[] with
      | Value.Record fields -> (
          match List.assoc_opt "divergent" fields with
          | Some (Value.Int d) -> d
          | _ -> failwith "replicate: bad Reconcile reply")
      | _ -> failwith "replicate: bad Reconcile reply"
    end
    else -1
  in
  let final_values = List.map (value_via ctx) members in
  let events = Recorder.events_since obs mark in
  {
    fenced;
    majority_commits = !maj_ok;
    minority_fenced = !min_fenced;
    minority_drift;
    divergent_after;
    distinct_states = List.length (List.sort_uniq compare final_values);
    noquorum_events = Trace.count_of (Trace.no_quorum ~loid:g_min ()) events;
    reconciles = Trace.count_of (Trace.reconcile ~loid:g_maj ()) events;
  }

let run cfg =
  let repair = run_repair cfg in
  let partitions = List.map (fun fenced -> run_partition cfg ~fenced) cfg.fencing in
  { cfg; repair; partitions }

let availability r = float_of_int r.answered /. float_of_int r.calls

let to_json r =
  let p = r.repair in
  let partition_json a =
    Printf.sprintf
      "{\"mode\":%S,\"majority_commits\":%d,\"minority_fenced\":%d,\
       \"minority_drift\":%d,\"divergent_after_ae\":%s,\"distinct_states\":%d,\
       \"noquorum_events\":%d,\"reconciles\":%d}"
      (if a.fenced then "fenced" else "unfenced")
      a.majority_commits a.minority_fenced a.minority_drift
      (if a.fenced then string_of_int a.divergent_after else "null")
      a.distinct_states a.noquorum_events a.reconciles
  in
  Printf.sprintf
    "{\"experiment\":\"e17\",\"repair\":{\"r\":%d,\"kills\":%d,\
     \"availability_pct\":%.2f,\"lost\":%d,\"repaired\":%d,\
     \"final_factor\":%d,\"calls\":%d},\"partition\":[%s]}"
    r.cfg.replicas r.cfg.kills
    (100.0 *. availability p)
    p.lost p.repaired p.final_factor p.calls
    (String.concat "," (List.map partition_json r.partitions))

let gates r =
  let gate fmt = Printf.ksprintf (fun name ok -> (name, ok)) fmt in
  let p = r.repair and want = r.cfg.replicas and kills = r.cfg.kills in
  let arm a =
    if a.fenced then
      [
        gate "fenced: %d/%d minority writes refused with No_quorum"
          a.minority_fenced partition_writes
          (a.minority_fenced >= partition_writes);
        gate "fenced: minority drifted by %d" a.minority_drift
          (a.minority_drift = 0);
        gate "fenced: %d members divergent after anti-entropy" a.divergent_after
          (a.divergent_after = 0);
        gate "fenced: %d distinct states after the heal" a.distinct_states
          (a.distinct_states = 1);
        gate "fenced: %d NoQuorum events" a.noquorum_events (a.noquorum_events > 0);
        gate "fenced: %d Reconcile events" a.reconciles (a.reconciles > 0);
      ]
    else
      [
        gate "unfenced: failed minority writes drifted it by %d" a.minority_drift
          (a.minority_drift <> 0);
        gate "unfenced: %d distinct states survive the heal" a.distinct_states
          (a.distinct_states >= 2);
      ]
  in
  [
    gate "availability %.4f holds the 0.99 floor" (availability p)
      (availability p >= 0.99);
    gate "replication factor back at %d before every kill" want
      (List.for_all (( = ) want) p.factor_samples);
    gate "final replication factor %d (want %d)" p.final_factor want
      (p.final_factor = want);
    gate "%d losses / %d repairs traced for %d kills" p.lost p.repaired kills
      (p.lost >= kills && p.repaired >= kills);
  ]
  @ List.concat_map arm r.partitions
