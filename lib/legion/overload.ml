(* E16 — an open-loop saturation ramp against one serial-service
   object, with and without admission control and circuit breakers. *)

module Value = Legion_wire.Value
module Network = Legion_net.Network
module Runtime = Legion_rt.Runtime
module Impl = Legion_core.Impl
module Well_known = Legion_core.Well_known
module Recorder = Legion_obs.Recorder
module Trace = Legion_obs.Trace
module Script = Legion_sim.Script

type config = {
  seed : int64;
  sites : (string * int) list;
  rates : float list;
  step : float;
  service : float;
  protected : bool;
}

let default =
  {
    seed = 53L;
    sites = [ ("a", 3); ("b", 3) ];
    rates = [ 0.5; 1.0; 1.5; 2.0; 2.5 ];
    step = 5.0;
    service = 0.02;
    protected = true;
  }

let slow_unit = "overload.slow_counter"
let slow_idl = "interface SlowCounter { Increment(d: int): int; Get(): int; }"
let call_timeout = 1.5

(* A tight retransmission policy keeps the end-to-end call budget, and
   with it the latency ceiling, small. Both arms share it: the
   baseline's collapse must come from unbounded queueing and
   retransmission amplification, not from a softer policy. *)
let retry =
  {
    Legion_rt.Retry.max_attempts = 6;
    attempt_timeout = 0.05;
    multiplier = 2.0;
    jitter = 0.1;
  }

type step = { rate : float; issued : int; ok : int; failed : int; p99 : float }

type report = {
  cfg : config;
  saturation : float;
  steps : step list;
  sheds : int;
  opens : int;
  probes : int;
  closes : int;
  retries : int;
  dropped : int;
}

let percentile xs p =
  match List.sort compare xs with
  | [] -> nan
  | sorted ->
      let n = List.length sorted in
      let idx = int_of_float (ceil (p /. 100.0 *. float_of_int n)) - 1 in
      List.nth sorted (max 0 (min (n - 1) idx))

let run cfg =
  let common = { Runtime.default_config with call_timeout; retry } in
  let rt_config =
    if cfg.protected then
      {
        common with
        admission =
          Some
            {
              Runtime.max_inflight = 4;
              max_queue = 16;
              retry_after_hint = cfg.service;
            };
        breaker = Some Legion_rt.Breaker.default_config;
      }
    else common
  in
  Impl.register slow_unit (Fixture.slow_counter ~service:cfg.service slow_unit);
  let sys =
    System.boot ~seed:cfg.seed ~trace_capacity:500_000 ~rt_config
      ~sites:cfg.sites ()
  in
  let ctx = System.client sys () in
  let cls =
    Api.derive_class_exn sys ctx ~parent:Well_known.legion_object
      ~name:"SlowCounter" ~units:[ slow_unit ] ~idl:slow_idl ()
  in
  let obj = Api.create_object_exn sys ctx ~cls ~eager:true () in
  ignore (Api.call sys ctx ~dst:obj ~meth:"Get" ~args:[]);
  (* Measured saturation: a closed-loop client against a serial server
     completes 1 / (service + rtt) calls per second. The ramp is scaled
     off this observation, not off the configured service time. *)
  let warm = 20 in
  let t_warm = System.now sys in
  for _ = 1 to warm do
    ignore (Api.call sys ctx ~dst:obj ~meth:"Increment" ~args:[ Value.Int 1 ])
  done;
  let saturation = float_of_int warm /. (System.now sys -. t_warm) in
  let sim = System.sim sys and obs = System.obs sys and rt = System.rt sys in
  let net = System.net sys in
  let mark = Recorder.total obs in
  let sheds0 = Runtime.total_sheds rt in
  let dropped0 = Network.messages_dropped net in
  let n = List.length cfg.rates in
  if n = 0 then invalid_arg "Overload.run: no rates";
  let rates = List.map (fun m -> m *. saturation) cfg.rates in
  let t0 = System.now sys in
  let t_end = t0 +. (float_of_int n *. cfg.step) in
  let issued = Array.make n 0
  and ok = Array.make n 0
  and failed = Array.make n 0
  and latencies = Array.make n [] in
  Script.load_ramp sim ~start:t0 ~until:(t_end -. 1e-9) ~steps:(max 1 (n - 1))
    ~rates (fun _seq ->
      let t_issue = System.now sys in
      let i = min (n - 1) (int_of_float ((t_issue -. t0) /. cfg.step)) in
      issued.(i) <- issued.(i) + 1;
      Runtime.invoke ctx ~max_rebinds:0 ~dst:obj ~meth:"Increment"
        ~args:[ Value.Int 1 ]
        (function
          | Ok _ ->
              ok.(i) <- ok.(i) + 1;
              latencies.(i) <- (System.now sys -. t_issue) :: latencies.(i)
          | Error _ -> failed.(i) <- failed.(i) + 1));
  System.run sys;
  let events = Recorder.events_since obs mark in
  let count p = Trace.count_of p events in
  {
    cfg;
    saturation;
    steps =
      List.mapi
        (fun i rate ->
          {
            rate;
            issued = issued.(i);
            ok = ok.(i);
            failed = failed.(i);
            p99 = percentile latencies.(i) 99.0;
          })
        rates;
    sheds = Runtime.total_sheds rt - sheds0;
    opens = count (Trace.breaker_open ());
    probes = count (Trace.breaker_probe ());
    closes = count (Trace.breaker_close ());
    retries = count (Trace.retry ());
    dropped = Network.messages_dropped net - dropped0;
  }

let goodput cfg s = float_of_int s.ok /. cfg.step

let to_json r =
  let step_json s =
    Printf.sprintf
      "{\"rate\":%.2f,\"issued\":%d,\"ok\":%d,\"failed\":%d,\"goodput\":%.2f,\
       \"p99_ms\":%s}"
      s.rate s.issued s.ok s.failed (goodput r.cfg s)
      (if Float.is_nan s.p99 then "null"
       else Printf.sprintf "%.1f" (s.p99 *. 1000.0))
  in
  Printf.sprintf
    "{\"label\":%S,\"saturation\":%.2f,\"sheds\":%d,\"breaker_opens\":%d,\
     \"breaker_probes\":%d,\"breaker_closes\":%d,\"retries\":%d,\
     \"messages_dropped\":%d,\"steps\":[%s]}"
    (if r.cfg.protected then "protected" else "baseline")
    r.saturation r.sheds r.opens r.probes r.closes r.retries r.dropped
    (String.concat "," (List.map step_json r.steps))

let p99_bound = call_timeout +. 0.2

let gates r =
  let gate fmt = Printf.ksprintf (fun name ok -> (name, ok)) fmt in
  let goodput = goodput r.cfg in
  let peak = List.fold_left (fun acc s -> Float.max acc (goodput s)) 0.0 r.steps in
  let past_knee =
    List.filter (fun s -> s.rate >= (2.0 *. r.saturation) -. 1e-9) r.steps
  in
  let p99_within s = Float.is_nan s.p99 || s.p99 <= p99_bound in
  if r.cfg.protected then
    List.concat_map
      (fun s ->
        let x = s.rate /. r.saturation in
        [
          gate "goodput %.1f/s at %.1fx holds 70%% of peak %.1f/s" (goodput s)
            x peak
            (goodput s >= 0.7 *. peak);
          gate "p99 %.2f s at %.1fx within %.2f s" s.p99 x p99_bound
            (p99_within s);
        ])
      past_knee
    @ [ gate "the ramp reached the knee (%d sheds)" r.sheds (r.sheds > 0) ]
  else
    let last = List.nth r.steps (List.length r.steps - 1) in
    [
      gate
        "baseline collapses (last-step goodput %.1f/s vs peak %.1f/s, or a \
         past-knee p99 beyond %.2f s)"
        (goodput last) peak p99_bound
        (goodput last < 0.5 *. peak || not (List.for_all p99_within past_knee));
    ]
