(* The repository benchmark: one closed-loop workload per invocation.

     perfbench --workload NAME --seed N --seconds S --trace 0|1

   With --trace 0 it prints the end-to-end metrics, with --trace 1 the
   per-layer ones; the last line of standard output is one JSON object
   {correct, attempted, failed, metrics}. README.md in this directory
   explains the workloads and what each metric is expected to move. *)

module Binding = Legion_naming.Binding
module Runtime = Legion_rt.Runtime
module Disk = Legion_store.Disk
module System = Legion.System

let now = Probe.now

type metric = { name : string; value : float; unit_ : string; note : string }

let metric ?(note = "") name unit_ value = { name; value; unit_; note }
let ratio a b = if b = 0. then 0. else a /. b
let fi = float_of_int

(* Nearest-rank percentile of unsorted samples. *)
let percentile xs p =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then 0.
  else a.(max 0 (min (n - 1) (int_of_float (Float.ceil (p /. 100. *. fi n)) - 1)))

let median xs = percentile xs 50.

(* Setup plus the measured phase; [deadline] of [None] runs the
   deterministic prefix only. *)
let run_phase ?traced ~deadline (inp : Inputs.t) w =
  let ph = Measure.create ?traced ~deadline w inp in
  match inp.Inputs.spec.Inputs.kind with
  | Inputs.Churn ->
      let st = Measure.churn_state w in
      Measure.run_churn ph st;
      (ph, Some st)
  | Inputs.Warm_rpc | Inputs.Bind_miss ->
      Measure.run_rpc ph;
      (ph, None)

let checks (ph, churn) =
  match churn with
  | Some st -> Measure.check_churn ph st
  | None -> Measure.check_rpc ph

let timed_setup inp times =
  Gc.full_major ();
  let t0 = now () in
  let w = World.setup inp in
  times := (now () -. t0) :: !times;
  w

(* The same-seed self-check: a second system booted from the same
   inputs must reproduce the prefix exactly, and another seed must
   change the inputs. *)
let self_check inp ~reference (ph : Measure.t) =
  let same =
    match (reference, ph.Measure.prefix) with
    | Some a, Some b -> Measure.prefix_equal a b
    | _ -> false
  in
  let other = Inputs.make inp.Inputs.spec ~seed:(inp.Inputs.seed + 1) in
  (if same then [] else [ "same-seed runs disagree on the deterministic prefix" ])
  @
  if Inputs.digest other <> Inputs.digest inp then []
  else [ "a different seed generated the same inputs" ]

type measured = {
  ph : Measure.t;
  problems : string list;  (** Failed output checks; empty when correct. *)
  w : World.t;
  before : Probe.t;
  after : Probe.t;
  hist_p : string -> float -> float;  (** Recorder histogram percentile over the phase, ms. *)
  setup_times : float list;
}

(* [setups] systems are set up from the same inputs. The first runs
   only the deterministic prefix, as the reference for the self-check;
   the last is the measured one; any in between are timed and dropped. *)
let measure ?traced inp ~seconds ~setups =
  let times = ref [] in
  let reference =
    let w = timed_setup inp times in
    let ph, _ = run_phase ~deadline:None inp w in
    ph.Measure.prefix
  in
  for _ = 3 to setups do
    ignore (timed_setup inp times : World.t)
  done;
  let w = timed_setup inp times in
  let before = Probe.take w in
  let hists =
    List.map (fun c -> (c, Probe.hist w c)) [ "net.delay"; "rt.invoke"; "rt.resolve" ]
  in
  let ((ph, _) as run) = run_phase ?traced ~deadline:(Some (now () +. seconds)) inp w in
  let after = Probe.take w in
  let hist_p c p = Probe.hist_percentile ~before:(List.assoc c hists) ~after:(Probe.hist w c) p in
  let problems = self_check inp ~reference ph @ checks run in
  { ph; problems; w; before; after; hist_p; setup_times = !times }

(* --- End-to-end metrics (untraced run). --- *)

let end_to_end inp ~seconds =
  let m = measure inp ~seconds ~setups:3 in
  let ph = m.ph in
  let p = Option.get ph.Measure.prefix in
  let k = fi ph.Measure.k in
  let lat = Array.to_list (Array.map (fun s -> s *. 1000.) p.Measure.lat) in
  let samples = Printf.sprintf "%d samples" ph.Measure.k in
  let heap_mb =
    fi (Gc.quick_stat ()).Gc.top_heap_words *. fi (Sys.word_size / 8) /. 1048576.
  in
  let metrics =
    [
      metric "ops_per_s" "1/s"
        (fi ph.Measure.stop_ops /. Measure.wall_seconds ph)
        ~note:(Printf.sprintf "%d ops in %.3f s" ph.Measure.stop_ops (Measure.wall_seconds ph));
      metric "op_virt_p50_ms" "ms" (percentile lat 50.) ~note:samples;
      metric "op_virt_p99_ms" "ms" (percentile lat 99.) ~note:samples;
      metric "msgs_per_op" "msgs" (fi p.Measure.msgs /. k) ~note:samples;
      metric "bytes_per_op" "bytes" (fi p.Measure.bytes /. k) ~note:samples;
      metric "success_ratio" "ratio"
        (ratio (fi (ph.Measure.attempted - ph.Measure.failed)) (fi ph.Measure.attempted))
        ~note:(Printf.sprintf "%d failed of %d attempted" ph.Measure.failed ph.Measure.attempted);
      metric "setup_s" "s" (median m.setup_times)
        ~note:
          (Printf.sprintf "median of %s"
             (String.concat ", " (List.rev_map (Printf.sprintf "%.3f") m.setup_times)));
      metric "heap_peak_mb" "MB" heap_mb;
    ]
  in
  (m, metrics)

(* --- Per-layer metrics (traced run). --- *)

let decay_ratio (tr : Measure.tracer) =
  let pts = Array.of_list (List.rev tr.Measure.curve) in
  let n = Array.length pts in
  let t_start = fst pts.(0) and t_end = fst pts.(n - 1) in
  let ops_at t =
    let rec go i =
      if i >= n - 1 then fi (snd pts.(n - 1))
      else
        let ta, oa = pts.(i) and tb, ob = pts.(i + 1) in
        if t <= tb then fi oa +. (fi (ob - oa) *. ratio (t -. ta) (tb -. ta)) else go (i + 1)
    in
    go 0
  in
  let tenth = (t_end -. t_start) /. 10. in
  let first = ops_at (t_start +. tenth) -. ops_at t_start in
  let last = ops_at t_end -. ops_at (t_end -. tenth) in
  ratio last first

let per_layer inp ~seconds =
  let m = measure ~traced:true inp ~seconds ~setups:2 in
  let w = m.w and a = m.after and b = m.before and hist_p = m.hist_p in
  let ph = m.ph in
  let tr = Option.get ph.Measure.trace in
  let spans = tr.Measure.spans in
  let sys = w.World.sys in
  let spec = inp.Inputs.spec in
  let ops = fi ph.Measure.completed in
  let per x = ratio (fi x) ops in
  let p = Option.get ph.Measure.prefix in
  let kernel name f =
    let t0 = now () and v = System.now sys in
    let r = f () in
    ignore (Spans.record spans ~parent:0 ~name ~t0 ~t1:(now ()) ~v0:v ~v1:v ());
    r
  in
  let wire =
    kernel "wire.replay" (fun () ->
        Kernels.wire (Array.of_list (List.rev tr.Measure.captured)))
  in
  let naming =
    kernel "naming.replay" (fun () ->
        let address = Runtime.address_of w.World.clients.(0).Runtime.self in
        let bindings = Array.map (fun loid -> Binding.make ~loid ~address ()) w.World.objs in
        let targets =
          match spec.Inputs.kind with
          | Inputs.Churn ->
              Array.map (fun v -> v mod Array.length w.World.objs) inp.Inputs.victims
          | Inputs.Warm_rpc | Inputs.Bind_miss -> inp.Inputs.targets.(0)
        in
        Kernels.naming ~capacity:spec.Inputs.client_cache ~targets ~bindings)
  in
  let store =
    kernel "store.replay" (fun () ->
        let disks = Probe.disks sys in
        let stores = List.length (System.sites sys) in
        let bytes = List.fold_left (fun acc d -> acc + Disk.bytes_used d) 0 disks in
        Kernels.store ~files:(a.Probe.files / stores)
          ~blob_bytes:(if a.Probe.files = 0 then 64 else bytes / a.Probe.files))
  in
  Spans.add spans ~id:tr.Measure.phase_span ~parent:0 ~name:"measure"
    ~t0:ph.Measure.start_wall ~t1:ph.Measure.stop_wall ~v0:ph.Measure.start_virt
    ~v1:(System.now sys) ();
  let file = Printf.sprintf ".perfbench/spans-%s.jsonl" spec.Inputs.name in
  let written = Spans.write spans ~origin:ph.Measure.start_wall ~max_ops:20_000 ~file in
  let u_rate = ratio (fi tr.Measure.u_ops) tr.Measure.u_wall in
  let t_rate = ratio (fi tr.Measure.t_ops) tr.Measure.t_wall in
  let t_att = fi tr.Measure.t_att in
  let api name = median (Spans.durations_us spans ~name:("api." ^ name)) in
  let d f = f a - f b in
  let metrics =
    [
      metric "sim.events_per_op" "events" (ratio (fi p.Measure.events) (fi ph.Measure.k));
      metric "sim.ns_per_event" "ns" (ratio (tr.Measure.u_wall *. 1e9) (fi tr.Measure.u_events));
      metric "sim.pending_peak" "events" (fi tr.Measure.pending_peak);
      metric "net.wan_share" "ratio" (ratio (fi (d (fun s -> s.Probe.wan))) (fi (d (fun s -> s.Probe.msgs))));
      metric "net.delay_p50_ms" "ms" (hist_p "net.delay" 50.);
      metric "net.bytes_per_msg" "bytes"
        (ratio (fi (d (fun s -> s.Probe.bytes))) (fi (d (fun s -> s.Probe.msgs))));
      metric "net.drops" "count" (fi (d (fun s -> s.Probe.drops)));
      metric "wire.encode_ns" "ns" wire.Kernels.encode.Kernels.ns;
      metric "wire.decode_ns" "ns" wire.Kernels.decode.Kernels.ns;
      metric "wire.seal_ns" "ns" wire.Kernels.seal.Kernels.ns;
      metric "wire.unseal_ns" "ns" wire.Kernels.unseal.Kernels.ns;
      metric "wire.encode_words" "words" wire.Kernels.encode.Kernels.words;
      metric "wire.decode_words" "words" wire.Kernels.decode.Kernels.words;
      metric "wire.seal_words" "words" wire.Kernels.seal.Kernels.words;
      metric "wire.unseal_words" "words" wire.Kernels.unseal.Kernels.words;
      metric "rt.delivered_per_op" "calls" (per (d (fun s -> s.Probe.delivered)));
      metric "rt.retries_per_op" "events" (ratio (fi tr.Measure.retries) t_att);
      metric "rt.timeouts_per_op" "events" (ratio (fi tr.Measure.timeouts) t_att);
      metric "rt.sheds_per_op" "events" (ratio (fi tr.Measure.sheds) t_att);
      metric "rt.invoke_p50_ms" "ms" (hist_p "rt.invoke" 50.);
      metric "rt.invoke_p99_ms" "ms" (hist_p "rt.invoke" 99.);
      metric "rt.resolve_p50_ms" "ms" (hist_p "rt.resolve" 50.);
      metric "fail_ratio" "ratio" (ratio (fi tr.Measure.t_fail) t_att);
      metric "naming.hit_rate" "ratio"
        (ratio (fi (d (fun s -> s.Probe.hits))) (fi (d (fun s -> s.Probe.lookups))));
      metric "naming.evictions_per_op" "count" (per (d (fun s -> s.Probe.evictions)));
      metric "naming.find_ns" "ns" naming.Kernels.find.Kernels.ns;
      metric "naming.add_evict_ns" "ns" naming.Kernels.add_evict.Kernels.ns;
      metric "naming.find_words" "words" naming.Kernels.find.Kernels.words;
      metric "naming.add_evict_words" "words" naming.Kernels.add_evict.Kernels.words;
      metric "binding.agent_rq_per_op" "calls" (per (d (fun s -> s.Probe.agent_rq)));
      metric "class.rq_per_op" "calls" (per (d (fun s -> s.Probe.class_rq)));
      metric "magistrate.rq_per_op" "calls" (per (d (fun s -> s.Probe.mag_rq)));
      metric "host.rq_per_op" "calls" (per (d (fun s -> s.Probe.host_rq)));
      metric "host.activations_per_op" "count" (ratio (fi tr.Measure.activations) t_att);
      metric "store.writes_per_op" "count" (per (d (fun s -> s.Probe.disk_writes)));
      metric "store.reads_per_op" "count" (per (d (fun s -> s.Probe.disk_reads)));
      metric "store.files" "count" (fi a.Probe.files);
      metric "store.put_ns" "ns" store.Kernels.put.Kernels.ns;
      metric "store.put_ns_x10" "ns" store.Kernels.put_x10.Kernels.ns;
      metric "store.get_ns" "ns" store.Kernels.get.Kernels.ns;
      metric "store.put_words" "words" store.Kernels.put.Kernels.words;
      metric "store.get_words" "words" store.Kernels.get.Kernels.words;
      metric "api.create_us" "us" (api "create");
      metric "api.activate_us" "us" (api "activate");
      metric "api.deactivate_us" "us" (api "deactivate");
      metric "api.reactivate_us" "us" (api "reactivate");
      metric "api.delete_us" "us" (api "delete");
      metric "api.decay_ratio" "ratio" (decay_ratio tr);
      metric "gc.minor_words_per_op" "words" (ratio tr.Measure.u_minor (fi tr.Measure.u_ops));
      metric "gc.major_collections_per_kop" "count"
        (ratio (fi (d (fun s -> s.Probe.major)) *. 1000.) ops);
      metric "obs.trace_overhead_pct" "%" (ratio ((u_rate -. t_rate) *. 100.) u_rate)
        ~note:(Printf.sprintf "untraced %.0f ops/s, traced %.0f ops/s" u_rate t_rate);
      metric "obs.lost_events" "count" (fi tr.Measure.lost_events);
    ]
  in
  Printf.printf "wrote %d spans to %s\n" written file;
  (m, metrics)

(* --- Output. --- *)

let json_number x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.1f" x
  else if Float.is_finite x then Printf.sprintf "%.17g" x
  else "-1"

let print_result (m : measured) metrics =
  let ph = m.ph in
  List.iter
    (fun m ->
      Printf.printf "%-28s %16.6f %-6s %s\n" m.name m.value m.unit_
        (if m.note = "" then "" else "(" ^ m.note ^ ")"))
    metrics;
  List.iter (fun p -> Printf.printf "CHECK FAILED: %s\n" p) m.problems;
  let fields =
    List.map
      (fun m ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name (json_number m.value) m.unit_)
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (m.problems = []) ph.Measure.attempted ph.Measure.failed (String.concat ", " fields)

let usage () =
  prerr_endline
    "usage: perfbench --workload warm_rpc|bind_miss|churn --seed N --seconds S --trace 0|1";
  exit 2

let () =
  let workload = ref "" and seed = ref None and seconds = ref None and trace = ref None in
  let rec parse = function
    | [] -> ()
    | "--workload" :: v :: rest ->
        workload := v;
        parse rest
    | "--seed" :: v :: rest ->
        seed := int_of_string_opt v;
        parse rest
    | "--seconds" :: v :: rest ->
        seconds := float_of_string_opt v;
        parse rest
    | "--trace" :: v :: rest ->
        trace := (match v with "0" -> Some false | "1" -> Some true | _ -> None);
        parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  match (Inputs.find !workload, !seed, !seconds, !trace) with
  | Some spec, Some seed, Some seconds, Some traced when seconds > 0. ->
      let inp = Inputs.make spec ~seed in
      let m, metrics =
        if traced then per_layer inp ~seconds else end_to_end inp ~seconds
      in
      print_result m metrics;
      if m.problems <> [] then exit 1
  | _ -> usage ()
