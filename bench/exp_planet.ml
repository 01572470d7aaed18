(* E18 — planetary sweep (§5 at scale).

   Drives Legion.Planet: the E2/E3/E4 mechanism kernels at 10^5
   objects over 10^3 hosts plus a raw calendar-queue kernel at 10^7
   events, then gates on wall-clock throughput (events/sec) and peak
   RSS so a simulator-core regression (the event queue, the routing
   tables) fails the harness instead of silently making every future
   sweep slower. Writes BENCH_E18.json.

   Environment knobs (CI smoke runs use these):
     E18_PROFILE=smoke|full        pick the base config (default full)
     E18_OBJECTS / E18_CALLS / E18_QUEUE_EVENTS / E18_SITES /
     E18_HOSTS_PER_SITE            override individual sizes
     E18_MIN_QUEUE_EPS             raw queue kernel floor (events/sec)
     E18_MIN_EPS                   whole-sweep floor (events/sec)
     E18_MAX_RSS_MB                peak-RSS ceiling *)

open Exp_common
module Planet = Legion.Planet

let config () =
  let base =
    match Sys.getenv_opt "E18_PROFILE" with
    | Some "smoke" -> Planet.smoke
    | _ -> Planet.default
  in
  {
    base with
    Planet.objects = env_int "E18_OBJECTS" base.Planet.objects;
    calls = env_int "E18_CALLS" base.Planet.calls;
    queue_events = env_int "E18_QUEUE_EVENTS" base.Planet.queue_events;
    sites = env_int "E18_SITES" base.Planet.sites;
    hosts_per_site = env_int "E18_HOSTS_PER_SITE" base.Planet.hosts_per_site;
  }

(* Peak RSS in MiB from /proc/self/status (Linux); None elsewhere. *)
let peak_rss_mb () =
  if not (Sys.file_exists "/proc/self/status") then None
  else
    In_channel.with_open_text "/proc/self/status" (fun ic ->
        let rec scan () =
          match In_channel.input_line ic with
          | None -> None
          | Some line ->
              if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
                Scanf.sscanf_opt line "VmHWM: %d kB" (fun kb ->
                    float_of_int kb /. 1024.0)
              else scan ()
        in
        scan ())

let run () =
  let cfg = config () in
  let t0 = Unix.gettimeofday () in
  let tq0 = t0 in
  let queue_wall = ref 0.0 in
  let progress msg =
    (* The queue kernel reports first; time it separately for its gate. *)
    if !queue_wall = 0.0 && String.length msg >= 5 && String.sub msg 0 5 = "queue"
    then queue_wall := Unix.gettimeofday () -. tq0;
    Printf.printf "  [e18] %s\n%!" msg
  in
  let report = Planet.run ~progress cfg in
  let wall = Unix.gettimeofday () -. t0 in
  let queue_events =
    match report.Planet.kernels with k :: _ -> k.Planet.k_events | [] -> 0
  in
  let queue_eps =
    float_of_int queue_events /. Float.max 1e-9 !queue_wall
  in
  let eps = float_of_int report.Planet.total_events /. Float.max 1e-9 wall in
  let rss = peak_rss_mb () in
  let min_queue_eps = env_float "E18_MIN_QUEUE_EPS" 300_000.0 in
  let min_eps = env_float "E18_MIN_EPS" 10_000.0 in
  let max_rss_mb = env_float "E18_MAX_RSS_MB" 8192.0 in
  print_table
    ~title:
      (Printf.sprintf
         "E18  Planetary sweep (%d sites x %d hosts, %d objects, %d raw queue \
          events)"
         cfg.Planet.sites cfg.Planet.hosts_per_site cfg.Planet.objects
         cfg.Planet.queue_events)
    ~header:[ "kernel"; "events"; "virt clock"; "msgs"; "drops"; "digest" ]
    (List.map
       (fun k ->
         [
           k.Planet.k_name;
           fmt_i k.Planet.k_events;
           Printf.sprintf "%.3f" k.Planet.k_clock;
           fmt_i k.Planet.k_msgs;
           fmt_i k.Planet.k_drops;
           string_of_int k.Planet.k_digest;
         ])
       report.Planet.kernels);
  Printf.printf
    "total: %d events in %.1f s wall = %.0f events/s (queue kernel %.0f/s); \
     peak RSS %s MB\n"
    report.Planet.total_events wall eps queue_eps
    (match rss with None -> "n/a" | Some m -> Printf.sprintf "%.0f" m);
  let json =
    Printf.sprintf
      "{\"deterministic\": %s, \"wall_s\": %.3f, \"events_per_sec\": %.0f, \
       \"queue_events_per_sec\": %.0f, \"peak_rss_mb\": %s, \"gates\": \
       {\"min_queue_eps\": %.0f, \"min_eps\": %.0f, \"max_rss_mb\": %.0f}}"
      (Planet.to_json report) wall eps queue_eps
      (match rss with None -> "null" | Some m -> Printf.sprintf "%.1f" m)
      min_queue_eps min_eps max_rss_mb
  in
  write_bench_json ~file:"BENCH_E18.json" json;
  let failures = ref [] in
  if queue_eps < min_queue_eps then
    failures :=
      Printf.sprintf "queue kernel %.0f events/s < floor %.0f" queue_eps
        min_queue_eps
      :: !failures;
  if eps < min_eps then
    failures :=
      Printf.sprintf "sweep %.0f events/s < floor %.0f" eps min_eps :: !failures;
  (match rss with
  | Some m when m > max_rss_mb ->
      failures :=
        Printf.sprintf "peak RSS %.0f MB > ceiling %.0f MB" m max_rss_mb
        :: !failures
  | _ -> ());
  if !failures <> [] then begin
    List.iter (Printf.eprintf "E18 gate failed: %s\n") !failures;
    exit 1
  end
