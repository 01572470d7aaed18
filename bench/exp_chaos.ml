(* E22 — Adversarial chaos exploration with exactly-once effects.

   A fleet of seeded random fault schedules (crashes, power failures,
   partitions, loss ramps, duplication, reordering, corruption, delay
   spikes) runs against the composed ledger + transaction + fenced
   group workload of Legion_chaos.Explorer. Gates:

     (a) every schedule reports zero invariant violations — no double
         applies, no partial commits, no orphaned locks, nothing in
         doubt, no post-reconcile drift, epochs monotone, everything
         alive after heal;
     (b) a duplication-heavy schedule with the dedup cache ON passes
         with dedup hits recorded, and the SAME schedule with dedup
         OFF detects double applies — proving both halves of the
         exactly-once claim;
     (c) byte-determinism: a sampled subset of schedules is run twice
         and the two report rows must be byte-identical.

   On any violation the failing schedule is shrunk to a locally
   minimal replayable artifact (E22_FAILING_SCHEDULE.txt; rerun it
   with `legion-sim chaos --replay`). Scale knobs for CI smoke:
   E22_SCHEDULES (default 200), E22_ROUNDS (16), E22_DETERMINISM_EVERY
   (1 = every schedule runs twice). *)

open Exp_common
module Schedule = Legion_chaos.Schedule
module Explorer = Legion_chaos.Explorer

let seed = env_i64 "LEGION_TRACE_SEED" 61L

let n_schedules = env_int "E22_SCHEDULES" 200
let rounds = env_int "E22_ROUNDS" 16
let determinism_every = env_int "E22_DETERMINISM_EVERY" 1

(* The dedicated duplication-heavy schedule for gate (b): lots of
   duplicates and some loss, but no crashes or partitions, so a double
   apply can only come from duplicate execution — never from recovery
   replay — and the dedup-off run is a clean detector. *)
let dup_heavy =
  {
    Schedule.seed = Int64.add seed 9000L;
    workload = Schedule.Uniform;
    rounds = 12;
    steps =
      [
        { Schedule.at = 1; action = Schedule.Duplicate 0.4 };
        { Schedule.at = 1; action = Schedule.Drop 0.08 };
        { Schedule.at = 6; action = Schedule.Reorder (0.3, 0.02) };
      ];
  }

let fail_with_artifact sch rep why =
  let min_sch, min_rep = Explorer.shrink sch rep in
  Out_channel.with_open_text "E22_FAILING_SCHEDULE.txt" (fun oc ->
      output_string oc (Schedule.to_string min_sch));
  failwith
    (Printf.sprintf
       "E22: %s; minimized schedule written to E22_FAILING_SCHEDULE.txt \
        (%d steps):\n%s\nviolations:\n  %s"
       why
       (List.length min_sch.Schedule.steps)
       (Schedule.to_string min_sch)
       (String.concat "\n  " min_rep.Explorer.violations))

let run () =
  (* Gate (a) + (c): the seeded fleet. *)
  let violations = ref 0 in
  let rows = ref [] in
  let t_wall = Unix.gettimeofday () in
  for i = 1 to n_schedules do
    let sch =
      Schedule.generate ~rounds ~seed:(Int64.add seed (Int64.of_int i)) ()
    in
    let rep = Explorer.run sch in
    let row = Explorer.report_json sch rep in
    if Explorer.failed rep then begin
      incr violations;
      fail_with_artifact sch rep
        (Printf.sprintf "schedule %d (seed %Ld) violated invariants" i
           sch.Schedule.seed)
    end;
    if i mod determinism_every = 0 then begin
      let row' = Explorer.report_json sch (Explorer.run sch) in
      if not (String.equal row row') then
        failwith
          (Printf.sprintf "E22: schedule %d nondeterministic\n  %s\n  %s" i
             row row')
    end;
    if i <= 10 || i mod 25 = 0 then rows := (i, row) :: !rows
  done;
  let wall = Unix.gettimeofday () -. t_wall in
  (* Gate (b): both halves of the exactly-once claim. *)
  let on = Explorer.run ~dedup:true dup_heavy in
  if Explorer.failed on then
    fail_with_artifact dup_heavy on "dup-heavy schedule failed with dedup ON";
  if on.Explorer.dedup_hits = 0 then
    failwith "E22: dup-heavy schedule recorded no dedup hits";
  if on.Explorer.duplicated = 0 then
    failwith "E22: dup-heavy schedule injected no duplicates";
  let off = Explorer.run ~dedup:false dup_heavy in
  if off.Explorer.double_applies = 0 then
    failwith
      "E22: dedup OFF failed to detect double applies under duplication \
       (detector is blind)";
  (* Determinism of the dedicated schedule too. *)
  let on' = Explorer.run ~dedup:true dup_heavy in
  if
    not
      (String.equal
         (Explorer.report_json dup_heavy on)
         (Explorer.report_json dup_heavy on'))
  then failwith "E22: dup-heavy schedule nondeterministic";
  write_bench_json ~file:"BENCH_E22.json"
    (Printf.sprintf
       "{\"experiment\":\"e22\",\"seed\":%Ld,\"schedules\":%d,\"rounds\":%d,\
        \"violations\":%d,\"dup_heavy_on\":%s,\"dup_heavy_off\":%s,\
        \"sample_rows\":[%s]}"
       seed n_schedules rounds !violations
       (Explorer.report_json dup_heavy on)
       (Explorer.report_json dup_heavy off)
       (String.concat ","
          (List.rev_map (fun (_, r) -> r) !rows)));
  print_table
    ~title:
      (Printf.sprintf
         "E22  Adversarial chaos exploration (%d schedules x %d rounds, seed \
          %Ld, %.1fs wall; gates: 0 violations, dedup ON absorbs / OFF \
          detects, byte-deterministic)"
         n_schedules rounds seed wall)
    ~header:[ "metric"; "dedup on"; "dedup off" ]
    [
      [ "schedules"; fmt_i n_schedules; "-" ];
      [ "fleet violations"; fmt_i !violations; "-" ];
      [ "dup-heavy violations";
        fmt_i (List.length on.Explorer.violations);
        fmt_i (List.length off.Explorer.violations) ];
      [ "double applies"; fmt_i on.Explorer.double_applies;
        fmt_i off.Explorer.double_applies ];
      [ "dedup hits"; fmt_i on.Explorer.dedup_hits;
        fmt_i off.Explorer.dedup_hits ];
      [ "duplicates injected"; fmt_i on.Explorer.duplicated;
        fmt_i off.Explorer.duplicated ];
      [ "ledger ops acked"; fmt_i on.Explorer.ledger_acked;
        fmt_i off.Explorer.ledger_acked ];
      [ "txns committed"; fmt_i on.Explorer.txns_committed;
        fmt_i off.Explorer.txns_committed ];
    ]
