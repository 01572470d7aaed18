(* E20 — atomic multi-object invocations under fault schedules.

   Runs the Legion.Atomic workload (mixed 2PC and saga transactions)
   under each schedule: clean, participant crash, coordinator crash,
   site partition and prepare-lock contention. Legion_txn.Audit proves
   atomicity from the store histories plus the lock and in-doubt
   probes, and a coordinator crash must resume its WAL decision. Each
   schedule runs twice under one seed (LEGION_TRACE_SEED, default 53)
   and the two rows must be byte-identical. Writes BENCH_E20.json,
   prints the table, and fails on any false gate. *)

open Exp_common
module Atomic = Legion.Atomic

let run () =
  let cfg =
    { Atomic.default with seed = env_i64 "LEGION_TRACE_SEED" Atomic.default.seed }
  in
  let rows =
    List.map
      (fun schedule ->
        let cfg = { cfg with schedule } in
        (* Determinism gate: the same seed must reproduce the row byte
           for byte. *)
        let r = Atomic.run cfg in
        let again = Atomic.to_json (Atomic.run cfg) in
        (r, String.equal (Atomic.to_json r) again))
      Atomic.schedules
  in
  write_bench_json ~file:"BENCH_E20.json"
    (Printf.sprintf "{\"experiment\":\"e20\",\"seed\":%Ld,\"rows\":[%s]}"
       cfg.seed
       (String.concat "," (List.map (fun (r, _) -> Atomic.to_json r) rows)));
  print_table
    ~title:
      (Printf.sprintf
         "E20  Atomic multi-object invocations under fault schedules (%d \
          rounds, seed %Ld; gates: 0 partial commits, 0 orphaned locks, 0 in \
          doubt, byte-deterministic)"
         cfg.rounds cfg.seed)
    ~header:
      [
        "schedule"; "acked"; "committed"; "compensated"; "resumes"; "prepares";
        "crashes"; "partitions";
      ]
    (List.map
       (fun ((r : Atomic.report), _) ->
         [
           Atomic.schedule_name r.cfg.schedule;
           fmt_i r.submitted;
           fmt_i r.audit.committed;
           fmt_i r.audit.compensated;
           fmt_i r.resumes;
           fmt_i r.prepares;
           fmt_i r.crashes;
           fmt_i r.partitions;
         ])
       rows);
  enforce ~experiment:"E20"
    (List.concat_map
       (fun ((r : Atomic.report), deterministic) ->
         let tag = Atomic.schedule_name r.cfg.schedule ^ ": " in
         List.map
           (fun (name, ok) -> (tag ^ name, ok))
           (("row byte-deterministic", deterministic) :: Atomic.gates r))
       rows)
