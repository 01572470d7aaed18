(* E17 — self-healing replication: repair sweeps, quorum fencing, and
   anti-entropy after a partition heal.

   Runs the Legion.Replicate scenario: a replica-kill sweep against
   the repair manager (availability and replication factor must hold),
   then a 3/2 quorum split fenced (minority writes refused, divergence
   drained to zero after the heal) and unfenced (the split-brain the
   fence prevents). Writes BENCH_E17.json, prints both tables, and
   fails on any false Replicate.gates. *)

open Exp_common
module Replicate = Legion.Replicate

let run () =
  let r = Replicate.run Replicate.default in
  write_bench_json ~file:"BENCH_E17.json" (Replicate.to_json r);
  let cfg = r.cfg and p = r.repair in
  print_table
    ~title:
      (Printf.sprintf
         "E17a Replica repair under a kill sweep (r=%d, kill every %.0f s, %d \
          kills)"
         cfg.replicas cfg.kill_every cfg.kills)
    ~header:[ "r"; "kills"; "availability"; "lost"; "repaired"; "final r" ]
    [
      [
        fmt_i cfg.replicas;
        fmt_i cfg.kills;
        Printf.sprintf "%.2f%%"
          (100.0 *. float_of_int p.answered /. float_of_int p.calls);
        fmt_i p.lost;
        fmt_i p.repaired;
        fmt_i p.final_factor;
      ];
    ];
  print_table
    ~title:
      (Printf.sprintf
         "E17b Quorum fencing and anti-entropy across a 3/2 split (%d writes \
          per side)"
         Replicate.partition_writes)
    ~header:
      [ "mode"; "maj commits"; "min fenced"; "min drift"; "divergent"; "states" ]
    (List.map
       (fun (a : Replicate.partition) ->
         [
           (if a.fenced then "fenced" else "unfenced");
           fmt_i a.majority_commits;
           fmt_i a.minority_fenced;
           fmt_i a.minority_drift;
           (if a.fenced then fmt_i a.divergent_after else "-");
           fmt_i a.distinct_states;
         ])
       r.partitions);
  enforce ~experiment:"E17" (Replicate.gates r)
