(* E15 — crash recovery vs checkpoint interval (§4.2).

   Runs the Legion.Recover scenario (a power failure under load with
   checkpoints, heartbeat detection, reactivation and epoch fencing
   armed) at checkpoint intervals of 0.5, 1 and 2 s, writes
   BENCH_E15.json, prints the table, and fails on any false
   Recover.gates: durability (no update acked before an object's last
   pre-crash checkpoint is lost), bounded detection and MTTR, and
   zombie placements that answer nothing and are fenced. *)

open Exp_common
module Recover = Legion.Recover

let run () =
  let reports =
    List.map
      (fun checkpoint_period ->
        Recover.run { Recover.default with checkpoint_period })
      [ 0.5; 1.0; 2.0 ]
  in
  write_bench_json ~file:"BENCH_E15.json"
    (Printf.sprintf "{\"experiment\":\"e15\",\"rows\":[%s]}"
       (String.concat "," (List.map Recover.to_json reports)));
  let cfg = Recover.default in
  print_table
    ~title:
      (Printf.sprintf
         "E15  Crash recovery vs checkpoint interval (power-fail at %.0f s, \
          reboot +%.0f s, heartbeat %.2f s x %d)"
         cfg.crash_at cfg.reboot_after cfg.heartbeat_period cfg.threshold)
    ~header:
      [
        "ckpt s"; "ckpts"; "suspects"; "confirmed"; "reactivated"; "fenced";
        "detect s"; "mttr p50 s"; "lost"; "zombies";
      ]
    (List.map
       (fun (r : Recover.report) ->
         [
           Printf.sprintf "%.2f" r.cfg.checkpoint_period;
           fmt_i r.checkpoints;
           fmt_i r.suspects;
           fmt_i r.confirmed;
           fmt_i r.reactivated;
           fmt_i r.fenced;
           Printf.sprintf "%.2f" r.detect_s;
           Printf.sprintf "%.2f" r.mttr_p50_s;
           fmt_i r.lost;
           fmt_i r.zombies;
         ])
       reports);
  enforce ~experiment:"E15" (List.concat_map Recover.gates reports)
