(* E16 — overload: admission control, load shedding, circuit breakers.

   Runs the Legion.Overload saturation ramp (0.5x to 2.5x the measured
   saturation rate of one serial-service object) twice: the baseline,
   with admission and breakers off, must collapse under unbounded
   queueing and retransmission amplification; the protected run must
   hold 70% of its peak goodput and a bounded p99 past 2x. Prints the
   table, fails on any false Overload.gates, and writes
   BENCH_E16.json. *)

open Exp_common
module Overload = Legion.Overload

let rows_of (r : Overload.report) =
  List.map
    (fun (s : Overload.step) ->
      [
        (if r.cfg.protected then "protected" else "baseline");
        Printf.sprintf "%.1fx" (s.rate /. r.saturation);
        Printf.sprintf "%.1f" s.rate;
        fmt_i s.issued;
        fmt_i s.ok;
        fmt_i s.failed;
        Printf.sprintf "%.1f" (Overload.goodput r.cfg s);
        (if Float.is_nan s.p99 then "-" else fmt_ms s.p99);
      ])
    r.steps

let run () =
  let cfg = Overload.default in
  let baseline = Overload.run { cfg with protected = false } in
  let protected = Overload.run cfg in
  print_table
    ~title:
      (Printf.sprintf
         "E16  Open-loop saturation sweep (serial service %.0f ms, measured \
          saturation %.1f/s, %.0f s per step)"
         (cfg.service *. 1000.0) protected.saturation cfg.step)
    ~header:
      [ "run"; "offered"; "rate/s"; "issued"; "ok"; "failed"; "goodput/s"; "p99 ms" ]
    (rows_of baseline @ rows_of protected);
  Printf.printf
    "\nbaseline:  %d sheds, %d retries, %d messages dropped\n"
    baseline.sheds baseline.retries baseline.dropped;
  Printf.printf
    "protected: %d sheds, %d retries, %d dropped; breaker %d opens / %d \
     probes / %d closes\n"
    protected.sheds protected.retries protected.dropped protected.opens
    protected.probes protected.closes;
  enforce ~experiment:"E16" (Overload.gates protected @ Overload.gates baseline);
  Printf.printf
    "gates: goodput floor 70%% of peak past 2x, p99 under %.2f s, baseline \
     collapse -- all hold\n"
    Overload.p99_bound;
  write_bench_json ~file:"BENCH_E16.json"
    (Printf.sprintf "{\"experiment\":\"e16\",\"p99_bound\":%.2f,\"runs\":[%s,%s]}"
       Overload.p99_bound (Overload.to_json baseline) (Overload.to_json protected))
