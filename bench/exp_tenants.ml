(* E21 — noisy neighbor under per-tenant quotas and fair queuing (§2.4).

   Runs the Legion.Tenants experiment with the same seed twice — quiet
   (every tenant inside its budget) and noisy (mallory driven at 10x
   its token budget) — plus a second noisy run that must reproduce the
   first byte for byte. Tenants.gates judges tenant isolation: the
   offender's overload must not move any well-behaved tenant's p99 by
   more than a bound, every shed must be attributed to the offender
   (none unattributed), and the unauthorized principal must be
   answered Denied at GetBinding in both arms, never receiving a
   binding. Writes BENCH_E21.json. *)

open Exp_common
module Tenants = Legion.Tenants

let lane_rows tag (a : Tenants.arm) =
  List.map
    (fun (l : Tenants.lane) ->
      [
        tag;
        l.tenant;
        fmt_i l.sent;
        fmt_i l.oks;
        fmt_i l.quota_shed;
        fmt_i l.errors;
        Printf.sprintf "%.2f" l.p50_ms;
        Printf.sprintf "%.2f" l.p99_ms;
      ])
    a.lanes

let run () =
  let r = Tenants.run Tenants.default in
  let quiet = r.quiet_arm and noisy = Option.get r.noisy_arm in
  print_table
    ~title:
      (Printf.sprintf "E21  noisy neighbor, seed %Ld (mallory 10x budget)"
         r.cfg.seed)
    ~header:
      [ "run"; "tenant"; "sent"; "ok"; "shed"; "errors"; "p50 ms"; "p99 ms" ]
    (lane_rows "quiet" quiet @ lane_rows "noisy" noisy);
  Printf.printf
    "worst well-behaved p99 shift %.2f ms (ceiling %.1f); noisy sheds %d \
     (offender %d, unattributed %d); eve denied %d/%d, bindings %d; \
     deterministic: %b\n"
    (Tenants.worst_p99_shift quiet noisy)
    Tenants.max_p99_shift_ms noisy.shed_events noisy.shed_by_offender
    noisy.shed_unattributed noisy.eve_denied noisy.eve_probes
    noisy.eve_bindings r.deterministic;
  write_bench_json ~file:"BENCH_E21.json" (Tenants.to_json r);
  enforce ~experiment:"E21" (Tenants.gates r)
