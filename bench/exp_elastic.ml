(* E19 — elastic load management under a Zipf flash crowd (§3.8, §5.2.2).

   Runs the Legion.Elastic flash-crowd scenario twice — static baseline
   and with the autonomic machinery armed — and gates on the separation:
   the elastic run must at least halve the settled flash-window median,
   flatten the hottest host's share, and actually exercise every
   adaptation mechanism (clone, merge, migrate, split, re-tier) that the
   baseline, by construction, never triggers. A third elastic run checks
   seed-determinism byte-for-byte. Writes BENCH_E19.json.

   Environment knobs (CI smoke runs use these):
     E19_SEED                      scenario seed (default 42)
     E19_MAX_FLASH_P50_RATIO       elastic/baseline flash p50 ceiling (0.5)
     E19_MAX_SHARE_RATIO           elastic/baseline host-share ceiling (0.85)
     E19_MAX_ERRORS                error budget per run (default 0) *)

open Exp_common
module Elastic = Legion.Elastic

let row (r : Elastic.report) =
  [
    (if r.Elastic.elastic then "elastic" else "baseline");
    fmt_i r.Elastic.arrivals;
    Printf.sprintf "%d/%d" r.Elastic.oks r.Elastic.works;
    fmt_i r.Elastic.sheds;
    fmt_i r.Elastic.errors;
    Printf.sprintf "%.2f" r.Elastic.flash_p50_ms;
    Printf.sprintf "%.2f" r.Elastic.flash_p99_ms;
    Printf.sprintf "%.1f%%" (100.0 *. r.Elastic.max_host_share);
    Printf.sprintf "%d/%d/%d/%d" r.Elastic.clones r.Elastic.merges
      r.Elastic.moves r.Elastic.splits;
    (if r.Elastic.retier then "yes" else "no");
  ]

let run () =
  let seed = env_i64 "E19_SEED" 42L in
  let max_flash_ratio = env_float "E19_MAX_FLASH_P50_RATIO" 0.5 in
  let max_share_ratio = env_float "E19_MAX_SHARE_RATIO" 0.85 in
  let max_errors = env_int "E19_MAX_ERRORS" 0 in
  let base = Elastic.run_scenario ~seed ~elastic:false () in
  let el = Elastic.run_scenario ~seed ~elastic:true () in
  let el' = Elastic.run_scenario ~seed ~elastic:true () in
  let deterministic =
    String.equal (Elastic.scenario_json el) (Elastic.scenario_json el')
  in
  print_table
    ~title:
      (Printf.sprintf
         "E19  Zipf flash crowd, seed %Ld (settled flash window, \
          flash-site callers)"
         seed)
    ~header:
      [
        "run"; "arrivals"; "ok"; "sheds"; "errors"; "fl p50 ms"; "fl p99 ms";
        "max host"; "cl/mg/mv/sp"; "retier";
      ]
    [ row base; row el ];
  let flash_ratio = el.Elastic.flash_p50_ms /. base.Elastic.flash_p50_ms in
  let share_ratio = el.Elastic.max_host_share /. base.Elastic.max_host_share in
  Printf.printf
    "flash p50 ratio %.3f (ceiling %.2f); host-share ratio %.3f (ceiling \
     %.2f); deterministic: %b\n"
    flash_ratio max_flash_ratio share_ratio max_share_ratio deterministic;
  let json =
    Printf.sprintf
      "{\"seed\": %Ld, \"baseline\": %s, \"elastic\": %s, \"flash_p50_ratio\": \
       %.4f, \"share_ratio\": %.4f, \"deterministic\": %b, \"gates\": \
       {\"max_flash_p50_ratio\": %.2f, \"max_share_ratio\": %.2f, \
       \"max_errors\": %d}}"
      seed
      (Elastic.scenario_json base)
      (Elastic.scenario_json el)
      flash_ratio share_ratio deterministic max_flash_ratio max_share_ratio
      max_errors
  in
  write_bench_json ~file:"BENCH_E19.json" json;
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  if not deterministic then
    fail "elastic report not byte-deterministic for seed %Ld" seed;
  if flash_ratio > max_flash_ratio then
    fail "flash p50 ratio %.3f > ceiling %.2f (elastic %.2f ms, baseline %.2f \
          ms)"
      flash_ratio max_flash_ratio el.Elastic.flash_p50_ms
      base.Elastic.flash_p50_ms;
  if share_ratio > max_share_ratio then
    fail "host-share ratio %.3f > ceiling %.2f" share_ratio max_share_ratio;
  if el.Elastic.errors > max_errors then
    fail "elastic run saw %d errors (budget %d)" el.Elastic.errors max_errors;
  if base.Elastic.errors > max_errors then
    fail "baseline run saw %d errors (budget %d)" base.Elastic.errors
      max_errors;
  if el.Elastic.clones < 1 then fail "elastic run never cloned";
  if el.Elastic.merges < 1 then fail "elastic run never merged a clone back";
  if el.Elastic.moves < 1 then fail "elastic run never migrated an object";
  if el.Elastic.splits < 1 then fail "elastic run never split a Jurisdiction";
  if not el.Elastic.retier then fail "agent tree never re-tiered";
  if
    base.Elastic.clones + base.Elastic.merges + base.Elastic.moves
    + base.Elastic.splits
    <> 0
    || base.Elastic.retier
  then fail "baseline run adapted; the control is contaminated";
  if !failures <> [] then begin
    List.iter (Printf.eprintf "E19 gate failed: %s\n") !failures;
    exit 1
  end
