(* The shared scenarios (Legion.Recover / Overload / Replicate / Atomic /
   Tenants / Elastic) and the E20 audit: each scenario is deterministic per seed
   at a reduced configuration with every gate holding, and each gate
   function rejects a hand-edited report by naming the failing gate. *)

module Loid = Legion_naming.Loid
module Disk = Legion_store.Disk
module Persistent = Legion_store.Persistent
module Audit = Legion_txn.Audit
module Recover = Legion.Recover
module Overload = Legion.Overload
module Replicate = Legion.Replicate
module Atomic = Legion.Atomic
module Tenants = Legion.Tenants
module Elastic = Legion.Elastic

let failed gates =
  List.filter_map (fun (n, ok) -> if ok then None else Some n) gates

(* Run a scenario twice under one config: the JSON must match byte for
   byte and no gate may fail. Returns the first report. *)
let check_scenario ~run ~to_json ~gates cfg =
  let r = run cfg in
  Alcotest.(check string) "same seed, same bytes" (to_json r) (to_json (run cfg));
  Alcotest.(check (list string)) "failed gates" [] (failed (gates r));
  r

let recover_cfg =
  { Recover.default with duration = 10.0; crash_at = 3.0; reboot_after = 3.0 }

let test_recover () =
  ignore
    (check_scenario ~run:Recover.run ~to_json:Recover.to_json
       ~gates:Recover.gates recover_cfg)

let overload_cfg = { Overload.default with step = 2.0 }

let test_overload () =
  let protected =
    check_scenario ~run:Overload.run ~to_json:Overload.to_json
      ~gates:Overload.gates overload_cfg
  in
  ignore
    (check_scenario ~run:Overload.run ~to_json:Overload.to_json
       ~gates:Overload.gates
       { overload_cfg with protected = false });
  (* The protected run passed off as the baseline did not collapse. *)
  match
    failed
      (Overload.gates
         { protected with cfg = { protected.cfg with protected = false } })
  with
  | [ name ] ->
      Alcotest.(check bool) ("names the collapse gate: " ^ name) true
        (String.starts_with ~prefix:"baseline collapses" name)
  | names -> Alcotest.failf "expected one failed gate, got %d" (List.length names)

let test_replicate () =
  ignore
    (check_scenario ~run:Replicate.run ~to_json:Replicate.to_json
       ~gates:Replicate.gates
       { Replicate.default with kills = 2; period = 0.1 })

let test_atomic () =
  List.iter
    (fun schedule ->
      ignore
        (check_scenario ~run:Atomic.run ~to_json:Atomic.to_json
           ~gates:Atomic.gates
           { Atomic.default with rounds = 12; schedule }))
    [ Atomic.Crash_coordinator; Atomic.Shed ]

let test_tenants () =
  ignore
    (check_scenario ~run:Tenants.run ~to_json:Tenants.to_json
       ~gates:Tenants.gates
       { Tenants.default with baseline = true });
  (* The full experiment runs its noisy arm twice and gates on the two
     being byte-identical. *)
  let r = Tenants.run Tenants.default in
  Alcotest.(check (list string)) "failed gates" [] (failed (Tenants.gates r));
  (* `legion-sim tenants --json` (captured by the test/dune rule) prints
     exactly this report. *)
  Alcotest.(check string) "legion-sim tenants --json" (Tenants.to_json r ^ "\n")
    (In_channel.with_open_bin "tenants_cli.json" In_channel.input_all);
  let noisy = Option.get r.noisy_arm in
  let edited =
    {
      r with
      noisy_arm =
        Some
          {
            noisy with
            shed_by_offender = noisy.shed_events - 1;
            shed_unattributed = 1;
          };
    }
  in
  Alcotest.(check (list string)) "one unattributed shed"
    [
      Printf.sprintf "%d of %d sheds attributed to the offender"
        (noisy.shed_events - 1) noisy.shed_events;
      "1 sheds carried no tenant tag";
    ]
    (failed (Tenants.gates edited))

(* `legion-sim elastic --json` (captured by the test/dune rule) prints
   exactly the library's report for the default seed. *)
let test_elastic_cli () =
  Alcotest.(check string) "legion-sim elastic --json"
    (Elastic.scenario_json (Elastic.run_scenario ~seed:42L ~elastic:true ())
    ^ "\n")
    (In_channel.with_open_bin "elastic_cli.json" In_channel.input_all)

let test_audit_staged () =
  let store = Persistent.create ~disks:[ Disk.create ~name:"d0" ] () in
  let loid = Loid.make ~class_id:77L ~class_specific:1L () in
  ignore (Persistent.put ~txn:"t1" store ~loid "v1");
  let audit =
    Audit.run
      ~call:(fun _ _ -> Alcotest.fail "no probe expected")
      ~participants:[] ~coordinators:[] store
  in
  Alcotest.(check (list string)) "violations" [ "txn t1 left staged entries" ]
    audit.violations;
  Alcotest.(check int) "partial commits" 1 audit.partial_commits;
  (* The E20 gates report the audit's violation by name. *)
  let r =
    {
      Atomic.cfg = Atomic.default;
      submitted = 1;
      resumes = 0;
      prepares = 1;
      crashes = 0;
      partitions = 0;
      audit;
    }
  in
  Alcotest.(check (list string)) "failed gates"
    [ "atomicity audit: txn t1 left staged entries" ]
    (failed (Atomic.gates r));
  Persistent.mark_txn store ~loid ~txn:"t1" Persistent.Committed;
  Alcotest.(check (list string)) "resolved" []
    (Audit.run
       ~call:(fun _ _ -> Alcotest.fail "no probe expected")
       ~acked:[ "t1" ] ~participants:[] ~coordinators:[] store)
      .violations

let () =
  Alcotest.run "scenarios"
    [
      ( "scenarios",
        [
          Alcotest.test_case "recover" `Quick test_recover;
          Alcotest.test_case "overload" `Quick test_overload;
          Alcotest.test_case "replicate" `Quick test_replicate;
          Alcotest.test_case "atomic" `Quick test_atomic;
          Alcotest.test_case "tenants" `Quick test_tenants;
          Alcotest.test_case "elastic cli" `Quick test_elastic_cli;
        ] );
      ("audit", [ Alcotest.test_case "staged residue" `Quick test_audit_staged ]);
    ]
