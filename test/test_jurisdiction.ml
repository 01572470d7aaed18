(* Tests for Jurisdictions and Magistrates: storage, activation,
   deactivation, Delete, and the Copy/Move migration of Fig. 11. *)

module Value = Legion_wire.Value
module Loid = Legion_naming.Loid
module Disk = Legion_store.Disk
module Persistent = Legion_store.Persistent
module Runtime = Legion_rt.Runtime
module Err = Legion_rt.Err
module System = Legion.System
module Api = Legion.Api
module H = Helpers

(* --- Storage substrate --- *)

let test_disk_basic () =
  let d = Disk.create ~name:"d0" in
  Disk.write d ~key:"a" "hello";
  Alcotest.(check (option string)) "read back" (Some "hello") (Disk.read d ~key:"a");
  Alcotest.(check int) "bytes" 5 (Disk.bytes_used d);
  Disk.write d ~key:"a" "hi";
  Alcotest.(check int) "overwrite adjusts bytes" 2 (Disk.bytes_used d);
  Disk.delete d ~key:"a";
  Alcotest.(check (option string)) "deleted" None (Disk.read d ~key:"a");
  Alcotest.(check int) "empty" 0 (Disk.bytes_used d);
  Alcotest.(check int) "writes counted" 2 (Disk.writes d)

let test_persistent_stripes () =
  let d0 = Disk.create ~name:"d0" and d1 = Disk.create ~name:"d1" in
  let p = Persistent.create ~disks:[ d0; d1 ] () in
  let l = Loid.make ~class_id:1L ~class_specific:1L () in
  let opa1 = Persistent.put p ~loid:l "v1" in
  let opa2 = Persistent.put p ~loid:l "v2" in
  (* Round-robin across disks, distinct version files. *)
  Alcotest.(check bool) "different disks" true
    (opa1.Persistent.Opa.disk <> opa2.Persistent.Opa.disk);
  Alcotest.(check bool) "distinct files" false (Persistent.Opa.equal opa1 opa2);
  Alcotest.(check (option string)) "get v1" (Some "v1") (Persistent.get p opa1);
  Persistent.remove p ~loid:l opa1;
  Alcotest.(check (option string)) "removed" None (Persistent.get p opa1);
  Alcotest.(check int) "one file left" 1 (Persistent.total_files p);
  (* Forgetting a deleted object drops its remaining files and history;
     another object's are untouched. *)
  let other = Loid.make ~class_id:1L ~class_specific:2L () in
  let opa3 = Persistent.put p ~loid:other "w1" in
  Persistent.forget p ~loid:l;
  Alcotest.(check (option string)) "v2 gone" None (Persistent.get p opa2);
  Alcotest.(check int) "no history" 0 (List.length (Persistent.history p ~loid:l));
  Alcotest.(check (option string)) "other kept" (Some "w1") (Persistent.get p opa3);
  Alcotest.(check int) "other's history kept" 1
    (List.length (Persistent.history p ~loid:other));
  (* put_at rejects foreign disks. *)
  (match Persistent.put_at p { Persistent.Opa.disk = "nope"; file = "f" } "x" with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "foreign disk accepted")

let test_opa_roundtrip () =
  let opa = { Persistent.Opa.disk = "d0"; file = "obj.v3.opr" } in
  match Persistent.Opa.of_value (Persistent.Opa.to_value opa) with
  | Ok opa' -> Alcotest.(check bool) "roundtrip" true (Persistent.Opa.equal opa opa')
  | Error e -> Alcotest.failf "roundtrip: %s" e

(* Disk accounting invariant: bytes_used always equals the sum of live
   file sizes, through any write/overwrite/delete sequence. *)
let disk_accounting_prop =
  QCheck.Test.make ~name:"disk bytes_used matches live files" ~count:200
    QCheck.(small_list (pair (int_bound 5) (string_of_size Gen.(0 -- 12))))
    (fun ops ->
      let d = Disk.create ~name:"prop" in
      List.iter
        (fun (slot, data) ->
          let key = Printf.sprintf "f%d" slot in
          if String.length data = 0 then Disk.delete d ~key
          else Disk.write d ~key data)
        ops;
      let expected =
        List.fold_left
          (fun acc key ->
            acc + String.length (Option.value ~default:"" (Disk.read d ~key)))
          0 (Disk.keys d)
      in
      Disk.bytes_used d = expected)

(* §5 and ROADMAP 5(d): a put's cost must not grow with the number of
   files the store holds. Median minor words per [Persistent.put] over
   64 objects spread across a store of [files] single-version objects;
   the median skips the put that pays for a hash-table resize. *)
let put_words ~files =
  let p = Persistent.create ~disks:[ Disk.create ~name:"d0"; Disk.create ~name:"d1" ] () in
  let loid i = Loid.make ~class_id:5L ~class_specific:(Int64.of_int i) () in
  for i = 0 to files - 1 do
    ignore (Persistent.put p ~loid:(loid i) "blob")
  done;
  let words i =
    let w0 = Gc.minor_words () in
    ignore (Persistent.put p ~loid:(loid (i * (files / 64))) "blob");
    Gc.minor_words () -. w0
  in
  let sorted = List.sort Float.compare (List.init 64 words) in
  List.nth sorted 32

(* Measured on OCaml 5.1.1: a median of 447 words per put at both
   1,000 and 10,000 stored files. When prune listed every disk to find
   the object's versions it was 10,203 words at 1,000 and 91,204 at
   10,000. *)
let test_put_cost_flat () =
  let small = put_words ~files:1_000 in
  let large = put_words ~files:10_000 in
  Alcotest.(check bool)
    (Printf.sprintf "%.0f words per put at 10000 files within 1.1x of %.0f at 1000"
       large small)
    true
    (large <= 1.1 *. small)

(* --- Magistrate behaviour --- *)

let test_store_creates_opr_on_disk () =
  let sys = H.boot_two_sites () in
  let ctx = System.client sys () in
  let cls = H.make_counter_class sys ctx () in
  let site0 = System.site sys 0 in
  let before = Persistent.total_files site0.System.storage in
  let _loid =
    Api.create_object_exn sys ctx ~cls
      ~magistrate:site0.System.magistrate ()
  in
  Alcotest.(check int) "one more OPR file" (before + 1)
    (Persistent.total_files site0.System.storage)

let test_jurisdiction_info () =
  let sys = H.boot_two_sites () in
  let ctx = System.client sys () in
  let site0 = System.site sys 0 in
  match
    Api.call sys ctx ~dst:site0.System.magistrate ~meth:"GetJurisdictionInfo"
      ~args:[]
  with
  | Error e -> Alcotest.failf "info: %s" (Err.to_string e)
  | Ok v ->
      (match Legion_core.Convert.str_field v "jurisdiction" with
      | Ok name -> Alcotest.(check string) "named after site" "uva" name
      | Error e -> Alcotest.fail e);
      (match Legion_core.Convert.int_field v "objects" with
      | Ok _ -> ()
      | Error e -> Alcotest.fail e)

let test_activate_unknown_object () =
  let sys = H.boot_two_sites () in
  let ctx = System.client sys () in
  let mag = List.hd (System.magistrates sys) in
  let ghost = Loid.make ~class_id:123L ~class_specific:9L () in
  match
    Api.call sys ctx ~dst:mag ~meth:"Activate"
      ~args:[ Loid.to_value ghost; Value.Record [] ]
  with
  | Error (Err.Not_bound _) -> ()
  | r ->
      Alcotest.failf "expected not_bound, got %s"
        (match r with Ok v -> Value.to_string v | Error e -> Err.to_string e)

let test_copy_makes_two_magistrates () =
  let sys = H.boot_two_sites () in
  let ctx = System.client sys () in
  let cls = H.make_counter_class sys ctx () in
  let m0 = (System.site sys 0).System.magistrate in
  let m1 = (System.site sys 1).System.magistrate in
  let loid = Api.create_object_exn sys ctx ~cls ~magistrate:m0 () in
  let _ = Api.call_exn sys ctx ~dst:loid ~meth:"Increment" ~args:[ Value.Int 4 ] in
  (* Copy to the other Jurisdiction: OPR lands on m1's storage, and both
     magistrates now hold a persistent representation. *)
  (match
     Api.call sys ctx ~dst:m0 ~meth:"Copy"
       ~args:[ Loid.to_value loid; Loid.to_value m1 ]
   with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "copy: %s" (Err.to_string e));
  let objects_of mag =
    match Api.call sys ctx ~dst:mag ~meth:"ListObjects" ~args:[] with
    | Ok (Value.List vs) -> List.length vs
    | _ -> Alcotest.fail "ListObjects"
  in
  Alcotest.(check bool) "m1 knows the object" true (objects_of m1 >= 1);
  (* Copy deactivates first (§3.8): the object is Inert now. *)
  Alcotest.(check bool) "inert after copy" true
    (Runtime.find_proc (System.rt sys) loid = None);
  (* Reference reactivates it with the counter intact. *)
  let v = Api.call_exn sys ctx ~dst:loid ~meth:"Get" ~args:[] in
  Alcotest.(check int) "state survived copy" 4 (H.int_exn v)

let test_move_changes_jurisdiction () =
  let sys = H.boot_two_sites () in
  let ctx = System.client sys () in
  let cls = H.make_counter_class sys ctx () in
  let m0 = (System.site sys 0).System.magistrate in
  let m1 = (System.site sys 1).System.magistrate in
  let site1_storage = (System.site sys 1).System.storage in
  let loid = Api.create_object_exn sys ctx ~cls ~magistrate:m0 () in
  let _ = Api.call_exn sys ctx ~dst:loid ~meth:"Increment" ~args:[ Value.Int 9 ] in
  let before_files = Persistent.total_files site1_storage in
  (match
     Api.call sys ctx ~dst:m0 ~meth:"Move"
       ~args:[ Loid.to_value loid; Loid.to_value m1 ]
   with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "move: %s" (Err.to_string e));
  (* Source forgot it... *)
  (match
     Api.call sys ctx ~dst:m0 ~meth:"Activate"
       ~args:[ Loid.to_value loid; Value.Record [] ]
   with
  | Error (Err.Not_bound _) -> ()
  | _ -> Alcotest.fail "source magistrate still knows the object");
  (* ...the destination holds the OPR... *)
  Alcotest.(check int) "OPR at destination" (before_files + 1)
    (Persistent.total_files site1_storage);
  (* ...and a reference brings it back in the new Jurisdiction — on one
     of site 1's hosts. *)
  let v = Api.call_exn sys ctx ~dst:loid ~meth:"Get" ~args:[] in
  Alcotest.(check int) "state survived move" 9 (H.int_exn v);
  match Runtime.find_proc (System.rt sys) loid with
  | None -> Alcotest.fail "object not active"
  | Some proc ->
      let host = Runtime.proc_host proc in
      Alcotest.(check bool) "runs at site 1" true
        (List.mem host (System.site sys 1).System.net_hosts)

let test_magistrate_delete () =
  let sys = H.boot_two_sites () in
  let ctx = System.client sys () in
  let cls = H.make_counter_class sys ctx () in
  let m0 = (System.site sys 0).System.magistrate in
  let site0 = System.site sys 0 in
  let loid = Api.create_object_exn sys ctx ~cls ~magistrate:m0 () in
  let _ = Api.call_exn sys ctx ~dst:loid ~meth:"Increment" ~args:[ Value.Int 1 ] in
  let files_before = Persistent.total_files site0.System.storage in
  (match Api.call sys ctx ~dst:m0 ~meth:"Delete" ~args:[ Loid.to_value loid ] with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "delete: %s" (Err.to_string e));
  Alcotest.(check int) "OPR removed" (files_before - 1)
    (Persistent.total_files site0.System.storage);
  Alcotest.(check bool) "process killed" true
    (Runtime.find_proc (System.rt sys) loid = None)

let test_host_placement_hint () =
  let sys = H.boot_two_sites () in
  let ctx = System.client sys () in
  let cls = H.make_counter_class sys ctx () in
  let site0 = System.site sys 0 in
  let target_host_obj = List.nth site0.System.host_objects 2 in
  let target_net_host = List.nth site0.System.net_hosts 2 in
  let loid =
    Api.create_object_exn sys ctx ~cls ~eager:true
      ~magistrate:site0.System.magistrate ~host:target_host_obj ()
  in
  match Runtime.find_proc (System.rt sys) loid with
  | None -> Alcotest.fail "not active"
  | Some proc ->
      Alcotest.(check int) "honoured the host hint (the §3.8 two-LOID \
                            Activate overload)" target_net_host
        (Runtime.proc_host proc)

let test_candidate_magistrate_rescue () =
  (* Fig. 16's Candidate Magistrate List in action: the object's current
     magistrate becomes unreachable, but a candidate holds a copy of the
     OPR (from an earlier Copy) and rescues the activation. *)
  let sys =
    Helpers.register_counter_unit ();
    Legion.System.boot ~seed:61L
      ~rt_config:{ Runtime.default_config with call_timeout = 1.0 }
      ~sites:[ ("uva", 3); ("doe", 3) ]
      ()
  in
  let ctx = System.client sys () in
  let m0 = (System.site sys 0).System.magistrate in
  let m1 = (System.site sys 1).System.magistrate in
  (* Keep the class object itself out of the blast radius: its process,
     like the Binding Agent the site-1 client uses, lives at site 1. *)
  let cls =
    Api.derive_class_exn sys ctx ~parent:Legion_core.Well_known.legion_object
      ~name:"Counter" ~units:[ H.counter_unit ] ~magistrate:m1 ()
  in
  let loid =
    Api.create_object_exn sys ctx ~cls ~magistrate:m0 ~candidates:[ m1 ] ()
  in
  ignore (Api.call_exn sys ctx ~dst:loid ~meth:"Increment" ~args:[ Value.Int 5 ]);
  (* Mirror the OPR at the candidate, then scrub m1 from the Current
     Magistrate List so only the candidate link remains. *)
  (match Api.call sys ctx ~dst:m0 ~meth:"Copy" ~args:[ Loid.to_value loid; Loid.to_value m1 ] with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "copy: %s" (Legion_rt.Err.to_string e));
  (match
     Api.call sys ctx ~dst:cls ~meth:"NotifyMagistrates"
       ~args:[ Loid.to_value loid; Value.List []; Value.List [ Loid.to_value m1 ] ]
   with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "notify: %s" (Legion_rt.Err.to_string e));
  (* The current magistrate dies (its process only: killing the whole
     infrastructure host would also take LegionClass, which the paper
     starts exactly once and never replicates — a different outage). *)
  Runtime.kill_loid (System.rt sys) m0;
  (* A site-1 client references the object: resolution exhausts the
     dead current magistrate, falls to the candidate, and recovers. *)
  let ctx1 = System.client sys ~site:1 () in
  let v = H.int_exn (Api.call_exn sys ctx1 ~dst:loid ~meth:"Get" ~args:[]) in
  Alcotest.(check int) "rescued by candidate" 5 v

let test_overlapping_jurisdictions () =
  (* §2.2: "Jurisdictions are potentially non-disjoint; both hosts and
     persistent storage may be contained in two or more Jurisdictions."
     Share a host between both magistrates and place objects from each
     on it. *)
  let sys = H.boot_two_sites () in
  let ctx = System.client sys () in
  let cls = H.make_counter_class sys ctx () in
  let site0 = System.site sys 0 in
  let m0 = site0.System.magistrate in
  let m1 = (System.site sys 1).System.magistrate in
  let shared_hostobj = List.nth site0.System.host_objects 2 in
  let shared_net_host = List.nth site0.System.net_hosts 2 in
  (match Api.call sys ctx ~dst:m1 ~meth:"AddHost" ~args:[ Loid.to_value shared_hostobj ] with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "AddHost: %s" (Err.to_string e));
  let o0 =
    Api.create_object_exn sys ctx ~cls ~eager:true ~magistrate:m0
      ~host:shared_hostobj ()
  in
  let o1 =
    Api.create_object_exn sys ctx ~cls ~eager:true ~magistrate:m1
      ~host:shared_hostobj ()
  in
  List.iter
    (fun o ->
      match Runtime.find_proc (System.rt sys) o with
      | Some p ->
          Alcotest.(check int) "both on the shared host" shared_net_host
            (Runtime.proc_host p)
      | None -> Alcotest.fail "not active")
    [ o0; o1 ];
  (* Each object's lifecycle stays with its own Jurisdiction. *)
  (match Api.call sys ctx ~dst:m1 ~meth:"Deactivate" ~args:[ Loid.to_value o1 ] with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "m1 deactivate: %s" (Err.to_string e));
  (match Api.call sys ctx ~dst:m1 ~meth:"Deactivate" ~args:[ Loid.to_value o0 ] with
  | Error (Err.Not_bound _) -> ()
  | _ -> Alcotest.fail "m1 must not manage m0's object");
  Alcotest.(check bool) "o0 untouched" true
    (Runtime.find_proc (System.rt sys) o0 <> None)

let test_class_object_migration () =
  (* Classes are objects too: deactivate a class object and watch it
     come back with its logical table intact. *)
  let sys = H.boot_two_sites () in
  let ctx = System.client sys () in
  let cls = H.make_counter_class sys ctx () in
  let loid = Api.create_object_exn sys ctx ~cls () in
  let _ = Api.call_exn sys ctx ~dst:loid ~meth:"Increment" ~args:[ Value.Int 2 ] in
  (* The class object was created through the normal machinery, so some
     magistrate holds it; find which. *)
  let holds mag =
    match Api.call sys ctx ~dst:mag ~meth:"ListObjects" ~args:[] with
    | Ok (Value.List vs) ->
        List.exists
          (fun v -> match Loid.of_value v with Ok l -> Loid.equal l cls | _ -> false)
          vs
    | _ -> false
  in
  let mag =
    match List.find_opt holds (System.magistrates sys) with
    | Some m -> m
    | None -> Alcotest.fail "no magistrate holds the class"
  in
  (match Api.call sys ctx ~dst:mag ~meth:"Deactivate" ~args:[ Loid.to_value cls ] with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "deactivate class: %s" (Err.to_string e));
  Alcotest.(check bool) "class inert" true
    (Runtime.find_proc (System.rt sys) cls = None);
  (* Creating another instance reactivates the class; its table still
     knows the first instance. *)
  let loid2 = Api.create_object_exn sys ctx ~cls () in
  Alcotest.(check bool) "fresh loid" false (Loid.equal loid loid2);
  let v = Api.call_exn sys ctx ~dst:loid ~meth:"Get" ~args:[] in
  Alcotest.(check int) "old instance still reachable" 2 (H.int_exn v)

(* --- Jurisdiction splitting (§2.2) --- *)

let test_split_jurisdiction () =
  let sys = H.boot_two_sites () in
  let ctx = System.client sys () in
  let cls = H.make_counter_class sys ctx () in
  let m0 = (System.site sys 0).System.magistrate in
  (* Load the jurisdiction with objects, with visible state. *)
  let objs =
    List.init 10 (fun i ->
        let o = Api.create_object_exn sys ctx ~cls ~magistrate:m0 () in
        ignore (Api.call_exn sys ctx ~dst:o ~meth:"Increment" ~args:[ Value.Int i ]);
        o)
  in
  let count mag =
    match Api.call sys ctx ~dst:mag ~meth:"ListObjects" ~args:[] with
    | Ok (Value.List vs) -> List.length vs
    | _ -> Alcotest.fail "ListObjects"
  in
  let before = count m0 in
  (* Split. *)
  let m2 = System.split_jurisdiction sys ~site:0 in
  let after_m0 = count m0 and after_m2 = count m2 in
  Alcotest.(check int) "nothing lost" before (after_m0 + after_m2);
  Alcotest.(check bool)
    (Printf.sprintf "load split (%d -> %d + %d)" before after_m0 after_m2)
    true
    (after_m2 > 0 && after_m0 < before);
  (* Every object remains reachable with its state, wherever its
     responsibility now lies (classes were notified per transfer). *)
  List.iteri
    (fun i o ->
      let v = H.int_exn (Api.call_exn sys ctx ~dst:o ~meth:"Get" ~args:[]) in
      Alcotest.(check int) "state intact" i v)
    objs;
  (* The new magistrate performs lifecycle operations on its objects. *)
  let adopted =
    match Api.call sys ctx ~dst:m2 ~meth:"ListObjects" ~args:[] with
    | Ok (Value.List (v :: _)) -> (
        match Loid.of_value v with Ok l -> l | Error e -> Alcotest.fail e)
    | _ -> Alcotest.fail "no adopted objects"
  in
  match Api.call sys ctx ~dst:m2 ~meth:"Deactivate" ~args:[ Loid.to_value adopted ] with
  | Ok _ | Error (Err.Not_bound _) ->
      (* Not_bound only if it was already inert on m2's books — both
         fine; the real check is the Get below. *)
      let v = Api.call_exn sys ctx ~dst:adopted ~meth:"Get" ~args:[] in
      Alcotest.(check bool) "adopted object lives on" true
        (match v with Value.Int _ -> true | _ -> false)
  | Error e -> Alcotest.failf "m2 lifecycle: %s" (Err.to_string e)

let test_split_improves_fault_isolation () =
  (* After a split, killing one magistrate leaves the other half of the
     objects fully manageable. *)
  let sys = H.boot_two_sites () in
  let ctx = System.client sys () in
  let cls = H.make_counter_class sys ctx () in
  let m0 = (System.site sys 0).System.magistrate in
  let objs =
    List.init 8 (fun i ->
        let o = Api.create_object_exn sys ctx ~cls ~magistrate:m0 () in
        ignore (Api.call_exn sys ctx ~dst:o ~meth:"Increment" ~args:[ Value.Int i ]);
        o)
  in
  let m2 = System.split_jurisdiction sys ~site:0 in
  (* Make everything inert so reactivation needs a live magistrate. *)
  ignore (System.checkpoint_all sys);
  (* The old magistrate dies. *)
  Runtime.kill_loid (System.rt sys) m0;
  (* Objects transferred to m2 stay reachable; m0's are stranded until
     the site restarts it — count both. *)
  let reachable, stranded =
    List.fold_left
      (fun (r, s) o ->
        match Api.call sys ctx ~dst:o ~meth:"Get" ~args:[] with
        | Ok _ -> (r + 1, s)
        | Error _ -> (r, s + 1))
      (0, 0) objs
  in
  Alcotest.(check int) "all accounted for" 8 (reachable + stranded);
  Alcotest.(check bool)
    (Printf.sprintf "m2's share survives (%d reachable, %d stranded)" reachable
       stranded)
    true
    (reachable >= 4);
  ignore m2

let test_adopt_requires_visible_storage () =
  (* A magistrate refuses to adopt an object whose OPR it cannot see —
     different site, different disks. *)
  let sys = H.boot_two_sites () in
  let ctx = System.client sys () in
  let cls = H.make_counter_class sys ctx () in
  let m0 = (System.site sys 0).System.magistrate in
  let m1 = (System.site sys 1).System.magistrate in
  let o = Api.create_object_exn sys ctx ~cls ~magistrate:m0 () in
  ignore o;
  (* Forge an adopt request naming an OPA on m0's disks. *)
  let fake_opa =
    Legion_store.Persistent.Opa.to_value
      { Legion_store.Persistent.Opa.disk = "uva-disk0"; file = "nonexistent.opr" }
  in
  match
    Api.call sys ctx ~dst:m1 ~meth:"AdoptObject" ~args:[ Loid.to_value o; fake_opa ]
  with
  | Error (Err.Refused _) -> ()
  | r ->
      Alcotest.failf "foreign adopt accepted: %s"
        (match r with Ok v -> Value.to_string v | Error e -> Err.to_string e)

let () =
  Alcotest.run "jurisdiction"
    [
      ( "storage",
        [
          Alcotest.test_case "disk basics" `Quick test_disk_basic;
          Alcotest.test_case "striping and versions" `Quick test_persistent_stripes;
          Alcotest.test_case "OPA roundtrip" `Quick test_opa_roundtrip;
          QCheck_alcotest.to_alcotest disk_accounting_prop;
          Alcotest.test_case "put cost flat in stored files" `Quick
            test_put_cost_flat;
        ] );
      ( "magistrate",
        [
          Alcotest.test_case "StoreObject writes an OPR" `Quick
            test_store_creates_opr_on_disk;
          Alcotest.test_case "jurisdiction info" `Quick test_jurisdiction_info;
          Alcotest.test_case "activate unknown object" `Quick
            test_activate_unknown_object;
          Alcotest.test_case "host placement hint" `Quick test_host_placement_hint;
          Alcotest.test_case "delete removes OPR and process" `Quick
            test_magistrate_delete;
        ] );
      ( "migration",
        [
          Alcotest.test_case "Copy leaves both magistrates responsible" `Quick
            test_copy_makes_two_magistrates;
          Alcotest.test_case "Move changes jurisdiction" `Quick
            test_move_changes_jurisdiction;
          Alcotest.test_case "class objects migrate too" `Quick
            test_class_object_migration;
          Alcotest.test_case "candidate magistrate rescue" `Quick
            test_candidate_magistrate_rescue;
          Alcotest.test_case "overlapping jurisdictions" `Quick
            test_overlapping_jurisdictions;
          Alcotest.test_case "jurisdiction splitting" `Quick test_split_jurisdiction;
          Alcotest.test_case "adopt requires visible storage" `Quick
            test_adopt_requires_visible_storage;
          Alcotest.test_case "split improves fault isolation" `Quick
            test_split_improves_fault_isolation;
        ] );
    ]
