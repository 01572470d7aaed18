(* Tests for the synchronous convenience layer (Legion.Api) and the
   System builder's contracts. *)

module Value = Legion_wire.Value
module Loid = Legion_naming.Loid
module Binding = Legion_naming.Binding
module Runtime = Legion_rt.Runtime
module Err = Legion_rt.Err
module Well_known = Legion_core.Well_known
module Counter = Legion_util.Counter
module Recorder = Legion_obs.Recorder
module System = Legion.System
module Api = Legion.Api
module H = Helpers

let test_boot_validation () =
  Alcotest.check_raises "no sites" (Invalid_argument "System.boot: no sites")
    (fun () -> ignore (Legion.System.boot ~sites:[] ()));
  Alcotest.check_raises "zero hosts"
    (Invalid_argument "System.boot: site needs >= 1 host") (fun () ->
      ignore (Legion.System.boot ~sites:[ ("a", 0) ] ()))

let test_boot_deterministic () =
  (* Same seed, same bootstrap message count. *)
  let count seed =
    H.register_counter_unit ();
    let sys = Legion.System.boot ~seed ~sites:[ ("a", 2); ("b", 2) ] () in
    Legion_net.Network.messages_sent (System.net sys)
  in
  Alcotest.(check int) "deterministic" (count 5L) (count 5L)

let test_sync_quiesce_failure () =
  let sys = H.boot_one_site () in
  match Api.sync sys (fun _k -> ()) with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "sync must fail when the continuation never fires"

let test_call_exn_raises () =
  let sys = H.boot_one_site () in
  let ctx = System.client sys () in
  let ghost = Loid.make ~class_id:0x999L ~class_specific:1L () in
  match Api.call_exn sys ctx ~dst:ghost ~meth:"Ping" ~args:[] with
  | exception Api.Call_failed msg ->
      Alcotest.(check bool) "message names the method" true
        (String.length msg > 0)
  | _ -> Alcotest.fail "ghost call should raise"

let test_create_on_instance_fails () =
  (* Create on a non-class object: the method does not exist there. *)
  let sys = H.boot_one_site () in
  let ctx = System.client sys () in
  let cls = H.make_counter_class sys ctx () in
  let obj = Api.create_object_exn sys ctx ~cls ~eager:true () in
  match Api.create_object sys ctx ~cls:obj () with
  | Error (Err.No_such_method _) -> ()
  | r ->
      Alcotest.failf "expected no_such_method: %s"
        (match r with
        | Ok (l, _) -> Loid.to_string l
        | Error e -> Err.to_string e)

let test_get_binding_via_class_and_agent () =
  let sys = H.boot_two_sites () in
  let ctx = System.client sys () in
  let cls = H.make_counter_class sys ctx () in
  let obj = Api.create_object_exn sys ctx ~cls ~eager:true () in
  (* Via the class (the authority)... *)
  let b1 =
    match Api.get_binding sys ctx ~via:cls ~target:obj with
    | Ok b -> b
    | Error e -> Alcotest.failf "via class: %s" (Err.to_string e)
  in
  (* ...and via a Binding Agent (the cache): same address. *)
  let agent = (System.site sys 0).System.agent in
  let b2 =
    match Api.get_binding sys ctx ~via:agent ~target:obj with
    | Ok b -> b
    | Error e -> Alcotest.failf "via agent: %s" (Err.to_string e)
  in
  Alcotest.(check bool) "same address" true
    (Legion_naming.Address.equal (Binding.address b1) (Binding.address b2))

let test_derive_rejects_both_idls () =
  let sys = H.boot_one_site () in
  let ctx = System.client sys () in
  match
    Api.derive_class sys ctx ~parent:Well_known.legion_object ~name:"Both"
      ~idl:"interface Both { M(); }"
      ~mpl:"mentat class Both { void M(); }" ()
  with
  | Error (Err.Bad_args _) -> ()
  | Ok _ -> Alcotest.fail "accepted both interface sources"
  | Error e -> Alcotest.failf "unexpected: %s" (Err.to_string e)

let test_derive_bad_idl_rejected () =
  let sys = H.boot_one_site () in
  let ctx = System.client sys () in
  match
    Api.derive_class sys ctx ~parent:Well_known.legion_object ~name:"Bad"
      ~idl:"interface Bad { M(x int); }" ()
  with
  | Error (Err.Bad_args msg) ->
      Alcotest.(check bool) "mentions idl" true
        (String.length msg > 0)
  | Ok _ -> Alcotest.fail "accepted malformed IDL"
  | Error e -> Alcotest.failf "unexpected: %s" (Err.to_string e)

let test_delete_object_helper () =
  let sys = H.boot_one_site () in
  let ctx = System.client sys () in
  let cls = H.make_counter_class sys ctx () in
  let loid = Api.create_object_exn sys ctx ~cls ~eager:true () in
  let cached () =
    Legion_naming.Cache.mem (Runtime.cache_of ctx.Runtime.self) ~now:(System.now sys) loid
  in
  ignore (Api.call_exn sys ctx ~dst:loid ~meth:"Get" ~args:[]);
  Alcotest.(check bool) "binding cached by the call" true (cached ());
  (match Api.delete_object sys ctx ~cls ~loid with
  | Ok () -> ()
  | Error e -> Alcotest.failf "delete: %s" (Err.to_string e));
  (* Nothing of the object is kept: not the caller's cached binding,
     not its history in the Jurisdiction's store. *)
  Alcotest.(check bool) "caller's binding dropped" false (cached ());
  Alcotest.(check int) "store history dropped" 0
    (List.length
       (Legion_store.Persistent.history (System.site sys 0).System.storage ~loid));
  match Api.call sys ctx ~dst:loid ~meth:"Get" ~args:[] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "deleted object answered"

let test_clients_are_isolated () =
  (* Each client gets its own LOID and cache; killing one does not
     disturb another. *)
  let sys = H.boot_one_site () in
  let c1 = System.client sys () in
  let c2 = System.client sys () in
  Alcotest.(check bool) "distinct loids" false
    (Loid.equal
       (Runtime.proc_loid c1.Runtime.self)
       (Runtime.proc_loid c2.Runtime.self));
  Runtime.kill (System.rt sys) c1.Runtime.self;
  let cls = H.make_counter_class sys c2 () in
  let obj = Api.create_object_exn sys c2 ~cls () in
  let v = H.int_exn (Api.call_exn sys c2 ~dst:obj ~meth:"Increment" ~args:[ Value.Int 1 ]) in
  Alcotest.(check int) "surviving client works" 1 v

let test_fresh_instance_loids_distinct () =
  let sys = H.boot_one_site () in
  let a = System.fresh_instance_loid sys ~of_class:Well_known.legion_object in
  let b = System.fresh_instance_loid sys ~of_class:Well_known.legion_object in
  Alcotest.(check bool) "distinct" false (Loid.equal a b);
  Alcotest.(check int64) "class id follows" (Loid.class_id Well_known.legion_object)
    (Loid.class_id a);
  (* High range: never collides with class-allocated sequence numbers. *)
  Alcotest.(check bool) "high range" true
    (Int64.compare (Loid.class_specific a) 0x1_0000_0000L >= 0)

(* §5: no component's per-request cost grows with the size of the
   system. The median minor words allocated per [Api.delete_object]
   must not grow with the number of instances the class and its
   Magistrate hold. The median, not the mean, because an occasional
   delete pays for an amortised hash-table resize (~90k words once). *)
let delete_words ~instances =
  let sys = H.boot_one_site () in
  let ctx = System.client sys () in
  let cls = H.make_counter_class sys ctx () in
  let loids = List.init instances (fun _ -> Api.create_object_exn sys ctx ~cls ()) in
  let victims = List.filteri (fun i _ -> i mod (instances / 40) = 0) loids in
  let words loid =
    let w0 = Gc.minor_words () in
    (match Api.delete_object sys ctx ~cls ~loid with
    | Ok () -> ()
    | Error e -> Alcotest.failf "delete: %s" (Err.to_string e));
    Gc.minor_words () -. w0
  in
  let sorted = List.sort Float.compare (List.map words victims) in
  List.nth sorted (List.length sorted / 2)

(* Measured on OCaml 5.1.1: a median of 3,898 words per delete at 500
   instances and 3,918 at 5,000. When each delete copied the class table
   and the Magistrate's records, and the store scanned every object's
   history, it was 8,753 words at 500 and 53,767 at 5,000. *)
let test_delete_cost_flat () =
  let small = delete_words ~instances:500 in
  let large = delete_words ~instances:5000 in
  Alcotest.(check bool)
    (Printf.sprintf "%.0f words per delete at 5000 within 1.1x of %.0f at 500"
       large small)
    true
    (large <= 1.1 *. small)

(* §5 per activation: the first call to a fresh object activates it
   through the Magistrate and a Host Object, and what that costs must
   not grow with how many objects are already running there. *)
let activation_words ~active =
  let sys = H.boot_one_site () in
  let ctx = System.client sys () in
  let cls = H.make_counter_class sys ctx () in
  let first_call loid = ignore (Api.call_exn sys ctx ~dst:loid ~meth:"Get" ~args:[]) in
  for _ = 1 to active do
    first_call (Api.create_object_exn sys ctx ~cls ())
  done;
  let fresh = List.init 40 (fun _ -> Api.create_object_exn sys ctx ~cls ()) in
  let words loid =
    let w0 = Gc.minor_words () in
    first_call loid;
    Gc.minor_words () -. w0
  in
  let sorted = List.sort Float.compare (List.map words fresh) in
  List.nth sorted (List.length sorted / 2)

(* Measured on OCaml 5.1.1: a median of 5,143 words per activating call
   with 500 objects active and 5,144 with 5,000. When every Host Object
   request filtered the host's whole process list it was 7,468 words at
   500 and 27,738 at 5,000. *)
let test_activation_cost_flat () =
  let small = activation_words ~active:500 in
  let large = activation_words ~active:5000 in
  Alcotest.(check bool)
    (Printf.sprintf "%.0f words per activation at 5000 within 1.1x of %.0f at 500"
       large small)
    true
    (large <= 1.1 *. small)

(* §4.1.2 per warm call: a call whose binding is cached is two messages,
   and what it allocates must depend neither on how many objects are
   active nor on whether the event ring has wrapped. *)
let warm_call_words ~active ~wrap =
  let sys = H.boot_one_site () in
  let ctx = System.client sys () in
  let cls = H.make_counter_class sys ctx () in
  let call loid = ignore (Api.call_exn sys ctx ~dst:loid ~meth:"Get" ~args:[]) in
  let loids = List.init active (fun _ -> Api.create_object_exn sys ctx ~cls ()) in
  List.iter call loids;
  let obs = System.obs sys in
  if wrap then
    while Recorder.overwritten obs = 0 do
      List.iter call loids
    done
  else Recorder.clear obs;
  let warm = List.filteri (fun i _ -> i mod (active / 40) = 0) loids in
  let words loid =
    let w0 = Gc.minor_words () in
    call loid;
    Gc.minor_words () -. w0
  in
  let sorted = List.sort Float.compare (List.map words warm) in
  List.nth sorted (List.length sorted / 2)

(* Measured on OCaml 5.1.1: a median of 401 words per warm call with 500
   objects active, 368 with 5,000, and 368 at 500 once the event ring has
   wrapped. With a boxed event per ring slot and the per-LOID tables it
   was 512, 479 and 479. *)
let test_warm_call_cost_flat () =
  let small = warm_call_words ~active:500 ~wrap:false in
  let large = warm_call_words ~active:5000 ~wrap:false in
  let wrapped = warm_call_words ~active:500 ~wrap:true in
  Alcotest.(check bool)
    (Printf.sprintf "%.0f words per warm call at 5000 within 1.1x of %.0f at 500"
       large small)
    true
    (large <= 1.1 *. small);
  Alcotest.(check bool)
    (Printf.sprintf "%.0f words per warm call on a wrapped ring within 1.1x of %.0f"
       wrapped small)
    true
    (wrapped <= 1.1 *. small)

(* A deleted object leaves nothing behind: no request counter, no Host
   Object entry, no incarnation number. *)
let test_delete_leaves_no_residue () =
  let sys = H.boot_one_site () in
  let ctx = System.client sys () in
  let cls = H.make_counter_class sys ctx () in
  let rt = System.rt sys in
  let reg = System.registry sys in
  let registered () = List.length (Counter.Registry.all reg) in
  let listings () =
    List.map
      (fun host -> Api.call sys ctx ~dst:host ~meth:"ListProcesses" ~args:[])
      (System.site sys 0).System.host_objects
  in
  let before = registered () and listed = listings () in
  let rounds = 50 in
  let deleted =
    List.init rounds (fun _ ->
        let loid = Api.create_object_exn sys ctx ~cls () in
        ignore (Api.call_exn sys ctx ~dst:loid ~meth:"Increment" ~args:[ Value.Int 1 ]);
        (match Api.delete_object sys ctx ~cls ~loid with
        | Ok () -> ()
        | Error e -> Alcotest.failf "delete: %s" (Err.to_string e));
        loid)
  in
  Alcotest.(check int) "no counter left registered" before (registered ());
  Alcotest.(check int) "app total still counts every call" rounds
    (Counter.Registry.group_total reg Well_known.kind_app);
  Alcotest.(check bool) "Host Objects list only what ran before" true
    (listings () = listed);
  List.iter
    (fun loid ->
      Alcotest.(check int) "epoch forgotten" 0 (Runtime.current_epoch rt loid))
    deleted

let () =
  Alcotest.run "api"
    [
      ( "system",
        [
          Alcotest.test_case "boot validation" `Quick test_boot_validation;
          Alcotest.test_case "boot deterministic" `Quick test_boot_deterministic;
          Alcotest.test_case "clients isolated" `Quick test_clients_are_isolated;
          Alcotest.test_case "fresh loids" `Quick test_fresh_instance_loids_distinct;
        ] );
      ( "api",
        [
          Alcotest.test_case "sync detects quiescence" `Quick test_sync_quiesce_failure;
          Alcotest.test_case "call_exn raises" `Quick test_call_exn_raises;
          Alcotest.test_case "Create on an instance" `Quick test_create_on_instance_fails;
          Alcotest.test_case "GetBinding via class and agent" `Quick
            test_get_binding_via_class_and_agent;
          Alcotest.test_case "both IDLs rejected" `Quick test_derive_rejects_both_idls;
          Alcotest.test_case "bad IDL rejected" `Quick test_derive_bad_idl_rejected;
          Alcotest.test_case "delete_object helper" `Quick test_delete_object_helper;
          Alcotest.test_case "delete cost flat in instances" `Quick test_delete_cost_flat;
          Alcotest.test_case "activation cost flat in active objects" `Quick
            test_activation_cost_flat;
          Alcotest.test_case "warm call cost flat in active objects" `Quick
            test_warm_call_cost_flat;
          Alcotest.test_case "delete leaves no residue" `Quick
            test_delete_leaves_no_residue;
        ] );
    ]
