(* Long-tail protocol coverage: the introspection and administration
   methods of every core object, plus the resource-management and
   commerce hooks (idle sweeps, §5.2.1 charge rates) and the network
   tap. *)

module Value = Legion_wire.Value
module Loid = Legion_naming.Loid
module Network = Legion_net.Network
module Runtime = Legion_rt.Runtime
module Err = Legion_rt.Err
module Well_known = Legion_core.Well_known
module C = Legion_core.Convert
module System = Legion.System
module Api = Legion.Api
module H = Helpers

let intf v name =
  match C.int_field v name with Ok i -> i | Error e -> Alcotest.fail e

(* --- Class object introspection --- *)

let test_class_info_and_listings () =
  let sys = H.boot_two_sites () in
  let ctx = System.client sys () in
  let cls = H.make_counter_class sys ctx () in
  let _o1 = Api.create_object_exn sys ctx ~cls () in
  let _o2 = Api.create_object_exn sys ctx ~cls () in
  let sub = Api.derive_class_exn sys ctx ~parent:cls ~name:"Sub" () in
  (match Api.call sys ctx ~dst:cls ~meth:"GetClassInfo" ~args:[] with
  | Ok info ->
      Alcotest.(check int) "2 instances" 2 (intf info "instances");
      Alcotest.(check int) "1 subclass" 1 (intf info "subclasses");
      (match C.str_field info "name" with
      | Ok n -> Alcotest.(check string) "name" "Counter" n
      | Error e -> Alcotest.fail e);
      (match C.bool_field info "abstract" with
      | Ok b -> Alcotest.(check bool) "concrete" false b
      | Error e -> Alcotest.fail e)
  | Error e -> Alcotest.failf "GetClassInfo: %s" (Err.to_string e));
  (match Api.call sys ctx ~dst:cls ~meth:"ListInstances" ~args:[] with
  | Ok (Value.List vs) -> Alcotest.(check int) "instances listed" 2 (List.length vs)
  | _ -> Alcotest.fail "ListInstances");
  (match Api.call sys ctx ~dst:cls ~meth:"ListSubclasses" ~args:[] with
  | Ok (Value.List vs) -> Alcotest.(check int) "subclasses listed" 1 (List.length vs)
  | _ -> Alcotest.fail "ListSubclasses");
  (* The subclass's info names its superclass. *)
  match Api.call sys ctx ~dst:sub ~meth:"GetClassInfo" ~args:[] with
  | Ok info -> (
      match C.opt_loid_field info "super" with
      | Ok (Some s) -> Alcotest.check H.loid_t "superclass" cls s
      | _ -> Alcotest.fail "no superclass recorded")
  | Error e -> Alcotest.failf "sub GetClassInfo: %s" (Err.to_string e)

let test_metaclass_locate_errors () =
  let sys = H.boot_two_sites () in
  let ctx = System.client sys () in
  let ghost_class = Loid.make ~class_id:0xDEADL ~class_specific:0L () in
  match
    Api.call sys ctx ~dst:Well_known.legion_class ~meth:"LocateClass"
      ~args:[ Loid.to_value ghost_class ]
  with
  | Error (Err.Not_bound _) -> ()
  | r ->
      Alcotest.failf "expected not_bound: %s"
        (match r with Ok v -> Value.to_string v | Error e -> Err.to_string e)

let test_bad_args_everywhere () =
  (* Argument validation is uniform: wrong shapes get Bad_args, not
     crashes or silent acceptance. *)
  let sys = H.boot_two_sites () in
  let ctx = System.client sys () in
  let cls = H.make_counter_class sys ctx () in
  let mag = List.hd (System.magistrates sys) in
  let agent = (System.site sys 0).System.agent in
  let host = List.hd (System.site sys 0).System.host_objects in
  List.iter
    (fun (dst, meth, args) ->
      match Api.call sys ctx ~dst ~meth ~args with
      | Error (Err.Bad_args _) -> ()
      | r ->
          Alcotest.failf "%s should reject: %s" meth
            (match r with Ok v -> Value.to_string v | Error e -> Err.to_string e))
    [
      (cls, "Create", []);
      (cls, "Derive", [ Value.Int 1; Value.Int 2 ]);
      (cls, "GetBinding", [ Value.Str "nope" ]);
      (cls, "InheritFrom", [ Value.Unit ]);
      (mag, "Activate", [ Value.Int 1 ]);
      (mag, "StoreObject", [ Value.Int 1; Value.Int 2 ]);
      (mag, "SweepIdle", [ Value.Int 3 ]);
      (agent, "GetBinding", [ Value.Str "x" ]);
      (agent, "AddBinding", [ Value.Unit ]);
      (agent, "SetPrice", [ Value.Int (-1) ]);
      (host, "Activate", [ Value.Int 1 ]);
      (host, "IdleProcesses", [ Value.Int 1 ]);
    ]

(* --- Idle sweep --- *)

let test_sweep_idle () =
  let sys = H.boot_two_sites () in
  let ctx = System.client sys () in
  let cls = H.make_counter_class sys ctx () in
  let mag = (System.site sys 0).System.magistrate in
  let busy = Api.create_object_exn sys ctx ~cls ~eager:true ~magistrate:mag () in
  let idle = Api.create_object_exn sys ctx ~cls ~eager:true ~magistrate:mag () in
  ignore (Api.call_exn sys ctx ~dst:idle ~meth:"Increment" ~args:[ Value.Int 9 ]);
  (* Let virtual time pass, touching only [busy]. *)
  for _ = 1 to 5 do
    System.run_for sys 10.0;
    ignore (Api.call_exn sys ctx ~dst:busy ~meth:"Ping" ~args:[])
  done;
  (match Api.call sys ctx ~dst:mag ~meth:"SweepIdle" ~args:[ Value.Float 30.0 ] with
  | Ok (Value.Int n) -> Alcotest.(check bool) "swept at least one" true (n >= 1)
  | r ->
      Alcotest.failf "SweepIdle: %s"
        (match r with Ok v -> Value.to_string v | Error e -> Err.to_string e));
  Alcotest.(check bool) "idle object deactivated" true
    (Runtime.find_proc (System.rt sys) idle = None);
  Alcotest.(check bool) "busy object still active" true
    (Runtime.find_proc (System.rt sys) busy <> None);
  (* The swept object reactivates on demand with state intact. *)
  let v = H.int_exn (Api.call_exn sys ctx ~dst:idle ~meth:"Get" ~args:[]) in
  Alcotest.(check int) "state preserved" 9 v

(* --- Charge rates (§5.2.1) --- *)

let test_agent_charge_rate () =
  let sys = H.boot_two_sites () in
  let ctx = System.client sys () in
  let cls = H.make_counter_class sys ctx () in
  let agent = (System.site sys 0).System.agent in
  (match Api.call sys ctx ~dst:agent ~meth:"SetPrice" ~args:[ Value.Int 3 ] with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "SetPrice: %s" (Err.to_string e));
  let revenue () =
    match Api.call sys ctx ~dst:agent ~meth:"GetStats" ~args:[] with
    | Ok stats -> intf stats "revenue"
    | Error e -> Alcotest.failf "GetStats: %s" (Err.to_string e)
  in
  (* Create first (the Create call itself resolves the class through
     the agent), then snapshot revenue before the first references. *)
  let o1 = Api.create_object_exn sys ctx ~cls () in
  let o2 = Api.create_object_exn sys ctx ~cls () in
  let r0 = revenue () in
  ignore (Api.call_exn sys ctx ~dst:o1 ~meth:"Ping" ~args:[]);
  ignore (Api.call_exn sys ctx ~dst:o2 ~meth:"Ping" ~args:[]);
  let r1 = revenue () in
  (* At least the client's two lookups were charged; infrastructure
     components resolving through the same agent (magistrate finding a
     host object, etc.) may add more. All charges are multiples of the
     price. *)
  Alcotest.(check bool)
    (Printf.sprintf "charged for the lookups (%d -> %d)" r0 r1)
    true
    (r1 >= r0 + 6 && (r1 - r0) mod 3 = 0);
  (* Cached references are free. *)
  ignore (Api.call_exn sys ctx ~dst:o1 ~meth:"Ping" ~args:[]);
  Alcotest.(check int) "no charge on cache hit" r1 (revenue ())

(* --- Network tap --- *)

let test_network_tap () =
  let sys = H.boot_two_sites () in
  let ctx = System.client sys () in
  let cls = H.make_counter_class sys ctx () in
  let obj = Api.create_object_exn sys ctx ~cls ~eager:true () in
  let seen = ref 0 in
  Network.set_tap (System.net sys) (Some (fun ~src:_ ~dst:_ _ -> incr seen));
  ignore (Api.call_exn sys ctx ~dst:obj ~meth:"Ping" ~args:[]);
  Alcotest.(check bool) "tap observed traffic" true (!seen >= 2);
  let observed = !seen in
  Network.set_tap (System.net sys) None;
  ignore (Api.call_exn sys ctx ~dst:obj ~meth:"Ping" ~args:[]);
  Alcotest.(check int) "tap removed" observed !seen

(* --- Magistrate host administration --- *)

let test_add_remove_host () =
  let sys = H.boot_two_sites () in
  let ctx = System.client sys () in
  let cls = H.make_counter_class sys ctx () in
  let site0 = System.site sys 0 in
  let mag = site0.System.magistrate in
  (* Remove all hosts but one: activations concentrate there. *)
  let keep = List.nth site0.System.host_objects 1 in
  List.iter
    (fun h ->
      if not (Loid.equal h keep) then
        match Api.call sys ctx ~dst:mag ~meth:"RemoveHost" ~args:[ Loid.to_value h ] with
        | Ok _ -> ()
        | Error e -> Alcotest.failf "RemoveHost: %s" (Err.to_string e))
    site0.System.host_objects;
  let objs =
    List.init 3 (fun _ ->
        Api.create_object_exn sys ctx ~cls ~eager:true ~magistrate:mag ())
  in
  let expected_host = List.nth site0.System.net_hosts 1 in
  List.iter
    (fun o ->
      match Runtime.find_proc (System.rt sys) o with
      | Some p -> Alcotest.(check int) "on the only host" expected_host (Runtime.proc_host p)
      | None -> Alcotest.fail "not active")
    objs;
  (* Put one back; it becomes eligible again. *)
  let back = List.hd site0.System.host_objects in
  match Api.call sys ctx ~dst:mag ~meth:"AddHost" ~args:[ Loid.to_value back ] with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "AddHost: %s" (Err.to_string e)

(* --- Host memory/GetState fields --- *)

let test_host_state_fields () =
  let sys = H.boot_two_sites () in
  let ctx = System.client sys () in
  let host = List.nth (System.site sys 0).System.host_objects 2 in
  (match Api.call sys ctx ~dst:host ~meth:"SetMemoryUsage" ~args:[ Value.Int 4096 ] with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "SetMemoryUsage: %s" (Err.to_string e));
  (match Api.call sys ctx ~dst:host ~meth:"GetState" ~args:[] with
  | Ok st ->
      Alcotest.(check int) "memory recorded" 4096 (intf st "mem");
      Alcotest.(check bool) "load present" true (intf st "load" >= 0)
  | Error e -> Alcotest.failf "GetState: %s" (Err.to_string e));
  match Api.call sys ctx ~dst:host ~meth:"Reap" ~args:[] with
  | Ok (Value.Int _) -> ()
  | _ -> Alcotest.fail "Reap"

(* --- The Host Object's process table --- *)

(* The first Host Object of a one-site system, driven directly with an
   OPR that starts a fresh counter. *)
let host_fixture () =
  let sys = H.boot_one_site () in
  let ctx = System.client sys () in
  let cls = H.make_counter_class sys ctx () in
  let host = List.hd (System.site sys 0).System.host_objects in
  let fresh () = System.fresh_instance_loid sys ~of_class:cls in
  let call meth args =
    match Api.call sys ctx ~dst:host ~meth ~args with
    | Ok v -> v
    | Error e -> Alcotest.failf "%s: %s" meth (Err.to_string e)
  in
  (sys, fresh, call)

let counter_opr =
  Value.Blob
    (Legion_core.Opr.to_blob
       (Legion_core.Opr.make ~kind:Well_known.kind_app ~units:[ H.counter_unit ] ()))

let activate call ?(opr = counter_opr) loid =
  match
    Result.bind
      (C.field (call "Activate" [ Loid.to_value loid; opr ]) "addr")
      Legion_naming.Address.of_value
  with
  | Ok a -> a
  | Error e -> Alcotest.fail e

let loids = function
  | Value.List vs ->
      List.map
        (fun v -> match C.loid_arg v with Ok l -> l | Error e -> Alcotest.fail e)
        vs
  | v -> Alcotest.failf "expected a LOID list, got %s" (Value.to_string v)

let loid_list = Alcotest.list H.loid_t

let test_host_listings_newest_first () =
  let sys, fresh, call = host_fixture () in
  (* Whatever the boot placed on the host (the class, say) is older. *)
  let boot = loids (call "ListProcesses" []) in
  let a = fresh () and b = fresh () and c = fresh () in
  let agent = (System.site sys 0).System.agent_address in
  let b_opr =
    Legion_core.Opr.make ~kind:Well_known.kind_app ~units:[ H.counter_unit ]
      ~binding_agent:agent ~cache_capacity:7 ()
  in
  ignore (activate call a);
  ignore (activate call ~opr:(Value.Blob (Legion_core.Opr.to_blob b_opr)) b);
  ignore (activate call c);
  let listed () = loids (call "ListProcesses" []) in
  let idle () = loids (call "IdleProcesses" [ Value.Float 0.0 ]) in
  Alcotest.check loid_list "activation order, newest first" ([ c; b; a ] @ boot)
    (listed ());
  let opr = call "Deactivate" [ Loid.to_value b ] in
  (match opr with
  | Value.Blob blob -> (
      match Legion_core.Opr.of_blob blob with
      | Ok o ->
          Alcotest.(check bool) "the OPR keeps kind, units, agent and cache bound" true
            ({ o with Legion_core.Opr.states = [] } = b_opr)
      | Error e -> Alcotest.fail e)
  | v -> Alcotest.failf "Deactivate replied %s" (Value.to_string v));
  Alcotest.check loid_list "deactivated one gone" ([ c; a ] @ boot) (listed ());
  ignore (activate call ~opr b);
  Alcotest.check loid_list "reactivated one is newest" ([ b; c; a ] @ boot)
    (listed ());
  Alcotest.check loid_list "idle listing, same order" ([ b; c; a ] @ boot) (idle ())

let test_host_reaps_superseded_incarnation () =
  let sys, fresh, call = host_fixture () in
  let rt = System.rt sys in
  let a = fresh () in
  let first = activate call a in
  let old_proc =
    match Runtime.find_proc rt a with Some p -> p | None -> Alcotest.fail "not running"
  in
  ignore (Runtime.bump_epoch rt a);
  Alcotest.(check bool) "IsAlive false for the old incarnation" false
    (call "IsAlive" [ Loid.to_value a ] = Value.Bool true);
  Alcotest.(check bool) "old process killed" false (Runtime.is_live old_proc);
  let second = activate call a in
  Alcotest.(check bool) "Activate hands out a fresh address" false
    (Legion_naming.Address.equal first second);
  Alcotest.(check bool) "one resident" true
    (List.filter (Loid.equal a) (loids (call "ListProcesses" [])) = [ a ])

let test_host_never_returns_dead_process () =
  let sys, fresh, call = host_fixture () in
  let boot = loids (call "ListProcesses" []) in
  let a = fresh () and b = fresh () in
  let first = activate call a in
  ignore (activate call b);
  Runtime.kill_loid (System.rt sys) a;
  Alcotest.(check bool) "IsAlive false" false
    (call "IsAlive" [ Loid.to_value a ] = Value.Bool true);
  Alcotest.check loid_list "not listed" (b :: boot) (loids (call "ListProcesses" []));
  Alcotest.check loid_list "not idle" (b :: boot)
    (loids (call "IdleProcesses" [ Value.Float 0.0 ]));
  Alcotest.(check int) "nothing left to reap" 0 (H.int_exn (call "Reap" []));
  let second = activate call a in
  Alcotest.(check bool) "Activate starts a new process" false
    (Legion_naming.Address.equal first second);
  Runtime.kill_loid (System.rt sys) b;
  Alcotest.(check int) "Reap counts the entry it drops" 1 (H.int_exn (call "Reap" []));
  Alcotest.check loid_list "reaped" (a :: boot) (loids (call "ListProcesses" []))

let test_capacity_only_gates_new_activations () =
  (* Capping below current load never kills running processes; it only
     refuses new placements on that host. *)
  let sys = H.boot_two_sites () in
  let ctx = System.client sys () in
  let cls = H.make_counter_class sys ctx () in
  let site0 = System.site sys 0 in
  let host = List.nth site0.System.host_objects 2 in
  let o1 =
    Api.create_object_exn sys ctx ~cls ~eager:true
      ~magistrate:site0.System.magistrate ~host ()
  in
  (* Cap at 1: o1 keeps running. *)
  ignore (Api.call_exn sys ctx ~dst:host ~meth:"SetCPUload" ~args:[ Value.Int 1 ]);
  Alcotest.(check bool) "existing process untouched" true
    (Runtime.find_proc (System.rt sys) o1 <> None);
  let v = H.int_exn (Api.call_exn sys ctx ~dst:o1 ~meth:"Increment" ~args:[ Value.Int 1 ]) in
  Alcotest.(check int) "still serving" 1 v;
  (* New placement attempts at this host fall over elsewhere. *)
  let o2 =
    Api.create_object_exn sys ctx ~cls ~eager:true
      ~magistrate:site0.System.magistrate ~host ()
  in
  (match Runtime.find_proc (System.rt sys) o2 with
  | Some p ->
      Alcotest.(check bool) "placed elsewhere" true
        (Runtime.proc_host p <> List.nth site0.System.net_hosts 2)
  | None -> Alcotest.fail "o2 inactive");
  (* Lifting the cap re-admits. *)
  ignore (Api.call_exn sys ctx ~dst:host ~meth:"SetCPUload" ~args:[ Value.Int 0 ]);
  let o3 =
    Api.create_object_exn sys ctx ~cls ~eager:true
      ~magistrate:site0.System.magistrate ~host ()
  in
  match Runtime.find_proc (System.rt sys) o3 with
  | Some p ->
      Alcotest.(check int) "back on the host" (List.nth site0.System.net_hosts 2)
        (Runtime.proc_host p)
  | None -> Alcotest.fail "o3 inactive"

let () =
  Alcotest.run "protocol"
    [
      ( "introspection",
        [
          Alcotest.test_case "class info and listings" `Quick
            test_class_info_and_listings;
          Alcotest.test_case "LocateClass unknown" `Quick test_metaclass_locate_errors;
          Alcotest.test_case "argument validation" `Quick test_bad_args_everywhere;
          Alcotest.test_case "host state fields" `Quick test_host_state_fields;
          Alcotest.test_case "host listings newest first" `Quick
            test_host_listings_newest_first;
          Alcotest.test_case "host reaps superseded incarnation" `Quick
            test_host_reaps_superseded_incarnation;
          Alcotest.test_case "host never returns a dead process" `Quick
            test_host_never_returns_dead_process;
        ] );
      ( "resource management",
        [
          Alcotest.test_case "idle sweep" `Quick test_sweep_idle;
          Alcotest.test_case "add/remove host" `Quick test_add_remove_host;
          Alcotest.test_case "capacity gates only new activations" `Quick
            test_capacity_only_gates_new_activations;
        ] );
      ( "commerce",
        [ Alcotest.test_case "charge rate accrues revenue" `Quick test_agent_charge_rate ] );
      ( "observability",
        [ Alcotest.test_case "network tap" `Quick test_network_tap ] );
    ]
