(* Tests for the core object model machinery: OPRs, implementation-unit
   composition, the object-mandatory base unit, and Convert helpers. *)

module Value = Legion_wire.Value
module Loid = Legion_naming.Loid
module Address = Legion_naming.Address
module Engine = Legion_sim.Engine
module Network = Legion_net.Network
module Counter = Legion_util.Counter
module Prng = Legion_util.Prng
module Env = Legion_sec.Env
module Policy = Legion_sec.Policy
module Runtime = Legion_rt.Runtime
module Err = Legion_rt.Err
module Impl = Legion_core.Impl
module Opr = Legion_core.Opr
module Object_part = Legion_core.Object_part
module Well_known = Legion_core.Well_known
module C = Legion_core.Convert

(* --- OPR --- *)

let test_opr_roundtrip () =
  let opr =
    Opr.make
      ~states:[ ("u1", Value.Int 3); ("u2", Value.Str "s") ]
      ~binding_agent:(Address.singleton (Address.Sim { host = 1; slot = 2 }))
      ~cache_capacity:64 ~kind:"app" ~units:[ "u1"; "u2" ] ()
  in
  match Opr.of_blob (Opr.to_blob opr) with
  | Error e -> Alcotest.failf "roundtrip: %s" e
  | Ok opr' ->
      Alcotest.(check string) "kind" opr.Opr.kind opr'.Opr.kind;
      Alcotest.(check (list string)) "units" opr.Opr.units opr'.Opr.units;
      Alcotest.(check bool) "states" true
        (List.for_all2
           (fun (n, v) (n', v') -> n = n' && Value.equal v v')
           opr.Opr.states opr'.Opr.states);
      Alcotest.(check (option int)) "capacity" (Some 64) opr'.Opr.cache_capacity;
      Alcotest.(check bool) "agent survives" true
        (match opr'.Opr.binding_agent with Some _ -> true | None -> false)

let test_opr_minimal () =
  let opr = Opr.make ~kind:"app" ~units:[ "only" ] () in
  match Opr.of_blob (Opr.to_blob opr) with
  | Ok opr' ->
      Alcotest.(check bool) "no agent" true (opr'.Opr.binding_agent = None);
      Alcotest.(check (option int)) "no cap" None opr'.Opr.cache_capacity
  | Error e -> Alcotest.failf "roundtrip: %s" e

let test_opr_bad_blob () =
  Alcotest.(check bool) "garbage rejected" true (Result.is_error (Opr.of_blob "junk"))

(* --- Composition fixture --- *)

type fixture = { sim : Engine.t; rt : Runtime.t; host : int }

let make_fixture () =
  let sim = Engine.create () in
  let prng = Prng.create ~seed:1L in
  let registry = Counter.Registry.create () in
  let net = Network.create ~sim ~prng:(Prng.split prng) ~codec:Legion_rt.Msg.codec () in
  let site = Network.add_site net ~name:"s" in
  let host = Network.add_host net ~site ~name:"h" in
  let rt = Runtime.create ~sim ~net ~registry ~prng:(Prng.split prng) () in
  { sim; rt; host }

let loid i = Loid.make ~class_id:60L ~class_specific:(Int64.of_int i) ()

(* Two tiny units that both define "Who" — for precedence tests. *)
let unit_a : Impl.factory =
 fun _ctx ->
  Impl.part
    ~methods:[ ("Who", fun _ _ _ k -> k (Ok (Value.Str "A"))) ]
    ~save:(fun () -> Value.Str "state-a")
    "test.a"

let unit_b : Impl.factory =
 fun _ctx ->
  Impl.part
    ~methods:
      [
        ("Who", fun _ _ _ k -> k (Ok (Value.Str "B")));
        ("OnlyB", fun _ _ _ k -> k (Ok (Value.Str "b")));
      ]
    ~save:(fun () -> Value.Str "state-b")
    "test.b"

let call f proc meth args =
  let client =
    Runtime.spawn f.rt ~host:f.host ~loid:(loid 999) ~kind:"client"
      ~handler:(fun _ _ k -> k (Error (Err.Refused "client")))
      ()
  in
  let ctx = { Runtime.rt = f.rt; self = client } in
  let r = ref None in
  Runtime.invoke_address ctx ~address:(Runtime.address_of proc)
    ~dst:(Runtime.proc_loid proc) ~meth ~args ~env:(Env.of_self (loid 999))
    (fun x -> r := Some x);
  Engine.run f.sim;
  Runtime.kill f.rt client;
  match !r with Some x -> x | None -> Alcotest.fail "no reply"

let activate f units =
  Impl.register "test.a" unit_a;
  Impl.register "test.b" unit_b;
  Object_part.register ();
  let opr = Opr.make ~kind:"app" ~units () in
  match Impl.activate f.rt ~host:f.host ~loid:(loid 1) opr with
  | Ok proc -> proc
  | Error msg -> Alcotest.failf "activate: %s" msg

let test_dispatch_precedence () =
  let f = make_fixture () in
  let proc = activate f [ "test.a"; "test.b"; Well_known.unit_object ] in
  (match call f proc "Who" [] with
  | Ok (Value.Str "A") -> ()
  | _ -> Alcotest.fail "first unit must win");
  (match call f proc "OnlyB" [] with
  | Ok (Value.Str "b") -> ()
  | _ -> Alcotest.fail "later unit methods reachable");
  match call f proc "Nope" [] with
  | Error (Err.No_such_method "Nope") -> ()
  | _ -> Alcotest.fail "unknown method must error"

let test_save_state_shape () =
  let f = make_fixture () in
  let proc = activate f [ "test.a"; "test.b"; Well_known.unit_object ] in
  match call f proc "SaveState" [] with
  | Ok (Value.Record fields) ->
      Alcotest.(check (list string)) "per-unit states"
        [ "test.a"; "test.b"; Well_known.unit_object ]
        (List.map fst fields);
      Alcotest.(check bool) "a state" true
        (List.assoc "test.a" fields = Value.Str "state-a")
  | _ -> Alcotest.fail "SaveState must return a record"

let test_get_method_names () =
  let f = make_fixture () in
  let proc = activate f [ "test.a"; Well_known.unit_object ] in
  match call f proc "GetMethodNames" [] with
  | Ok (Value.List names) ->
      let names =
        List.filter_map (function Value.Str s -> Some s | _ -> None) names
      in
      List.iter
        (fun m ->
          Alcotest.(check bool) (m ^ " present") true (List.mem m names))
        [ "SaveState"; "RestoreState"; "Who"; "MayI"; "Iam"; "Ping" ]
  | _ -> Alcotest.fail "GetMethodNames must return a list"

let test_unknown_unit_fails_cleanly () =
  let f = make_fixture () in
  let opr = Opr.make ~kind:"app" ~units:[ "test.nonexistent" ] () in
  (match Impl.activate f.rt ~host:f.host ~loid:(loid 5) opr with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown unit accepted");
  Alcotest.(check bool) "nothing spawned" true
    (Runtime.find_proc f.rt (loid 5) = None)

let test_bad_state_fails_cleanly () =
  let f = make_fixture () in
  Impl.register "test.strict"
    (fun _ctx ->
      Impl.part
        ~restore:(fun _ -> Error "refuse all state")
        "test.strict");
  let opr =
    Opr.make ~kind:"app" ~units:[ "test.strict" ]
      ~states:[ ("test.strict", Value.Unit) ] ()
  in
  (match Impl.activate f.rt ~host:f.host ~loid:(loid 6) opr with
  | Error msg ->
      Alcotest.(check bool) "mentions unit" true
        (String.length msg > 0)
  | Ok _ -> Alcotest.fail "bad state accepted");
  Alcotest.(check bool) "nothing spawned" true
    (Runtime.find_proc f.rt (loid 6) = None)

let test_registered_units_listed () =
  Impl.register "test.listed" (fun _ -> Impl.part "test.listed");
  Alcotest.(check bool) "registry lists it" true
    (List.mem "test.listed" (Impl.registered_units ()))

(* OPR decoding never raises, whatever value shape it is handed. *)
let opr_fuzz_prop =
  QCheck.Test.make ~name:"Opr.of_blob never raises" ~count:300
    QCheck.(string_of_size Gen.(0 -- 80))
    (fun s -> match Opr.of_blob s with Ok _ | Error _ -> true)

(* Property: for any ordering of units that define the same method, the
   first unit in the list answers — the paper's inheritance precedence. *)
let compose_precedence_prop =
  QCheck.Test.make ~name:"first unit wins for any composition order" ~count:30
    QCheck.(list_of_size Gen.(1 -- 5) (int_bound 4))
    (fun unit_ids ->
      QCheck.assume (unit_ids <> []);
      let f = make_fixture () in
      (* Five units, each answering Who with its id. *)
      List.iter
        (fun i ->
          Impl.register
            (Printf.sprintf "test.who%d" i)
            (fun _ctx ->
              Impl.part
                ~methods:
                  [ ("Who", fun _ _ _ k -> k (Ok (Value.Int i))) ]
                (Printf.sprintf "test.who%d" i)))
        [ 0; 1; 2; 3; 4 ];
      Object_part.register ();
      let units =
        List.map (Printf.sprintf "test.who%d") unit_ids @ [ Well_known.unit_object ]
      in
      (* Dedup preserving first occurrence, as Derive does. *)
      let units =
        List.rev
          (List.fold_left
             (fun acc u -> if List.mem u acc then acc else u :: acc)
             [] units)
      in
      let opr = Opr.make ~kind:"app" ~units () in
      match Impl.activate f.rt ~host:f.host ~loid:(loid 77) opr with
      | Error _ -> false
      | Ok proc -> (
          match call f proc "Who" [] with
          | Ok (Value.Int got) -> got = List.hd unit_ids
          | _ -> false))

(* --- Object part: MayI, policy guard --- *)

let test_object_part_identity () =
  let f = make_fixture () in
  let proc = activate f [ Well_known.unit_object ] in
  (match call f proc "Iam" [] with
  | Ok v -> (
      match Loid.of_value v with
      | Ok l -> Alcotest.(check bool) "identity" true (Loid.equal l (loid 1))
      | Error e -> Alcotest.failf "bad Iam: %s" e)
  | Error e -> Alcotest.failf "Iam: %s" (Err.to_string e));
  match call f proc "Ping" [] with
  | Ok Value.Unit -> ()
  | _ -> Alcotest.fail "Ping"

let test_policy_guard_denies () =
  let f = make_fixture () in
  Object_part.register ();
  let deny = Policy.Deny_all "locked" in
  let opr =
    Opr.make ~kind:"app"
      ~units:[ Well_known.unit_object ]
      ~states:[ (Well_known.unit_object, Object_part.state_value ~policy:deny ()) ]
      ()
  in
  let proc =
    match Impl.activate f.rt ~host:f.host ~loid:(loid 7) opr with
    | Ok p -> p
    | Error msg -> Alcotest.failf "activate: %s" msg
  in
  (* Guarded methods are refused... *)
  (match call f proc "GetInfo" [] with
  | Error (Err.Refused "locked") -> ()
  | r ->
      Alcotest.failf "expected refusal, got %s"
        (match r with Ok v -> Value.to_string v | Error e -> Err.to_string e));
  (* ...but MayI/Iam/Ping stay reachable, and MayI reports the denial. *)
  (match call f proc "Ping" [] with
  | Ok Value.Unit -> ()
  | _ -> Alcotest.fail "Ping must bypass guard");
  match call f proc "MayI" [ Value.Str "GetInfo" ] with
  | Ok (Value.Bool false) -> ()
  | _ -> Alcotest.fail "MayI must report denial"

let test_policy_survives_save_restore () =
  let f = make_fixture () in
  let proc = activate f [ Well_known.unit_object ] in
  (* Install a restrictive policy, snapshot, restore into a sibling. *)
  (match
     call f proc "SetPolicy" [ Policy.to_value (Policy.Deny_all "frozen") ]
   with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "SetPolicy: %s" (Err.to_string e));
  (* SetPolicy of Deny_all instantly locks the object out — even
     SaveState. That is the object implementor's right (§2.4: "users are
     responsible for their own security"). *)
  match call f proc "SaveState" [] with
  | Error (Err.Refused _) -> ()
  | _ -> Alcotest.fail "deny-all must also lock SaveState"

(* --- Convert --- *)

let test_convert_opt_fields () =
  let v = Value.Record [ ("x", Value.List [ Value.Int 3 ]); ("y", Value.List []) ] in
  Alcotest.(check bool) "some" true (C.opt_int_field v "x" = Ok (Some 3));
  Alcotest.(check bool) "none" true (C.opt_int_field v "y" = Ok None);
  Alcotest.(check bool) "absent is none" true (C.opt_int_field v "z" = Ok None);
  Alcotest.(check bool) "bad shape" true
    (Result.is_error (C.opt_int_field (Value.Record [ ("x", Value.Int 1) ]) "x"))

let test_convert_defaults () =
  let v = Value.Record [] in
  Alcotest.(check bool) "bool default" true (C.bool_field ~default:true v "b" = Ok true);
  Alcotest.(check bool) "bool required" true (Result.is_error (C.bool_field v "b"));
  Alcotest.(check bool) "strs default" true
    (C.str_list_field ~default:[ "d" ] v "l" = Ok [ "d" ]);
  Alcotest.(check bool) "loids default" true
    (C.loid_list_field ~default:[] v "l" = Ok [])

let () =
  Alcotest.run "core"
    [
      ( "opr",
        [
          Alcotest.test_case "roundtrip" `Quick test_opr_roundtrip;
          Alcotest.test_case "minimal" `Quick test_opr_minimal;
          Alcotest.test_case "bad blob" `Quick test_opr_bad_blob;
        ] );
      ( "impl",
        [
          Alcotest.test_case "dispatch precedence" `Quick test_dispatch_precedence;
          Alcotest.test_case "SaveState shape" `Quick test_save_state_shape;
          Alcotest.test_case "GetMethodNames" `Quick test_get_method_names;
          Alcotest.test_case "unknown unit fails cleanly" `Quick
            test_unknown_unit_fails_cleanly;
          Alcotest.test_case "bad state fails cleanly" `Quick
            test_bad_state_fails_cleanly;
          QCheck_alcotest.to_alcotest compose_precedence_prop;
          QCheck_alcotest.to_alcotest opr_fuzz_prop;
          Alcotest.test_case "registered units listed" `Quick
            test_registered_units_listed;
        ] );
      ( "object part",
        [
          Alcotest.test_case "identity methods" `Quick test_object_part_identity;
          Alcotest.test_case "policy guard" `Quick test_policy_guard_denies;
          Alcotest.test_case "deny-all locks SaveState" `Quick
            test_policy_survives_save_restore;
        ] );
      ( "convert",
        [
          Alcotest.test_case "optional fields" `Quick test_convert_opt_fields;
          Alcotest.test_case "defaults" `Quick test_convert_defaults;
        ] );
    ]
