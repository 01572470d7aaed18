(* M1–M6 — Bechamel micro-benchmarks of the substrate hot paths: LOID
   codec, wire codec, binding-cache operations, event-queue throughput,
   interface checking, and a full simulated RPC round trip.

   These are wall-clock measurements of the simulator itself (not
   virtual time): they bound how large an experiment the harness can
   drive. *)

open Bechamel
module Value = Legion_wire.Value
module Codec = Legion_wire.Codec
module Loid = Legion_naming.Loid
module Address = Legion_naming.Address
module Binding = Legion_naming.Binding
module Cache = Legion_naming.Cache
module Interface = Legion_idl.Interface
module Engine = Legion_sim.Engine
module Network = Legion_net.Network
module Runtime = Legion_rt.Runtime
module Err = Legion_rt.Err
module Prng = Legion_util.Prng
module Counter = Legion_util.Counter

let sample_loid = Loid.make ~public_key:"0123456789abcdef" ~class_id:42L ~class_specific:7L ()

let sample_binding =
  Binding.make ~expires:10.0 ~loid:sample_loid
    ~address:
      (Address.make ~semantic:Address.Ordered_failover
         [ Address.Sim { host = 3; slot = 17 }; Address.Ip { host = 0x0A000001l; port = 4040 } ])
    ()

let sample_call_payload =
  Value.Record
    [
      ("k", Value.Str "c");
      ("id", Value.Int 123456);
      ("sl", Loid.to_value sample_loid);
      ("m", Value.Str "Increment");
      ("a", Value.List [ Value.Int 1; Value.Str "payload"; Value.Float 3.14 ]);
    ]

let sample_encoded = Codec.encode sample_call_payload

let bench_loid_codec =
  Test.make ~name:"loid encode+decode"
    (Staged.stage (fun () ->
         match Loid.of_value (Loid.to_value sample_loid) with
         | Ok l -> ignore (Sys.opaque_identity l)
         | Error _ -> assert false))

let bench_wire_codec =
  Test.make ~name:"wire encode+decode call"
    (Staged.stage (fun () ->
         match Codec.decode (Codec.encode sample_call_payload) with
         | Ok v -> ignore (Sys.opaque_identity v)
         | Error _ -> assert false))

let bench_wire_decode =
  Test.make ~name:"wire decode call"
    (Staged.stage (fun () ->
         match Codec.decode sample_encoded with
         | Ok v -> ignore (Sys.opaque_identity v)
         | Error _ -> assert false))

let bench_cache =
  let cache = Cache.create ~capacity:256 () in
  let loids =
    Array.init 512 (fun i -> Loid.make ~class_id:1L ~class_specific:(Int64.of_int i) ())
  in
  Array.iter
    (fun l ->
      Cache.add cache ~now:0.0
        (Binding.make ~loid:l ~address:(Address.singleton (Address.Sim { host = 0; slot = 0 })) ()))
    loids;
  let i = ref 0 in
  Test.make ~name:"binding cache find (256 cap)"
    (Staged.stage (fun () ->
         incr i;
         ignore (Sys.opaque_identity (Cache.find cache ~now:0.0 loids.(!i land 511)))))

let bench_event_queue =
  Test.make ~name:"event schedule+fire"
    (Staged.stage
       (let sim = Engine.create () in
        fun () ->
          ignore (Engine.schedule sim ~delay:1.0 (fun () -> ()));
          ignore (Engine.step sim)))

let bench_interface_check =
  let iface =
    Interface.make ~name:"Counter"
      [
        { Interface.meth = "Increment"; params = [ ("d", Legion_idl.Ty.Tint) ]; ret = Legion_idl.Ty.Tint };
        { Interface.meth = "Get"; params = []; ret = Legion_idl.Ty.Tint };
      ]
  in
  Test.make ~name:"interface check_call"
    (Staged.stage (fun () ->
         ignore
           (Sys.opaque_identity
              (Interface.check_call iface ~meth:"Increment" ~args:[ Value.Int 1 ]))))

(* A minimal two-host runtime for measuring a full simulated RPC round:
   send, deliver, handle, reply, deliver. *)
let bench_rpc_round =
  let sim = Engine.create () in
  let prng = Prng.create ~seed:1L in
  let registry = Counter.Registry.create () in
  let net = Network.create ~sim ~prng:(Prng.split prng) ~codec:Legion_rt.Msg.codec () in
  let site = Network.add_site net ~name:"s" in
  let h0 = Network.add_host net ~site ~name:"h0" in
  let h1 = Network.add_host net ~site ~name:"h1" in
  let rt = Runtime.create ~sim ~net ~registry ~prng:(Prng.split prng) () in
  let mk i = Loid.make ~class_id:9L ~class_specific:(Int64.of_int i) () in
  let server =
    Runtime.spawn rt ~host:h1 ~loid:(mk 1) ~kind:"bench"
      ~handler:(fun _ call k -> k (Ok (Value.List call.Runtime.args)))
      ()
  in
  let client =
    Runtime.spawn rt ~host:h0 ~loid:(mk 2) ~kind:"bench"
      ~handler:(fun _ _ k -> k (Error (Err.Refused "client")))
      ()
  in
  let ctx = { Runtime.rt; self = client } in
  let env = Legion_sec.Env.of_self (mk 2) in
  let address = Runtime.address_of server in
  Test.make ~name:"simulated RPC round trip"
    (Staged.stage (fun () ->
         let done_ = ref false in
         Runtime.invoke_address ctx ~address ~dst:(mk 1) ~meth:"Echo"
           ~args:[ Value.Int 1 ] ~env (fun _ -> done_ := true);
         while not !done_ do
           if not (Engine.step sim) then failwith "rpc bench: quiesced"
         done))

(* Dispatch cost with and without the typecheck guard: the price of
   enforcing the IDL at every call (wall clock; virtual cost is zero
   since guards run locally). *)
let bench_dispatch_pair =
  let iface =
    Interface.make ~name:"Counter"
      [
        { Interface.meth = "Increment"; params = [ ("d", Legion_idl.Ty.Tint) ]; ret = Legion_idl.Ty.Tint };
      ]
  in
  let mk_parts ~typed =
    let n = ref 0 in
    let app =
      Legion_core.Impl.part
        ~methods:
          [
            ( "Increment",
              fun _ args _ k ->
                match args with
                | [ Value.Int d ] ->
                    n := !n + d;
                    k (Ok (Value.Int !n))
                | _ -> Legion_core.Impl.bad_args k "Increment" );
          ]
        "bench.app"
    in
    let guard_part =
      Legion_core.Impl.part
        ~guard:(fun ~meth ~args ~env:_ ->
          if meth = "Increment" || meth = "SaveState" then
            match Interface.check_call iface ~meth ~args with
            | Ok () -> Legion_sec.Policy.Allow
            | Error m -> Legion_sec.Policy.Deny m
          else Legion_sec.Policy.Allow)
        "bench.guard"
    in
    if typed then [ guard_part; app ] else [ app ]
  in
  let mk_handler ~typed = Legion_core.Impl.compose ~parts:(mk_parts ~typed) in
  let call handler =
    let sim = Engine.create () in
    let prng = Prng.create ~seed:1L in
    let registry = Counter.Registry.create () in
    let net = Network.create ~sim ~prng:(Prng.split prng) ~codec:Legion_rt.Msg.codec () in
    let site = Network.add_site net ~name:"s" in
    let h = Network.add_host net ~site ~name:"h" in
    let rt = Runtime.create ~sim ~net ~registry ~prng:(Prng.split prng) () in
    let l = Loid.make ~class_id:8L ~class_specific:1L () in
    let proc = Runtime.spawn rt ~host:h ~loid:l ~kind:"bench" ~handler () in
    let ctx = { Runtime.rt; self = proc } in
    let env = Legion_sec.Env.of_self l in
    fun () ->
      handler ctx { Runtime.meth = "Increment"; args = [ Value.Int 1 ]; env }
        (fun r -> ignore (Sys.opaque_identity r))
  in
  [
    Test.make ~name:"dispatch untyped" (Staged.stage (call (mk_handler ~typed:false)));
    Test.make ~name:"dispatch typed (IDL guard)" (Staged.stage (call (mk_handler ~typed:true)));
  ]

let all_tests =
  [
    bench_loid_codec;
    bench_wire_codec;
    bench_wire_decode;
    bench_cache;
    bench_event_queue;
    bench_interface_check;
    bench_rpc_round;
  ]
  @ bench_dispatch_pair

(* Words allocated on the minor heap. Bechamel's own minor-allocated
   measure reads [Gc.quick_stat], which OCaml 5 refreshes only at a
   minor collection, so it reads 0 for short runs; [Gc.minor_words] is
   exact on every version. *)
module Minor_words = struct
  type witness = unit

  let load () = ()
  let unload () = ()
  let make () = ()
  let get () = Gc.minor_words ()
  let label () = "minor-words"
  let unit () = "w"
end

let minor_words =
  Measure.instance (module Minor_words) (Measure.register (module Minor_words))

(* A row whose fit has r^2 below this is printed as unreliable, not
   as a number. *)
let min_r_square = 0.9

(* Per-run estimate and r^2 of one measure, as two table cells. *)
let cells b instance =
  let ols =
    Analyze.OLS.ols ~bootstrap:0 ~r_square:true
      ~responder:(Measure.label instance) ~predictors:[| "run" |]
      b.Benchmark.lr
  in
  match (Analyze.OLS.estimates ols, Analyze.OLS.r_square ols) with
  | Some (e :: _), Some r ->
      ( (if r >= min_r_square then Printf.sprintf "%.1f" e else "unreliable"),
        Printf.sprintf "%.4f" r )
  | _ -> ("-", "-")

let run () =
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 2.0) ~kde:None () in
  let clock = Toolkit.Instance.monotonic_clock in
  let rule =
    "+--------------------------------+--------------+----------+--------------+----------+"
  in
  print_newline ();
  print_endline "M1-M6  Substrate micro-benchmarks (wall clock, minor words)";
  print_endline rule;
  Printf.printf "| %-30s | %-12s | %-8s | %-12s | %-8s |\n" "benchmark" "ns/run"
    "r^2" "words/run" "r^2";
  print_endline rule;
  List.iter
    (fun test ->
      List.iter
        (fun elt ->
          let b = Benchmark.run cfg [ clock; minor_words ] elt in
          let ns, ns_r2 = cells b clock in
          let w, w_r2 = cells b minor_words in
          Printf.printf "| %-30s | %12s | %8s | %12s | %8s |\n"
            (Test.Elt.name elt) ns ns_r2 w w_r2)
        (Test.elements test))
    all_tests;
  print_endline rule
