(* The system under test, as the benchmark builds and drives it: an
   8-site Legion booted through [Legion.System], a counter class, its
   objects, and the client processes that call them. Everything here
   goes through the public API of Legion.System, Legion.Api and
   Legion_rt.Runtime. *)

module Value = Legion_wire.Value
module Loid = Legion_naming.Loid
module Engine = Legion_sim.Engine
module Runtime = Legion_rt.Runtime
module Err = Legion_rt.Err
module Impl = Legion_core.Impl
module Well_known = Legion_core.Well_known
module System = Legion.System
module Api = Legion.Api

exception Setup_failed of string

let fail fmt = Printf.ksprintf (fun s -> raise (Setup_failed s)) fmt

(* The counter: the minimal stateful object, whose state round-trips
   through SaveState/RestoreState on every deactivation. *)
let counter_unit = "perfbench.counter"

let counter_factory (_ctx : Runtime.ctx) : Impl.part =
  let n = ref 0 in
  let increment _ctx args _env k =
    match args with
    | [ Value.Int d ] ->
        n := !n + d;
        k (Ok (Value.Int !n))
    | _ -> Impl.bad_args k "Increment expects one int"
  in
  let get _ctx args _env k =
    match args with
    | [] -> k (Ok (Value.Int !n))
    | _ -> Impl.bad_args k "Get takes no arguments"
  in
  Impl.part
    ~methods:[ ("Increment", increment); ("Get", get) ]
    ~save:(fun () -> Value.Int !n)
    ~restore:(function
      | Value.Int i ->
          n := i;
          Ok ()
      | _ -> Error "counter state must be an int")
    counter_unit

let counter_idl = "interface Counter { Increment(d: int): int; Get(): int; }"
let increment_args = [ Value.Int 1 ]

type t = {
  sys : System.t;
  admin : Runtime.ctx;
  cls : Loid.t;
  mags : Loid.t array;  (** One Magistrate per site. *)
  clients : Runtime.ctx array;
  objs : Loid.t array;  (** The population, in creation order. *)
}

let sim w = System.sim w.sys

let spawn_client sys (spec : Inputs.spec) i =
  let site = System.site sys (i mod spec.sites) in
  (* Host 0 of site 0 runs the core classes; clients use hosts 1.. *)
  let host =
    List.nth site.System.net_hosts (1 + (i / spec.sites mod (spec.hosts_per_site - 1)))
  in
  let loid = System.fresh_instance_loid sys ~of_class:Well_known.legion_object in
  let proc =
    Runtime.spawn (System.rt sys) ~host ~loid ~kind:Well_known.kind_client
      ?cache_capacity:spec.client_cache ~binding_agent:site.System.agent_address
      ~handler:(fun _ _ k -> k (Error (Err.Refused "benchmark client")))
      ()
  in
  { Runtime.rt = System.rt sys; self = proc }

let create ?ctx w ~mag =
  let ctx = Option.value ctx ~default:w.admin in
  match Api.create_object w.sys ctx ~cls:w.cls ~magistrate:mag () with
  | Ok (loid, _) -> Ok loid
  | Error e -> Error e

exception Stalled

(* A closed loop: each client keeps one call outstanding and issues its
   next call from the previous call's reply. [next c] is client [c]'s
   next call, or [None] when it stops; the loop returns once no call is
   outstanding. *)
let closed_loop w ~next ~on_reply =
  let sim = sim w in
  let outstanding = ref 0 in
  let rec issue c =
    match next c with
    | None -> ()
    | Some (dst, meth, args) ->
        incr outstanding;
        let t0 = Engine.now sim in
        Runtime.invoke w.clients.(c) ~dst ~meth ~args (fun r ->
            decr outstanding;
            on_reply c r (Engine.now sim -. t0);
            issue c)
  in
  Array.iteri (fun c _ -> issue c) w.clients;
  while !outstanding > 0 do
    if not (Engine.step sim) then raise Stalled
  done

(* Every client calls [Get] through its list of objects: [index c j]
   is the object of client [c]'s [j]-th call, [None] once it is done. *)
let sweep_get w ~index ~on_reply =
  let pos = Array.make (Array.length w.clients) 0 in
  closed_loop w
    ~next:(fun c ->
      match index c pos.(c) with
      | None -> None
      | Some i ->
          pos.(c) <- pos.(c) + 1;
          Some (w.objs.(i), "Get", []))
    ~on_reply:(fun _ r _ -> on_reply r)

(* Each object exactly once, spread over the clients. *)
let partition w c j =
  let i = c + (j * Array.length w.clients) in
  if i < Array.length w.objs then Some i else None

let setup (inp : Inputs.t) =
  let spec = inp.Inputs.spec in
  Impl.register counter_unit counter_factory;
  let sites =
    List.init spec.sites (fun i -> (Printf.sprintf "site%d" i, spec.hosts_per_site))
  in
  let sys =
    System.boot ~seed:inp.Inputs.boot_seed ?agent_cache_capacity:spec.agent_cache
      ~sites ()
  in
  let admin = System.client sys () in
  let cls =
    match
      Api.derive_class sys admin ~parent:Well_known.legion_object ~name:"Counter"
        ~units:[ counter_unit ] ~idl:counter_idl ()
    with
    | Ok c -> c
    | Error e -> fail "derive Counter: %s" (Err.to_string e)
  in
  let mags = Array.of_list (List.map (fun s -> s.System.magistrate) (System.sites sys)) in
  let clients = Array.init spec.clients (spawn_client sys spec) in
  let w = { sys; admin; cls; mags; clients; objs = [||] } in
  let objs =
    Array.init spec.objects (fun i ->
        match create w ~mag:mags.(i mod Array.length mags) with
        | Ok loid -> loid
        | Error e -> fail "create object %d: %s" i (Err.to_string e))
  in
  let w = { w with objs } in
  (* Warm-up: activate every object and fill the caches the workload
     relies on. warm_rpc fills every client's cache with every object;
     the others touch each object once. *)
  let n = Array.length objs and k = Array.length clients in
  let index =
    match spec.kind with
    | Inputs.Warm_rpc -> fun c j -> if j < n then Some (((c * n / k) + j) mod n) else None
    | Inputs.Bind_miss | Inputs.Churn -> partition w
  in
  let bad = ref 0 in
  sweep_get w ~index ~on_reply:(function Ok (Value.Int 0) -> () | _ -> incr bad);
  if !bad > 0 then fail "warm-up: %d Get calls failed or read non-zero" !bad;
  w
