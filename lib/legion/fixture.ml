(* The shared application units. The counters have one body,
   parameterised by how a reply leaves the object. *)

module Value = Legion_wire.Value
module Runtime = Legion_rt.Runtime
module Impl = Legion_core.Impl
module Engine = Legion_sim.Engine

let counter_idl = "interface Counter { Increment(d: int): int; Get(): int; }"

let make ~serve unit_name (ctx : Runtime.ctx) : Impl.part =
  let serve = serve ctx in
  let n = ref 0 in
  let increment _ctx args _env k =
    match args with
    | [ Value.Int d ] ->
        n := !n + d;
        serve k (Ok (Value.Int !n))
    | _ -> Impl.bad_args k "Increment expects one int"
  in
  let get _ctx args _env k =
    match args with
    | [] -> serve k (Ok (Value.Int !n))
    | _ -> Impl.bad_args k "Get takes no arguments"
  in
  Impl.part
    ~methods:[ ("Increment", increment); ("Get", get) ]
    ~save:(fun () -> Value.Int !n)
    ~restore:(fun v ->
      match v with
      | Value.Int i ->
          n := i;
          Ok ()
      | _ -> Error "counter state must be an int")
    unit_name

let counter unit_name = make ~serve:(fun _ k reply -> k reply) unit_name

let counter_class ?(name = "Counter") sys ctx unit_name =
  Impl.register unit_name (counter unit_name);
  Api.derive_class_exn sys ctx ~parent:Legion_core.Well_known.legion_object
    ~name ~units:[ unit_name ] ~idl:counter_idl ()

let slow_counter ~service unit_name =
  make unit_name ~serve:(fun (ctx : Runtime.ctx) ->
      let eng = Runtime.sim ctx.Runtime.rt in
      let busy_until = ref 0.0 in
      fun k reply ->
        let finish = Float.max (Engine.now eng) !busy_until +. service in
        busy_until := finish;
        ignore (Engine.schedule_at eng ~time:finish (fun () -> k reply)))

let worker unit_name (_ctx : Runtime.ctx) : Impl.part =
  let served = ref 0 in
  let work wctx args _env k =
    match args with
    | [ Value.Float d ] when d >= 0.0 ->
        incr served;
        let eng = Runtime.sim wctx.Runtime.rt in
        let n = !served in
        ignore
          (Engine.schedule_at eng ~time:(Engine.now eng +. d) (fun () ->
               k (Ok (Value.Int n))))
    | _ -> Impl.bad_args k "Work expects one non-negative float"
  in
  Impl.part
    ~methods:[ ("Work", work) ]
    ~save:(fun () -> Value.Int !served)
    ~restore:(fun v ->
      match v with
      | Value.Int n ->
          served := n;
          Ok ()
      | _ -> Error "work state must be an int")
    unit_name
