module Loid = Legion_naming.Loid
module Binding = Legion_naming.Binding
module Value = Legion_wire.Value
module Engine = Legion_sim.Engine
module Runtime = Legion_rt.Runtime
module Err = Legion_rt.Err
module C = Legion_core.Convert

exception Call_failed of string

let sync t start =
  let result = ref None in
  start (fun r -> result := Some r);
  let sim = System.sim t in
  let rec drive () =
    match !result with
    | Some r -> r
    | None ->
        if Engine.step sim then drive ()
        else failwith "Api.sync: simulation quiesced without a reply"
  in
  drive ()

let call t ctx ~dst ~meth ~args =
  sync t (fun k -> Runtime.invoke ctx ~dst ~meth ~args k)

let call_exn t ctx ~dst ~meth ~args =
  match call t ctx ~dst ~meth ~args with
  | Ok v -> v
  | Error e ->
      raise
        (Call_failed (Printf.sprintf "%s on %s: %s" meth (Loid.to_string dst)
                        (Err.to_string e)))

let decode_create_reply v =
  let ( let* ) r f = Result.bind r f in
  let* loid = C.loid_field v "loid" in
  let* binding = C.opt_field v "binding" Binding.of_value in
  Ok (loid, binding)

let create_object t ctx ~cls ?(init = []) ?(eager = false) ?magistrate ?host
    ?sched ?(candidates = []) ?public_key () =
  let hints =
    Value.Record
      [
        ("magistrate", C.vopt Loid.to_value magistrate);
        ("host", C.vopt Loid.to_value host);
        ("sched", C.vopt Loid.to_value sched);
        ("candidates", C.vloids candidates);
        ("public_key", C.vopt Value.of_string public_key);
        ("eager", Value.Bool eager);
      ]
  in
  (* A class running an elastic clone ring answers Create with
     [{redirect: clone}] (§5.2.2: "new instantiation requests are
     passed to the cloned object"); re-issue there. Bounded hops guard
     against a misconfigured ring pointing back at itself. *)
  let rec issue dst hops =
    match
      call t ctx ~dst ~meth:"Create" ~args:[ Value.Record init; hints ]
    with
    | Error e -> Error e
    | Ok v -> (
        match C.loid_field v "redirect" with
        | Ok clone ->
            if hops <= 0 then
              Error (Err.Internal "Create: redirect chain too long")
            else issue clone (hops - 1)
        | Error _ -> (
            match decode_create_reply v with
            | Ok r -> Ok r
            | Error msg -> Error (Err.Internal msg)))
  in
  issue cls 3

let create_object_exn t ctx ~cls ?init ?eager ?magistrate ?host ?sched
    ?candidates ?public_key () =
  match
    create_object t ctx ~cls ?init ?eager ?magistrate ?host ?sched ?candidates
      ?public_key ()
  with
  | Ok (loid, _) -> loid
  | Error e ->
      raise
        (Call_failed
           (Printf.sprintf "Create on %s: %s" (Loid.to_string cls)
              (Err.to_string e)))

let derive_spec ~name ?(units = []) ?idl ?mpl ?(abstract = false)
    ?(private_ = false) ?(fixed = false) ?(typed = false) ?kind ?magistrate () =
  Value.Record
    [
      ("name", Value.Str name);
      ("units", C.vstrs units);
      ("idl", C.vopt Value.of_string idl);
      ("mpl", C.vopt Value.of_string mpl);
      ("abstract", Value.Bool abstract);
      ("private", Value.Bool private_);
      ("fixed", Value.Bool fixed);
      ("typed", Value.Bool typed);
      ("kind", C.vopt Value.of_string kind);
      ("magistrate", C.vopt Loid.to_value magistrate);
    ]

let derive_class t ctx ~parent ~name ?units ?idl ?mpl ?abstract ?private_
    ?fixed ?typed ?kind ?magistrate () =
  let spec =
    derive_spec ~name ?units ?idl ?mpl ?abstract ?private_ ?fixed ?typed ?kind
      ?magistrate ()
  in
  match call t ctx ~dst:parent ~meth:"Derive" ~args:[ spec ] with
  | Error e -> Error e
  | Ok v -> (
      match decode_create_reply v with
      | Ok (loid, _) -> Ok loid
      | Error msg -> Error (Err.Internal msg))

let derive_class_exn t ctx ~parent ~name ?units ?idl ?mpl ?abstract ?private_
    ?fixed ?typed ?kind ?magistrate () =
  match
    derive_class t ctx ~parent ~name ?units ?idl ?mpl ?abstract ?private_
      ?fixed ?typed ?kind ?magistrate ()
  with
  | Ok loid -> loid
  | Error e ->
      raise
        (Call_failed
           (Printf.sprintf "Derive %s on %s: %s" name (Loid.to_string parent)
              (Err.to_string e)))

let delete_object t ctx ~cls ~loid =
  match call t ctx ~dst:cls ~meth:"Delete" ~args:[ Loid.to_value loid ] with
  | Ok _ ->
      Legion_naming.Cache.invalidate (Runtime.cache_of ctx.Runtime.self) loid;
      Ok ()
  | Error e -> Error e

let inherit_from t ctx ~cls ~base =
  match
    call t ctx ~dst:cls ~meth:"InheritFrom" ~args:[ Loid.to_value base ]
  with
  | Ok _ -> Ok ()
  | Error e -> Error e

let get_interface t ctx ~cls =
  match call t ctx ~dst:cls ~meth:"GetInterface" ~args:[] with
  | Error e -> Error e
  | Ok v -> (
      match Legion_idl.Interface.of_value v with
      | Ok i -> Ok i
      | Error msg -> Error (Err.Internal msg))

let get_binding t ctx ~via ~target =
  match
    call t ctx ~dst:via ~meth:"GetBinding" ~args:[ Loid.to_value target ]
  with
  | Error e -> Error e
  | Ok v -> (
      match Binding.of_value v with
      | Ok b -> Ok b
      | Error msg -> Error (Err.Internal msg))
