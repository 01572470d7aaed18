module Value = Legion_wire.Value
module Interface = Legion_idl.Interface
module Policy = Legion_sec.Policy
module Runtime = Legion_rt.Runtime

let unit_name = "legion.typecheck"

let state_value iface = Interface.to_value iface

(* Methods the composite itself implements; the interface need not (and
   does not) declare them. *)
let always_admitted = function
  | "SaveState" | "RestoreState" | "GetMethodNames" -> true
  | _ -> false

let factory (_ctx : Runtime.ctx) : Impl.part =
  let iface = ref (Interface.empty "unseeded") in
  let guard ~meth ~args ~env:_ =
    if always_admitted meth then Policy.Allow
    else
      match Interface.check_call !iface ~meth ~args with
      | Ok () -> Policy.Allow
      | Error msg -> Policy.Deny ("interface: " ^ msg)
  in
  let get_checked _ctx args _env k =
    match args with
    | [] -> k (Ok (Interface.to_value !iface))
    | _ -> Impl.bad_args k "GetCheckedInterface takes no arguments"
  in
  Impl.part
    ~methods:[ ("GetCheckedInterface", get_checked) ]
    ~save:(fun () -> Interface.to_value !iface)
    ~restore:(fun v ->
      match Interface.of_value v with
      | Ok i ->
          iface := i;
          Ok ()
      | Error msg -> Error msg)
    ~guard unit_name

let register () = Impl.register unit_name factory
