module Loid = Legion_naming.Loid
module Value = Legion_wire.Value
module Env = Legion_sec.Env

type call = { meth : string; args : Value.t list; env : Env.t }
type reply = (Value.t, Err.t) result

type t =
  | Call of {
      id : int;
      src_loid : Loid.t;
      src_host : int;
      dst_loid : Loid.t;
      dst_slot : int;
      call : call;
    }
  | Reply of { id : int; reply : reply }

let to_value = function
  | Call { id; src_loid; src_host; dst_loid; dst_slot; call } ->
      Value.Record
        [
          ("k", Value.Str "c");
          ("id", Value.Int id);
          ("sl", Loid.to_value src_loid);
          ("sh", Value.Int src_host);
          ("dl", Loid.to_value dst_loid);
          ("ds", Value.Int dst_slot);
          ("m", Value.Str call.meth);
          ("a", Value.List call.args);
          ("e", Env.to_value call.env);
        ]
  | Reply { id; reply } ->
      let ok, v =
        match reply with Ok v -> (true, v) | Error e -> (false, Err.to_value e)
      in
      Value.Record
        [
          ("k", Value.Str "r");
          ("id", Value.Int id);
          ("ok", Value.Bool ok);
          ("v", v);
        ]

let of_value v =
  let ( let* ) = Option.bind in
  let int name =
    match Value.field_opt v name with Some (Value.Int i) -> Some i | _ -> None
  in
  let decoded name of_value =
    let* f = Value.field_opt v name in
    Result.to_option (of_value f)
  in
  match Value.field_opt v "k" with
  | Some (Value.Str "c") ->
      let* id = int "id" in
      let* src_loid = decoded "sl" Loid.of_value in
      let* src_host = int "sh" in
      let* dst_loid = decoded "dl" Loid.of_value in
      let* dst_slot = int "ds" in
      let* meth =
        match Value.field_opt v "m" with Some (Value.Str m) -> Some m | _ -> None
      in
      let* args =
        match Value.field_opt v "a" with Some (Value.List a) -> Some a | _ -> None
      in
      let* env = decoded "e" Env.of_value in
      Some
        (Call { id; src_loid; src_host; dst_loid; dst_slot; call = { meth; args; env } })
  | Some (Value.Str "r") -> (
      let* id = int "id" in
      let* payload = Value.field_opt v "v" in
      match Value.field_opt v "ok" with
      | Some (Value.Bool true) -> Some (Reply { id; reply = Ok payload })
      | Some (Value.Bool false) ->
          let* e = Result.to_option (Err.of_value payload) in
          Some (Reply { id; reply = Error e })
      | _ -> None)
  | _ -> None

(* Byte counts of the [to_value] records under Value.size_bytes: a
   record is 5 bytes plus, per field, 4 + the name's length + the
   value; ints are 9, a bool 2, a string or blob 5 + its length.
   test_rt checks [size] against [Value.size_bytes (to_value m)]. *)
let loid_size l = 50 + String.length (Loid.public_key l)

let env_size (e : Env.t) =
  23 + loid_size e.responsible + loid_size e.security + loid_size e.calling

let size = function
  | Call { src_loid; dst_loid; call; _ } ->
      98 + loid_size src_loid + loid_size dst_loid + String.length call.meth
      + List.fold_left (fun acc a -> acc + Value.size_bytes a) 0 call.args
      + env_size call.env
  | Reply { reply = Ok v; _ } -> 44 + Value.size_bytes v
  | Reply { reply = Error e; _ } -> 44 + Value.size_bytes (Err.to_value e)

let codec = { Legion_net.Network.size; to_value; of_value }
