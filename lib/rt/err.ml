module Value = Legion_wire.Value

type t =
  | No_such_object
  | No_such_method of string
  | Refused of string
  | Bad_args of string
  | Not_bound of string
  | Timeout
  | Unreachable of string
  | Stale_epoch
  | Overloaded of { retry_after : float }
  | No_quorum of { have : int; need : int; epoch : int }
  | Txn_locked of { holder : string; retry_after : float }
  | Txn_aborted of { txn : string }
  | Quota_exceeded of { tenant : string; retry_after : float }
  | Denied of { tenant : string; reason : string }
  | Internal of string

let is_delivery_failure = function
  | No_such_object | Timeout | Unreachable _ | Stale_epoch -> true
  | No_such_method _ | Refused _ | Bad_args _ | Not_bound _ | Overloaded _
  | No_quorum _ | Txn_locked _ | Txn_aborted _ | Quota_exceeded _ | Denied _
  | Internal _ ->
      false

let is_overload = function
  | Overloaded _ | Quota_exceeded _ -> true
  | _ -> false

let is_retryable = function
  | Overloaded _ | No_quorum _ | Txn_locked _ | Quota_exceeded _ -> true
  | _ -> false

let retry_after = function
  | Overloaded { retry_after }
  | Txn_locked { retry_after; _ }
  | Quota_exceeded { retry_after; _ } ->
      Some retry_after
  | _ -> None

let equal a b =
  match (a, b) with
  | No_such_object, No_such_object | Timeout, Timeout | Stale_epoch, Stale_epoch
    ->
      true
  | No_such_method x, No_such_method y
  | Refused x, Refused y
  | Bad_args x, Bad_args y
  | Not_bound x, Not_bound y
  | Unreachable x, Unreachable y
  | Internal x, Internal y ->
      String.equal x y
  | Overloaded a, Overloaded b -> Float.equal a.retry_after b.retry_after
  | No_quorum a, No_quorum b ->
      a.have = b.have && a.need = b.need && a.epoch = b.epoch
  | Txn_locked a, Txn_locked b ->
      String.equal a.holder b.holder && Float.equal a.retry_after b.retry_after
  | Txn_aborted a, Txn_aborted b -> String.equal a.txn b.txn
  | Quota_exceeded a, Quota_exceeded b ->
      String.equal a.tenant b.tenant && Float.equal a.retry_after b.retry_after
  | Denied a, Denied b ->
      String.equal a.tenant b.tenant && String.equal a.reason b.reason
  | ( ( No_such_object | No_such_method _ | Refused _ | Bad_args _ | Not_bound _
      | Timeout | Unreachable _ | Stale_epoch | Overloaded _ | No_quorum _
      | Txn_locked _ | Txn_aborted _ | Quota_exceeded _ | Denied _ | Internal _ ),
      _ ) ->
      false

let pp ppf = function
  | No_such_object -> Format.fprintf ppf "no such object"
  | No_such_method m -> Format.fprintf ppf "no such method: %s" m
  | Refused r -> Format.fprintf ppf "refused: %s" r
  | Bad_args r -> Format.fprintf ppf "bad arguments: %s" r
  | Not_bound r -> Format.fprintf ppf "not bound: %s" r
  | Timeout -> Format.fprintf ppf "timeout"
  | Unreachable r -> Format.fprintf ppf "unreachable: %s" r
  | Stale_epoch -> Format.fprintf ppf "stale epoch"
  | Overloaded { retry_after } ->
      Format.fprintf ppf "overloaded (retry after %.3fs)" retry_after
  | No_quorum { have; need; epoch } ->
      Format.fprintf ppf "no quorum (%d/%d at membership epoch %d)" have need
        epoch
  | Txn_locked { holder; retry_after } ->
      Format.fprintf ppf "prepare-locked by txn %s (retry after %.3fs)" holder
        retry_after
  | Txn_aborted { txn } -> Format.fprintf ppf "transaction %s aborted" txn
  | Quota_exceeded { tenant; retry_after } ->
      Format.fprintf ppf "tenant %s over budget (retry after %.3fs)" tenant
        retry_after
  | Denied { tenant; reason } ->
      Format.fprintf ppf "tenant %s denied: %s" tenant reason
  | Internal r -> Format.fprintf ppf "internal error: %s" r

let to_string t = Format.asprintf "%a" pp t

let to_value = function
  | No_such_object -> Value.Record [ ("c", Value.Str "nso") ]
  | No_such_method m -> Value.Record [ ("c", Value.Str "nsm"); ("d", Value.Str m) ]
  | Refused r -> Value.Record [ ("c", Value.Str "ref"); ("d", Value.Str r) ]
  | Bad_args r -> Value.Record [ ("c", Value.Str "arg"); ("d", Value.Str r) ]
  | Not_bound r -> Value.Record [ ("c", Value.Str "nbd"); ("d", Value.Str r) ]
  | Timeout -> Value.Record [ ("c", Value.Str "tmo") ]
  | Unreachable r -> Value.Record [ ("c", Value.Str "unr"); ("d", Value.Str r) ]
  | Stale_epoch -> Value.Record [ ("c", Value.Str "stl") ]
  | Overloaded { retry_after } ->
      Value.Record [ ("c", Value.Str "ovl"); ("ra", Value.Float retry_after) ]
  | No_quorum { have; need; epoch } ->
      Value.Record
        [
          ("c", Value.Str "nqm");
          ("h", Value.Int have);
          ("n", Value.Int need);
          ("e", Value.Int epoch);
        ]
  | Txn_locked { holder; retry_after } ->
      Value.Record
        [
          ("c", Value.Str "tlk");
          ("h", Value.Str holder);
          ("ra", Value.Float retry_after);
        ]
  | Txn_aborted { txn } ->
      Value.Record [ ("c", Value.Str "txa"); ("x", Value.Str txn) ]
  | Quota_exceeded { tenant; retry_after } ->
      Value.Record
        [
          ("c", Value.Str "qex");
          ("tn", Value.Str tenant);
          ("ra", Value.Float retry_after);
        ]
  | Denied { tenant; reason } ->
      Value.Record
        [
          ("c", Value.Str "dny");
          ("tn", Value.Str tenant);
          ("d", Value.Str reason);
        ]
  | Internal r -> Value.Record [ ("c", Value.Str "int"); ("d", Value.Str r) ]

let of_value v =
  let ( let* ) r f = Result.bind r f in
  let err e = Format.asprintf "err: %a" Value.pp_error e in
  let* code = Result.map_error err (Result.bind (Value.field v "c") Value.to_str) in
  let detail () =
    Result.map_error err (Result.bind (Value.field v "d") Value.to_str)
  in
  match code with
  | "nso" -> Ok No_such_object
  | "nsm" ->
      let* d = detail () in
      Ok (No_such_method d)
  | "ref" ->
      let* d = detail () in
      Ok (Refused d)
  | "arg" ->
      let* d = detail () in
      Ok (Bad_args d)
  | "nbd" ->
      let* d = detail () in
      Ok (Not_bound d)
  | "tmo" -> Ok Timeout
  | "stl" -> Ok Stale_epoch
  | "ovl" ->
      let* ra =
        Result.map_error err
          (Result.bind (Value.field v "ra") Value.to_float)
      in
      Ok (Overloaded { retry_after = ra })
  | "nqm" ->
      let int_field name =
        Result.map_error err (Result.bind (Value.field v name) Value.to_int)
      in
      let* have = int_field "h" in
      let* need = int_field "n" in
      (* Pre-fencing encoders omitted the membership epoch; decode it as
         0, the same legacy default the binding codec uses for "epo". *)
      let* epoch =
        match Value.field_opt v "e" with
        | None -> Ok 0
        | Some ev -> Result.map_error err (Value.to_int ev)
      in
      Ok (No_quorum { have; need; epoch })
  | "tlk" ->
      (* Both fields default for forward/backward codec compatibility:
         an older peer's bare lock rejection still decodes. *)
      let* holder =
        match Value.field_opt v "h" with
        | None -> Ok ""
        | Some hv -> Result.map_error err (Value.to_str hv)
      in
      let* ra =
        match Value.field_opt v "ra" with
        | None -> Ok 0.0
        | Some rv -> Result.map_error err (Value.to_float rv)
      in
      Ok (Txn_locked { holder; retry_after = ra })
  | "txa" ->
      let* txn =
        match Value.field_opt v "x" with
        | None -> Ok ""
        | Some xv -> Result.map_error err (Value.to_str xv)
      in
      Ok (Txn_aborted { txn })
  | "qex" ->
      (* Both fields default for forward/backward codec compatibility,
         like "tlk": a bare quota rejection still decodes. *)
      let* tenant =
        match Value.field_opt v "tn" with
        | None -> Ok ""
        | Some tv -> Result.map_error err (Value.to_str tv)
      in
      let* ra =
        match Value.field_opt v "ra" with
        | None -> Ok 0.0
        | Some rv -> Result.map_error err (Value.to_float rv)
      in
      Ok (Quota_exceeded { tenant; retry_after = ra })
  | "dny" ->
      let* tenant =
        match Value.field_opt v "tn" with
        | None -> Ok ""
        | Some tv -> Result.map_error err (Value.to_str tv)
      in
      let* reason =
        match Value.field_opt v "d" with
        | None -> Ok ""
        | Some dv -> Result.map_error err (Value.to_str dv)
      in
      Ok (Denied { tenant; reason })
  | "unr" ->
      let* d = detail () in
      Ok (Unreachable d)
  | "int" ->
      let* d = detail () in
      Ok (Internal d)
  | c -> Error (Printf.sprintf "err: unknown code %S" c)
