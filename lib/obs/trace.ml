module Loid = Legion_naming.Loid

type pred = Event.t -> bool

(* A matcher maps the remaining stream to (matched events, rest) or a
   failure message; combinators thread the rest. *)
type t = Event.t list -> (Event.t list * Event.t list, string) result

let matches ?(label = "event") p : t =
 fun evs ->
  let rec go = function
    | [] ->
        Error
          (Printf.sprintf "expected %s: no match among %d remaining event(s)"
             label (List.length evs))
    | e :: rest -> if p e then Ok ([ e ], rest) else go rest
  in
  go evs

let next ?(label = "event") p : t = function
  | [] -> Error (Printf.sprintf "expected %s next: trace exhausted" label)
  | e :: rest ->
      if p e then Ok ([ e ], rest)
      else
        Error
          (Printf.sprintf "expected %s next, got %s at t=%.6f" label
             (Event.name e.Event.kind) e.Event.time)

let then_ (a : t) (b : t) : t =
 fun evs ->
  match a evs with
  | Error _ as e -> e
  | Ok (m1, rest) -> (
      match b rest with
      | Error _ as e -> e
      | Ok (m2, rest') -> Ok (m1 @ m2, rest'))

let empty : t = fun evs -> Ok ([], evs)
let seq ms = List.fold_left then_ empty ms

let within budget (m : t) : t =
 fun evs ->
  match m evs with
  | Error _ as e -> e
  | Ok (matched, rest) -> (
      match matched with
      | [] | [ _ ] -> Ok (matched, rest)
      | first :: _ ->
          let last = List.nth matched (List.length matched - 1) in
          let span = last.Event.time -. first.Event.time in
          if span <= budget +. 1e-12 then Ok (matched, rest)
          else
            Error
              (Printf.sprintf
                 "matched sequence spans %.6fs of virtual time, budget %.6fs"
                 span budget))

let run (m : t) evs = Result.map fst (m evs)
let holds m evs = Result.is_ok (run m evs)
let explain m evs = match m evs with Ok _ -> None | Error msg -> Some msg
let count_of p evs = List.length (List.filter p evs)
let find p evs = List.find_opt p evs

(* --- predicates --- *)

let any _ = true
let named n e = String.equal (Event.name e.Event.kind) n
let ( &&& ) p q e = p e && q e
let ( ||| ) p q e = p e || q e
let not_ p e = not (p e)

let opt_int expected actual =
  match expected with None -> true | Some x -> x = actual

let opt_bool expected actual =
  match expected with None -> true | Some x -> x = actual

let opt_str expected actual =
  match expected with None -> true | Some x -> String.equal x actual

let opt_loid expected actual =
  match expected with None -> true | Some l -> Loid.equal l actual

let send ?src ?dst () e =
  match e.Event.kind with
  | Event.Send f -> opt_int src f.src && opt_int dst f.dst
  | _ -> false

let deliver ?src ?dst () e =
  match e.Event.kind with
  | Event.Deliver f -> opt_int src f.src && opt_int dst f.dst
  | _ -> false

let drop ?src ?dst ?reason () e =
  match e.Event.kind with
  | Event.Drop f ->
      opt_int src f.src && opt_int dst f.dst
      && (match reason with None -> true | Some r -> r = f.reason)
  | _ -> false

let duplicate ?src ?dst () e =
  match e.Event.kind with
  | Event.Duplicate f -> opt_int src f.src && opt_int dst f.dst
  | _ -> false

let reorder ?src ?dst () e =
  match e.Event.kind with
  | Event.Reorder f -> opt_int src f.src && opt_int dst f.dst
  | _ -> false

let call ?src ?dst ?meth () e =
  match e.Event.kind with
  | Event.Call f -> opt_loid src f.src && opt_loid dst f.dst && opt_str meth f.meth
  | _ -> false

let reply ?ok () e =
  match e.Event.kind with Event.Reply f -> opt_bool ok f.ok | _ -> false

let timeout () e =
  match e.Event.kind with Event.Timeout _ -> true | _ -> false

let retry ?id ?attempt () e =
  match e.Event.kind with
  | Event.Retry f -> opt_int id f.id && opt_int attempt f.attempt
  | _ -> false

let giveup ?id () e =
  match e.Event.kind with Event.Giveup f -> opt_int id f.id | _ -> false

let cancel ?id () e =
  match e.Event.kind with Event.Cancel f -> opt_int id f.id | _ -> false

let cache_hit ?owner ?target () e =
  match e.Event.kind with
  | Event.Cache_hit f -> opt_loid owner f.owner && opt_loid target f.target
  | _ -> false

let cache_miss ?owner ?target () e =
  match e.Event.kind with
  | Event.Cache_miss f -> opt_loid owner f.owner && opt_loid target f.target
  | _ -> false

let resolve ?owner ?target ?stale () e =
  match e.Event.kind with
  | Event.Resolve f ->
      opt_loid owner f.owner && opt_loid target f.target
      && opt_bool stale f.stale
  | _ -> false

let binding_install ?owner ?target () e =
  match e.Event.kind with
  | Event.Binding_install f -> opt_loid owner f.owner && opt_loid target f.target
  | _ -> false

let rebind ?owner ?target ?attempt () e =
  match e.Event.kind with
  | Event.Rebind f ->
      opt_loid owner f.owner && opt_loid target f.target
      && opt_int attempt f.attempt
  | _ -> false

let activate ?loid () e =
  match e.Event.kind with
  | Event.Activate f -> opt_loid loid f.loid
  | _ -> false

let deactivate ?loid () e =
  match e.Event.kind with
  | Event.Deactivate f -> opt_loid loid f.loid
  | _ -> false

let migrate ?loid () e =
  match e.Event.kind with
  | Event.Migrate f -> opt_loid loid f.loid
  | _ -> false

let replica_fanout ?target () e =
  match e.Event.kind with
  | Event.Replica_fanout f -> opt_loid target f.target
  | _ -> false

let checkpoint ?loid () e =
  match e.Event.kind with
  | Event.Checkpoint f -> opt_loid loid f.loid
  | _ -> false

let suspect ?host_obj () e =
  match e.Event.kind with
  | Event.Suspect f -> opt_loid host_obj f.host_obj
  | _ -> false

let confirm_dead ?host_obj () e =
  match e.Event.kind with
  | Event.Confirm_dead f -> opt_loid host_obj f.host_obj
  | _ -> false

let reactivate ?loid () e =
  match e.Event.kind with
  | Event.Reactivate f -> opt_loid loid f.loid
  | _ -> false

let fence ?loid ?epoch () e =
  match e.Event.kind with
  | Event.Fence f -> opt_loid loid f.loid && opt_int epoch f.epoch
  | _ -> false

let opt_tenant expected actual =
  match expected with
  | None -> true
  | Some t -> ( match actual with Some a -> String.equal t a | None -> false)

let admit ?loid ?meth ?queued ?tenant () e =
  match e.Event.kind with
  | Event.Admit f ->
      opt_loid loid f.loid && opt_str meth f.meth && opt_bool queued f.queued
      && opt_tenant tenant f.tenant
  | _ -> false

let shed ?loid ?meth ?tenant () e =
  match e.Event.kind with
  | Event.Shed f ->
      opt_loid loid f.loid && opt_str meth f.meth && opt_tenant tenant f.tenant
  | _ -> false

let deny ?loid ?meth ?tenant () e =
  match e.Event.kind with
  | Event.Deny f ->
      opt_loid loid f.loid && opt_str meth f.meth && opt_str tenant f.tenant
  | _ -> false

let breaker_open ?host () e =
  match e.Event.kind with
  | Event.Breaker_open f -> opt_int host f.host
  | _ -> false

let breaker_probe ?host () e =
  match e.Event.kind with
  | Event.Breaker_probe f -> opt_int host f.host
  | _ -> false

let breaker_close ?host () e =
  match e.Event.kind with
  | Event.Breaker_close f -> opt_int host f.host
  | _ -> false

let stale_serve ?owner ?target () e =
  match e.Event.kind with
  | Event.Stale_serve f -> opt_loid owner f.owner && opt_loid target f.target
  | _ -> false

let replica_lost ?loid ?host () e =
  match e.Event.kind with
  | Event.Replica_lost f -> opt_loid loid f.loid && opt_int host f.host
  | _ -> false

let replica_repair ?loid ?host ?epoch () e =
  match e.Event.kind with
  | Event.Replica_repair f ->
      opt_loid loid f.loid && opt_int host f.host && opt_int epoch f.epoch
  | _ -> false

let no_quorum ?loid () e =
  match e.Event.kind with
  | Event.No_quorum f -> opt_loid loid f.loid
  | _ -> false

let reconcile ?loid ?divergent () e =
  match e.Event.kind with
  | Event.Reconcile f -> opt_loid loid f.loid && opt_int divergent f.divergent
  | _ -> false

let clone_ev ?cls ?clone () e =
  match e.Event.kind with
  | Event.Clone f -> opt_loid cls f.cls && opt_loid clone f.clone
  | _ -> false

let merge ?cls ?clone () e =
  match e.Event.kind with
  | Event.Merge f -> opt_loid cls f.cls && opt_loid clone f.clone
  | _ -> false

let split ?magistrate ?dst () e =
  match e.Event.kind with
  | Event.Split f -> opt_loid magistrate f.magistrate && opt_loid dst f.dst
  | _ -> false

let prepare ?txn ?participant () e =
  match e.Event.kind with
  | Event.Prepare f -> opt_str txn f.txn && opt_loid participant f.participant
  | _ -> false

let txn_commit ?txn () e =
  match e.Event.kind with Event.Txn_commit f -> opt_str txn f.txn | _ -> false

let txn_abort ?txn ?reason () e =
  match e.Event.kind with
  | Event.Txn_abort f -> opt_str txn f.txn && opt_str reason f.reason
  | _ -> false

let compensate ?txn ?participant () e =
  match e.Event.kind with
  | Event.Compensate f -> opt_str txn f.txn && opt_loid participant f.participant
  | _ -> false

let resume ?txn ?decision () e =
  match e.Event.kind with
  | Event.Resume f -> opt_str txn f.txn && opt_str decision f.decision
  | _ -> false
