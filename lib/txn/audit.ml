(* The E20 atomicity audit: one pass over the store histories, then the
   lock and in-doubt probes. *)

module Value = Legion_wire.Value
module Err = Legion_rt.Err
module Persistent = Legion_store.Persistent

type t = {
  txns : int;
  committed : int;
  compensated : int;
  partial_commits : int;
  orphaned_locks : int;
  in_doubt : int;
  violations : string list;
}

(* Which marks one transaction id left across every history. *)
type marks = { staged : bool; committed : bool; compensated : bool }

let no_marks = { staged = false; committed = false; compensated = false }

let run ~call ?(submitted = []) ?(acked = []) ~participants ~coordinators
    store =
  let violations = ref [] in
  let violate fmt = Printf.ksprintf (fun m -> violations := m :: !violations) fmt in
  let by_txn = Hashtbl.create 64 in
  let find id = Option.value ~default:no_marks (Hashtbl.find_opt by_txn id) in
  List.iter (fun id -> Hashtbl.replace by_txn id (find id)) submitted;
  List.iter
    (fun loid ->
      List.iter
        (fun (e : Persistent.History.entry) ->
          match e.txn with
          | None -> ()
          | Some id ->
              let m = find id in
              Hashtbl.replace by_txn id
                (match e.mark with
                | Persistent.Staged -> { m with staged = true }
                | Persistent.Committed -> { m with committed = true }
                | Persistent.Compensated -> { m with compensated = true }
                | Persistent.Applied -> m))
        (Persistent.history store ~loid))
    (Persistent.history_loids store);
  let ids =
    List.sort compare (Hashtbl.fold (fun id m acc -> (id, m) :: acc) by_txn [])
  in
  let count p = List.length (List.filter (fun (_, m) -> p m) ids) in
  List.iter
    (fun (id, m) ->
      if m.staged then violate "txn %s left staged entries" id;
      if m.committed && m.compensated then
        violate "txn %s has mixed commit/compensate marks" id)
    ids;
  List.iter
    (fun id ->
      if (find id).compensated then
        violate "acknowledged commit %s recorded as compensated" id)
    (List.sort_uniq String.compare acked);
  let orphaned = ref 0 in
  List.iteri
    (fun i p ->
      match call p "TxnHeld" with
      | Ok (Value.List []) -> ()
      | r -> (
          incr orphaned;
          match r with
          | Ok (Value.List (Value.Str t :: _)) ->
              violate "participant %d holds an orphaned lock (%s)" i t
          | Ok v ->
              violate "participant %d odd TxnHeld reply %s" i (Value.to_string v)
          | Error e ->
              violate "participant %d dead after heal: %s" i (Err.to_string e)))
    participants;
  let in_doubt = ref 0 in
  List.iter
    (fun co ->
      match call co "TxnStats" with
      | Ok (Value.Record fields) -> (
          match List.assoc_opt "indoubt" fields with
          | Some (Value.Int 0) -> ()
          | Some (Value.Int n) ->
              in_doubt := !in_doubt + n;
              violate "%d transactions still in doubt" n
          | _ -> violate "TxnStats missing indoubt")
      | Ok v -> violate "odd TxnStats reply %s" (Value.to_string v)
      | Error e -> violate "coordinator dead after heal: %s" (Err.to_string e))
    coordinators;
  {
    txns = List.length ids;
    committed = count (fun m -> m.committed);
    compensated = count (fun m -> m.compensated);
    partial_commits = count (fun m -> m.staged || (m.committed && m.compensated));
    orphaned_locks = !orphaned;
    in_doubt = !in_doubt;
    violations = List.rev !violations;
  }
