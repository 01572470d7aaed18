module Value = Legion_wire.Value
module Loid = Legion_naming.Loid

module Opa = struct
  type t = { disk : string; file : string }

  let equal a b = String.equal a.disk b.disk && String.equal a.file b.file
  let pp ppf t = Format.fprintf ppf "%s:%s" t.disk t.file

  let to_value t =
    Value.Record [ ("d", Value.Str t.disk); ("f", Value.Str t.file) ]

  let of_value v =
    let ( let* ) r f = Result.bind r f in
    let err e = Format.asprintf "opa: %a" Value.pp_error e in
    let* d = Result.map_error err (Result.bind (Value.field v "d") Value.to_str) in
    let* f = Result.map_error err (Result.bind (Value.field v "f") Value.to_str) in
    Ok { disk = d; file = f }
end

type mark = Applied | Staged | Committed | Compensated

let mark_name = function
  | Applied -> "applied"
  | Staged -> "staged"
  | Committed -> "committed"
  | Compensated -> "compensated"

module History = struct
  type entry = {
    version : int;
    opa : Opa.t;
    txn : string option;
    mutable mark : mark;
    mutable available : bool;
  }
end

(* Everything the store keeps about one object: its history, newest
   first, and its commit watermark — the version of its newest
   committed transactional write, 0 before the first. *)
type obj = { mutable entries : History.entry list; mutable committed : int }

type t = {
  disks : Disk.t list;
  keep : int;
  hist_cap : int;
  mutable rr : int;
  mutable version : int;
  objects : obj Loid.Table.t;
  verdicts : (string, mark) Hashtbl.t;
      (* (loid/txn) -> resolved verdict. Survives the case where the
         resolution arrives before any write for the pair has landed
         (the coordinator's outcome mark racing a delayed prepare-time
         snapshot): a later [put ~txn] must still inherit the verdict
         instead of staging forever. *)
}

let create ?(keep = 2) ?(hist_cap = 64) ~disks () =
  if disks = [] then invalid_arg "Persistent.create: no disks";
  if keep < 1 then invalid_arg "Persistent.create: keep < 1";
  if hist_cap < 1 then invalid_arg "Persistent.create: hist_cap < 1";
  {
    disks;
    keep;
    hist_cap;
    rr = 0;
    version = 0;
    objects = Loid.Table.create ();
    verdicts = Hashtbl.create 64;
  }

let verdict_key loid txn = Loid.to_string loid ^ "/" ^ txn

let disks t = t.disks

let find_disk t name = List.find_opt (fun d -> String.equal (Disk.name d) name) t.disks

let delete_file t (opa : Opa.t) =
  Option.iter (fun d -> Disk.delete d ~key:opa.file) (find_disk t opa.disk)

let drop t (e : History.entry) =
  delete_file t e.opa;
  e.available <- false

let obj t loid =
  match Loid.Table.find t.objects loid with
  | Some o -> o
  | None ->
      let o = { entries = []; committed = 0 } in
      Loid.Table.set t.objects loid o;
      o

(* An entry the pruner must not touch: a staged (in-doubt) transaction
   write — recovery may still need it to decide or audit the txn — or
   the newest committed transactional snapshot (the one at the commit
   watermark), which keeps the last committed state itself restorable
   through [rewind_to]. Resolved entries below the watermark, and
   compensated ones, only need their history rows — their files are
   droppable. Plain (untagged) checkpoint writes are never protected;
   they age out under [keep]/[hist_cap] exactly as before. *)
let protected o (e : History.entry) =
  e.mark = Staged || (e.mark = Committed && e.version = o.committed)

(* Version files for one LOID are scattered round-robin across the disk
   set; without pruning, every [put] (an explicit store or a periodic
   checkpoint falling back to a fresh file) leaks the superseded
   version forever. Keep the newest [t.keep] and drop the rest —
   except files whose history entry is {!protected}. Dropped files
   leave their entry behind with [available = false], so the history
   stays queryable after the bytes are gone. The history is the only
   index of the object's files — each file on disk is exactly one
   available entry — so pruning walks it and never lists a disk. *)
let prune t o =
  (* Only plain checkpoint files consume [keep] slots. Transactional
     snapshots live and die by {!protected} alone — otherwise a burst
     of txn writes would evict the Magistrate's newest checkpoint and
     strand the object's activation record. *)
  let plain_seen = ref 0 in
  List.iter
    (fun (e : History.entry) ->
      if e.available then
        match e.txn with
        | Some _ -> if not (protected o e) then drop t e
        | None ->
            incr plain_seen;
            if !plain_seen > t.keep then drop t e)
    o.entries;
  (* The entry list itself is bounded too: beyond [hist_cap] positions
     (newest first), unprotected entries are forgotten once their file
     is gone. No file is left without an entry, so {!forget} still
     finds every file. *)
  let rec cap i = function
    | [] -> []
    | (e : History.entry) :: rest ->
        if i < t.hist_cap || e.available || protected o e then
          e :: cap (i + 1) rest
        else cap (i + 1) rest
  in
  o.entries <- cap 0 o.entries

let put ?txn t ~loid blob =
  let disk = List.nth t.disks (t.rr mod List.length t.disks) in
  t.rr <- t.rr + 1;
  t.version <- t.version + 1;
  let file = Printf.sprintf "%s.v%d.opr" (Loid.to_string loid) t.version in
  Disk.write disk ~key:file blob;
  let opa = { Opa.disk = Disk.name disk; file } in
  let o = obj t loid in
  (* A transactional put normally stages; but a snapshot landing after
     its transaction was already resolved for this object (the
     coordinator's SaveState replies race its outcome marks) inherits
     the verdict — otherwise the late entry would stay Staged forever
     and read as a partial commit in the atomicity audit. *)
  let mark =
    match txn with
    | None -> Applied
    | Some id -> (
        match
          List.find_opt
            (fun e ->
              e.History.txn = Some id
              && (e.History.mark = Committed || e.History.mark = Compensated))
            o.entries
        with
        | Some e -> e.History.mark
        | None -> (
            match Hashtbl.find_opt t.verdicts (verdict_key loid id) with
            | Some ((Committed | Compensated) as m) -> m
            | _ -> Staged))
  in
  o.entries <-
    { History.version = t.version; opa; txn; mark; available = true }
    :: o.entries;
  if mark = Committed then o.committed <- t.version;
  prune t o;
  opa

let put_at t (opa : Opa.t) blob =
  match find_disk t opa.Opa.disk with
  | None -> Error (Printf.sprintf "no disk %s in this jurisdiction" opa.Opa.disk)
  | Some d ->
      Disk.write d ~key:opa.Opa.file blob;
      Ok ()

let get t (opa : Opa.t) =
  match find_disk t opa.Opa.disk with
  | None -> None
  | Some d -> Disk.read d ~key:opa.Opa.file

let remove t ~loid (opa : Opa.t) =
  delete_file t opa;
  Option.iter
    (fun o ->
      List.iter
        (fun (e : History.entry) -> if Opa.equal e.opa opa then e.available <- false)
        o.entries)
    (Loid.Table.find t.objects loid)

let forget t ~loid =
  Option.iter (fun o -> List.iter (drop t) o.entries) (Loid.Table.find t.objects loid);
  Loid.Table.remove t.objects loid

let history t ~loid =
  match Loid.Table.find t.objects loid with
  | None -> []
  | Some o -> List.rev o.entries

let history_loids t =
  let ls = Loid.Table.fold (fun l _ acc -> l :: acc) t.objects [] in
  List.sort
    (fun a b -> String.compare (Loid.to_string a) (Loid.to_string b))
    ls

let mark_txn t ~loid ~txn mark =
  (* Remember the verdict even if no write for the pair has landed yet:
     the coordinator's outcome mark can race a delayed prepare-time
     snapshot, and the late [put ~txn] must find something to inherit.
     First verdict sticks (resolution is one-way). *)
  (match mark with
  | Committed | Compensated ->
      let key = verdict_key loid txn in
      if not (Hashtbl.mem t.verdicts key) then Hashtbl.add t.verdicts key mark
  | Applied | Staged -> ());
  match Loid.Table.find t.objects loid with
  | None -> ()
  | Some o ->
      (* Resolution is one-way: only staged entries take the verdict.
         Re-marking with the same verdict is the coordinator's
         idempotent redrive; a contradictory re-resolution cannot flip
         an already resolved write. *)
      List.iter
        (fun e ->
          if e.History.txn = Some txn && e.History.mark = Staged then
            e.History.mark <- mark)
        o.entries;
      (if mark = Committed then
         let mv =
           List.fold_left
             (fun acc e ->
               if e.History.txn = Some txn && e.History.mark = Committed
               then Stdlib.max acc e.History.version
               else acc)
             0 o.entries
         in
         o.committed <- Stdlib.max o.committed mv);
      (* Advancing the committed mark (or resolving a staged txn) may
         release previously protected entries; re-prune. *)
      prune t o

let last_committed t ~loid =
  match Loid.Table.find t.objects loid with
  | Some o when o.committed > 0 -> Some o.committed
  | Some _ | None -> None

let rewind_to t ~loid ~version =
  match Loid.Table.find t.objects loid with
  | None -> Error "rewind: no history for object"
  | Some o -> (
      match
        List.find_opt (fun e -> e.History.version = version) o.entries
      with
      | None -> Error (Printf.sprintf "rewind: no version %d in history" version)
      | Some e when not e.History.available ->
          Error (Printf.sprintf "rewind: version %d was pruned" version)
      | Some e -> (
          match get t e.History.opa with
          | None -> Error (Printf.sprintf "rewind: version %d blob missing" version)
          | Some blob ->
              (* Event-sourced restore: the rewound state re-enters the
                 history as the newest version, nothing is rewritten. *)
              Ok (put t ~loid blob)))

(* Named blobs: small fixed-name records (a transaction coordinator's
   write-ahead log) stored beside the version files. Overwritten in
   place on the first disk, so they never grow the file count. *)
let put_named t ~name blob =
  Disk.write (List.hd t.disks) ~key:name blob

let get_named t ~name = Disk.read (List.hd t.disks) ~key:name
let remove_named t ~name = Disk.delete (List.hd t.disks) ~key:name

let total_bytes t = List.fold_left (fun acc d -> acc + Disk.bytes_used d) 0 t.disks
let total_files t = List.fold_left (fun acc d -> acc + Disk.file_count d) 0 t.disks
