(* The LRU order is the table's recency order: a hit in a bounded
   cache promotes its entry, an insert makes it newest, and a full
   table evicts its oldest entry. *)
type t = {
  entries : Binding.t Loid.Ordered.t;
  mutable lookups : int;
  mutable hits : int;
}

let create ?capacity () =
  { entries = Loid.Ordered.create ?capacity (); lookups = 0; hits = 0 }

(* A counted lookup: a valid entry that [keep] accepts is a hit and
   becomes the newest; any other entry is purged and reported as a
   miss. *)
let lookup t ~now ~keep loid =
  t.lookups <- t.lookups + 1;
  let entry =
    (* Only a bounded cache evicts, so only its hits need relinking. *)
    match Loid.Ordered.capacity t.entries with
    | None -> Loid.Ordered.find t.entries loid
    | Some _ -> Loid.Ordered.promote t.entries loid
  in
  match entry with
  | Some b as hit when Binding.is_valid ~now b && keep b ->
      t.hits <- t.hits + 1;
      hit
  | Some _ ->
      Loid.Ordered.remove t.entries loid;
      None
  | None -> None

let find t ~now loid = lookup t ~now ~keep:(fun _ -> true) loid

let add t ~now binding =
  if Binding.is_valid ~now binding then
    Loid.Ordered.add t.entries (Binding.loid binding) binding

let invalidate t loid = Loid.Ordered.remove t.entries loid

let invalidate_exact t binding =
  let loid = Binding.loid binding in
  match Loid.Ordered.find t.entries loid with
  | Some b when Binding.equal b binding -> Loid.Ordered.remove t.entries loid
  | Some _ | None -> ()

let find_refresh t ~now ~stale =
  lookup t ~now ~keep:(fun b -> not (Binding.equal b stale)) (Binding.loid stale)

let mem t ~now loid =
  match Loid.Ordered.find t.entries loid with
  | Some b ->
      if Binding.is_valid ~now b then true
      else begin
        Loid.Ordered.remove t.entries loid;
        false
      end
  | None -> false

let length t = Loid.Ordered.length t.entries
let capacity t = Loid.Ordered.capacity t.entries

let clear t =
  Loid.Ordered.clear t.entries;
  t.lookups <- 0;
  t.hits <- 0

let lookups t = t.lookups
let hits t = t.hits

let hit_rate t =
  if t.lookups = 0 then 0.0 else float_of_int t.hits /. float_of_int t.lookups

let evictions t = Loid.Ordered.evictions t.entries
