module Value = Legion_wire.Value

type t = { class_id : int64; class_specific : int64; public_key : string }

let make ?(public_key = "") ~class_id ~class_specific () =
  { class_id; class_specific; public_key }

let class_id t = t.class_id
let class_specific t = t.class_specific
let public_key t = t.public_key
let is_class t = Int64.equal t.class_specific 0L

let responsible_class t =
  { class_id = t.class_id; class_specific = 0L; public_key = "" }

let equal a b =
  Int64.equal a.class_id b.class_id
  && Int64.equal a.class_specific b.class_specific
  && String.equal a.public_key b.public_key

let compare a b =
  let c = Int64.compare a.class_id b.class_id in
  if c <> 0 then c
  else
    let c = Int64.compare a.class_specific b.class_specific in
    if c <> 0 then c else String.compare a.public_key b.public_key

let hash t =
  Hashtbl.hash (t.class_id, t.class_specific, t.public_key)

let pp ppf t =
  if String.length t.public_key = 0 then
    Format.fprintf ppf "L%Lx.%Lx" t.class_id t.class_specific
  else Format.fprintf ppf "L%Lx.%Lx+key" t.class_id t.class_specific

let to_string t = Format.asprintf "%a" pp t

let to_value t =
  Value.Record
    [
      ("cid", Value.I64 t.class_id);
      ("spec", Value.I64 t.class_specific);
      ("key", Value.Blob t.public_key);
    ]

let of_value v =
  let ( let* ) r f = Result.bind r f in
  let err e = Format.asprintf "loid: %a" Value.pp_error e in
  let* cid = Result.map_error err (Result.bind (Value.field v "cid") Value.to_i64) in
  let* spec = Result.map_error err (Result.bind (Value.field v "spec") Value.to_i64) in
  let* key = Result.map_error err (Result.bind (Value.field v "key") Value.to_blob) in
  Ok { class_id = cid; class_specific = spec; public_key = key }

module Ord = struct
  type nonrec t = t

  let compare = compare
end

module Map = Map.Make (Ord)
module Set = Set.Make (Ord)

module Table = struct
  module H = Hashtbl.Make (struct
    type nonrec t = t

    let equal = equal
    let hash = hash
  end)

  type 'a t = 'a H.t

  let create () = H.create 64
  let find t k = H.find_opt t k
  let mem t k = H.mem t k
  let set t k v = H.replace t k v
  let remove t k = H.remove t k
  let length t = H.length t
  let fold f t init = H.fold f t init
  let to_list t = H.fold (fun k v acc -> (k, v) :: acc) t []
end

(* A doubly linked list threaded through the index's nodes: the index
   finds a node, the links give the order, so removal unlinks in O(1)
   and no second copy of the entries exists to keep in sync. *)
module Ordered = struct
  type 'a node =
    | Nil
    | Node of {
        key : t;
        value : 'a;
        mutable older : 'a node;
        mutable newer : 'a node;
      }

  type 'a t = {
    index : 'a node Table.t;
    mutable newest : 'a node;
    mutable oldest : 'a node;
  }

  let create () = { index = Table.create (); newest = Nil; oldest = Nil }

  let node t k = try Table.H.find t.index k with Not_found -> Nil

  let find t k = match node t k with Node n -> Some n.value | Nil -> None

  let length t = Table.length t.index

  let remove t k =
    match node t k with
    | Node n ->
        (match n.newer with Node m -> m.older <- n.older | Nil -> t.newest <- n.older);
        (match n.older with Node m -> m.newer <- n.newer | Nil -> t.oldest <- n.newer);
        Table.remove t.index k
    | Nil -> ()

  let add t k v =
    remove t k;
    let node = Node { key = k; value = v; older = t.newest; newer = Nil } in
    (match t.newest with Node m -> m.newer <- node | Nil -> t.oldest <- node);
    t.newest <- node;
    Table.set t.index k node

  let fold f t init =
    let rec go acc = function
      | Nil -> acc
      | Node n -> go (f n.key n.value acc) n.older
    in
    go init t.newest

  let to_list t =
    let rec go acc = function
      | Nil -> acc
      | Node n -> go ((n.key, n.value) :: acc) n.newer
    in
    go [] t.oldest

  let of_list entries =
    let t = create () in
    List.iter (fun (k, v) -> add t k v) (List.rev entries);
    t
end
