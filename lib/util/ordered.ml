(* Recency-ordered hash table: one structure that both looks an entry
   up and lists the entries newest first. With a capacity it is an LRU
   map: adding an absent key to a full table first evicts the oldest
   entry. It is the one structure behind the LOID-keyed class and
   Magistrate tables, the binding caches and the runtime's exactly-once
   dedup cache. [Make] is sealed by [S], so the signature below is the
   whole interface. *)

module type S = sig
  type key
  type 'a t

  val create : ?capacity:int -> unit -> 'a t
  (** [capacity] of [None] (default) is unbounded; [Some 0] holds
      nothing. @raise Invalid_argument on a negative capacity. *)

  val find : 'a t -> key -> 'a option
  (** Lookup; the entry keeps its place. O(1). *)

  val promote : 'a t -> key -> 'a option
  (** Lookup that also moves a present entry to the newest position —
      the LRU hit — without allocating a node. O(1). *)

  val add : 'a t -> key -> 'a -> unit
  (** Bind the key as the newest entry. A key already present moves to
      the front with the new value. An absent key added to a full table
      evicts the oldest entry first (see [evictions]). O(1). *)

  val remove : 'a t -> key -> unit
  (** Idempotent. O(1). *)

  val length : 'a t -> int
  val capacity : 'a t -> int option

  val evictions : 'a t -> int
  (** Entries pushed out by the capacity bound since creation or the
      last [clear]. *)

  val clear : 'a t -> unit
  (** Drop every entry and reset [evictions]. *)

  val fold : (key -> 'a -> 'acc -> 'acc) -> 'a t -> 'acc -> 'acc
  (** Visits the entries newest first. *)

  val to_list : 'a t -> (key * 'a) list
  (** The entries, newest first. *)

  val of_list : (key * 'a) list -> 'a t
  (** Inverse of [to_list] for an unbounded table: the list is read
      newest first. *)
end

(* A doubly linked list threaded through the index's nodes: the index
   finds a node, the links give the order, so removal and promotion
   relink in O(1) and no second copy of the entries exists to keep in
   sync. *)
module Make (K : Hashtbl.HashedType) : S with type key = K.t = struct
  module H = Hashtbl.Make (K)

  type key = K.t

  type 'a node =
    | Nil
    | Node of {
        key : key;
        mutable value : 'a;
        mutable older : 'a node;
        mutable newer : 'a node;
      }

  type 'a t = {
    index : 'a node H.t;
    capacity : int option;
    mutable newest : 'a node;
    mutable oldest : 'a node;
    mutable evictions : int;
  }

  let create ?capacity () =
    (match capacity with
    | Some c when c < 0 -> invalid_arg "Ordered.create: negative capacity"
    | _ -> ());
    (* Small first: most tables are per-process binding caches holding
       a handful of entries, and the index doubles as it fills. *)
    { index = H.create 16; capacity; newest = Nil; oldest = Nil; evictions = 0 }

  let node t k = match H.find_opt t.index k with Some nd -> nd | None -> Nil

  let unlink t = function
    | Nil -> ()
    | Node n ->
        (match n.newer with Node m -> m.older <- n.older | Nil -> t.newest <- n.older);
        (match n.older with Node m -> m.newer <- n.newer | Nil -> t.oldest <- n.newer)

  let push_newest t = function
    | Nil -> ()
    | Node n as nd ->
        n.older <- t.newest;
        n.newer <- Nil;
        (match t.newest with Node m -> m.newer <- nd | Nil -> t.oldest <- nd);
        t.newest <- nd

  let find t k = match node t k with Node n -> Some n.value | Nil -> None

  let promote t k =
    match node t k with
    | Node n as nd ->
        unlink t nd;
        push_newest t nd;
        Some n.value
    | Nil -> None

  let remove t k =
    match node t k with
    | Node _ as nd ->
        unlink t nd;
        H.remove t.index k
    | Nil -> ()

  let add t k v =
    match node t k with
    | Node n as nd ->
        n.value <- v;
        unlink t nd;
        push_newest t nd
    | Nil -> (
        match t.capacity with
        | Some 0 -> ()
        | cap ->
            (match (cap, t.oldest) with
            | Some c, (Node o as oldest) when H.length t.index >= c ->
                unlink t oldest;
                H.remove t.index o.key;
                t.evictions <- t.evictions + 1
            | _ -> ());
            let nd = Node { key = k; value = v; older = Nil; newer = Nil } in
            push_newest t nd;
            H.add t.index k nd)

  let length t = H.length t.index
  let capacity t = t.capacity
  let evictions t = t.evictions

  let clear t =
    H.reset t.index;
    t.newest <- Nil;
    t.oldest <- Nil;
    t.evictions <- 0

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
