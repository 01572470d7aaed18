type t = { group : string; name : string; seq : int; mutable value : int }

let value t = t.value
let incr t = t.value <- t.value + 1
let add t n = t.value <- t.value + n
let name t = t.name
let group t = t.group

(* The larger value wins; a tie goes to the older counter. *)
let beats a b = a.value > b.value || (a.value = b.value && a.seq < b.seq)

module Registry = struct
  (* Keyed by the counter itself (its group and name), and mapping each
     counter to itself, so an entry allocates no separate key. *)
  module Tbl = Ordered.Make (struct
    type nonrec t = t

    let equal a b = String.equal a.group b.group && String.equal a.name b.name
    let hash c = Hashtbl.seeded_hash (Hashtbl.hash c.group) c.name
  end)

  let key group name = { group; name; seq = -1; value = 0 }

  (* What a group's retired counters still contribute: their sum, and a
     frozen copy of the one that beats the others. *)
  type retired = { mutable total : int; mutable top : t option }

  type r = {
    tbl : t Tbl.t;  (* registered counters, newest first *)
    retired : (string, retired) Hashtbl.t;
    mutable next_seq : int;
  }

  let create () = { tbl = Tbl.create (); retired = Hashtbl.create 8; next_seq = 0 }

  let make r ~group ~name =
    match Tbl.find r.tbl (key group name) with
    | Some c -> c
    | None ->
        let c = { group; name; seq = r.next_seq; value = 0 } in
        r.next_seq <- r.next_seq + 1;
        Tbl.add r.tbl c c;
        c

  let find r ~group ~name = Tbl.find r.tbl (key group name)

  let retire r c =
    match Tbl.find r.tbl c with
    | Some c' when c' == c ->
        Tbl.remove r.tbl c;
        let ret =
          match Hashtbl.find_opt r.retired c.group with
          | Some ret -> ret
          | None ->
              let ret = { total = 0; top = None } in
              Hashtbl.add r.retired c.group ret;
              ret
        in
        ret.total <- ret.total + c.value;
        (match ret.top with
        | Some top when not (beats c top) -> ()
        | _ -> ret.top <- Some { c with value = c.value })
    | Some _ | None -> ()

  let all r = Tbl.fold (fun _ c acc -> c :: acc) r.tbl []
  let by_group r g = List.filter (fun c -> c.group = g) (all r)

  let group_total r g =
    let retired =
      match Hashtbl.find_opt r.retired g with Some ret -> ret.total | None -> 0
    in
    List.fold_left (fun acc c -> acc + c.value) retired (by_group r g)

  let group_max r g =
    let top =
      match Hashtbl.find_opt r.retired g with Some ret -> ret.top | None -> None
    in
    List.fold_left
      (fun acc c ->
        match acc with Some b when not (beats c b) -> acc | _ -> Some c)
      top (by_group r g)
    |> Option.map (fun c -> (c.name, c.value))

  let reset r =
    List.iter (fun c -> c.value <- 0) (all r);
    Hashtbl.reset r.retired

  let pp ppf r =
    let pp_counter ppf c = Format.fprintf ppf "%s/%s=%d" c.group c.name c.value in
    Format.pp_print_list
      ~pp_sep:(fun ppf () -> Format.fprintf ppf "@ ")
      pp_counter ppf (all r)
end
