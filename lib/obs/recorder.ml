module Ustats = Legion_util.Stats

(* The ring is four parallel arrays rather than one array of
   [Event.t option]: a stored [Some {time; host; site; kind}] kept ~13
   words of boxes per event alive until overwritten, so the minor GC
   promoted every one of them. Now only the caller's [kind] block is
   kept; the time is unboxed, a missing host or site is [-1], and
   [Event.t] records are built only when the history is read. The
   arrays start small and double up to [capacity], so a recorder that
   sees few events stays small. *)
type t = {
  clock : unit -> float;
  capacity : int;
  mutable times : Float.Array.t;
  mutable hosts : int array;
  mutable sites : int array;
  mutable kinds : Event.kind array;
  mutable total : int;
  lat : (string, Ustats.Histogram.h) Hashtbl.t;
}

(* Log-spaced 10µs .. 10s: spans the network's three latency tiers
   (5µs/0.5ms/40ms one-way) through multi-hop resolution chains. *)
let latency_buckets =
  [| 1e-5; 3e-5; 1e-4; 3e-4; 1e-3; 3e-3; 1e-2; 3e-2; 0.1; 0.3; 1.0; 3.0; 10.0 |]

(* Fills the kind slots that hold no event, so a cleared ring keeps no
   old kind alive. *)
let vacant = Event.Timeout { id = -1 }

let create ?(capacity = 65536) ~clock () =
  if capacity <= 0 then invalid_arg "Recorder.create: capacity must be positive";
  let n = Stdlib.min capacity 1024 in
  {
    clock;
    capacity;
    times = Float.Array.make n 0.0;
    hosts = Array.make n (-1);
    sites = Array.make n (-1);
    kinds = Array.make n vacant;
    total = 0;
    lat = Hashtbl.create 16;
  }

(* Only reached while the ring has not yet wrapped, so the slots in use
   are exactly [0, length). *)
let grow t =
  let n = Array.length t.kinds in
  let more = Stdlib.min t.capacity (2 * n) - n in
  t.times <- Float.Array.append t.times (Float.Array.make more 0.0);
  t.hosts <- Array.append t.hosts (Array.make more (-1));
  t.sites <- Array.append t.sites (Array.make more (-1));
  t.kinds <- Array.append t.kinds (Array.make more vacant)

let emit_at t ~host ~site kind =
  let i = t.total mod t.capacity in
  if i = Array.length t.kinds then grow t;
  Float.Array.set t.times i (t.clock ());
  t.hosts.(i) <- host;
  t.sites.(i) <- site;
  t.kinds.(i) <- kind;
  t.total <- t.total + 1

let emit t ?host ?site kind =
  let id = function Some i -> i | None -> -1 in
  emit_at t ~host:(id host) ~site:(id site) kind

let total t = t.total
let retained t = Stdlib.min t.total t.capacity
let overwritten t = t.total - retained t

let event_at t i =
  let opt x = if x < 0 then None else Some x in
  {
    Event.time = Float.Array.get t.times i;
    host = opt t.hosts.(i);
    site = opt t.sites.(i);
    kind = t.kinds.(i);
  }

let events_since t mark =
  let first = Stdlib.max mark (t.total - retained t) in
  if first >= t.total then []
  else
    List.init (t.total - first) (fun i ->
        event_at t ((first + i) mod t.capacity))

let events t = events_since t 0

let clear t =
  Array.fill t.kinds 0 (Array.length t.kinds) vacant;
  t.total <- 0

let observe t ~component x =
  let h =
    match Hashtbl.find_opt t.lat component with
    | Some h -> h
    | None ->
        let h = Ustats.Histogram.create ~buckets:latency_buckets in
        Hashtbl.add t.lat component h;
        h
  in
  Ustats.Histogram.add h x

let latency t ~component = Hashtbl.find_opt t.lat component

let latencies t =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.lat []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
