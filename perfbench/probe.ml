(* Snapshots of every layer's public counters, taken at the benchmark's
   own boundaries (phase and window edges). Per-layer metrics are
   differences of two snapshots over a count of ops. *)

module Counter = Legion_util.Counter
module Histogram = Legion_util.Stats.Histogram
module Engine = Legion_sim.Engine
module Network = Legion_net.Network
module Runtime = Legion_rt.Runtime
module Cache = Legion_naming.Cache
module Persistent = Legion_store.Persistent
module Disk = Legion_store.Disk
module Recorder = Legion_obs.Recorder
module Well_known = Legion_core.Well_known
module System = Legion.System

type t = {
  wall : float;
  events : int;
  msgs : int;
  bytes : int;
  wan : int;
  drops : int;
  delivered : int;
  agent_rq : int;
  class_rq : int;
  mag_rq : int;
  host_rq : int;
  lookups : int;  (** Client comm-layer caches. *)
  hits : int;
  evictions : int;
  disk_writes : int;
  disk_reads : int;
  files : int;
  minor_words : float;
  major : int;
}

let now () = Unix.gettimeofday ()

let disks sys =
  List.concat_map (fun s -> Persistent.disks s.System.storage) (System.sites sys)

let take (w : World.t) =
  let sys = w.World.sys in
  let net = System.net sys in
  let agent = ref 0 and cls = ref 0 and mag = ref 0 and host = ref 0 in
  List.iter
    (fun c ->
      let g = Counter.group c and v = Counter.value c in
      if g = Well_known.kind_binding_agent then agent := !agent + v
      else if g = Well_known.kind_class then cls := !cls + v
      else if g = Well_known.kind_magistrate then mag := !mag + v
      else if g = Well_known.kind_host then host := !host + v)
    (Counter.Registry.all (System.registry sys));
  let lookups = ref 0 and hits = ref 0 and evictions = ref 0 in
  Array.iter
    (fun (ctx : Runtime.ctx) ->
      let c = Runtime.cache_of ctx.Runtime.self in
      lookups := !lookups + Cache.lookups c;
      hits := !hits + Cache.hits c;
      evictions := !evictions + Cache.evictions c)
    w.World.clients;
  let ds = disks sys in
  let sum f = List.fold_left (fun acc d -> acc + f d) 0 ds in
  let _, _, wan = Network.messages_by_tier net in
  let gc = Gc.quick_stat () in
  {
    wall = now ();
    events = Engine.events_fired (System.sim sys);
    msgs = Network.messages_sent net;
    bytes = Network.bytes_sent net;
    wan;
    drops = Network.messages_dropped net;
    delivered = Runtime.total_calls_delivered (System.rt sys);
    agent_rq = !agent;
    class_rq = !cls;
    mag_rq = !mag;
    host_rq = !host;
    lookups = !lookups;
    hits = !hits;
    evictions = !evictions;
    disk_writes = sum Disk.writes;
    disk_reads = sum Disk.reads;
    files = sum Disk.file_count;
    minor_words = gc.Gc.minor_words;
    major = gc.Gc.major_collections;
  }

(* Recorder histogram snapshots: bucket counts are cumulative over the
   system's life, so a phase's distribution is the bucket-wise
   difference of its end and start snapshots. *)
type hist = (float option * int) list

let hist (w : World.t) component : hist =
  match Recorder.latency (System.obs w.World.sys) ~component with
  | Some h -> Histogram.counts h
  | None -> []

(* Nearest-rank percentile of [after - before], resolved to the upper
   bound of its bucket, in milliseconds; [0.] when the phase recorded
   nothing in this histogram. *)
let hist_percentile ~(before : hist) ~(after : hist) p =
  let prior b = Option.value ~default:0 (List.assoc_opt b before) in
  let cells = List.map (fun (b, n) -> (b, n - prior b)) after in
  let total = List.fold_left (fun acc (_, n) -> acc + n) 0 cells in
  if total = 0 then 0.
  else
    let rank = max 1 (int_of_float (Float.ceil (p /. 100. *. float_of_int total))) in
    let rec go acc = function
      | [] -> infinity
      | (b, n) :: rest ->
          if acc + n >= rank then
            match b with Some ub -> ub *. 1000. | None -> infinity
          else go (acc + n) rest
    in
    go 0 cells
