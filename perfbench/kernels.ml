(* Replay kernels for the traced run: the wire codec and envelope, the
   binding cache and the persistent store, each timed in isolation on
   inputs taken from the workload itself (captured messages, the
   workload's cache capacity and target sequence, the store's live file
   count and mean file size). Inputs and outputs both pass through
   [Sys.opaque_identity] so the compiler can neither hoist nor drop the
   work. *)

module Value = Legion_wire.Value
module Codec = Legion_wire.Codec
module Envelope = Legion_wire.Envelope
module Loid = Legion_naming.Loid
module Binding = Legion_naming.Binding
module Cache = Legion_naming.Cache
module Persistent = Legion_store.Persistent
module Disk = Legion_store.Disk

type cost = { ns : float; words : float }  (** Per op. *)

let min_seconds = 0.1

(* Repeat [batch] (which runs some ops and returns how many) until
   [min_seconds] of wall clock have passed. *)
let time batch =
  let w0 = Gc.minor_words () in
  let t0 = Probe.now () in
  let ops = ref 0 in
  let t = ref t0 in
  while !t -. t0 < min_seconds do
    ops := !ops + batch ();
    t := Probe.now ()
  done;
  let ops = float_of_int (max 1 !ops) in
  { ns = (!t -. t0) *. 1e9 /. ops; words = (Gc.minor_words () -. w0) /. ops }

let over arr f () =
  Array.iter (fun x -> ignore (Sys.opaque_identity (f (Sys.opaque_identity x)))) arr;
  Array.length arr

let unwrap = function Ok v -> v | Error e -> failwith e

type wire = { encode : cost; decode : cost; seal : cost; unseal : cost }

let wire (msgs : Value.t array) =
  let encoded = Array.map Codec.encode msgs in
  let sealed = Array.map Envelope.seal msgs in
  Array.iter (fun s -> ignore (unwrap (Codec.decode s))) encoded;
  Array.iter (fun s -> ignore (unwrap (Envelope.unseal s))) sealed;
  {
    encode = time (over msgs Codec.encode);
    decode = time (over encoded Codec.decode);
    seal = time (over msgs Envelope.seal);
    unseal = time (over sealed Envelope.unseal);
  }

type naming = { find : cost; add_evict : cost }

(* The comm-layer cache at the workload's capacity, driven by one
   client's target sequence: a lookup per call and, on a miss, an
   insert that evicts once the cache is full. *)
let naming ~capacity ~(targets : int array) ~(bindings : Binding.t array) =
  let cache = Cache.create ?capacity () in
  let touch i =
    let b = bindings.(i) in
    match Cache.find cache ~now:0. (Binding.loid b) with
    | Some _ -> ()
    | None -> Cache.add cache ~now:0. b
  in
  Array.iter touch targets;
  let loids = Array.map (fun i -> Binding.loid bindings.(i)) targets in
  let find = time (over loids (fun l -> Cache.find cache ~now:0. l)) in
  let inserts = Array.map (fun i -> bindings.(i)) targets in
  let add_evict = time (over inserts (fun b -> Cache.add cache ~now:0. b)) in
  { find; add_evict }

type store = { put : cost; put_x10 : cost; get : cost }

let kernel_loid i = Loid.make ~class_id:0x7e57L ~class_specific:(Int64.of_int i) ()

(* A store prefilled with [files] version files of [blob_bytes] each,
   then [put] over a rotating set of objects (each put writes a version
   and prunes that object's older ones) and [get] of the fresh
   addresses. *)
let store_at ~files ~blob_bytes =
  let disks = [ Disk.create ~name:"kd0"; Disk.create ~name:"kd1" ] in
  let p = Persistent.create ~disks () in
  let blob = String.make (max 1 blob_bytes) 'x' in
  for i = 0 to files - 1 do
    let disk = if i land 1 = 0 then "kd0" else "kd1" in
    let file = Printf.sprintf "%s.v%d.opr" (Loid.to_string (kernel_loid i)) i in
    ignore (unwrap (Persistent.put_at p { Persistent.Opa.disk; file } blob))
  done;
  let rotating = Array.init 16 (fun i -> kernel_loid (files + i)) in
  Array.iter (fun loid -> ignore (Persistent.put p ~loid blob)) rotating;
  let put = time (over rotating (fun loid -> Persistent.put p ~loid blob)) in
  let opas = Array.map (fun loid -> Persistent.put p ~loid blob) rotating in
  (put, opas, p)

let store ~files ~blob_bytes =
  let put, opas, p = store_at ~files ~blob_bytes in
  let get = time (over opas (fun opa -> Persistent.get p opa)) in
  let put_x10, _, _ = store_at ~files:(10 * files) ~blob_bytes in
  { put; put_x10; get }
