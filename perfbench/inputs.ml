(* Workload definitions and the seeded inputs each run feeds the system.

   Everything the benchmark hands to the system under test is generated
   here, up front, from the --seed argument alone: the boot seed (which
   drives the simulated network's jitter), each client's target
   sequence, and churn's victim draws. Two runs with one seed therefore
   give the system identical inputs, and [digest] lets a run prove that
   another seed changed them. *)

module Prng = Legion_util.Prng
module Sampler = Legion_util.Sampler

type kind = Warm_rpc | Bind_miss | Churn

type spec = {
  name : string;
  kind : kind;
  sites : int;
  hosts_per_site : int;
  objects : int;  (** Population (churn: the constant live count). *)
  clients : int;
  client_cache : int option;  (** Comm-layer cache of each client. *)
  agent_cache : int option;  (** Cache of each site's Binding Agent. *)
  zipf_s : float;  (** Target skew; [0.] is uniform. *)
  prefix_ops : int;
      (** Ops in the deterministic prefix the virtual-time and count
          metrics are taken over. *)
  window_ops : int;
      (** Ops per window in the traced run, which alternates untraced
          and traced windows. *)
}

let warm_rpc =
  {
    name = "warm_rpc";
    kind = Warm_rpc;
    sites = 8;
    hosts_per_site = 8;
    objects = 2_000;
    clients = 32;
    client_cache = None;
    agent_cache = None;
    zipf_s = 0.9;
    prefix_ops = 40_000;
    window_ops = 4_096;
  }

let bind_miss =
  {
    name = "bind_miss";
    kind = Bind_miss;
    sites = 8;
    hosts_per_site = 8;
    objects = 10_000;
    clients = 32;
    client_cache = Some 64;
    agent_cache = Some 256;
    zipf_s = 0.;
    prefix_ops = 10_000;
    window_ops = 1_024;
  }

let churn =
  {
    name = "churn";
    kind = Churn;
    sites = 8;
    hosts_per_site = 8;
    objects = 5_000;
    clients = 1;
    client_cache = None;
    agent_cache = None;
    zipf_s = 0.;
    (* Five ops per round: create, activate, deactivate, reactivate,
       delete. Both counts are whole rounds. *)
    prefix_ops = 1_500;
    window_ops = 250;
  }

let all = [ warm_rpc; bind_miss; churn ]
let find name = List.find_opt (fun s -> s.name = name) all

type t = {
  spec : spec;
  seed : int;
  boot_seed : int64;
  targets : int array array;
      (** Per client, object indices in call order; cycled when a run
          outlasts them. *)
  victims : int array;  (** Churn: raw draws picking the object to deactivate. *)
}

(* Long enough that a client rarely wraps within one run. *)
let sequence_len = 32_768

let make spec ~seed =
  let prng = Prng.create ~seed:(Int64.of_int seed) in
  let boot_seed = Prng.next_int64 prng in
  let targets =
    match spec.kind with
    | Churn -> [||]
    | Warm_rpc | Bind_miss ->
        Array.init spec.clients (fun _ ->
            let p = Prng.split prng in
            let z = Sampler.zipf p ~n:spec.objects ~s:spec.zipf_s in
            Array.init sequence_len (fun _ -> Sampler.zipf_draw z))
  in
  let victims =
    match spec.kind with
    | Churn -> Array.init sequence_len (fun _ -> Prng.int prng (1 lsl 30))
    | Warm_rpc | Bind_miss -> [||]
  in
  { spec; seed; boot_seed; targets; victims }

(* FNV-1a style hash over every generated value. *)
let digest t =
  let h = ref 0x811c9dc5 in
  let mix x = h := (!h lxor (x land 0xffff_ffff)) * 0x100000001b3 in
  mix (Int64.to_int t.boot_seed);
  mix (Int64.to_int (Int64.shift_right_logical t.boot_seed 32));
  Array.iter (Array.iter mix) t.targets;
  Array.iter mix t.victims;
  !h land max_int
