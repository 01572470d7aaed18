(* The measured phase of a run.

   Every workload is a closed loop. warm_rpc and bind_miss keep one
   [Increment] outstanding per client; churn's single client runs its
   five-op rounds one call at a time. The phase ends at the first op
   boundary past the wall-clock deadline, but never before the first
   [prefix_ops] ops have completed: the virtual-time and count metrics
   are taken over exactly that prefix, which is a function of the seed
   alone, so they repeat exactly.

   In the traced run the phase alternates untraced and traced windows
   of [window_ops] ops. Untraced windows give the rates and per-event
   costs; traced windows record a span per op, read the Recorder's
   events, and sample the event queue. Comparing the two rates gives
   the tracing overhead. *)

module Value = Legion_wire.Value
module Loid = Legion_naming.Loid
module Engine = Legion_sim.Engine
module Network = Legion_net.Network
module Recorder = Legion_obs.Recorder
module Event = Legion_obs.Event
module System = Legion.System
module Api = Legion.Api

let now = Probe.now

(* What the deterministic prefix yields: identical for one seed. *)
type prefix = {
  lat : float array;  (** Virtual seconds from issue to reply, by completion. *)
  msgs : int;
  bytes : int;
  events : int;
}

let prefix_equal a b =
  a.msgs = b.msgs && a.bytes = b.bytes && a.events = b.events
  && Array.length a.lat = Array.length b.lat
  && Array.for_all2 (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)) a.lat b.lat

type tracer = {
  spans : Spans.t;
  phase_span : int;
  mutable traced : bool;
  mutable win_span : int;
  mutable win_t0 : float;
  mutable win_v0 : float;
  mutable win_ops0 : int;
  mutable win_att0 : int;
  mutable win_fail0 : int;
  mutable win_events0 : int;
  mutable win_minor0 : float;
  mutable ev_mark : int;
  (* Untraced windows. *)
  mutable u_wall : float;
  mutable u_ops : int;
  mutable u_events : int;
  mutable u_minor : float;
  (* Traced windows. *)
  mutable t_wall : float;
  mutable t_ops : int;
  mutable t_att : int;
  mutable t_fail : int;
  mutable retries : int;
  mutable timeouts : int;
  mutable sheds : int;
  mutable activations : int;
  mutable lost_events : int;
  mutable pending_peak : int;
  mutable curve : (float * int) list;  (** (wall, ops completed) at window edges, newest first. *)
  mutable captured : Value.t list;
  mutable n_captured : int;
  issue_t0 : float array;  (** Per client: wall clock of its outstanding call. *)
}

let capture_limit = 2_048

type t = {
  w : World.t;
  inp : Inputs.t;
  k : int;
  deadline : float option;  (** [None]: stop right after the prefix. *)
  mutable attempted : int;
  mutable completed : int;
  mutable failed : int;
  mutable wrong : int;  (** Replies that arrived but read wrong. *)
  mutable ok_increments : int;
  lat : float array;
  mutable prefix : prefix option;
  base_msgs : int;
  base_bytes : int;
  base_events : int;
  start_wall : float;
  start_virt : float;
  mutable stopped : bool;
  mutable stop_wall : float;
  mutable stop_ops : int;
  trace : tracer option;
}

let sys ph = ph.w.World.sys

let create ?(traced = false) ~deadline (w : World.t) (inp : Inputs.t) =
  let sys = w.World.sys in
  let net = System.net sys in
  let k = inp.Inputs.spec.Inputs.prefix_ops in
  let start_wall = now () in
  let trace =
    if not traced then None
    else
      let spans = Spans.create () in
      let phase_span = Spans.fresh spans in
      Some
        {
          spans;
          phase_span;
          traced = false;
          win_span = 0;
          win_t0 = start_wall;
          win_v0 = System.now sys;
          win_ops0 = 0;
          win_att0 = 0;
          win_fail0 = 0;
          win_events0 = Engine.events_fired (System.sim sys);
          win_minor0 = Gc.minor_words ();
          ev_mark = Recorder.total (System.obs sys);
          u_wall = 0.;
          u_ops = 0;
          u_events = 0;
          u_minor = 0.;
          t_wall = 0.;
          t_ops = 0;
          t_att = 0;
          t_fail = 0;
          retries = 0;
          timeouts = 0;
          sheds = 0;
          activations = 0;
          lost_events = 0;
          pending_peak = 0;
          curve = [ (start_wall, 0) ];
          captured = [];
          n_captured = 0;
          issue_t0 = Array.make (Array.length w.World.clients) 0.;
        }
  in
  {
    w;
    inp;
    k;
    deadline;
    attempted = 0;
    completed = 0;
    failed = 0;
    wrong = 0;
    ok_increments = 0;
    lat = Array.make k 0.;
    prefix = None;
    base_msgs = Network.messages_sent net;
    base_bytes = Network.bytes_sent net;
    base_events = Engine.events_fired (System.sim sys);
    start_wall;
    start_virt = System.now sys;
    stopped = false;
    stop_wall = start_wall;
    stop_ops = 0;
    trace;
  }

let traced_now ph = match ph.trace with Some tr -> tr.traced | None -> false

(* --- Traced-run windows. --- *)

let tally_events tr evs =
  List.iter
    (fun (e : Event.t) ->
      match e.Event.kind with
      | Event.Retry _ -> tr.retries <- tr.retries + 1
      | Event.Timeout _ -> tr.timeouts <- tr.timeouts + 1
      | Event.Shed _ -> tr.sheds <- tr.sheds + 1
      | Event.Activate _ -> tr.activations <- tr.activations + 1
      | _ -> ())
    evs

let stop_capture ph = Network.set_tap (System.net (sys ph)) None

let start_capture ph tr =
  Network.set_tap (System.net (sys ph))
    (Some
       (fun ~src:_ ~dst:_ v ->
         if tr.n_captured < capture_limit then begin
           tr.captured <- v :: tr.captured;
           tr.n_captured <- tr.n_captured + 1
         end))

let close_window ph tr =
  let sys = sys ph in
  let t = now () in
  let ops = ph.completed - tr.win_ops0 in
  if tr.traced then begin
    tr.t_wall <- tr.t_wall +. (t -. tr.win_t0);
    tr.t_ops <- tr.t_ops + ops;
    tr.t_att <- tr.t_att + (ph.attempted - tr.win_att0);
    tr.t_fail <- tr.t_fail + (ph.failed - tr.win_fail0);
    let obs = System.obs sys in
    let evs = Recorder.events_since obs tr.ev_mark in
    let emitted = Recorder.total obs - tr.ev_mark in
    tr.lost_events <- tr.lost_events + (emitted - List.length evs);
    tally_events tr evs;
    stop_capture ph;
    Spans.add tr.spans ~id:tr.win_span ~parent:tr.phase_span ~name:"sim.window"
      ~t0:tr.win_t0 ~t1:t ~v0:tr.win_v0 ~v1:(System.now sys) ()
  end
  else begin
    tr.u_wall <- tr.u_wall +. (t -. tr.win_t0);
    tr.u_ops <- tr.u_ops + ops;
    tr.u_events <- tr.u_events + (Engine.events_fired (System.sim sys) - tr.win_events0);
    tr.u_minor <- tr.u_minor +. (Gc.minor_words () -. tr.win_minor0)
  end;
  tr.curve <- (t, ph.completed) :: tr.curve

let open_window ph tr ~traced =
  let sys = sys ph in
  tr.traced <- traced;
  tr.win_ops0 <- ph.completed;
  tr.win_att0 <- ph.attempted;
  tr.win_fail0 <- ph.failed;
  if traced then begin
    tr.win_span <- Spans.fresh tr.spans;
    tr.ev_mark <- Recorder.total (System.obs sys);
    if tr.n_captured < capture_limit then start_capture ph tr
  end
  else begin
    tr.win_events0 <- Engine.events_fired (System.sim sys);
    tr.win_minor0 <- Gc.minor_words ()
  end;
  tr.win_v0 <- System.now sys;
  tr.win_t0 <- now ()

(* --- Op accounting. --- *)

let check_stop ph =
  if (not ph.stopped) && ph.completed >= ph.k then
    match ph.deadline with
    | None -> ph.stopped <- true
    | Some d ->
        let t = now () in
        if t >= d then begin
          ph.stopped <- true;
          ph.stop_wall <- t;
          ph.stop_ops <- ph.completed
        end

let complete ph ~ok ~virt =
  if ph.completed < ph.k then ph.lat.(ph.completed) <- virt;
  ph.completed <- ph.completed + 1;
  if not ok then ph.failed <- ph.failed + 1;
  if ph.completed = ph.k then begin
    let sys = sys ph in
    let net = System.net sys in
    ph.prefix <-
      Some
        {
          lat = Array.copy ph.lat;
          msgs = Network.messages_sent net - ph.base_msgs;
          bytes = Network.bytes_sent net - ph.base_bytes;
          events = Engine.events_fired (System.sim sys) - ph.base_events;
        }
  end;
  (match ph.trace with
  | None -> ()
  | Some tr ->
      if tr.traced then begin
        let p = Engine.pending (System.sim (sys ph)) in
        if p > tr.pending_peak then tr.pending_peak <- p
      end;
      if ph.completed - tr.win_ops0 >= ph.inp.Inputs.spec.Inputs.window_ops then begin
        close_window ph tr;
        open_window ph tr ~traced:(not tr.traced)
      end);
  check_stop ph

let finish ph =
  (match ph.trace with
  | Some tr when ph.completed > tr.win_ops0 -> close_window ph tr
  | Some _ | None -> ());
  if ph.stop_ops = 0 then begin
    ph.stop_wall <- now ();
    ph.stop_ops <- ph.completed
  end;
  match ph.trace with Some _ -> stop_capture ph | None -> ()

(* --- warm_rpc and bind_miss: Increment from every client. --- *)

let run_rpc ph =
  let w = ph.w in
  let targets = ph.inp.Inputs.targets in
  let pos = Array.make (Array.length w.World.clients) 0 in
  let objs = w.World.objs in
  World.closed_loop w
    ~next:(fun c ->
      if ph.stopped then None
      else begin
        let seq = targets.(c) in
        let i = seq.(pos.(c) mod Array.length seq) in
        pos.(c) <- pos.(c) + 1;
        ph.attempted <- ph.attempted + 1;
        (match ph.trace with
        | Some tr when tr.traced -> tr.issue_t0.(c) <- now ()
        | Some _ | None -> ());
        Some (objs.(i), "Increment", World.increment_args)
      end)
    ~on_reply:(fun c r virt ->
      let ok = match r with Ok (Value.Int _) -> true | _ -> false in
      if ok then ph.ok_increments <- ph.ok_increments + 1;
      (match ph.trace with
      | Some tr when tr.traced ->
          let v1 = System.now (sys ph) in
          ignore
            (Spans.record tr.spans ~parent:tr.win_span ~name:"rt.invoke" ~op:ph.completed
               ~t0:tr.issue_t0.(c) ~t1:(now ()) ~v0:(v1 -. virt) ~v1 ())
      | Some _ | None -> ());
      complete ph ~ok ~virt);
  finish ph

(* The final sum of [Get] over every object must equal the number of
   successful [Increment] calls. *)
let check_rpc ph =
  let w = ph.w in
  let sum = ref 0 and bad = ref 0 in
  World.sweep_get w ~index:(World.partition w) ~on_reply:(function
    | Ok (Value.Int v) -> sum := !sum + v
    | _ -> incr bad);
  if !bad > 0 then [ Printf.sprintf "final Get sweep: %d calls failed" !bad ]
  else if !sum <> ph.ok_increments then
    [ Printf.sprintf "final Get sum %d <> %d successful Increments" !sum ph.ok_increments ]
  else []

(* --- churn: create, activate, deactivate, reactivate, delete. --- *)

type entry = { loid : Loid.t; mag : Loid.t; mutable value : int }

type churn = {
  ring : entry option array;  (** Live objects, oldest at [head]. *)
  mutable head : int;
  mutable live : int;
  mutable created : int;
  mutable round : int;
  mutable deleted : Loid.t list;  (** The most recent deletions, for the final check. *)
}

let deleted_kept = 32

let churn_state (w : World.t) =
  let n = Array.length w.World.objs in
  let nm = Array.length w.World.mags in
  let ring = Array.make (n + 1) None in
  Array.iteri
    (fun i loid -> ring.(i) <- Some { loid; mag = w.World.mags.(i mod nm); value = 0 })
    w.World.objs;
  { ring; head = 0; live = n; created = n; round = 0; deleted = [] }

let nth st j =
  match st.ring.((st.head + j) mod Array.length st.ring) with
  | Some e -> e
  | None -> invalid_arg "churn ring: empty slot"

let push st e =
  st.ring.((st.head + st.live) mod Array.length st.ring) <- Some e;
  st.live <- st.live + 1

let pop st =
  let e = nth st 0 in
  st.ring.(st.head) <- None;
  st.head <- (st.head + 1) mod Array.length st.ring;
  st.live <- st.live - 1;
  e

(* One synchronous op: [f ()] returns [Ok ()], [Error `Failed] for an
   error reply, or [Error `Wrong] for a reply that reads wrong. *)
let churn_op ph name f =
  let sys = sys ph in
  let traced = traced_now ph in
  let t0 = if traced then now () else 0. in
  let v0 = System.now sys in
  ph.attempted <- ph.attempted + 1;
  let r = f () in
  let virt = System.now sys -. v0 in
  (match ph.trace with
  | Some tr when traced ->
      ignore
        (Spans.record tr.spans ~parent:tr.win_span ~name ~op:ph.completed ~t0 ~t1:(now ())
           ~v0 ~v1:(System.now sys) ())
  | Some _ | None -> ());
  (match r with Error `Wrong -> ph.wrong <- ph.wrong + 1 | Ok () | Error `Failed -> ());
  complete ph ~ok:(Result.is_ok r) ~virt

let increment_expecting ph loid expected =
  match Api.call (sys ph) ph.w.World.clients.(0) ~dst:loid ~meth:"Increment" ~args:World.increment_args with
  | Ok (Value.Int v) when v = expected -> Ok ()
  | Ok _ -> Error `Wrong
  | Error _ -> Error `Failed

let churn_round ph st =
  let w = ph.w in
  let ctx = w.World.clients.(0) in
  let mags = w.World.mags in
  let mag = mags.(st.created mod Array.length mags) in
  st.created <- st.created + 1;
  let fresh = ref None in
  churn_op ph "api.create" (fun () ->
      match World.create ~ctx w ~mag with
      | Ok loid ->
          let e = { loid; mag; value = 0 } in
          push st e;
          fresh := Some e;
          Ok ()
      | Error _ -> Error `Failed);
  (match !fresh with
  | None -> ()
  | Some e ->
      churn_op ph "api.activate" (fun () ->
          let r = increment_expecting ph e.loid 1 in
          if Result.is_ok r then e.value <- 1;
          r));
  let victims = ph.inp.Inputs.victims in
  let v = nth st (victims.(st.round mod Array.length victims) mod st.live) in
  st.round <- st.round + 1;
  churn_op ph "api.deactivate" (fun () ->
      match
        Api.call (sys ph) ctx ~dst:v.mag ~meth:"Deactivate" ~args:[ Loid.to_value v.loid ]
      with
      | Ok _ -> Ok ()
      | Error _ -> Error `Failed);
  churn_op ph "api.reactivate" (fun () ->
      let r = increment_expecting ph v.loid (v.value + 1) in
      if Result.is_ok r then v.value <- v.value + 1;
      r);
  let old = pop st in
  churn_op ph "api.delete" (fun () ->
      match Api.delete_object (sys ph) ctx ~cls:w.World.cls ~loid:old.loid with
      | Ok () ->
          st.deleted <- old.loid :: List.filteri (fun i _ -> i < deleted_kept - 1) st.deleted;
          Ok ()
      | Error _ -> Error `Failed)

let run_churn ph st =
  while not ph.stopped do
    churn_round ph st
  done;
  finish ph

(* A deleted LOID must fail definitively, and the Jurisdictions' stores
   must hold at most [keep] (2) version files per live object. *)
let check_churn ph st =
  let w = ph.w in
  let sys = sys ph in
  let ctx = w.World.clients.(0) in
  let resurrected =
    List.filter
      (fun loid ->
        match Api.call sys ctx ~dst:loid ~meth:"Get" ~args:[] with
        | Error (Legion_rt.Err.Not_bound _ | Legion_rt.Err.No_such_object) -> false
        | Ok _ | Error _ -> true)
      st.deleted
  in
  let files =
    List.fold_left (fun acc d -> acc + Legion_store.Disk.file_count d) 0 (Probe.disks sys)
  in
  (if resurrected = [] then []
   else [ Printf.sprintf "%d deleted LOIDs did not fail definitively" (List.length resurrected) ])
  @ (if files <= 2 * st.live then []
     else [ Printf.sprintf "store holds %d files for %d live objects" files st.live ])
  @
  if ph.wrong = 0 then []
  else [ Printf.sprintf "%d activations or reactivations read a wrong value" ph.wrong ]

let wall_seconds ph = ph.stop_wall -. ph.start_wall
