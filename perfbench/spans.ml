(* In-memory spans for the traced run: one per call the benchmark makes
   into a layer, with its name, wall-clock start and end, virtual start
   and end, parent span and op id. Nothing is written until [write], at
   the end of the run. *)

type span = {
  id : int;
  parent : int;  (** [0] for a root. *)
  name : string;
  op : int;  (** [-1] when the span is not one op. *)
  t0 : float;  (** Wall clock, seconds. *)
  t1 : float;
  v0 : float;  (** Virtual time, seconds. *)
  v1 : float;
}

type t = { mutable spans : span list; mutable next_id : int }

let create () = { spans = []; next_id = 1 }

let fresh t =
  let id = t.next_id in
  t.next_id <- id + 1;
  id

let add t ~id ~parent ~name ?(op = -1) ~t0 ~t1 ~v0 ~v1 () =
  t.spans <- { id; parent; name; op; t0; t1; v0; v1 } :: t.spans

let record t ~parent ~name ?op ~t0 ~t1 ~v0 ~v1 () =
  let id = fresh t in
  add t ~id ~parent ~name ?op ~t0 ~t1 ~v0 ~v1 ();
  id

(* Wall-clock durations, in microseconds, of the spans named [name]. *)
let durations_us t ~name =
  List.filter_map
    (fun s -> if s.name = name then Some ((s.t1 -. s.t0) *. 1e6) else None)
    t.spans

(* One JSON object per line, oldest first; times relative to [origin].
   Only the first [max_ops] op spans are written, which bounds the file;
   the rest still count in the metrics. Returns the number written. *)
let write t ~origin ~max_ops ~file =
  let dir = Filename.dirname file in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let ops = ref 0 and written = ref 0 in
  Out_channel.with_open_text file (fun oc ->
      List.iter
        (fun s ->
          if s.op >= 0 then incr ops;
          if s.op < 0 || !ops <= max_ops then begin
            incr written;
            Printf.fprintf oc
              "{\"id\":%d,\"parent\":%d,\"name\":%S,\"op\":%d,\"start_us\":%.3f,\
               \"end_us\":%.3f,\"virt_start_s\":%.9f,\"virt_end_s\":%.9f}\n"
              s.id s.parent s.name s.op
              ((s.t0 -. origin) *. 1e6)
              ((s.t1 -. origin) *. 1e6)
              s.v0 s.v1
          end)
        (List.rev t.spans));
  !written
