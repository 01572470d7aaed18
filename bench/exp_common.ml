(* Shared machinery for the experiment harness: a counter-class fixture,
   workload generation, counter snapshots, and table rendering.

   Every experiment prints a self-contained table; EXPERIMENTS.md maps
   each to the claim in the paper it regenerates. *)

module Value = Legion_wire.Value
module Loid = Legion_naming.Loid
module Counter = Legion_util.Counter
module Prng = Legion_util.Prng
module Stats = Legion_util.Stats
module Impl = Legion_core.Impl
module Well_known = Legion_core.Well_known
module Runtime = Legion_rt.Runtime
module Err = Legion_rt.Err
module System = Legion.System
module Api = Legion.Api

(* --- The benchmark application unit: a counter. --- *)

let counter_unit = "bench.counter"

let register_units () =
  Impl.register counter_unit (Legion.Fixture.counter counter_unit)

let make_counter_class sys ctx ?name () =
  Legion.Fixture.counter_class ?name sys ctx counter_unit

(* --- Counter-registry snapshots: the §5 instrument. --- *)

type snapshot = (string * string * int) list  (* group, name, value *)

let snapshot sys : snapshot =
  List.map
    (fun c -> (Counter.group c, Counter.name c, Counter.value c))
    (Counter.Registry.all (System.registry sys))

let delta_group (before : snapshot) (after : snapshot) group =
  let value_of snap g n =
    match List.find_opt (fun (g', n', _) -> g = g' && n = n') snap with
    | Some (_, _, v) -> v
    | None -> 0
  in
  List.fold_left
    (fun acc (g, n, v) -> if g = group then acc + v - value_of before g n else acc)
    0 after

let max_delta_group (before : snapshot) (after : snapshot) group =
  let value_of snap g n =
    match List.find_opt (fun (g', n', _) -> g = g' && n = n') snap with
    | Some (_, _, v) -> v
    | None -> 0
  in
  List.fold_left
    (fun acc (g, n, v) ->
      if g = group then Stdlib.max acc (v - value_of before g n) else acc)
    0 after

(* --- Zipf-distributed target selection (popularity skew). --- *)

let zipf_sampler prng ~n ~s =
  let z = Legion_util.Sampler.zipf prng ~n ~s in
  fun () -> Legion_util.Sampler.zipf_draw z

(* --- Table rendering. --- *)

let print_table ~title ~header rows =
  let all = header :: rows in
  let ncols = List.length header in
  let width c =
    List.fold_left (fun acc row -> Stdlib.max acc (String.length (List.nth row c))) 0 all
  in
  let widths = List.init ncols width in
  let pad c s = s ^ String.make (List.nth widths c - String.length s) ' ' in
  let line ch =
    "+" ^ String.concat "+" (List.map (fun w -> String.make (w + 2) ch) widths) ^ "+"
  in
  let render row =
    "| " ^ String.concat " | " (List.mapi pad row) ^ " |"
  in
  Printf.printf "\n%s\n%s\n%s\n%s\n" title (line '-') (render header) (line '-');
  List.iter (fun r -> print_endline (render r)) rows;
  print_endline (line '-')

let fmt_ms t = Printf.sprintf "%.2f" (t *. 1000.0)
let fmt_f f = Printf.sprintf "%.3f" f
let fmt_i = string_of_int

(* --- Machine-readable results for CI artifacts. --- *)

let write_bench_json ~file json =
  Out_channel.with_open_text file (fun oc ->
      output_string oc json;
      output_char oc '\n');
  Printf.printf "wrote %s\n" file

(* --- Environment knobs: an unset or unparsable variable keeps the
   default. --- *)

let env parse name default =
  match Option.bind (Sys.getenv_opt name) parse with
  | Some v -> v
  | None -> default

let env_int = env int_of_string_opt
let env_float = env float_of_string_opt
let env_i64 = env Int64.of_string_opt

(* --- Gates: every false gate is reported, then the harness fails. --- *)

let enforce ~experiment gates =
  match List.filter (fun (_, ok) -> not ok) gates with
  | [] -> ()
  | failed ->
      List.iter
        (fun (name, _) -> Printf.eprintf "%s gate failed: %s\n" experiment name)
        failed;
      exit 1

(* --- Timing one synchronous call in virtual time. --- *)

let timed_call sys ctx ~dst ~meth ~args =
  let t0 = System.now sys in
  let r = Api.call sys ctx ~dst ~meth ~args in
  (r, System.now sys -. t0)
