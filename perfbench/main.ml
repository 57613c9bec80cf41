(* perfbench: one workload per process.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   prints progress on stderr and, as the last line of stdout, one JSON
   object {correct, attempted, failed, metrics}: the end-to-end metrics
   with --trace 0, the per-layer metrics with --trace 1.  A traced run
   re-executes itself with MFDFT_PROF=1 so the program's stage profiler is
   on from process start; an untraced run makes sure it is off. *)

let workloads = [ "design_cold"; "field_repair"; "serve_replay" ]

module Json = Mf_serve.Json

(* The metrics with their units, in order, from BENCHMARK.json at the root
   of the checkout: the list the result is printed against. *)
let spec_metrics key =
  let fail why = failwith ("BENCHMARK.json: " ^ why) in
  let doc =
    match Json.parse (Measure.read_file "BENCHMARK.json") with
    | Ok j -> j
    | Error e -> fail e
  in
  match Json.member key doc with
  | Some (Json.Arr ms) ->
    List.map
      (fun mt ->
        match (Json.str_field "name" mt, Json.str_field "unit" mt) with
        | Some name, Some unit_ -> (name, unit_)
        | _ -> fail ("a " ^ key ^ " metric without name or unit"))
      ms
  | _ -> fail ("no " ^ key ^ " list")

(* The traced spans must cover this share of the traced wall time. *)
let accounting_tolerance = 0.95

let usage () =
  prerr_endline
    ("usage: main.exe --workload {" ^ String.concat "|" workloads
   ^ "} --seed N --seconds S --trace 0|1");
  exit 2

let parse_args argv =
  let rec go acc = function
    | key :: value :: rest when String.length key > 2 && String.sub key 0 2 = "--" ->
      go ((String.sub key 2 (String.length key - 2), value) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let args = go [] (List.tl (Array.to_list argv)) in
  let get k = match List.assoc_opt k args with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some v -> v | None -> usage () in
  let workload = get "workload" in
  if not (List.mem workload workloads) then usage ();
  let trace = match get "trace" with "0" -> false | "1" -> true | _ -> usage () in
  let seconds = int "seconds" in
  if seconds < 1 then usage ();
  (workload, int "seed", float_of_int seconds, trace)

(* Re-execute with the profiler switched to match [trace]. *)
let ensure_profiler ~trace =
  if trace <> Mf_util.Prof.enabled then begin
    let env =
      Array.to_list (Unix.environment ())
      |> List.filter (fun kv -> not (String.starts_with ~prefix:"MFDFT_PROF=" kv))
    in
    let env = if trace then "MFDFT_PROF=1" :: env else env in
    Unix.execve Sys.executable_name Sys.argv (Array.of_list env)
  end

let () =
  let workload, seed, seconds, trace = parse_args Sys.argv in
  ensure_profiler ~trace;
  (* the benchmark measures the program as users run it: no fault injection *)
  if Sys.getenv_opt "MFDFT_CHAOS" <> None then begin
    prerr_endline "perfbench: MFDFT_CHAOS is set; refusing to measure a fault-injected run";
    exit 2
  end;
  let spec = spec_metrics (if trace then "per_layer" else "end_to_end") in
  let steal0, total0 = Measure.host_ticks () in
  Printf.eprintf "perfbench: %s seed %d, %.0f s%s\n%!" workload seed seconds
    (if trace then ", traced" else "");
  let o =
    match workload with
    | "design_cold" -> Design_cold.run ~seed ~seconds
    | "field_repair" -> Field_repair.run ~seed ~seconds
    | _ -> Serve_replay.run ~seed ~seconds ~trace
  in
  let reported = if trace then o.Measure.per_layer else o.Measure.end_to_end in
  List.iter
    (fun mt ->
      if not (List.mem_assoc mt.Measure.name spec) then
        failwith ("metric not listed in BENCHMARK.json: " ^ mt.Measure.name))
    reported;
  (* a workload that does not exercise a layer reports 0 for it *)
  let rows =
    List.map
      (fun (name, unit_) ->
        match List.find_opt (fun mt -> mt.Measure.name = name) reported with
        | Some mt -> (name, unit_, mt.Measure.value)
        | None when trace -> (name, unit_, 0.)
        | None -> failwith ("end-to-end metric not measured: " ^ name))
      spec
  in
  if trace then begin
    let value name = List.assoc name (List.map (fun (n, _, v) -> (n, v)) rows) in
    let wall = value "trace.wall_s" and accounted = value "trace.accounted_s" in
    Measure.check
      (accounted >= accounting_tolerance *. wall)
      "traced spans cover %.1f %% of the traced wall time, under %.0f %%"
      (100. *. accounted /. wall) (100. *. accounting_tolerance)
  end;
  let steal1, total1 = Measure.host_ticks () in
  Printf.eprintf "perfbench: host CPU steal during the run: %.1f %%\n%!"
    (100. *. (steal1 -. steal0) /. Float.max 1. (total1 -. total0));
  if !Measure.check_failures > 0 then
    Printf.eprintf "perfbench: %d check(s) failed\n%!" !Measure.check_failures;
  List.iter (fun (name, unit_, value) -> Printf.printf "%-24s %14.6f %s\n" name value unit_) rows;
  print_endline (Measure.to_json o rows)
