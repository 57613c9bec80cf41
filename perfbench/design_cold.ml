(* design_cold: the paper's flow from scratch on all three benchmark chips —
   cold Pool.build + Codesign.run + Codesign.verify on the quick budgets and
   2 worker domains.  One operation is one input; a round is the three
   inputs in a seed-drawn order.  The design inputs themselves are fixed
   (PSO seed 42), so the quality metrics compare across runs. *)

open Measure
module Codesign = Mfdft.Codesign
module Pool = Mfdft.Pool
module Chip = Mf_arch.Chip
module Domain_pool = Mf_util.Domain_pool

let inputs = [| ("ivd_chip", "cpa"); ("ra30_chip", "cpa"); ("mrna_chip", "pid") |]
let jobs = 2
let params = Codesign.quick_params
let setup_repeats = 1000

type op = {
  label : string;
  latency : float;
  pool_s : float;
  pool_cpu_s : float;
  run_s : float;
  run_cpu_s : float;
  verify_s : float;
  pool : Pool.t option;
  result : (Codesign.result, Mf_util.Fail.t) result;
  diags : Mf_util.Diag.t list;
}

let load (chip, assay) =
  match (Mf_chips.Benchmarks.by_name chip, Mf_bioassay.Assays.by_name assay) with
  | Some c, Some a -> (Printf.sprintf "%s x %s" chip assay, c, a)
  | _ -> failwith (Printf.sprintf "unknown benchmark input %s x %s" chip assay)

(* Set-up: load and lint the inputs, start the domains. *)
let setup () =
  let loaded = Array.map load inputs in
  Array.iter
    (fun (label, chip, _) ->
      let diags = Mf_verify.Lint.chip chip in
      check (not (Mf_util.Diag.has_errors diags)) "%s: input chip fails lint" label)
    loaded;
  (loaded, Domain_pool.create ~jobs)

let timed f =
  let t0 = now () and c0 = cpu () in
  let v = f () in
  (v, now () -. t0, cpu () -. c0)

let run_op dpool (label, chip, app) =
  let t0 = now () in
  let rng = Mf_util.Rng.create ~seed:params.Codesign.seed in
  let built, pool_s, pool_cpu_s =
    timed (fun () ->
        Pool.build ~size:params.Codesign.pool_size ~node_limit:params.Codesign.ilp_node_limit
          ~domains:dpool ~rng:(Mf_util.Rng.split rng) chip)
  in
  (* Codesign.run skips the rng split Pool.build used, so the result equals
     a run that built its own pool *)
  let result, run_s, run_cpu_s =
    timed (fun () ->
        Result.bind built (fun pool -> Codesign.run ~params ~pool ~domains:dpool chip app))
  in
  let diags, verify_s, _ =
    timed (fun () -> match result with Ok r -> Codesign.verify r | Error _ -> [])
  in
  let latency = now () -. t0 in
  Printf.eprintf "perfbench: %s: %.2f s (pool %.2f, run %.2f, verify %.3f)\n%!" label latency
    pool_s run_s verify_s;
  { label; latency; pool_s; pool_cpu_s; run_s; run_cpu_s; verify_s;
    pool = Result.to_option built; result; diags }

(* Checks made apart from the program's own flow, outside the timed phase. *)
let check_op (_, chip, app) op =
  match op.result with
  | Error _ -> ()
  | Ok r ->
    check (not (Mf_util.Diag.has_errors op.diags)) "%s: Mf_verify rejects the shipped design"
      op.label;
    let reference =
      match Mf_sched.Scheduler.run_reference ~options:params.Codesign.scheduler r.shared app with
      | Ok s -> Some s.Mf_sched.Schedule.makespan
      | Error _ -> None
    in
    check (reference = r.exec_final)
      "%s: reference scheduler gives %s, codesign claims %s" op.label
      (Option.fold ~none:"none" ~some:string_of_int reference)
      (Option.fold ~none:"none" ~some:string_of_int r.exec_final);
    check (r.exec_final <> None) "%s: shipped design cannot run the assay" op.label;
    let ports = Array.map (fun p -> p.Chip.node) (Chip.ports r.shared) in
    let vectors = Mf_testgen.Vectors.vectors r.shared r.suite in
    check (vectors <> []) "%s: empty test suite" op.label;
    List.iter
      (fun v ->
        let open Mf_faults.Vector in
        match v.meters with
        | [ meter ] ->
          check
            (v.source <> meter && Array.mem v.source ports && Array.mem meter ports
            && v.source = (List.hd vectors).source
            && meter = List.hd (List.hd vectors).meters)
            "%s: vector %s leaves the single source/meter pair" op.label v.label
        | _ -> check false "%s: vector %s uses %d meters" op.label v.label (List.length v.meters))
      vectors;
    check (List.length vectors = r.n_vectors_dft) "%s: vector count mismatch" op.label;
    if not (List.mem Codesign.Sharing_fallback r.degradations) then
      check (Chip.n_controls r.shared = Chip.n_controls chip)
        "%s: %d control lines shipped, original chip has %d" op.label
        (Chip.n_controls r.shared) (Chip.n_controls chip)

let run ~seed ~seconds =
  let setup_times = ref [] in
  let loaded, dpool =
    let rec go k =
      let t0 = now () in
      let loaded, dpool = setup () in
      setup_times := (now () -. t0) :: !setup_times;
      if k > 1 then begin
        Domain_pool.shutdown dpool;
        go (k - 1)
      end
      else (loaded, dpool)
    in
    go setup_repeats
  in
  let order = Array.init (Array.length loaded) Fun.id in
  let rng = Mf_util.Rng.create ~seed in
  reset_counters ();
  let rounds =
    rounds ~seconds (fun () ->
        Mf_util.Rng.shuffle rng order;
        let t0 = now () and c0 = cpu () in
        let ops = Array.map (fun i -> (i, run_op dpool loaded.(i))) order in
        (ops, now () -. t0, cpu () -. c0))
  in
  Domain_pool.shutdown dpool;
  let n_rounds = float_of_int (List.length rounds) in
  let all_ops = List.concat_map (fun (ops, _, _) -> Array.to_list ops) rounds in
  List.iter (fun (i, op) -> check_op loaded.(i) op) all_ops;
  let failures =
    List.filter_map
      (fun (_, op) ->
        match op.result with
        | Error f -> Some (op.label ^ ": " ^ Mf_util.Fail.to_string f)
        | Ok _ -> None)
      all_ops
  in
  List.iter (fun msg -> prerr_endline ("perfbench: failed: " ^ msg)) failures;
  (* quality of the shipped designs: one round's sum, identical in every round *)
  let quality (ops, _, _) =
    Array.fold_left
      (fun (e, v, t) (_, op) ->
        match op.result with
        | Ok r ->
          (e + Option.value ~default:0 r.exec_final, v + r.n_dft_valves, t + r.n_vectors_dft)
        | Error _ -> (e, v, t))
      (0, 0, 0) ops
  in
  let q = quality (List.hd rounds) in
  List.iter (fun r -> check (quality r = q) "design quality differs between rounds") rounds;
  let exec, valves, vectors = q in
  let latencies = List.map (fun (_, op) -> op.latency *. 1e3) all_ops in
  let per_op f = sum (List.map (fun (_, op) -> f op) all_ops) /. n_rounds in
  let wall = median (List.map (fun (_, w, _) -> w) rounds) in
  let spans = per_op (fun op -> op.pool_s +. op.run_s +. op.verify_s) in
  let pool_stat f =
    per_op (fun op -> Option.fold ~none:0. ~some:(fun p -> float_of_int (f p)) op.pool)
  in
  let ok_results = List.filter_map (fun (_, op) -> Result.to_option op.result) all_ops in
  {
    attempted = List.length all_ops;
    failed = List.length failures;
    end_to_end =
      [
        m "setup_s" (median !setup_times);
        m "wall_s" wall;
        m "cpu_s" (median (List.map (fun (_, _, c) -> c) rounds));
        m "op_p50_ms" (median latencies);
        (* three operations a round: no tail percentile, the slowest op *)
        m "op_tail_ms" (percentile 100. latencies);
        m "peak_rss_mb" (peak_rss_mb ());
        m "exec_final_s" (float_of_int exec);
        m "dft_valves" (float_of_int valves);
        m "test_vectors" (float_of_int vectors);
      ];
    per_layer =
      [
        m "pool.build_s" (per_op (fun op -> op.pool_s));
        m "pool.build_cpu_s" (per_op (fun op -> op.pool_cpu_s));
        m "pathgen.ilp_s" (prof_seconds "pathgen.ilp_solve" /. n_rounds);
        m "pool.attempts" (pool_stat (fun p -> Array.length (Pool.attempt_objectives p)));
        m "pool.entries" (pool_stat Pool.size);
        m "pool.heuristic_entries"
          (pool_stat (fun p ->
               Array.fold_left
                 (fun n e -> if e.Pool.config.Mf_testgen.Pathgen.degraded then n + 1 else n)
                 0 (Pool.entries p)));
        m "codesign.run_s" (per_op (fun op -> op.run_s));
        m "codesign.pso_s" (prof_seconds "codesign.pso" /. n_rounds);
        m "codesign.pso_cpu_s" (per_op (fun op -> op.run_cpu_s));
        m "codesign.fitness_s" (prof_seconds "codesign.fitness" /. n_rounds);
        m "codesign.evaluations"
          (sum (List.map (fun r -> float_of_int r.Codesign.evaluations) ok_results) /. n_rounds);
        m "verify.design_s" (per_op (fun op -> op.verify_s));
        m "trace.wall_s" (sum (List.map (fun (_, w, _) -> w) rounds) /. n_rounds);
        m "trace.accounted_s" spans;
      ]
      @ solver_counters ~per:n_rounds;
  }
