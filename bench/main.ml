(* Reproduction harness: regenerates every table and figure of the paper's
   evaluation (Sec. 5) and runs bechamel micro-benchmarks of the pipelines.

   Usage:
     dune exec bench/main.exe                 -- table1 fig7 fig8 fig9 (quick budgets)
     dune exec bench/main.exe -- table1       -- a single experiment
     dune exec bench/main.exe -- full         -- everything at paper-scale PSO budgets
     dune exec bench/main.exe -- micro        -- bechamel micro-benchmarks
     dune exec bench/main.exe -- ablate       -- design-choice ablations
     dune exec bench/main.exe -- chaos        -- codesign matrix under fault injection
     dune exec bench/main.exe -- verify       -- static-verification overhead vs generation
     dune exec bench/main.exe -- perf         -- LP-core counters, gated vs BENCH_ilp.json
     dune exec bench/main.exe -- perf-baseline -- rewrite the BENCH_ilp.json baseline
     dune exec bench/main.exe -- ilp          -- presolve/cover-cut ablation
     dune exec bench/main.exe -- sched        -- scheduler fast path, gated vs BENCH_sched.json
     dune exec bench/main.exe -- sched-baseline -- rewrite the BENCH_sched.json baseline
     dune exec bench/main.exe -- scale        -- chip-family size sweep, gated vs BENCH_scale.json
     dune exec bench/main.exe -- scale-baseline -- rewrite the BENCH_scale.json baseline
     dune exec bench/main.exe -- repair       -- fault-adaptive retest vs codesign, gated vs BENCH_repair.json
     dune exec bench/main.exe -- repair-baseline -- rewrite the BENCH_repair.json baseline
     dune exec bench/main.exe -- serve        -- serve engine cold/hit/warm, gated vs BENCH_serve.json
     dune exec bench/main.exe -- serve-baseline -- rewrite the BENCH_serve.json baseline

   Absolute times differ from the paper (different workload realisations and
   a simulated substrate); the comparisons that matter are the shapes:
   original vs DFT-without-PSO vs DFT-with-PSO (Table 1), DFT with free
   control beating the original (Fig. 7), original multi-port tests needing
   fewer vectors than single-source single-meter DFT (Fig. 8), and the PSO
   convergence (Fig. 9). *)

module Chip = Mf_arch.Chip
module Assays = Mf_bioassay.Assays
module Benchmarks = Mf_chips.Benchmarks
module Codesign = Mfdft.Codesign
module Domain_pool = Mf_util.Domain_pool
module Pool = Mfdft.Pool
module Pso = Mf_pso.Pso
module Rng = Mf_util.Rng
module Json = Mf_util.Json

(* parallelism of the codesign runs: MFDFT_JOBS if set, else serial (the
   published numbers in EXPERIMENTS.md are wall-clock comparable that way;
   results themselves are identical for any job count) *)
let jobs = if Sys.getenv_opt "MFDFT_JOBS" = None then 1 else Domain_pool.default_jobs ()

let chips = [ "ivd_chip"; "ra30_chip"; "mrna_chip" ]
let assays = [ "ivd"; "pid"; "cpa" ]

(* field values of a gated scenario's baseline entries; walls are kept to
   the microsecond *)
let count n = Json.Num (float_of_int n)
let ms x = Json.Num (Float.round (x *. 1e3) /. 1e3)
let opt_count = function Some m -> count m | None -> count (-1)
let entry name fields = { Mf_bench.name; fields }

let pp_opt ppf = function
  | Some v -> Fmt.pf ppf "%5d" v
  | None -> Fmt.pf ppf "    -"

(* ------------------------------------------------------------------ *)
(* Shared evaluation: one codesign run per chip x assay, pool per chip. *)

type cell = { assay : string; result : (Codesign.result, string) result }

type row = { chip_label : string; cells : cell list }

let evaluate ~params =
  List.map
    (fun chip_name ->
      let chip = Option.get (Benchmarks.by_name chip_name) in
      let rng = Rng.create ~seed:params.Codesign.seed in
      let pool =
        Domain_pool.with_pool ~jobs (fun domains ->
            Pool.build ~size:params.Codesign.pool_size
              ~node_limit:params.Codesign.ilp_node_limit ~domains ~rng chip)
      in
      let count kind =
        Array.to_list (Chip.devices chip)
        |> List.filter (fun (d : Chip.device) -> d.kind = kind)
        |> List.length
      in
      let chip_label =
        Printf.sprintf "%s (%d mixers, %d detectors, %d valves)" (Chip.name chip)
          (count Chip.Mixer) (count Chip.Detector) (Chip.n_valves chip)
      in
      let cells =
        List.map
          (fun assay ->
            let app = Option.get (Assays.by_name assay) in
            let result =
              match pool with
              | Error f -> Error (Mf_util.Fail.to_string f)
              | Ok pool -> (
                  match Codesign.run ~params ~pool chip app with
                  | Ok r -> Ok r
                  | Error f -> Error (Mf_util.Fail.to_string f))
            in
            { assay; result })
          assays
      in
      Format.printf "  [%s done]@." chip_name;
      { chip_label; cells })
    chips

(* ------------------------------------------------------------------ *)
(* Table 1 *)

let print_table1 rows =
  Format.printf "@.== Table 1: Results of DFT Augmentation ==@.";
  Format.printf
    "(per assay, first line: #DFT valves | #valves sharing | flow runtime [s];@.";
  Format.printf
    " second line: exec time original | with DFT no PSO | with DFT + PSO [s])@.@.";
  Format.printf "%-45s" "";
  List.iter (fun a -> Format.printf "| %-19s " (String.uppercase_ascii a)) assays;
  Format.printf "@.";
  List.iter
    (fun row ->
      Format.printf "%-45s" row.chip_label;
      List.iter
        (fun cell ->
          match cell.result with
          | Error _ -> Format.printf "| %-19s " "FAILED"
          | Ok r ->
            Format.printf "| %3d %3d %11.1f " r.Codesign.n_dft_valves r.Codesign.n_shared
              r.Codesign.runtime)
        row.cells;
      Format.printf "@.%-45s" "";
      List.iter
        (fun cell ->
          match cell.result with
          | Error m -> Format.printf "| %-19s " (String.sub m 0 (min 19 (String.length m)))
          | Ok r ->
            Format.printf "| %a %a %a  " pp_opt r.Codesign.exec_original pp_opt
              r.Codesign.exec_dft_no_pso pp_opt r.Codesign.exec_final)
        row.cells;
      Format.printf "@.")
    rows

(* ------------------------------------------------------------------ *)
(* Fig. 7 *)

let print_fig7 rows =
  Format.printf "@.== Figure 7: execution time, original chip vs DFT architecture ==@.";
  Format.printf "   (DFT valves on their own control lines: extra resources, no sharing)@.@.";
  Format.printf "%-14s %-8s %12s %18s@." "chip" "assay" "original[s]" "DFT unshared[s]";
  List.iter
    (fun row ->
      List.iter
        (fun cell ->
          match cell.result with
          | Error _ -> ()
          | Ok r ->
            Format.printf "%-14s %-8s %a        %a%s@."
              (List.nth (String.split_on_char ' ' row.chip_label) 0)
              cell.assay pp_opt r.Codesign.exec_original pp_opt r.Codesign.exec_dft_unshared
              (match (r.Codesign.exec_original, r.Codesign.exec_dft_unshared) with
               | Some o, Some d when d < o -> "   (DFT faster)"
               | Some o, Some d when d = o -> "   (equal)"
               | Some _, Some _ | Some _, None | None, Some _ | None, None -> ""))
        row.cells)
    rows

(* ------------------------------------------------------------------ *)
(* Fig. 8 *)

let print_fig8 rows =
  Format.printf "@.== Figure 8: number of test vectors (and estimated test time) ==@.";
  Format.printf "   (multi-port original chip vs single-source single-meter DFT)@.@.";
  Format.printf "%-14s %10s %12s %10s %12s@." "chip" "orig vecs" "orig time" "DFT vecs"
    "DFT time";
  List.iter2
    (fun chip_name row ->
      let chip = Option.get (Benchmarks.by_name chip_name) in
      let original = Mf_testgen.Multiport.generate chip in
      let n_original =
        original.Mf_testgen.Multiport.n_path_vectors
        + original.Mf_testgen.Multiport.n_cut_vectors
      in
      let layout = Mf_control.Control.synthesize chip in
      let orig_time =
        Mf_testgen.Testtime.total chip layout original.Mf_testgen.Multiport.vectors
      in
      let dft =
        List.filter_map
          (fun cell ->
            match cell.result with
            | Ok r ->
              let aug = r.Codesign.shared in
              let aug_layout = Mf_control.Control.synthesize aug in
              let vectors = Mf_testgen.Vectors.vectors aug r.Codesign.suite in
              Some (r.Codesign.n_vectors_dft, Mf_testgen.Testtime.total aug aug_layout vectors)
            | Error _ -> None)
          row.cells
      in
      let dft_str, dft_time =
        match dft with
        | [] -> ("-", "-")
        | (n, t) :: rest ->
          let n = List.fold_left (fun acc (m, _) -> max acc m) n rest in
          let t = List.fold_left (fun acc (_, u) -> max acc u) t rest in
          (string_of_int n, Printf.sprintf "%.0f" t)
      in
      Format.printf "%-14s %10d %12.0f %10s %12s@." chip_name n_original orig_time dft_str
        dft_time)
    chips rows

(* ------------------------------------------------------------------ *)
(* Fig. 9 *)

let fig9_combos = [ ("ivd_chip", "ivd"); ("ra30_chip", "pid"); ("mrna_chip", "cpa") ]

let index_of x l =
  let rec go i = function
    | [] -> invalid_arg "index_of"
    | y :: rest -> if x = y then i else go (i + 1) rest
  in
  go 0 l

let print_fig9 rows =
  Format.printf "@.== Figure 9: application execution time during PSO iterations ==@.@.";
  List.iter
    (fun (chip_name, assay) ->
      let row = List.nth rows (index_of chip_name chips) in
      let cell = List.find (fun c -> c.assay = assay) row.cells in
      match cell.result with
      | Error m -> Format.printf "%s/%s: %s@." chip_name assay m
      | Ok r ->
        let stride = max 1 (List.length r.Codesign.trace / 20) in
        Format.printf "%s/%s:@.  iter:" chip_name assay;
        List.iteri
          (fun i _ -> if i mod stride = 0 then Format.printf "%7d" (i + 1))
          r.Codesign.trace;
        Format.printf "@.  best:";
        List.iteri
          (fun i v ->
            if i mod stride = 0 then
              if v >= Codesign.invalid_threshold then Format.printf "%7s" "-"
              else Format.printf "%7.0f" v)
          r.Codesign.trace;
        Format.printf "@.")
    fig9_combos

(* ------------------------------------------------------------------ *)
(* Ablations *)

let print_ablations () =
  Format.printf "@.== Ablations ==@.";
  Format.printf "@.-- DFT generation: ILP node budget vs configuration size --@.";
  Format.printf "%-14s %14s %12s %12s@." "chip" "budget[nodes]" "added edges" "paths";
  List.iter
    (fun chip_name ->
      let chip = Option.get (Benchmarks.by_name chip_name) in
      List.iter
        (fun budget ->
          match Mf_testgen.Pathgen.generate ~node_limit:budget chip with
          | Error f ->
            Format.printf "%-14s %14d %s@." chip_name budget (Mf_util.Fail.to_string f)
          | Ok c ->
            Format.printf "%-14s %14d %12d %12d@." chip_name budget
              (List.length c.Mf_testgen.Pathgen.added_edges)
              c.Mf_testgen.Pathgen.n_paths)
        [ 100; 400; 1200 ])
    chips;
  Format.printf "@.-- Stuck-at-1 cuts: forced min-cut generator vs worst-case fallback --@.";
  Format.printf "%-14s %12s %12s@." "chip" "min-cut" "fallback";
  List.iter
    (fun chip_name ->
      let chip = Option.get (Benchmarks.by_name chip_name) in
      match Mf_testgen.Pathgen.generate ~node_limit:400 chip with
      | Error f -> Format.printf "%-14s %s@." chip_name (Mf_util.Fail.to_string f)
      | Ok config ->
        let aug = Mf_testgen.Pathgen.apply chip config in
        let minimal =
          Mf_testgen.Cutgen.generate aug ~source:config.Mf_testgen.Pathgen.src_port
            ~meter:config.Mf_testgen.Pathgen.dst_port
        in
        let fallback =
          Mf_testgen.Cutgen.fallback_cuts aug ~source:config.Mf_testgen.Pathgen.src_port
            ~meter:config.Mf_testgen.Pathgen.dst_port config.Mf_testgen.Pathgen.paths
        in
        Format.printf "%-14s %12d %12d@." chip_name
          (List.length minimal.Mf_testgen.Cutgen.cuts)
          (List.length fallback))
    chips;
  Format.printf "@.-- Control layer: routing cost of valve sharing (refs [12],[14]) --@.";
  Format.printf "%-14s %8s %10s %10s %10s@." "chip" "ports" "length" "max skew" "unrouted";
  List.iter
    (fun chip_name ->
      let chip = Option.get (Benchmarks.by_name chip_name) in
      let layout = Mf_control.Control.synthesize chip in
      Format.printf "%-14s %8d %10d %10.1f %10d@." chip_name
        (Mf_control.Control.n_ports layout)
        (Mf_control.Control.total_length layout)
        (Mf_control.Control.max_skew layout)
        (List.length layout.Mf_control.Control.unrouted);
      match Mf_testgen.Pathgen.generate ~node_limit:400 chip with
      | Error _ -> ()
      | Ok config ->
        let aug = Mf_testgen.Pathgen.apply chip config in
        let free = Mf_control.Control.synthesize aug in
        Format.printf "%-14s %8d %10d %10.1f %10d@."
          (chip_name ^ "+DFT")
          (Mf_control.Control.n_ports free)
          (Mf_control.Control.total_length free)
          (Mf_control.Control.max_skew free)
          (List.length free.Mf_control.Control.unrouted))
    chips;
  Format.printf
    "   (sharing keeps the port count at the original chip's; the price is@.";
  Format.printf
    "    longer trees, actuation skew, and possible planarity failures)@.";
  Format.printf "@.-- Scheduler: distributed channel storage off / washing on --@.";
  Format.printf "%-14s %-8s %12s %14s %12s@." "chip" "assay" "default[s]" "no storage[s]"
    "washing[s]";
  List.iter
    (fun chip_name ->
      let chip = Option.get (Benchmarks.by_name chip_name) in
      List.iter
        (fun assay ->
          let app = Option.get (Assays.by_name assay) in
          let with_storage = Mf_sched.Scheduler.makespan chip app in
          let without =
            Mf_sched.Scheduler.makespan
              ~options:{ Mf_sched.Scheduler.default_options with allow_storage = false }
              chip app
          in
          let washed =
            Mf_sched.Scheduler.makespan
              ~options:{ Mf_sched.Scheduler.default_options with wash = true }
              chip app
          in
          Format.printf "%-14s %-8s %a      %a     %a@." chip_name assay pp_opt with_storage
            pp_opt without pp_opt washed)
        assays)
    chips

(* ------------------------------------------------------------------ *)
(* Serial vs parallel wall clock of the hottest path: one quick codesign
   run per job count, identical seeds — the differential test suite pins
   the outputs equal, here we report the wall-clock ratio. *)

let speedup () =
  let parallel_jobs =
    max 2 (if Sys.getenv_opt "MFDFT_JOBS" = None then Domain_pool.default_jobs () else jobs)
  in
  Format.printf "@.== Codesign speedup: jobs=1 vs jobs=%d (%d core%s available) ==@.@."
    parallel_jobs
    (Domain.recommended_domain_count ())
    (if Domain.recommended_domain_count () = 1 then "" else "s");
  let chip = Option.get (Benchmarks.by_name "ivd_chip") in
  let app = Assays.ivd () in
  let time jobs =
    let params = { Codesign.quick_params with Codesign.jobs } in
    let t0 = Unix.gettimeofday () in
    match Codesign.run ~params chip app with
    | Error f -> failwith (Mf_util.Fail.to_string f)
    | Ok r -> (Unix.gettimeofday () -. t0, (r.Codesign.exec_final, r.Codesign.trace))
  in
  let t_serial, out_serial = time 1 in
  let t_parallel, out_parallel = time parallel_jobs in
  Format.printf "serial      (jobs=1): %6.2f s@." t_serial;
  Format.printf "parallel   (jobs=%2d): %6.2f s@." parallel_jobs t_parallel;
  Format.printf "speedup: %.2fx   outputs identical: %b@."
    (t_serial /. t_parallel)
    (out_serial = out_parallel)

(* ------------------------------------------------------------------ *)
(* Chaos scenario: the full codesign matrix with fault injection enabled.
   Every run must complete — either with a valid (possibly degraded) suite
   or with a typed error — never an uncaught exception. Rate comes from
   MFDFT_CHAOS when exported, else 30%. *)

let chaos_bench () =
  let rate = if Mf_util.Chaos.active () then Mf_util.Chaos.rate () else 0.3 in
  Mf_util.Chaos.set (Some { Mf_util.Chaos.rate; seed = Mf_util.Chaos.default_seed });
  Mf_util.Chaos.reset_counts ();
  Format.printf "@.== Chaos: codesign matrix under %.0f%% fault injection ==@.@."
    (rate *. 100.);
  Format.printf "%-14s %-8s %-10s %-6s %s@." "chip" "assay" "outcome" "valid" "degradations";
  let valid_runs = ref 0 and total = ref 0 in
  List.iter
    (fun chip_name ->
      let chip = Option.get (Benchmarks.by_name chip_name) in
      List.iter
        (fun assay ->
          let app = Option.get (Assays.by_name assay) in
          incr total;
          match Codesign.run ~params:Codesign.quick_params chip app with
          | Error f ->
            Format.printf "%-14s %-8s %-10s %-6s %s@." chip_name assay "error" "-"
              (Mf_util.Fail.to_string f)
          | Ok r ->
            let valid = Mf_testgen.Vectors.is_valid r.Codesign.shared r.Codesign.suite in
            if valid then incr valid_runs;
            Format.printf "%-14s %-8s %-10s %-6b %s@." chip_name assay "completed" valid
              (match r.Codesign.degradations with
               | [] -> "none"
               | ds -> String.concat "; " (List.map Codesign.degradation_to_string ds)))
        assays)
    chips;
  Format.printf "@.%d/%d runs completed with a valid suite; strikes injected:@." !valid_runs
    !total;
  List.iter
    (fun (site, n) -> Format.printf "  %-14s %d@." (Mf_util.Chaos.site_name site) n)
    (Mf_util.Chaos.strikes ());
  Mf_util.Chaos.set None

(* ------------------------------------------------------------------ *)
(* verification overhead: what the independent checker costs relative to
   generating the suite it checks *)

let verify_bench () =
  Format.printf "@.== Verification overhead (lint + certificate re-proof vs generation) ==@.@.";
  Format.printf "%-12s %12s %12s %12s %9s@." "chip" "generate(ms)" "lint(ms)" "verify(ms)"
    "overhead";
  List.iter
    (fun name ->
      let chip = Option.get (Benchmarks.by_name name) in
      let time f =
        let t0 = Unix.gettimeofday () in
        let r = f () in
        (r, (Unix.gettimeofday () -. t0) *. 1e3)
      in
      let (aug, suite), t_gen =
        time (fun () ->
            match Mf_testgen.Pathgen.generate ~node_limit:300 chip with
            | Error f -> failwith (Mf_util.Fail.to_string f)
            | Ok config ->
              let aug = Mf_testgen.Pathgen.apply chip config in
              let cuts =
                Mf_testgen.Cutgen.generate aug ~source:config.Mf_testgen.Pathgen.src_port
                  ~meter:config.Mf_testgen.Pathgen.dst_port
              in
              (aug, Mf_testgen.Vectors.of_config config cuts))
      in
      let report = Mf_testgen.Vectors.validate aug suite in
      let cert =
        Mf_verify.Cert.make ~chip_name:(Chip.name aug)
          ~suite:
            {
              Mf_verify.Cert.source_port = suite.Mf_testgen.Vectors.source_port;
              meter_port = suite.Mf_testgen.Vectors.meter_port;
              path_edges = suite.Mf_testgen.Vectors.path_edges;
              cut_valves = suite.Mf_testgen.Vectors.cut_valves;
            }
          ~claimed_vectors:(Mf_testgen.Vectors.count suite)
          ~claimed_coverage:
            (report.Mf_faults.Coverage.detected, report.Mf_faults.Coverage.total_faults)
          ()
      in
      let lint, t_lint = time (fun () -> Mf_verify.Lint.chip aug) in
      let diags, t_verify = time (fun () -> Mf_verify.Verify.certificate aug cert) in
      if Mf_util.Diag.has_errors (lint @ diags) then
        failwith (name ^ ": verification found errors on a clean suite");
      Format.printf "%-12s %12.1f %12.2f %12.2f %8.1f%%@." name t_gen t_lint t_verify
        ((t_lint +. t_verify) /. t_gen *. 100.))
    Benchmarks.names

(* ------------------------------------------------------------------ *)
(* Perf-regression harness for the LP core: one pool build per benchmark
   chip (the ILP-heavy stage feeding every chip x assay codesign run),
   counters from the process-wide solver telemetry, machine-readable
   output gated against the committed BENCH_ilp.json baseline. *)

let perf ~write_baseline () =
  Format.printf "@.== Perf: LP core on the pool-build matrix (pools are per-chip; each@.";
  Format.printf "   feeds all of ivd/pid/cpa) — %d job%s ==@.@." jobs (if jobs = 1 then "" else "s");
  Format.printf "%-12s %10s %10s %8s %7s %7s %7s %7s@." "chip" "wall[ms]" "pivots" "dual"
    "nodes" "warm%" "cache" "phase1";
  let params = Codesign.quick_params in
  let entries =
    List.map
      (fun chip_name ->
        let chip = Option.get (Benchmarks.by_name chip_name) in
        Mf_lp.Simplex.Stats.reset ();
        Mf_ilp.Ilp.Stats.reset ();
        let rng = Rng.create ~seed:params.Codesign.seed in
        let t0 = Unix.gettimeofday () in
        let pool =
          Domain_pool.with_pool ~jobs (fun domains ->
              Pool.build ~size:params.Codesign.pool_size
                ~node_limit:params.Codesign.ilp_node_limit ~domains ~rng chip)
        in
        let wall_ms = (Unix.gettimeofday () -. t0) *. 1e3 in
        let objectives =
          match pool with
          | Error _ -> []
          | Ok pool -> Array.to_list (Pool.attempt_objectives pool)
        in
        let pivots = Mf_lp.Simplex.Stats.pivots () in
        let get = Atomic.get in
        let dual = get Mf_lp.Simplex.Stats.dual_pivots
        and nodes = get Mf_ilp.Ilp.Stats.nodes
        and eligible = get Mf_ilp.Ilp.Stats.warm_eligible
        and taken = get Mf_ilp.Ilp.Stats.warm_taken
        and cache = get Mf_ilp.Ilp.Stats.cache_hits
        and phase1 = get Mf_lp.Simplex.Stats.phase1_solves in
        Format.printf "%-12s %10.0f %10d %8d %7d %6.1f%% %7d %7d@." chip_name wall_ms pivots dual
          nodes
          (if eligible = 0 then 0. else 100. *. float_of_int taken /. float_of_int eligible)
          cache phase1;
        entry chip_name
          [
            ("wall_ms", ms wall_ms);
            ("pivots", count pivots);
            ("dual_pivots", count dual);
            ("nodes", count nodes);
            ("warm_eligible", count eligible);
            ("warm_taken", count taken);
            ("cache_hits", count cache);
            ("phase1_solves", count phase1);
            ("presolve_fixed", count (get Mf_ilp.Ilp.Stats.presolve_fixed));
            ("cover_cuts", count (get Mf_ilp.Ilp.Stats.cover_cuts));
            ( "objectives",
              Json.Arr
                (List.map (function None -> Json.Null | Some o -> Json.Num o) objectives) );
          ])
      chips
  in
  Mf_bench.gate Mf_bench.ilp ~jobs ~write_baseline entries

(* ------------------------------------------------------------------ *)
(* ILP root reductions: the presolve / cover-cut ablation over the
   path-synthesis ILP on every benchmark chip and over a knapsack corpus,
   reporting the node-count effect at equal objectives.  Report-only: the
   gated counters live in [perf] / BENCH_ilp.json. *)

let ilp_ablation () =
  Format.printf "@.== ILP: presolve + cover-cut ablation ==@.";
  let run ?presolve ?cuts chip = Mf_testgen.Pathgen.generate ~node_limit:400 ?presolve ?cuts chip in
  let mismatches = ref [] in
  Format.printf "@.-- presolve + cover cuts: explored nodes at equal objectives --@.";
  Format.printf "%-12s %10s %10s %10s %10s@." "chip" "nodes on" "nodes off" "reduction"
    "objective";
  List.iter
    (fun chip_name ->
      let chip = Option.get (Benchmarks.by_name chip_name) in
      let on = run chip in
      let off = run ~presolve:false ~cuts:false chip in
      match (on, off) with
      | Ok on, Ok off ->
        let obj c = List.length c.Mf_testgen.Pathgen.added_edges in
        let n_on = on.Mf_testgen.Pathgen.ilp_nodes
        and n_off = off.Mf_testgen.Pathgen.ilp_nodes in
        let red = 100. *. (1. -. (float_of_int n_on /. float_of_int (max 1 n_off))) in
        if obj on <> obj off then
          mismatches := Printf.sprintf "%s: objective drifted under presolve/cuts (%d vs %d)"
                          chip_name (obj on) (obj off) :: !mismatches;
        Format.printf "%-12s %10d %10d %9.1f%% %10s@." chip_name n_on n_off red
          (if obj on = obj off then Printf.sprintf "%d = %d" (obj on) (obj off)
           else Printf.sprintf "%d <> %d!" (obj on) (obj off))
      | (Error f, _ | _, Error f) ->
        mismatches := Printf.sprintf "%s: ablation run failed: %s" chip_name
                        (Mf_util.Fail.to_string f) :: !mismatches)
    chips;
  (* the path-synthesis rows are unit-coefficient covering constraints, so
     knapsack covers never separate there and the node counts above are
     budget-pinned; this corpus has the coefficient spread the cover cuts
     target, and the search runs to proven optimality *)
  Format.printf "@.-- presolve + extended cover cuts on a knapsack corpus (12 models) --@.";
  let tot_on = ref 0 and tot_off = ref 0 in
  for seed = 1 to 12 do
    let build () =
      let rng = Rng.create ~seed in
      let n = 18 + Rng.int rng 6 in
      let ilp = Mf_ilp.Ilp.create () in
      let vars =
        Array.init n (fun _ ->
            Mf_ilp.Ilp.add_binary ~obj:(-.float_of_int (1 + Rng.int rng 9)) ilp)
      in
      let m = 4 + Rng.int rng 3 in
      for _ = 1 to m do
        let terms =
          Array.to_list
            (Array.map (fun v -> (float_of_int (1 + Rng.int rng 7), v)) vars)
        in
        let total = List.fold_left (fun a (c, _) -> a +. c) 0. terms in
        Mf_ilp.Ilp.add_row ilp terms Mf_ilp.Ilp.Le (0.35 *. total)
      done;
      ilp
    in
    let run reductions =
      let ilp = build () in
      match
        Mf_ilp.Ilp.solve ~node_limit:200_000 ~presolve:reductions ~cuts:reductions ilp
      with
      | Mf_ilp.Ilp.Optimal { objective; _ } ->
        Some (objective, (Mf_ilp.Ilp.last_stats ilp).Mf_ilp.Ilp.rs_nodes)
      | _ -> None
    in
    match (run true, run false) with
    | Some (o_on, n_on), Some (o_off, n_off) ->
      if o_on <> o_off then
        mismatches :=
          Printf.sprintf "knapsack %d: objective drifted under presolve/cuts" seed
          :: !mismatches;
      tot_on := !tot_on + n_on;
      tot_off := !tot_off + n_off
    | _ ->
      mismatches := Printf.sprintf "knapsack %d: not solved to optimality" seed :: !mismatches
  done;
  Format.printf "nodes with reductions %d, without %d: %.1f%% fewer at equal objectives@."
    !tot_on !tot_off
    (100. *. (1. -. (float_of_int !tot_on /. float_of_int (max 1 !tot_off))));
  match !mismatches with
  | [] -> Format.printf "@.ilp ablation: PASS (objectives equal with and without reductions)@."
  | ms ->
    Format.printf "@.ilp ablation: FAIL@.";
    List.iter (fun m -> Format.printf "  - %s@." m) (List.rev ms);
    exit 1

(* ------------------------------------------------------------------ *)
(* Scheduler fast-path benchmark: (1) differential matrix — the cached
   bitset/CSR fast path vs the first-principles reference on every
   benchmark chip x assay, makespans pinned equal; (2) the codesign fitness
   loop — one ivd_chip x cpa run with a prebuilt pool.  Gated against the
   committed BENCH_sched.json (wall tolerance as the LP gate; any
   makespan/objective mismatch fails). *)

module Scheduler = Mf_sched.Scheduler

let sched ~write_baseline () =
  Format.printf "@.== Sched: scheduler fast path vs reference, and codesign fitness ==@.@.";
  let entries = ref [] in
  let hard_failures = ref [] in
  let now = Unix.gettimeofday in
  (* part 1: simulation matrix *)
  Format.printf "%-12s %-6s %9s %10s %10s %8s %8s %8s@." "chip" "assay" "makespan" "fast[ms]"
    "ref[ms]" "speedup" "steps" "routes";
  List.iter
    (fun chip_name ->
      let chip = Option.get (Benchmarks.by_name chip_name) in
      let prep = Mf_sched.Prep.of_chip chip in
      List.iter
        (fun assay ->
          let app = Option.get (Assays.by_name assay) in
          let s0 = Scheduler.Stats.snapshot () in
          let fast_m = Scheduler.makespan ~prep chip app in
          let s1 = Scheduler.Stats.snapshot () in
          let steps = s1.Scheduler.Stats.steps - s0.Scheduler.Stats.steps in
          let routes = s1.Scheduler.Stats.routes - s0.Scheduler.Stats.routes in
          let reps = 10 in
          let t0 = now () in
          for _ = 1 to reps do
            ignore (Scheduler.makespan ~prep chip app)
          done;
          let fast_ms = (now () -. t0) *. 1e3 /. float_of_int reps in
          let t0 = now () in
          let ref_m =
            match Scheduler.run_reference chip app with
            | Ok s -> Some s.Mf_sched.Schedule.makespan
            | Error _ -> None
          in
          let ref_ms = (now () -. t0) *. 1e3 in
          if fast_m <> ref_m then
            hard_failures :=
              Printf.sprintf "%s/%s: fast makespan %s <> reference %s" chip_name assay
                (match fast_m with Some m -> string_of_int m | None -> "-")
                (match ref_m with Some m -> string_of_int m | None -> "-")
              :: !hard_failures;
          Format.printf "%-12s %-6s %9s %10.3f %10.3f %7.1fx %8d %8d@." chip_name assay
            (match fast_m with Some m -> string_of_int m | None -> "-")
            fast_ms ref_ms (ref_ms /. fast_ms) steps routes;
          entries :=
            entry (chip_name ^ "/" ^ assay)
              [
                ("wall_ms", ms fast_ms);
                ("makespan", opt_count fast_m);
                ("steps", count steps);
                ("routes", count routes);
              ]
            :: !entries)
        assays)
    chips;
  (* part 2: the PSO fitness hot loop — one full codesign run on the
     scheduler-bound pair *)
  let chip = Option.get (Benchmarks.by_name "ivd_chip") in
  let app = Option.get (Assays.by_name "cpa") in
  let params = { Codesign.quick_params with Codesign.jobs = 1 } in
  let pool =
    let rng = Rng.create ~seed:params.Codesign.seed in
    Domain_pool.with_pool ~jobs (fun domains ->
        Pool.build ~size:params.Codesign.pool_size ~node_limit:params.Codesign.ilp_node_limit
          ~domains ~rng chip)
  in
  (match pool with
   | Error f -> hard_failures := ("pool build failed: " ^ Mf_util.Fail.to_string f) :: !hard_failures
   | Ok pool ->
     let s0 = Scheduler.Stats.snapshot () in
     let t0 = now () in
     let r = Codesign.run ~params ~pool chip app in
     let wall = (now () -. t0) *. 1e3 in
     let s1 = Scheduler.Stats.snapshot () in
     let steps = s1.Scheduler.Stats.steps - s0.Scheduler.Stats.steps in
     (match r with
      | Ok r ->
        Format.printf
          "@.codesign ivd_chip/cpa (quick, jobs=1, prebuilt pool): %.0f ms (%d event-loop \
           steps)@."
          wall steps;
        entries :=
          entry "codesign:ivd_chip/cpa"
            [
              ("wall_ms", ms wall);
              ("makespan", opt_count r.Codesign.exec_final);
              ("steps", count steps);
              ("routes", count (s1.Scheduler.Stats.routes - s0.Scheduler.Stats.routes));
            ]
          :: !entries
      | Error f ->
        hard_failures := ("codesign failed: " ^ Mf_util.Fail.to_string f) :: !hard_failures));
  Mf_bench.gate Mf_bench.sched ~checks:(List.rev !hard_failures) ~jobs ~write_baseline
    (List.rev !entries)

(* ------------------------------------------------------------------ *)
(* Family scaling sweep: makespan simulation and ILP path synthesis wall
   clock versus chip size, across every family in [Mf_chips.Families] —
   the first evidence the pipeline behaves off the 3-chip benchmark
   manifold.  Chip and assay are a pure function of (family, size), so
   every non-wall column is deterministic and gated exactly against
   BENCH_scale.json. *)

module Families = Mf_chips.Families
module Synth_assay = Mf_bioassay.Synth_assay

let scale_point (f : Families.family) size =
  let salt =
    match f.Families.name with "ring" -> 1 | "fpva" -> 2 | "storage" -> 3 | _ -> 9
  in
  let rng = Rng.create ~seed:(7000 + (1000 * salt) + size) in
  let chip = f.Families.generate_size ~size rng in
  let profile =
    match f.Families.profile with
    | Families.Balanced -> Synth_assay.Balanced
    | Families.Storage_pressure -> Synth_assay.Storage_pressure
  in
  let spec = Synth_assay.spec_of_size ~profile (f.Families.assay_ops ~size) in
  let app = Synth_assay.generate ~spec rng in
  let now = Unix.gettimeofday in
  let prep = Mf_sched.Prep.of_chip chip in
  let makespan = Mf_sched.Scheduler.makespan ~prep chip app in
  let reps = 5 in
  let t0 = now () in
  for _ = 1 to reps do
    ignore (Mf_sched.Scheduler.makespan ~prep chip app)
  done;
  let sched_ms = (now () -. t0) *. 1e3 /. float_of_int reps in
  let t0 = now () in
  let path = Mf_testgen.Pathgen.generate ~node_limit:400 chip in
  let ilp_ms = (now () -. t0) *. 1e3 in
  let added, paths =
    match path with
    | Ok c -> (List.length c.Mf_testgen.Pathgen.added_edges, c.Mf_testgen.Pathgen.n_paths)
    | Error _ -> (-1, -1)
  in
  let count_channels chip =
    let n = ref 0 in
    Mf_graph.Graph.iter_edges
      (fun e _ _ -> if Chip.is_channel chip e then incr n)
      (Mf_grid.Grid.graph (Chip.grid chip));
    !n
  in
  let name = Printf.sprintf "%s/%d" f.Families.name size in
  let channels = count_channels chip and valves = Chip.n_valves chip in
  Format.printf "%-12s %9d %8d %10.2f %10d %10.0f %7d %7d@." name channels valves sched_ms
    (Option.value ~default:(-1) makespan) ilp_ms added paths;
  entry name
    [
      ("channels", count channels);
      ("valves", count valves);
      ("sched_ms", ms sched_ms);
      ("makespan", opt_count makespan);
      ("ilp_ms", ms ilp_ms);
      ("added", count added);
      ("paths", count paths);
    ]

let scale ~write_baseline () =
  Format.printf "@.== Scale: makespan / ILP wall clock vs chip size, per family ==@.@.";
  Format.printf "%-12s %9s %8s %10s %10s %10s %7s %7s@." "family/size" "channels" "valves"
    "sched[ms]" "makespan" "ilp[ms]" "added" "paths";
  let entries =
    List.concat_map
      (fun (f : Families.family) -> List.map (scale_point f) f.Families.sweep_sizes)
      Families.all
  in
  Mf_bench.gate Mf_bench.scale ~jobs ~write_baseline entries

(* ------------------------------------------------------------------ *)
(* Fault-adaptive repair vs full codesign: every benchmark chip x assay —
   plus one fpva and one storage family point — runs the codesign flow
   once, injects a single seed-stable valve fault on the deployed (shared)
   chip, and repairs the certified suite incrementally with
   [Mf_repair.Reconfig].  The gate proves the headline claim: repair is at
   least [repair_min_speedup]x cheaper than re-running codesign, the
   repaired suite re-certifies with zero errors, and every deterministic
   count matches BENCH_repair.json exactly.  Codesign is timed with a
   prebuilt pool, so the speedup understates what a redeployment (pool
   included) would cost — the gate errs against the claim. *)

module Reconfig = Mf_repair.Reconfig

let repair_min_speedup = 10.

let repair_bench ~write_baseline () =
  Format.printf "@.== Repair: incremental fault-adaptive retest vs full codesign ==@.@.";
  let params = { Codesign.quick_params with Codesign.jobs } in
  let entries = ref [] in
  let hard_failures = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> hard_failures := m :: !hard_failures) fmt in
  let now = Unix.gettimeofday in
  Format.printf "%-16s %10s %11s %8s %8s %6s %9s %7s@." "point" "full[ms]" "repair[ms]"
    "speedup" "dropped" "added" "coverage" "waived";
  let run_point name ~pool chip app =
    let t0 = now () in
    match Codesign.run ~params ~pool chip app with
    | Error f -> fail "%s: codesign failed: %s" name (Mf_util.Fail.to_string f)
    | Ok r ->
      let full_ms = (now () -. t0) *. 1e3 in
      let deployed = r.Codesign.shared in
      let fault =
        match
          Mf_util.Chaos.sample_sites ~seed:params.Codesign.seed ~count:1
            ~n_sites:(Chip.n_valves deployed)
        with
        | v :: _ -> Mf_faults.Fault.Stuck_at_1 v
        | [] -> assert false (* every deployed chip carries valves *)
      in
      let t0 = now () in
      let rp =
        Reconfig.repair
          ~params:
            { Reconfig.default_params with Reconfig.seed = params.Codesign.seed; jobs }
          ~app
          ~sharing:(r.Codesign.augmented, r.Codesign.sharing)
          deployed r.Codesign.suite [ fault ]
      in
      let repair_ms = (now () -. t0) *. 1e3 in
      (match rp with
       | Error f -> fail "%s: repair failed: %s" name (Mf_util.Fail.to_string f)
       | Ok rr ->
         let n_err, _ = Mf_util.Diag.count rr.Reconfig.diags in
         if n_err > 0 then fail "%s: repaired suite re-certified with %d error(s)" name n_err;
         let speedup = full_ms /. repair_ms in
         if speedup < repair_min_speedup then
           fail "%s: repair only %.1fx cheaper than full codesign (gate: %.0fx)" name speedup
             repair_min_speedup;
         let st = rr.Reconfig.stats in
         let cov = rr.Reconfig.coverage in
         Format.printf "%-16s %10.0f %11.1f %7.0fx %8d %6d %5d/%-3d %7d@." name full_ms
           repair_ms speedup st.Reconfig.damaged st.Reconfig.added
           cov.Mf_faults.Coverage.detected cov.Mf_faults.Coverage.total_faults
           (List.length rr.Reconfig.untestable);
         entries :=
           entry name
             [
               ("full_ms", ms full_ms);
               ("repair_ms", ms repair_ms);
               ("dropped", count st.Reconfig.damaged);
               ("added", count st.Reconfig.added);
               ("detected", count cov.Mf_faults.Coverage.detected);
               ("total", count cov.Mf_faults.Coverage.total_faults);
               ("vectors", count (Mf_testgen.Vectors.count rr.Reconfig.suite));
               ("waived", count (List.length rr.Reconfig.untestable));
               ("makespan", opt_count rr.Reconfig.exec_after);
             ]
           :: !entries)
  in
  let with_pool chip k =
    let rng = Rng.create ~seed:params.Codesign.seed in
    let pool =
      Domain_pool.with_pool ~jobs (fun domains ->
          Pool.build ~size:params.Codesign.pool_size
            ~node_limit:params.Codesign.ilp_node_limit ~domains ~rng chip)
    in
    match pool with
    | Error f -> fail "%s: pool build failed: %s" (Chip.name chip) (Mf_util.Fail.to_string f)
    | Ok pool -> k pool
  in
  List.iter
    (fun chip_name ->
      let chip = Option.get (Benchmarks.by_name chip_name) in
      with_pool chip (fun pool ->
          List.iter
            (fun assay ->
              let app = Option.get (Assays.by_name assay) in
              run_point (chip_name ^ "/" ^ assay) ~pool chip app)
            assays))
    chips;
  (* one point off the benchmark manifold per synthesized family, at its
     smallest sweep size; chip and assay are pure functions of (family,
     size), same salts as the scale sweep *)
  List.iter
    (fun (fname, size) ->
      let f = Option.get (Families.by_name fname) in
      let salt = match fname with "ring" -> 1 | "fpva" -> 2 | "storage" -> 3 | _ -> 9 in
      let rng = Rng.create ~seed:(7000 + (1000 * salt) + size) in
      let chip = f.Families.generate_size ~size rng in
      let profile =
        match f.Families.profile with
        | Families.Balanced -> Synth_assay.Balanced
        | Families.Storage_pressure -> Synth_assay.Storage_pressure
      in
      let spec = Synth_assay.spec_of_size ~profile (f.Families.assay_ops ~size) in
      let app = Synth_assay.generate ~spec rng in
      with_pool chip (fun pool ->
          run_point (Printf.sprintf "%s/%d" fname size) ~pool chip app))
    [ ("fpva", 5); ("storage", 6) ];
  Mf_bench.gate Mf_bench.repair ~checks:(List.rev !hard_failures) ~jobs ~write_baseline
    (List.rev !entries)

(* ------------------------------------------------------------------ *)
(* Serve-mode engine benchmark: the daemon's value proposition in numbers
   — cold codesign solves through the job engine, cache-hit service
   latency for identical resubmissions, and resubmission throughput
   against a warm cache.  Three self-gates run on the current numbers
   alone (every hit at least [serve_min_hit_ratio]x under its cold solve;
   cached payloads byte-identical to the cold payload; an independent
   second engine's cold solve byte-identical to the first); then
   fingerprints, result digests and wall clocks are gated against the
   committed BENCH_serve.json. *)

module Engine = Mf_serve.Engine
module Sproto = Mf_serve.Protocol
module Scache = Mf_serve.Cache

let serve_pairs = [ ("ivd_chip", "ivd"); ("ra30_chip", "pid"); ("mrna_chip", "cpa") ]
let serve_min_hit_ratio = 100.

let serve_bench ~write_baseline () =
  Format.printf "@.== Serve: engine cold solves vs cache hits vs warm resubmission ==@.@.";
  let hard_failures = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> hard_failures := m :: !hard_failures) fmt in
  let now = Unix.gettimeofday in
  let rec rm path =
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path
  in
  let fresh_dir tag =
    let dir =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "mfdft-bench-serve-%d-%s" (Unix.getpid ()) tag)
    in
    if Sys.file_exists dir then rm dir;
    dir
  in
  let spec chip assay =
    {
      Sproto.chip = Sproto.Name chip;
      assay = Sproto.Name assay;
      options = Mf_serve.Fingerprint.default_options;
      priority = 0;
      deadline = None;
      wait = true;
    }
  in
  let digest_of payload =
    match Json.parse payload with
    | Ok j -> (match Json.str_field "result_digest" j with Some d -> d | None -> "?")
    | Error _ -> "?"
  in
  (* one cold solve through the engine, timed from submit to outcome *)
  let solve_cold eng s name =
    let outcome = ref None in
    let t0 = now () in
    match Engine.submit eng s ~on_event:ignore ~on_done:(fun o -> outcome := Some o) with
    | Error msg ->
      fail "%s: submit refused: %s" name msg;
      None
    | Ok (_, Engine.Cached _) ->
      fail "%s: expected a cold solve, got a cache hit" name;
      None
    | Ok (fp, (Engine.Enqueued _ | Engine.Joined _)) ->
      (match Engine.run_next eng with `Ran -> () | `Idle -> ());
      let wall_ms = (now () -. t0) *. 1e3 in
      (match !outcome with
       | Some (Engine.Payload p) -> Some (fp, p, wall_ms)
       | Some (Engine.Failed msg) ->
         fail "%s: solve failed: %s" name msg;
         None
       | Some Engine.Checkpointed ->
         fail "%s: solve checkpointed without a stop request" name;
         None
       | None ->
         fail "%s: no outcome delivered after run_next" name;
         None)
  in
  let state_dir = fresh_dir "main" in
  let eng = Engine.create ~jobs ~state_dir () in
  Format.printf "%-16s %10s %10s %9s  %s@." "point" "cold[ms]" "hit[ms]" "ratio" "digest";
  let entries =
    List.filter_map
      (fun (chip, assay) ->
        let name = chip ^ "/" ^ assay in
        let s = spec chip assay in
        match solve_cold eng s name with
        | None -> None
        | Some (fp, cold_payload, cold_ms) ->
          (* hit latency: identical resubmissions must be served from the
             store, byte-identical, without running anything *)
          let reps = 25 in
          let hits = ref [] in
          let t0 = now () in
          for _ = 1 to reps do
            match Engine.submit eng s ~on_event:ignore ~on_done:ignore with
            | Ok (_, Engine.Cached p) -> hits := p :: !hits
            | Ok (_, (Engine.Enqueued _ | Engine.Joined _)) ->
              fail "%s: resubmission was not served from the cache" name
            | Error msg -> fail "%s: resubmission refused: %s" name msg
          done;
          let hit_ms = (now () -. t0) *. 1e3 /. float_of_int reps in
          List.iter
            (fun p ->
              if p <> cold_payload then
                fail "%s: cached payload differs from the cold payload" name)
            !hits;
          let ratio = cold_ms /. hit_ms in
          if ratio < serve_min_hit_ratio then
            fail "%s: cache hit only %.0fx under cold (gate: %.0fx)" name ratio
              serve_min_hit_ratio;
          let digest = digest_of cold_payload in
          Format.printf "%-16s %10.0f %10.3f %8.0fx  %s@." name cold_ms hit_ms ratio digest;
          Some
            ( entry name
                [
                  ("fingerprint", Json.Str fp);
                  ("digest", Json.Str digest);
                  ("cold_ms", ms cold_ms);
                  ("hit_ms", ms hit_ms);
                ],
              cold_payload,
              s ))
      serve_pairs
  in
  (* byte-identity across engines: a second engine with its own empty
     cache (and jobs=1, exercising the cross-parallelism claim when
     MFDFT_JOBS is exported) must reproduce the first payload line *)
  (match entries with
   | ({ Mf_bench.name = v_name; _ }, cold_payload, _) :: _ ->
     let chip, assay = List.hd serve_pairs in
     let dir2 = fresh_dir "indep" in
     let eng2 = Engine.create ~jobs:1 ~state_dir:dir2 () in
     (match solve_cold eng2 (spec chip assay) (v_name ^ " (independent engine)") with
      | Some (_, p2, _) ->
        if p2 <> cold_payload then
          fail "%s: independent cold solve produced a different payload line" v_name
        else Format.printf "@.independent engine reproduced %s byte-identically@." v_name
      | None -> ());
     Engine.shutdown eng2;
     rm dir2
   | [] -> ());
  (* warm throughput: every solved pair resubmitted round-robin against
     the now-warm cache — the daemon's steady state for repeated work.
     Individual hits are tens of microseconds, so the phase runs for a
     fixed wall window to keep the jobs/s estimate stable enough for the
     25% gate. *)
  let warm_window = 0.2 in
  let served = ref 0 in
  let t0 = now () in
  while entries <> [] && now () -. t0 < warm_window do
    List.iter
      (fun ((e : Mf_bench.entry), _, s) ->
        match Engine.submit eng s ~on_event:ignore ~on_done:ignore with
        | Ok (_, Engine.Cached _) -> incr served
        | Ok (_, (Engine.Enqueued _ | Engine.Joined _)) | Error _ ->
          fail "warm phase: %s not served from the cache" e.Mf_bench.name)
      entries
  done;
  let warm_wall = max 1e-6 (now () -. t0) in
  let warm_jobs_per_s = float_of_int !served /. warm_wall in
  Format.printf "@.warm throughput: %d resubmissions in %.0f ms -> %.1f jobs/s@." !served
    (warm_wall *. 1e3) warm_jobs_per_s;
  let st = Engine.stats eng in
  Format.printf "engine: %d solve(s), %d join(s); cache: %d mem / %d disk hit(s), %d miss(es), %d corrupt@."
    st.Engine.solves st.Engine.joins st.Engine.cache.Scache.mem_hits
    st.Engine.cache.Scache.disk_hits st.Engine.cache.Scache.misses
    st.Engine.cache.Scache.corrupt;
  Engine.shutdown eng;
  rm state_dir;
  let warm = entry "warm" [ ("warm_jobs_per_s", Json.Num warm_jobs_per_s) ] in
  Mf_bench.gate Mf_bench.serve ~checks:(List.rev !hard_failures) ~jobs ~write_baseline
    (List.map (fun (e, _, _) -> e) entries @ [ warm ])

(* ------------------------------------------------------------------ *)
(* bechamel micro-benchmarks *)

let micro () =
  let open Bechamel in
  let open Toolkit in
  let ivd = Option.get (Benchmarks.by_name "ivd_chip") in
  let app = Assays.ivd () in
  let config =
    match Mf_testgen.Pathgen.generate ~node_limit:300 ivd with
    | Ok c -> c
    | Error f -> failwith (Mf_util.Fail.to_string f)
  in
  let aug = Mf_testgen.Pathgen.apply ivd config in
  let suite =
    Mf_testgen.Vectors.of_config config
      (Mf_testgen.Cutgen.generate aug ~source:config.Mf_testgen.Pathgen.src_port
         ~meter:config.Mf_testgen.Pathgen.dst_port)
  in
  let tests =
    [
      Test.make ~name:"pathgen-ivd" (Staged.stage (fun () ->
          ignore (Mf_testgen.Pathgen.generate ~node_limit:100 ivd)));
      Test.make ~name:"cutgen-ivd" (Staged.stage (fun () ->
          ignore
            (Mf_testgen.Cutgen.generate aug ~source:config.Mf_testgen.Pathgen.src_port
               ~meter:config.Mf_testgen.Pathgen.dst_port)));
      Test.make ~name:"fault-sim-validate-ivd" (Staged.stage (fun () ->
          ignore (Mf_testgen.Vectors.validate aug suite)));
      Test.make ~name:"schedule-ivd-on-ivd-chip" (Staged.stage (fun () ->
          ignore (Mf_sched.Scheduler.makespan ivd app)));
      Test.make ~name:"pso-100-evals-sphere" (Staged.stage (fun () ->
          let rng = Rng.create ~seed:1 in
          ignore
            (Pso.run
               ~params:{ Pso.default_params with particles = 5; iterations = 19 }
               ~rng ~dim:8
               ~batch_fitness:(Array.map (fun x -> Array.fold_left (fun a v -> a +. (v *. v)) 0. x))
               ())));
      Test.make ~name:"multiport-vectors-ivd" (Staged.stage (fun () ->
          ignore (Mf_testgen.Multiport.generate ivd)));
    ]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:100 ~quota:(Time.second 0.5) () in
  Format.printf "@.== Micro-benchmarks (bechamel, monotonic clock) ==@.@.";
  List.iter
    (fun test ->
      let results = Benchmark.all cfg instances test in
      let analyzed =
        Analyze.all
          (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |])
          Instance.monotonic_clock results
      in
      Hashtbl.iter
        (fun name ols ->
          match Analyze.OLS.estimates ols with
          | Some (est :: _) -> Format.printf "%-30s %14.0f ns/run@." name est
          | Some [] | None -> Format.printf "%-30s (no estimate)@." name)
        analyzed)
    tests;
  speedup ()

(* ------------------------------------------------------------------ *)

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let args = if args = [] then [ "table1"; "fig7"; "fig8"; "fig9" ] else args in
  let full = List.mem "full" args in
  let params =
    { (if full then Codesign.default_params else Codesign.quick_params) with Codesign.jobs }
  in
  let wants name =
    full || List.mem name args || List.mem "all" args
  in
  let needs_rows =
    full
    || List.exists (fun a -> List.mem a args) [ "table1"; "fig7"; "fig8"; "fig9"; "all" ]
  in
  Format.printf
    "mfdft reproduction harness (%s PSO budgets: %d outer x %d inner iterations, %d job%s)@."
    (if full then "paper-scale" else "quick")
    params.Codesign.outer.Pso.iterations params.Codesign.inner.Pso.iterations jobs
    (if jobs = 1 then "" else "s");
  let rows = if needs_rows then evaluate ~params else [] in
  if needs_rows && wants "table1" then print_table1 rows;
  if needs_rows && wants "fig7" then print_fig7 rows;
  if needs_rows && wants "fig8" then print_fig8 rows;
  if needs_rows && wants "fig9" then print_fig9 rows;
  if wants "ablate" then print_ablations ();
  (* perf is explicit-only: its regression gate compares wall-clock against
     a committed baseline and exits nonzero on failure *)
  if List.mem "perf" args then perf ~write_baseline:false ();
  if List.mem "perf-baseline" args then perf ~write_baseline:true ();
  (* ilp is explicit-only: jobs-sweep identity check exits nonzero on divergence *)
  if List.mem "ilp" args then ilp_ablation ();
  (* sched is explicit-only for the same reason: gated vs BENCH_sched.json *)
  if List.mem "sched" args then sched ~write_baseline:false ();
  if List.mem "sched-baseline" args then sched ~write_baseline:true ();
  (* scale too: family sweep gated vs BENCH_scale.json *)
  if List.mem "scale" args then scale ~write_baseline:false ();
  if List.mem "scale-baseline" args then scale ~write_baseline:true ();
  (* repair too: fault-adaptive retest gated vs BENCH_repair.json *)
  if List.mem "repair" args then repair_bench ~write_baseline:false ();
  if List.mem "repair-baseline" args then repair_bench ~write_baseline:true ();
  (* serve too: engine cold/hit/warm latency gated vs BENCH_serve.json *)
  if List.mem "serve" args then serve_bench ~write_baseline:false ();
  if List.mem "serve-baseline" args then serve_bench ~write_baseline:true ();
  (* chaos is opt-in only: it deliberately breaks determinism *)
  if List.mem "chaos" args then chaos_bench ();
  if List.mem "verify" args || List.mem "all" args then verify_bench ();
  if List.mem "micro" args || List.mem "all" args then micro ()
