(* Cross-layer property corpus over the parametric chip families
   ([Mf_chips.Families]): every generated chip must lint clean, its
   generated test suite must re-certify through the independent verifier,
   the scheduler fast path must agree bit-for-bit with the reference
   implementation, the path ILP must cover at least as well as the greedy
   fallback, pool construction must be parallelism-invariant, and the
   prepared fault simulation must agree with the reference simulation.

   Case counts scale with MFDFT_CORPUS_COUNT (the lint-property count;
   the expensive solver-backed properties derive smaller counts from it)
   and the seed matrix shifts with MFDFT_CORPUS_SEED, so the nightly CI
   job can rerun the same corpus wider and elsewhere on the seed space
   while any failure stays reproducible from the logged seed alone. *)

module Chip = Mf_arch.Chip
module Chip_io = Mf_arch.Chip_io
module Assay_io = Mf_bioassay.Assay_io
module Families = Mf_chips.Families
module Synth_assay = Mf_bioassay.Synth_assay
module Scheduler = Mf_sched.Scheduler
module Pathgen = Mf_testgen.Pathgen
module Vectors = Mf_testgen.Vectors
module Coverage = Mf_faults.Coverage
module Lint = Mf_verify.Lint
module Cert = Mf_verify.Cert
module Pool = Mfdft.Pool
module Domain_pool = Mf_util.Domain_pool
module Rng = Mf_util.Rng
module Reconfig = Mf_repair.Reconfig
module Fault = Mf_faults.Fault
module Chaos = Mf_util.Chaos
module Pressure = Mf_faults.Pressure
module Vector = Mf_faults.Vector
module Graph = Mf_graph.Graph
module Traverse = Mf_graph.Traverse
module Bitset = Mf_util.Bitset

let env_int name default =
  match Sys.getenv_opt name with
  | Some s -> ( try max 1 (int_of_string s) with Failure _ -> default)
  | None -> default

let lint_count = env_int "MFDFT_CORPUS_COUNT" 100
let seed_base = 1_000_000 * (env_int "MFDFT_CORPUS_SEED" 1 - 1)

(* solver-backed properties run fewer cases; the ratios keep the nightly
   job's higher MFDFT_CORPUS_COUNT proportional across all of them *)
let recert_count = max 4 (lint_count / 25)
let sched_count = max 8 (lint_count / 12)
let greedy_count = max 4 (lint_count / 25)
let pool_count = max 2 (lint_count / 50)
let repair_count = max 4 (lint_count / 25)
let prepared_count = max 10 (lint_count / 4)

(* Deterministic case derivation: QCheck supplies a small case index; the
   chip/assay pair is a pure function of (family, MFDFT_CORPUS_SEED, index),
   so a failure report names the exact inputs. *)
let case_seed family_salt index = seed_base + (1000 * family_salt) + index

let family_salt (f : Families.family) =
  match f.Families.name with "ring" -> 1 | "fpva" -> 2 | "storage" -> 3 | _ -> 9

let case_size (f : Families.family) index =
  List.nth f.Families.corpus_sizes (index mod List.length f.Families.corpus_sizes)

let assay_profile (f : Families.family) =
  match f.Families.profile with
  | Families.Balanced -> Synth_assay.Balanced
  | Families.Storage_pressure -> Synth_assay.Storage_pressure

(* chip and assay share one seeded stream: reproducing the pair needs only
   the case seed *)
let case (f : Families.family) index =
  let size = case_size f index in
  let rng = Rng.create ~seed:(case_seed (family_salt f) index) in
  let chip = f.Families.generate_size ~size rng in
  let spec = Synth_assay.spec_of_size ~profile:(assay_profile f) (f.Families.assay_ops ~size) in
  let assay = Synth_assay.generate ~spec rng in
  (chip, assay)

let prop ~name ~count f p =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name ~count QCheck.small_nat (fun index -> p f index))

(* ------------------------------------------------------------------ *)
(* P1: every generated chip lints with zero diagnostics — warnings too *)

let lint_clean f index =
  let chip, _ = case f index in
  Lint.chip chip = []

(* ------------------------------------------------------------------ *)
(* P2: same seed, byte-identical serialised chip and assay *)

let seed_stable f index =
  let chip_a, assay_a = case f index in
  let chip_b, assay_b = case f index in
  String.equal (Chip_io.to_string chip_a) (Chip_io.to_string chip_b)
  && String.equal (Assay_io.to_string assay_a) (Assay_io.to_string assay_b)

(* ------------------------------------------------------------------ *)
(* P3: the generated DFT suite re-certifies through the independent
   verifier (lint of the augmented chip + certificate re-proof + sharing
   conflict scan), with zero diagnostics.  Suites come from [Pool.build] —
   the production path behind [dft_tool] — whose repair/rejection ladder
   guarantees complete fault coverage; a bare [Pathgen] configuration may
   legitimately leave escapes the verifier would (rightly) flag.  A small
   pool can run out of candidates on the largest pocket-heavy chips (every
   attempt rejected because repair left faults escaping) — that outcome is
   typed and surfaced, not a verifier bug, so such cases are discarded
   rather than failed; the property under test is that whenever the
   pipeline does emit a suite, the independent verifier agrees with it. *)

let cert_of aug (suite : Vectors.t) =
  let report = Vectors.validate aug suite in
  Cert.make ~chip_name:(Chip.name aug)
    ~suite:
      {
        Cert.source_port = suite.Vectors.source_port;
        meter_port = suite.Vectors.meter_port;
        path_edges = suite.Vectors.path_edges;
        cut_valves = suite.Vectors.cut_valves;
      }
    ~claimed_vectors:(Vectors.count suite)
    ~claimed_coverage:(report.Coverage.detected, report.Coverage.total_faults)
    ()

let recertifies f index =
  let chip, _ = case f index in
  let rng = Rng.create ~seed:(case_seed (family_salt f) index + 31) in
  match Pool.build ~size:3 ~node_limit:400 ~rng chip with
  | Error _ -> QCheck.assume_fail ()
  | Ok pool ->
    let e = (Pool.entries pool).(0) in
    let aug = e.Pool.augmented in
    (match Mf_verify.Verify.certificate aug (cert_of aug e.Pool.suite) with
     | [] -> true
     | diags ->
       QCheck.Test.fail_reportf "%s: %s" (Chip.name chip)
         (String.concat ", " (List.map (fun (d : Mf_util.Diag.t) -> d.code) diags)))

(* ------------------------------------------------------------------ *)
(* P4: scheduler fast path ≡ first-principles reference, bit-identically,
   success or failure *)

let sched_differential f index =
  let chip, assay = case f index in
  Scheduler.run chip assay = Scheduler.run_reference chip assay

(* ------------------------------------------------------------------ *)
(* P5: the ILP never loses to the pure greedy fallback.  Both cover every
   original channel edge by construction (that is the path constraint), so
   the comparison is on objective (5), the number of added DFT edges: a
   non-degraded ILP solution is optimal for its path count, and any greedy
   cover with at most that many paths extends to an equal-cost solution at
   the ILP's path count (duplicate a path), so ILP added <= greedy added
   whenever ilp.n_paths >= greedy.n_paths.  A greedy win achieved only by
   spending more paths than the ILP needed is the one incomparable case. *)

let ilp_beats_greedy f index =
  let chip, _ = case f index in
  match (Pathgen.generate ~node_limit:400 chip, Pathgen.generate ~node_limit:0 chip) with
  | Ok ilp, Ok greedy ->
    ilp.Pathgen.degraded
    || ilp.Pathgen.n_paths < greedy.Pathgen.n_paths
    || List.length ilp.Pathgen.added_edges <= List.length greedy.Pathgen.added_edges
  | Ok _, Error _ -> true (* ILP covered a chip the heuristic could not *)
  | Error f, _ -> Alcotest.failf "pathgen on %s: %a" (Chip.name chip) Mf_util.Fail.pp f

(* ------------------------------------------------------------------ *)
(* P6: pool construction is parallelism-invariant — jobs=1 and jobs=4
   produce identical attempt fingerprints and configurations, and fail
   identically when the chip exhausts the candidate ladder *)

let pool_fingerprint f index jobs =
  let chip, _ = case f index in
  let rng = Rng.create ~seed:(case_seed (family_salt f) index + 77) in
  Domain_pool.with_pool ~jobs (fun domains ->
      match Pool.build ~size:4 ~node_limit:400 ~domains ~rng chip with
      | Error _ -> None
      | Ok pool ->
        Some
          ( Pool.attempt_objectives pool,
            Array.map
              (fun (e : Pool.entry) -> e.Pool.config.Pathgen.added_edges)
              (Pool.entries pool) ))

let pool_parallel_invariant f index =
  pool_fingerprint f index 1 = pool_fingerprint f index 4

(* ------------------------------------------------------------------ *)
(* P7: fault-adaptive repair differential — inject k seed-stable stuck-open
   valve faults into a deployed Pool suite, repair incrementally, and the
   result must re-certify through the independent verifier with every
   escape audited-waived as provably untestable.  Repair may legitimately
   fail typed on pathological pairs (e.g. a fault context that strands the
   meter); a typed Error is discarded, a silently-bad Ok never is. *)

let repair_recertifies f index =
  let chip, _ = case f index in
  let rng = Rng.create ~seed:(case_seed (family_salt f) index + 53) in
  match Pool.build ~size:3 ~node_limit:400 ~rng chip with
  | Error _ -> QCheck.assume_fail ()
  | Ok pool -> (
    let e = (Pool.entries pool).(0) in
    let aug = e.Pool.augmented in
    let k = 1 + (index mod 2) in
    let faults =
      List.map
        (fun v -> Fault.Stuck_at_1 v)
        (Chaos.sample_sites
           ~seed:(case_seed (family_salt f) index)
           ~count:k ~n_sites:(Chip.n_valves aug))
    in
    if faults = [] then QCheck.assume_fail ()
    else
      match Reconfig.repair aug e.Pool.suite faults with
      | Error _ -> QCheck.assume_fail ()
      | Ok r ->
        let n_err, _ = Mf_util.Diag.count r.Reconfig.diags in
        if n_err > 0 then
          QCheck.Test.fail_reportf "%s: %d re-certification error(s) after repair"
            (Chip.name chip) n_err
        else if
          r.Reconfig.coverage.Coverage.detected + List.length r.Reconfig.untestable
          <> r.Reconfig.coverage.Coverage.total_faults
        then
          QCheck.Test.fail_reportf "%s: unwaived escapes (%d detected + %d waived <> %d)"
            (Chip.name chip) r.Reconfig.coverage.Coverage.detected
            (List.length r.Reconfig.untestable)
            r.Reconfig.coverage.Coverage.total_faults
        else true)

(* ------------------------------------------------------------------ *)
(* P8: prepared fault simulation is exact — on random path, cut,
   multi-meter and arbitrary-line vectors, under random fault contexts
   (blocked edges, stuck-open valves, leaks), every prepared decision
   equals the reference [Pressure.detects], and [Coverage.measure] equals
   the per-fault fold of [detects] over the full leak-inclusive universe *)

let random_vectors chip rng =
  let g = Mf_grid.Grid.graph (Chip.grid chip) in
  let ports = Array.map (fun (p : Chip.port) -> p.Chip.node) (Chip.ports chip) in
  let n_valves = Chip.n_valves chip in
  let route s t =
    let noise = Array.init (Graph.n_edges g) (fun _ -> 1. +. Rng.float rng 4.) in
    match
      Traverse.dijkstra g ~allowed:(Chip.is_channel chip) ~weight:(fun e -> noise.(e)) ~src:s
        ~dst:t
    with
    | Some (_, p) -> p
    | None -> []
  in
  let some_meters s =
    match List.filter (fun n -> n <> s) (Array.to_list ports) with
    | [] -> [ s ]
    | first :: _ as others -> (
        match List.filter (fun _ -> Rng.bool rng) others with [] -> [ first ] | m -> m)
  in
  List.init 8 (fun i ->
      let s = Rng.pick rng ports in
      let meters = some_meters s in
      match i mod 4 with
      | 0 -> Vector.of_path chip ~source:s ~meters:[ List.hd meters ] (route s (List.hd meters))
      | 1 ->
        (* a tree: the union of routes to every meter *)
        Vector.of_path chip ~source:s ~meters (List.concat_map (route s) meters)
      | 2 ->
        Vector.of_cut chip ~source:s ~meters
          (List.filter (fun _ -> Rng.int rng 3 > 0) (List.init n_valves Fun.id))
      | _ ->
        let active = Bitset.create (Chip.n_controls chip) in
        for c = 0 to Chip.n_controls chip - 1 do
          if Rng.bool rng then Bitset.add active c
        done;
        { Vector.label = "random lines"; kind = Vector.Cut []; active_lines = active; source = s;
          meters; expected = Rng.bool rng })

let random_context chip rng =
  let channels = Array.of_list (Bitset.elements (Chip.channel_edges chip)) in
  let n_valves = Chip.n_valves chip in
  let draw k make n = if n = 0 then [] else List.init k (fun _ -> make (Rng.int rng n)) in
  let faults =
    draw (Rng.int rng 3) (fun i -> Fault.Stuck_at_0 channels.(i)) (Array.length channels)
    @ draw (Rng.int rng 3) (fun v -> Fault.Stuck_at_1 v) n_valves
    @ draw (Rng.int rng 3) (fun v -> Fault.Leak v) n_valves
  in
  if faults = [] then None else Some (Pressure.context chip faults)

let prepared_is_exact f index =
  let chip, _ = case f index in
  let rng = Rng.create ~seed:(case_seed (family_salt f) index + 97) in
  let vectors = random_vectors chip rng in
  let universe = Fault.all_with_leaks chip in
  List.for_all
    (fun present ->
      let decisions_agree =
        List.for_all
          (fun v ->
            let p = Pressure.prepare ?present chip v in
            Pressure.prepared_readings p = Pressure.readings chip ?present v
            && Pressure.prepared_well_formed p = Pressure.well_formed ?present chip v
            && List.for_all
                 (fun fault ->
                   Pressure.prepared_detects p fault = Pressure.detects ?present chip v fault
                   || QCheck.Test.fail_reportf "%s: %a on %s disagrees with detects"
                        (Chip.name chip) (Fault.pp chip) fault v.Vector.label)
                 universe)
          vectors
      in
      let report = Coverage.measure ~include_leaks:true ?present chip vectors in
      let targets =
        match present with
        | None -> universe
        | Some ctx ->
          List.filter
            (fun f -> not (List.exists (Fault.equal f) (Pressure.context_faults ctx)))
            universe
      in
      let escaped =
        List.filter
          (fun fault -> not (List.exists (fun v -> Pressure.detects ?present chip v fault) vectors))
          targets
      in
      let pick sel = List.filter_map sel escaped in
      decisions_agree
      && report.Coverage.total_faults = List.length targets
      && report.Coverage.detected = List.length targets - List.length escaped
      && report.Coverage.sa0_undetected
         = pick (function Fault.Stuck_at_0 e -> Some e | _ -> None)
      && report.Coverage.sa1_undetected
         = pick (function Fault.Stuck_at_1 v -> Some v | _ -> None)
      && report.Coverage.leak_undetected = pick (function Fault.Leak v -> Some v | _ -> None)
      && report.Coverage.malformed
         = List.length (List.filter (fun v -> not (Pressure.well_formed ?present chip v)) vectors))
    [ None; random_context chip rng; random_context chip rng ]

let family_suite f =
  let n = f.Families.name in
  ( Printf.sprintf "corpus:%s" n,
    [
      prop ~name:(n ^ " lints clean") ~count:lint_count f lint_clean;
      prop ~name:(n ^ " seed-stable io") ~count:(max 10 (lint_count / 10)) f seed_stable;
      prop ~name:(n ^ " suite re-certifies") ~count:recert_count f recertifies;
      prop ~name:(n ^ " run = run_reference") ~count:sched_count f sched_differential;
      prop ~name:(n ^ " ilp >= greedy coverage") ~count:greedy_count f ilp_beats_greedy;
      prop ~name:(n ^ " pool jobs=1 = jobs=4") ~count:pool_count f pool_parallel_invariant;
      prop ~name:(n ^ " repair re-certifies") ~count:repair_count f repair_recertifies;
      prop ~name:(n ^ " prepared faults = detects") ~count:prepared_count f prepared_is_exact;
    ] )

let () =
  (* exact-value differentials require the fault-free pipeline *)
  Mf_util.Chaos.neutralise ();
  Alcotest.run "mf_corpus" (List.map family_suite Families.all)
