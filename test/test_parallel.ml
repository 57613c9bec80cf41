(* The parallel-evaluation contract: Domain_pool is an order-preserving,
   exception-propagating, reusable map, and the codesign flow is
   bit-identical whatever the job count (every rng draw stays on the
   coordinating domain; only pure work fans out). *)

module Domain_pool = Mf_util.Domain_pool
module Rng = Mf_util.Rng
module Pso = Mf_pso.Pso
module Codesign = Mfdft.Codesign
module Benchmarks = Mf_chips.Benchmarks
module Assays = Mf_bioassay.Assays

let check = Alcotest.check

(* ------------------------------------------------------------------ *)
(* Domain_pool unit tests *)

let test_empty_and_singleton () =
  Domain_pool.with_pool ~jobs:3 (fun pool ->
      check Alcotest.(array int) "empty" [||] (Domain_pool.map pool (fun x -> x + 1) [||]);
      check Alcotest.(array int) "singleton" [| 43 |]
        (Domain_pool.map pool (fun x -> x + 1) [| 42 |]))

let test_jobs_guard () =
  Alcotest.check_raises "jobs 0" (Invalid_argument "Domain_pool.create: jobs must be >= 1")
    (fun () -> ignore (Domain_pool.create ~jobs:0))

let test_exception_is_lowest_index () =
  Domain_pool.with_pool ~jobs:4 (fun pool ->
      let f i = if i mod 3 = 2 then failwith (Printf.sprintf "boom %d" i) else i in
      (* elements 2, 5, 8, ... fail; index 2's exception must surface *)
      Alcotest.check_raises "first failure wins" (Failure "boom 2") (fun () ->
          ignore (Domain_pool.map pool f (Array.init 20 Fun.id))))

(* ------------------------------------------------------------------ *)
(* Domain_pool QCheck properties *)

let pool_jobs_gen = QCheck.Gen.int_range 1 5

let order_preservation_prop =
  QCheck.Test.make ~name:"map preserves input order for any job count" ~count:30
    QCheck.(pair (make pool_jobs_gen) (list small_int))
    (fun (jobs, xs) ->
      let xs = Array.of_list xs in
      Domain_pool.with_pool ~jobs (fun pool ->
          Domain_pool.map pool (fun x -> (2 * x) + 1) xs
          = Array.map (fun x -> (2 * x) + 1) xs))

let exception_propagation_prop =
  QCheck.Test.make ~name:"exceptions propagate and leave the pool reusable" ~count:20
    QCheck.(pair (make pool_jobs_gen) (small_list small_nat))
    (fun (jobs, xs) ->
      let xs = Array.of_list (1 :: xs) (* at least one failing element *) in
      Domain_pool.with_pool ~jobs (fun pool ->
          let raised =
            match Domain_pool.map pool (fun x -> if x = 1 then raise Exit else x) xs with
            | _ -> false
            | exception Exit -> true
          in
          (* the pool must survive the failed batch and still map correctly *)
          raised && Domain_pool.map pool (fun x -> x + 1) xs = Array.map (fun x -> x + 1) xs))

let reuse_prop =
  QCheck.Test.make ~name:"pool is reusable across many batches" ~count:10
    QCheck.(make pool_jobs_gen)
    (fun jobs ->
      Domain_pool.with_pool ~jobs (fun pool ->
          List.for_all
            (fun round ->
              let xs = Array.init (10 + round) (fun i -> i * round) in
              Domain_pool.map pool (fun x -> x - 1) xs = Array.map (fun x -> x - 1) xs)
            [ 1; 2; 3; 4; 5 ]))

(* ------------------------------------------------------------------ *)
(* PSO batch path: the batch evaluator sees whole iterations, and fanning
   the batch out over domains changes nothing. *)

let sphere x = Array.fold_left (fun acc v -> acc +. ((v -. 0.5) ** 2.)) 0. x

let test_batch_matches_serial_batch () =
  let outcome_with evaluator =
    let rng = Rng.create ~seed:17 in
    Pso.run ~rng ~dim:4 ~batch_fitness:evaluator ()
  in
  let serial = outcome_with (Array.map sphere) in
  let parallel =
    Domain_pool.with_pool ~jobs:4 (fun pool ->
        outcome_with (fun xs -> Domain_pool.map pool sphere xs))
  in
  check (Alcotest.float 0.) "best fitness" serial.Pso.best_fitness parallel.Pso.best_fitness;
  check Alcotest.(list (float 0.)) "trace" serial.Pso.trace parallel.Pso.trace;
  check Alcotest.int "evaluations" serial.Pso.evaluations parallel.Pso.evaluations;
  check Alcotest.(array (float 0.)) "position" serial.Pso.best_position
    parallel.Pso.best_position;
  check Alcotest.bool "converges" true (serial.Pso.best_fitness < 1e-2)

let test_batch_counts_evaluations () =
  let rng = Rng.create ~seed:5 in
  let params = { Pso.default_params with Pso.particles = 3; iterations = 7 } in
  let calls = ref 0 in
  let outcome =
    Pso.run ~params ~rng ~dim:2
      ~batch_fitness:(fun xs ->
        calls := !calls + Array.length xs;
        Array.map sphere xs)
      ()
  in
  check Alcotest.int "evaluations" (3 * (1 + 7)) outcome.Pso.evaluations;
  check Alcotest.int "matches calls" !calls outcome.Pso.evaluations

(* ------------------------------------------------------------------ *)
(* Differential determinism of the pool builder: the ILP-heavy stage that
   exercises the warm-started LP core and its per-solve fixing-set cache.
   Every candidate configuration, its solver effort counters and the
   attempt objectives must be bit-identical whatever the job count. *)

let test_pool_build_jobs_deterministic () =
  let chip = Option.get (Benchmarks.by_name "ivd_chip") in
  let build jobs =
    let rng = Rng.create ~seed:11 in
    let outcome =
      Domain_pool.with_pool ~jobs (fun domains ->
          Mfdft.Pool.build ~size:4 ~node_limit:400 ~domains ~rng chip)
    in
    match outcome with
    | Error f -> Alcotest.fail (Mf_util.Fail.to_string f)
    | Ok pool ->
      ( Array.to_list (Mfdft.Pool.attempt_objectives pool),
        Array.to_list (Array.map (fun e -> e.Mfdft.Pool.config) (Mfdft.Pool.entries pool)) )
  in
  let serial = build 1 in
  let parallel = build 4 in
  check Alcotest.bool "pool: jobs=1 and jobs=4 bit-identical (cache on)" true
    (serial = parallel)

(* ------------------------------------------------------------------ *)
(* Differential determinism of the full codesign flow *)

let tiny_params ~seed ~jobs =
  {
    Codesign.quick_params with
    Codesign.pool_size = 2;
    ilp_node_limit = 300;
    outer = { Mf_pso.Pso.default_params with particles = 3; iterations = 3 };
    inner = { Mf_pso.Pso.default_params with particles = 3; iterations = 3 };
    seed;
    jobs;
  }

let fingerprint (r : Codesign.result) =
  ( r.Codesign.exec_final,
    r.Codesign.exec_original,
    r.Codesign.exec_dft_unshared,
    r.Codesign.exec_dft_no_pso,
    r.Codesign.n_dft_valves,
    r.Codesign.n_shared,
    r.Codesign.n_vectors_dft,
    r.Codesign.sharing,
    r.Codesign.trace,
    r.Codesign.evaluations )

let differential_case (chip_name, assay_name, seed) () =
  let chip = Option.get (Benchmarks.by_name chip_name) in
  let app = Option.get (Assays.by_name assay_name) in
  let run jobs =
    match Codesign.run ~params:(tiny_params ~seed ~jobs) chip app with
    | Ok r -> fingerprint r
    | Error f -> Alcotest.fail (Mf_util.Fail.to_string f)
  in
  let serial = run 1 in
  let parallel = run 4 in
  check Alcotest.bool
    (Printf.sprintf "%s/%s seed %d: jobs=1 and jobs=4 bit-identical" chip_name assay_name seed)
    true (serial = parallel)

let differential_cases =
  [
    ("ivd_chip", "ivd", 42);
    ("ivd_chip", "pid", 7);
    ("ra30_chip", "ivd", 42);
  ]

let () =
  let qt = QCheck_alcotest.to_alcotest in
  (* exact-value assertions require the fault-free pipeline *)
  Mf_util.Chaos.neutralise ();
  Alcotest.run "mf_parallel"
    [
      ( "domain pool",
        [
          Alcotest.test_case "empty and singleton" `Quick test_empty_and_singleton;
          Alcotest.test_case "jobs guard" `Quick test_jobs_guard;
          Alcotest.test_case "first failure wins" `Quick test_exception_is_lowest_index;
          qt order_preservation_prop;
          qt exception_propagation_prop;
          qt reuse_prop;
        ] );
      ( "pso batch",
        [
          Alcotest.test_case "parallel batch matches serial" `Quick
            test_batch_matches_serial_batch;
          Alcotest.test_case "evaluation count" `Quick test_batch_counts_evaluations;
        ] );
      ( "pool differential",
        [
          Alcotest.test_case "jobs=1 vs jobs=4, warm cache enabled" `Quick
            test_pool_build_jobs_deterministic;
        ] );
      ( "codesign differential",
        List.map
          (fun ((chip, assay, seed) as case) ->
            Alcotest.test_case
              (Printf.sprintf "%s/%s seed %d" chip assay seed)
              `Slow (differential_case case))
          differential_cases );
    ]
