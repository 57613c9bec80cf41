module Pso = Mf_pso.Pso
module Rng = Mf_util.Rng

let check = Alcotest.check

let sphere x =
  Array.fold_left (fun acc v -> acc +. ((v -. 0.5) ** 2.)) 0. x

let test_minimises_sphere () =
  let rng = Rng.create ~seed:1 in
  let outcome = Pso.run ~rng ~dim:4 ~batch_fitness:(Array.map sphere) () in
  check Alcotest.bool "near optimum" true (outcome.Pso.best_fitness < 1e-3);
  Array.iter
    (fun v -> check Alcotest.bool "coordinates near 0.5" true (abs_float (v -. 0.5) < 0.1))
    outcome.Pso.best_position

let test_trace_monotone () =
  let rng = Rng.create ~seed:2 in
  let outcome = Pso.run ~rng ~dim:3 ~batch_fitness:(Array.map sphere) () in
  let rec non_increasing = function
    | a :: (b :: _ as rest) -> a >= b -. 1e-12 && non_increasing rest
    | [ _ ] | [] -> true
  in
  check Alcotest.int "trace length" Pso.default_params.Pso.iterations
    (List.length outcome.Pso.trace);
  check Alcotest.bool "global best never worsens" true (non_increasing outcome.Pso.trace)

let test_deterministic () =
  let run () =
    let rng = Rng.create ~seed:7 in
    (Pso.run ~rng ~dim:5 ~batch_fitness:(Array.map sphere) ()).Pso.best_fitness
  in
  check (Alcotest.float 0.) "same seed, same result" (run ()) (run ())

let test_invalid_positions () =
  (* a fitness that rejects half the space still converges on the rest *)
  let fitness x = if x.(0) < 0.5 then infinity else (x.(0) -. 0.75) ** 2. in
  let rng = Rng.create ~seed:3 in
  let outcome = Pso.run ~rng ~dim:1 ~batch_fitness:(Array.map fitness) () in
  check Alcotest.bool "found valid region" true (outcome.Pso.best_fitness < 1e-3)

let test_all_invalid () =
  let rng = Rng.create ~seed:4 in
  let outcome =
    Pso.run
      ~params:{ Pso.default_params with Pso.iterations = 5 }
      ~rng ~dim:2
      ~batch_fitness:(Array.map (fun _ -> infinity))
      ()
  in
  check Alcotest.bool "infinity reported" true (outcome.Pso.best_fitness = infinity)

let test_positions_in_box () =
  let seen_out = ref false in
  let fitness x =
    Array.iter (fun v -> if v < 0. || v > 1. then seen_out := true) x;
    sphere x
  in
  let rng = Rng.create ~seed:5 in
  ignore (Pso.run ~rng ~dim:3 ~batch_fitness:(Array.map fitness) ());
  check Alcotest.bool "never leaves the box" false !seen_out

let test_evaluation_count () =
  let calls = ref 0 in
  let fitness x =
    incr calls;
    sphere x
  in
  let params = { Pso.default_params with Pso.particles = 3; iterations = 10 } in
  let rng = Rng.create ~seed:6 in
  let outcome = Pso.run ~params ~rng ~dim:2 ~batch_fitness:(Array.map fitness) () in
  (* init evals + per-iteration evals *)
  check Alcotest.int "evaluations" (3 + (3 * 10)) outcome.Pso.evaluations;
  check Alcotest.int "matches calls" !calls outcome.Pso.evaluations

let test_rosenbrock_progress () =
  (* harder landscape: PSO should at least improve on the initial sample *)
  let rosenbrock x =
    let a = (x.(0) *. 4.) -. 2. and b = (x.(1) *. 4.) -. 2. in
    ((1. -. a) ** 2.) +. (100. *. ((b -. (a *. a)) ** 2.))
  in
  let rng = Rng.create ~seed:8 in
  let outcome = Pso.run ~rng ~dim:2 ~batch_fitness:(Array.map rosenbrock) () in
  let first = List.nth outcome.Pso.trace 0 in
  let last = List.nth outcome.Pso.trace (List.length outcome.Pso.trace - 1) in
  check Alcotest.bool "improved" true (last <= first);
  check Alcotest.bool "decent" true (last < 1.)

let test_dim_guard () =
  let rng = Rng.create ~seed:9 in
  Alcotest.check_raises "dim 0" (Invalid_argument "Pso.run: dim must be positive") (fun () ->
      ignore (Pso.run ~rng ~dim:0 ~batch_fitness:(Array.map sphere) ()))

let () =
  (* exact-value assertions require the fault-free pipeline *)
  Mf_util.Chaos.neutralise ();
  Alcotest.run "mf_pso"
    [
      ( "pso",
        [
          Alcotest.test_case "minimises sphere" `Quick test_minimises_sphere;
          Alcotest.test_case "trace monotone" `Quick test_trace_monotone;
          Alcotest.test_case "deterministic" `Quick test_deterministic;
          Alcotest.test_case "invalid positions" `Quick test_invalid_positions;
          Alcotest.test_case "all invalid" `Quick test_all_invalid;
          Alcotest.test_case "stays in box" `Quick test_positions_in_box;
          Alcotest.test_case "evaluation count" `Quick test_evaluation_count;
          Alcotest.test_case "rosenbrock progress" `Quick test_rosenbrock_progress;
          Alcotest.test_case "dim guard" `Quick test_dim_guard;
        ] );
    ]
