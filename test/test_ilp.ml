module Ilp = Mf_ilp.Ilp
module Rng = Mf_util.Rng
module Budget = Mf_util.Budget
module Domain_pool = Mf_util.Domain_pool

let check = Alcotest.check
let feps = Alcotest.float 1e-6

let solve_exn ?lazy_cuts ?upper_bound ilp =
  match Ilp.solve ?lazy_cuts ?upper_bound ilp with
  | Ilp.Optimal s -> s
  | Ilp.Feasible _ -> Alcotest.fail "truncated"
  | Ilp.Infeasible -> Alcotest.fail "infeasible"
  | Ilp.Node_limit -> Alcotest.fail "node limit"
  | Ilp.Failed f -> Alcotest.fail (Mf_util.Fail.to_string f)

let test_knapsack () =
  (* max 10a+6b+4c st a+b+c <= 2 *)
  let ilp = Ilp.create () in
  let a = Ilp.add_binary ~obj:(-10.) ilp in
  let b = Ilp.add_binary ~obj:(-6.) ilp in
  let c = Ilp.add_binary ~obj:(-4.) ilp in
  Ilp.add_row ilp [ (1., a); (1., b); (1., c) ] Ilp.Le 2.;
  let s = solve_exn ilp in
  check feps "objective" (-16.) s.objective;
  check feps "a" 1. s.values.(a);
  check feps "b" 1. s.values.(b);
  check feps "c" 0. s.values.(c)

let test_rounding_forced () =
  (* LP relaxation is fractional (x=y=0.75); integrality forces obj 2 *)
  let ilp = Ilp.create () in
  let a = Ilp.add_binary ~obj:1. ilp in
  let b = Ilp.add_binary ~obj:1. ilp in
  Ilp.add_row ilp [ (2., a); (2., b) ] Ilp.Ge 3.;
  let s = solve_exn ilp in
  check feps "objective" 2. s.objective

let test_set_cover () =
  (* universe {1..4}, sets {1,2} {2,3} {3,4} {1,4}; optimal cover = 2 sets *)
  let ilp = Ilp.create () in
  let s1 = Ilp.add_binary ~obj:1. ilp in
  let s2 = Ilp.add_binary ~obj:1. ilp in
  let s3 = Ilp.add_binary ~obj:1. ilp in
  let s4 = Ilp.add_binary ~obj:1. ilp in
  Ilp.add_row ilp [ (1., s1); (1., s4) ] Ilp.Ge 1.;
  Ilp.add_row ilp [ (1., s1); (1., s2) ] Ilp.Ge 1.;
  Ilp.add_row ilp [ (1., s2); (1., s3) ] Ilp.Ge 1.;
  Ilp.add_row ilp [ (1., s3); (1., s4) ] Ilp.Ge 1.;
  let s = solve_exn ilp in
  check feps "two sets" 2. s.objective

let test_infeasible () =
  let ilp = Ilp.create () in
  let a = Ilp.add_binary ilp in
  let b = Ilp.add_binary ilp in
  Ilp.add_row ilp [ (1., a); (1., b) ] Ilp.Ge 3.;
  check Alcotest.bool "infeasible" true (Ilp.solve ilp = Ilp.Infeasible)

let test_continuous_mix () =
  (* binary a gates continuous y <= 5a; max y - a cost *)
  let ilp = Ilp.create () in
  let a = Ilp.add_binary ~obj:2. ilp in
  let y = Ilp.add_continuous ~upper:5. ~obj:(-1.) ilp in
  Ilp.add_row ilp [ (1., y); ((-5.), a) ] Ilp.Le 0.;
  let s = solve_exn ilp in
  check feps "gate open" 1. s.values.(a);
  check feps "y at cap" 5. s.values.(y);
  check feps "objective" (-3.) s.objective

let test_lazy_cuts () =
  let ilp = Ilp.create () in
  let x = Ilp.add_binary ~obj:1. ilp in
  let y = Ilp.add_binary ~obj:2. ilp in
  let z = Ilp.add_binary ~obj:3. ilp in
  Ilp.add_row ilp [ (1., x); (1., y); (1., z) ] Ilp.Ge 1.;
  let rejected = ref 0 in
  let cuts (s : Ilp.solution) =
    if s.values.(z) < 0.5 then begin
      incr rejected;
      [ ([ (1., z) ], Ilp.Ge, 1.) ]
    end
    else []
  in
  let s = solve_exn ~lazy_cuts:cuts ilp in
  check feps "z forced" 1. s.values.(z);
  check feps "objective" 3. s.objective;
  check Alcotest.bool "cut fired" true (!rejected >= 1)

let test_upper_bound_prunes () =
  let ilp = Ilp.create () in
  let a = Ilp.add_binary ~obj:1. ilp in
  Ilp.add_row ilp [ (1., a) ] Ilp.Ge 1.;
  (* optimum costs 1; an upper bound of 0.5 hides it *)
  check Alcotest.bool "pruned away" true (Ilp.solve ~upper_bound:0.5 ilp = Ilp.Infeasible);
  (* a generous bound leaves it visible *)
  match Ilp.solve ~upper_bound:10. ilp with
  | Ilp.Optimal s -> check feps "found" 1. s.objective
  | Ilp.Feasible _ | Ilp.Infeasible | Ilp.Node_limit | Ilp.Failed _ ->
    Alcotest.fail "expected optimal"

let test_node_limit () =
  let ilp = Ilp.create () in
  let vars = List.init 12 (fun _ -> Ilp.add_binary ~obj:1. ilp) in
  Ilp.add_row ilp (List.map (fun v -> (1., v)) vars) Ilp.Ge 6.5;
  (match Ilp.solve ~node_limit:1 ilp with
   | Ilp.Node_limit | Ilp.Feasible _ -> ()
   | Ilp.Optimal _ | Ilp.Infeasible | Ilp.Failed _ -> Alcotest.fail "expected truncation");
  check Alcotest.bool "nodes counted" true (Ilp.nodes_explored ilp >= 1)

(* the root bound is the first relaxation's objective; the best bound is
   the least open-node bound, +infinity once the search closed *)
let test_bounds () =
  let ilp = Ilp.create () in
  let a = Ilp.add_binary ~obj:1. ilp in
  let b = Ilp.add_binary ~obj:1. ilp in
  Ilp.add_row ilp [ (2., a); (2., b) ] Ilp.Ge 3.;
  (match Ilp.solve ~presolve:false ~cuts:false ilp with
   | Ilp.Optimal s -> check feps "optimum" 2. s.objective
   | _ -> Alcotest.fail "expected optimal");
  let st = Ilp.last_stats ilp in
  check feps "root bound" 1.5 st.Ilp.rs_root_bound;
  check Alcotest.bool "closed" true (st.Ilp.rs_best_bound = infinity);
  let ilp = Ilp.create () in
  let vars = List.init 12 (fun _ -> Ilp.add_binary ~obj:1. ilp) in
  Ilp.add_row ilp (List.map (fun v -> (1., v)) vars) Ilp.Ge 6.5;
  ignore (Ilp.solve ~node_limit:3 ~presolve:false ~cuts:false ilp);
  let st = Ilp.last_stats ilp in
  check feps "truncated root bound" 6.5 st.Ilp.rs_root_bound;
  check Alcotest.bool "open nodes bound the optimum" true
    (st.Ilp.rs_best_bound >= st.Ilp.rs_root_bound && st.Ilp.rs_best_bound <= 7.);
  let ilp = Ilp.create () in
  let a = Ilp.add_binary ilp in
  Ilp.add_row ilp [ (1., a) ] Ilp.Ge 2.;
  ignore (Ilp.solve ~presolve:false ilp);
  let st = Ilp.last_stats ilp in
  check Alcotest.bool "infeasible root" true
    (st.Ilp.rs_root_bound = infinity && st.Ilp.rs_best_bound = infinity)

let test_equality_row () =
  let ilp = Ilp.create () in
  let a = Ilp.add_binary ~obj:(-3.) ilp in
  let b = Ilp.add_binary ~obj:(-5.) ilp in
  let c = Ilp.add_binary ~obj:(-1.) ilp in
  Ilp.add_row ilp [ (1., a); (1., b); (1., c) ] Ilp.Eq 2.;
  let s = solve_exn ilp in
  check feps "pick the two best" (-8.) s.objective

(* random set-cover instances: compare against exhaustive enumeration *)
let random_cover_prop =
  QCheck.Test.make ~name:"ILP matches brute force on random covers" ~count:40 QCheck.int
    (fun seed ->
      let rng = Rng.create ~seed:(abs seed) in
      let n_sets = 3 + Rng.int rng 5 in
      let n_items = 2 + Rng.int rng 4 in
      let membership = Array.init n_sets (fun _ -> Array.init n_items (fun _ -> Rng.bool rng)) in
      let cost = Array.init n_sets (fun _ -> 1 + Rng.int rng 5) in
      let covers subset item = List.exists (fun s -> membership.(s).(item)) subset in
      let feasible subset = List.init n_items Fun.id |> List.for_all (covers subset) in
      let best = ref max_int in
      for mask = 0 to (1 lsl n_sets) - 1 do
        let subset = List.filter (fun s -> mask land (1 lsl s) <> 0) (List.init n_sets Fun.id) in
        if feasible subset then begin
          let c = List.fold_left (fun acc s -> acc + cost.(s)) 0 subset in
          if c < !best then best := c
        end
      done;
      let ilp = Ilp.create () in
      let vars = Array.init n_sets (fun s -> Ilp.add_binary ~obj:(float_of_int cost.(s)) ilp) in
      for item = 0 to n_items - 1 do
        let terms =
          List.init n_sets Fun.id
          |> List.filter_map (fun s -> if membership.(s).(item) then Some (1., vars.(s)) else None)
        in
        if terms = [] then Ilp.add_row ilp [ (1., vars.(0)) ] Ilp.Ge 2. (* force infeasible *)
        else Ilp.add_row ilp terms Ilp.Ge 1.
      done;
      match Ilp.solve ilp with
      | Ilp.Optimal s -> !best < max_int && abs_float (s.objective -. float_of_int !best) < 1e-6
      | Ilp.Infeasible -> !best = max_int
      | Ilp.Feasible _ | Ilp.Node_limit | Ilp.Failed _ -> false)

(* ------------------------------------------------------------------ *)
(* Parallel differential: the batched search must return bit-identical
   outcome, solution and run_stats for any job count.  Random boxed 0-1
   models with no-good lazy cuts exercise the trickiest interleaving (cut
   installation while a batch is in flight). *)

let random_model rng =
  let ilp = Ilp.create () in
  let n = 5 + Rng.int rng 6 in
  let vars =
    Array.init n (fun _ -> Ilp.add_binary ~obj:(float_of_int (Rng.int rng 11 - 5)) ilp)
  in
  let n_rows = 2 + Rng.int rng n in
  for _ = 1 to n_rows do
    let terms =
      Array.to_list vars
      |> List.filter_map (fun v ->
             if Rng.bool rng then
               Some
                 ( float_of_int (1 + Rng.int rng 3) *. (if Rng.bool rng then 1. else -1.),
                   v )
             else None)
    in
    let rel = if Rng.bool rng then Ilp.Le else Ilp.Ge in
    let rhs = float_of_int (Rng.int rng 5 - 1) in
    if terms <> [] then Ilp.add_row ilp terms rel rhs
  done;
  (ilp, vars)

(* reject the first [max_fired] integral candidates outright with a no-good
   cut — a worst-case lazy callback that forces re-queues mid-batch *)
let no_good_cuts vars fired max_fired (s : Ilp.solution) =
  if !fired >= max_fired then []
  else begin
    incr fired;
    let ones = Array.to_list vars |> List.filter (fun v -> s.Ilp.values.(v) > 0.5) in
    let terms =
      Array.to_list vars
      |> List.map (fun v -> ((if s.Ilp.values.(v) > 0.5 then -1. else 1.), v))
    in
    [ (terms, Ilp.Ge, 1. -. float_of_int (List.length ones)) ]
  end

type outcome_fp =
  | Fp_optimal of float * float list
  | Fp_feasible of float * float list
  | Fp_infeasible
  | Fp_node_limit
  | Fp_failed of string

let fp outcome =
  match (outcome : Ilp.outcome) with
  | Ilp.Optimal s -> Fp_optimal (s.Ilp.objective, Array.to_list s.Ilp.values)
  | Ilp.Feasible s -> Fp_feasible (s.Ilp.objective, Array.to_list s.Ilp.values)
  | Ilp.Infeasible -> Fp_infeasible
  | Ilp.Node_limit -> Fp_node_limit
  | Ilp.Failed f -> Fp_failed (Mf_util.Fail.stage_name f.Mf_util.Fail.stage)

(* solve a fresh instance of the model (solves mutate the builder with
   installed cuts, so each run rebuilds from the seed) *)
let run_once ?(max_fired = 2) ~seed ~pool ~cancel_after ?presolve ?cuts () =
  let rng = Rng.create ~seed in
  let ilp, vars = random_model rng in
  let fired = ref 0 in
  let budget = Budget.unlimited () in
  let lazy_cuts s =
    let cs = no_good_cuts vars fired max_fired s in
    (match cancel_after with
     | Some k when !fired >= k -> Budget.cancel budget
     | Some _ | None -> ());
    cs
  in
  let outcome =
    Ilp.solve ~node_limit:2_000 ~budget ~lazy_cuts ?presolve ?cuts ?pool ilp
  in
  (fp outcome, Ilp.last_stats ilp)

let jobs_differential_prop =
  QCheck.Test.make ~name:"jobs=1 = jobs=4 bit-identical (outcome + run_stats)" ~count:50
    QCheck.small_nat (fun seed ->
      let serial = run_once ~seed ~pool:None ~cancel_after:None () in
      let parallel =
        Domain_pool.with_pool ~jobs:4 (fun p ->
            run_once ~seed ~pool:(Some p) ~cancel_after:None ())
      in
      serial = parallel)

let budget_truncation_differential_prop =
  (* cancelling the budget from inside the lazy-cut callback truncates the
     search at a point that only depends on the trajectory — so even the
     truncated outcome and its effort stats must match across job counts *)
  QCheck.Test.make ~name:"budget-expiry truncation identical across jobs" ~count:30
    QCheck.small_nat (fun seed ->
      let serial = run_once ~seed ~pool:None ~cancel_after:(Some 1) () in
      let parallel =
        Domain_pool.with_pool ~jobs:4 (fun p ->
            run_once ~seed ~pool:(Some p) ~cancel_after:(Some 1) ())
      in
      serial = parallel)

let ablation_objective_prop =
  (* presolve and cover cuts change effort, never results: outcome class and
     optimal objective agree with each pass disabled.  No lazy cuts here —
     a no-good callback rejects whichever candidate the trajectory reaches
     first, so with it the four runs would (legitimately) solve different
     final models. *)
  QCheck.Test.make ~name:"presolve/cuts on-vs-off: identical objectives" ~count:40
    QCheck.small_nat (fun seed ->
      let objective_of = function
        | Fp_optimal (o, _) -> Some o
        | Fp_feasible _ | Fp_infeasible | Fp_node_limit | Fp_failed _ -> None
      in
      let class_of = function
        | Fp_optimal _ -> 0
        | Fp_feasible _ -> 1
        | Fp_infeasible -> 2
        | Fp_node_limit -> 3
        | Fp_failed _ -> 4
      in
      let runs =
        [
          run_once ~max_fired:0 ~seed ~pool:None ~cancel_after:None ();
          run_once ~max_fired:0 ~seed ~pool:None ~cancel_after:None ~presolve:false ();
          run_once ~max_fired:0 ~seed ~pool:None ~cancel_after:None ~cuts:false ();
          run_once ~max_fired:0 ~seed ~pool:None ~cancel_after:None ~presolve:false
            ~cuts:false ();
        ]
      in
      let o0, _ = List.hd runs in
      List.for_all
        (fun (o, _) ->
          class_of o = class_of o0
          &&
          match (objective_of o, objective_of o0) with
          | Some a, Some b -> abs_float (a -. b) < 1e-6
          | None, None -> true
          | Some _, None | None, Some _ -> false)
        runs)

let upper_bound_random_prop =
  (* the per-solve cutoff row must behave exactly like incumbent priming:
     a bound above the optimum leaves it visible, one below hides it, and
     the builder stays reusable afterwards *)
  QCheck.Test.make ~name:"cutoff row = incumbent priming on random models" ~count:30
    QCheck.small_nat (fun seed ->
      match run_once ~max_fired:0 ~seed ~pool:None ~cancel_after:None () with
      | Fp_optimal (opt, _), _ ->
        let rng = Rng.create ~seed in
        let ilp, _ = random_model rng in
        (match Ilp.solve ~upper_bound:(opt +. 0.5) ilp with
         | Ilp.Optimal s when abs_float (s.Ilp.objective -. opt) < 1e-6 ->
           (* same builder, re-solved with the bound below the optimum *)
           Ilp.solve ~upper_bound:(opt -. 0.5) ilp = Ilp.Infeasible
         | _ -> false)
      | _ -> QCheck.assume_fail ())

let () =
  let qt = QCheck_alcotest.to_alcotest in
  (* exact-value assertions require the fault-free pipeline *)
  Mf_util.Chaos.neutralise ();
  Alcotest.run "mf_ilp"
    [
      ( "branch-and-bound",
        [
          Alcotest.test_case "knapsack" `Quick test_knapsack;
          Alcotest.test_case "fractional relaxation" `Quick test_rounding_forced;
          Alcotest.test_case "set cover" `Quick test_set_cover;
          Alcotest.test_case "infeasible" `Quick test_infeasible;
          Alcotest.test_case "continuous mix" `Quick test_continuous_mix;
          Alcotest.test_case "lazy cuts" `Quick test_lazy_cuts;
          Alcotest.test_case "upper bound pruning" `Quick test_upper_bound_prunes;
          Alcotest.test_case "node limit" `Quick test_node_limit;
          Alcotest.test_case "equality row" `Quick test_equality_row;
          Alcotest.test_case "root and best bounds" `Quick test_bounds;
          qt random_cover_prop;
        ] );
      ( "parallel differential",
        [
          qt jobs_differential_prop;
          qt budget_truncation_differential_prop;
          qt ablation_objective_prop;
          qt upper_bound_random_prop;
        ] );
    ]
