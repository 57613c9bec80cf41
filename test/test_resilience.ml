(* Resilience contract of the solver pipeline: under injected faults and
   exhausted budgets the flow never crashes — it degrades (heuristic
   configurations, unshared fallback, best-so-far results) or reports a
   typed failure — and an interrupted, checkpointed run resumed later is
   bit-identical to an uninterrupted one. *)

module Chip = Mf_arch.Chip
module Op = Mf_bioassay.Op
module Seqgraph = Mf_bioassay.Seqgraph
module Benchmarks = Mf_chips.Benchmarks
module Assays = Mf_bioassay.Assays
module Pathgen = Mf_testgen.Pathgen
module Vectors = Mf_testgen.Vectors
module Codesign = Mfdft.Codesign
module Budget = Mf_util.Budget
module Chaos = Mf_util.Chaos
module Fail = Mf_util.Fail

let check = Alcotest.check

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

(* A small synthetic chip (one mixer, one heater, one detector, three
   ports on a transport ring) — the second architecture the degradation
   tests must survive, exercising a topology none of the benchmarks has. *)
let synthetic_chip () =
  let b = Chip.builder ~name:"synthetic_chip" ~width:6 ~height:4 in
  Chip.add_device b ~kind:Chip.Mixer ~x:2 ~y:0 ~name:"mixer";
  Chip.add_device b ~kind:Chip.Heater ~x:3 ~y:3 ~name:"heater";
  Chip.add_device b ~kind:Chip.Detector ~x:4 ~y:0 ~name:"detector";
  Chip.add_port b ~x:0 ~y:1 ~name:"in";
  Chip.add_port b ~x:5 ~y:2 ~name:"out";
  Chip.add_port b ~x:2 ~y:3 ~name:"reagent";
  Chip.add_channel b [ (1, 1); (2, 1); (3, 1); (4, 1); (4, 2); (3, 2); (2, 2); (1, 2); (1, 1) ];
  Chip.add_channel b [ (2, 1); (2, 0) ];
  Chip.add_channel b [ (3, 2); (3, 3) ];
  Chip.add_channel b [ (4, 1); (4, 0) ];
  Chip.add_channel b [ (0, 1); (1, 1) ];
  Chip.add_channel b [ (5, 2); (4, 2) ];
  Chip.add_channel b [ (2, 3); (2, 2) ];
  List.iter
    (fun (a, c) -> Chip.add_valve b a c)
    [
      ((0, 1), (1, 1)); ((5, 2), (4, 2)); ((2, 3), (2, 2));
      ((1, 1), (2, 1)); ((2, 1), (3, 1)); ((3, 1), (4, 1));
      ((4, 1), (4, 2)); ((3, 2), (2, 2)); ((2, 2), (1, 2)); ((1, 2), (1, 1));
    ];
  Chip.finish_exn b

let synthetic_assay () =
  Seqgraph.create_exn
    [
      { Op.op_id = 0; kind = Op.Mix; duration = 20; op_name = "mix" };
      { Op.op_id = 1; kind = Op.Heat; duration = 30; op_name = "heat" };
      { Op.op_id = 2; kind = Op.Detect; duration = 10; op_name = "read" };
    ]
    ~edges:[ (0, 1); (1, 2) ]

let tiny_params ~seed =
  {
    Codesign.quick_params with
    Codesign.pool_size = 2;
    ilp_node_limit = 300;
    outer = { Mf_pso.Pso.default_params with particles = 3; iterations = 3 };
    inner = { Mf_pso.Pso.default_params with particles = 3; iterations = 3 };
    seed;
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

let with_chaos rate f =
  Chaos.set (Some { Chaos.rate; seed = Chaos.default_seed });
  Fun.protect ~finally:(fun () -> Chaos.set None) f

let with_chaos_only site rate f =
  Chaos.set ~only:site (Some { Chaos.rate; seed = Chaos.default_seed });
  Fun.protect ~finally:(fun () -> Chaos.set None) f

(* ------------------------------------------------------------------ *)
(* Budget unit behaviour *)

let test_budget_basics () =
  check Alcotest.bool "unlimited never over" false (Budget.over (Some (Budget.unlimited ())));
  check Alcotest.bool "absent budget never over" false (Budget.over None);
  let b = Budget.of_seconds 0. in
  check Alcotest.bool "zero budget immediately over" true (Budget.over (Some b));
  Alcotest.check_raises "negative rejected"
    (Invalid_argument "Budget.of_seconds: negative budget") (fun () ->
      ignore (Budget.of_seconds (-1.)));
  let c = Budget.of_seconds 3600. in
  check Alcotest.bool "fresh hour not over" false (Budget.over (Some c));
  Budget.cancel c;
  check Alcotest.bool "cancelled is over" true (Budget.over (Some c))

(* ------------------------------------------------------------------ *)
(* Chaos harness behaviour *)

let test_chaos_rates () =
  with_chaos 1.0 (fun () ->
      check Alcotest.bool "active" true (Chaos.active ());
      for _ = 1 to 10 do
        check Alcotest.bool "rate 1 always strikes" true (Chaos.strike Chaos.Simplex_iters)
      done);
  check Alcotest.bool "disabled never strikes" false (Chaos.strike Chaos.Simplex_iters);
  with_chaos 1e-12 (fun () ->
      (* astronomically unlikely to strike: the draw machinery itself *)
      check Alcotest.bool "rate ~0 practically never strikes" false
        (Chaos.strike Chaos.Ilp_nodes))

let test_chaos_counts () =
  with_chaos 1.0 (fun () ->
      Chaos.reset_counts ();
      ignore (Chaos.strike Chaos.Simplex_iters);
      ignore (Chaos.strike Chaos.Simplex_iters);
      ignore (Chaos.strike Chaos.Ilp_nodes);
      let n site = try List.assoc site (Chaos.strikes ()) with Not_found -> 0 in
      check Alcotest.int "simplex strikes" 2 (n Chaos.Simplex_iters);
      check Alcotest.int "ilp strikes" 1 (n Chaos.Ilp_nodes);
      check Alcotest.int "no worker strikes" 0 (n Chaos.Worker_delay))

let test_chaos_site_filter () =
  (* MFDFT_CHAOS=<site>:<rate> arms a single strike point *)
  with_chaos_only Chaos.Worker_delay 1.0 (fun () ->
      check Alcotest.bool "filtered site strikes" true (Chaos.strike Chaos.Worker_delay);
      check Alcotest.bool "other sites never strike" false (Chaos.strike Chaos.Simplex_iters);
      check Alcotest.bool "other sites never strike (2)" false (Chaos.strike Chaos.Ilp_nodes))

let test_chaos_parse () =
  (* every MFDFT_CHAOS form either parses to its mode or is rejected with a
     message that names the bad value and lists the sites *)
  let pp ppf = function
    | Ok (Chaos.Strikes { only; rate }) ->
      Format.fprintf ppf "strikes %s at %g"
        (match only with None -> "everywhere" | Some site -> Chaos.site_name site)
        rate
    | Ok (Chaos.Valve_faults n) -> Format.fprintf ppf "valve-faults %d" n
    | Error msg -> Format.fprintf ppf "error %s" msg
  in
  let parsed = Alcotest.testable pp ( = ) in
  check parsed "bare rate" (Ok (Chaos.Strikes { only = None; rate = 0.3 })) (Chaos.parse "0.3");
  check parsed "one site"
    (Ok (Chaos.Strikes { only = Some Chaos.Simplex_iters; rate = 0.5 }))
    (Chaos.parse "simplex-iters:0.5");
  check parsed "valve faults" (Ok (Chaos.Valve_faults 2)) (Chaos.parse "valve-faults:2");
  let rejected value bad =
    match Chaos.parse value with
    | Ok _ -> Alcotest.failf "%s must be rejected" value
    | Error msg ->
      List.iter
        (fun needle ->
          check Alcotest.bool (Printf.sprintf "%s: message names %S" value needle) true
            (contains msg needle))
        (bad
        :: List.map Chaos.site_name [ Chaos.Simplex_iters; Chaos.Ilp_nodes; Chaos.Worker_delay ])
  in
  rejected "ilp-worker:0.3" "ilp-worker";
  rejected "bogus:0.3" "bogus";
  rejected "simplex-iters:x" "\"x\""

(* ------------------------------------------------------------------ *)
(* Typed failures *)

let test_fail_rendering () =
  let f = Fail.v ~elapsed:1.5 ~nodes:42 ~incumbent:"3 paths" Fail.Ilp "node budget exhausted" in
  let s = Fail.to_string f in
  let contains = contains s in
  check Alcotest.bool "names the stage" true (contains "ilp");
  check Alcotest.bool "carries the reason" true (contains "node budget exhausted");
  check Alcotest.bool "carries the node count" true (contains "42");
  check Alcotest.bool "carries the incumbent" true (contains "3 paths")

(* ------------------------------------------------------------------ *)
(* Degradation ladder: forced heuristic configuration *)

let test_pathgen_heuristic_fallback () =
  (* node_limit 0 starves the ILP outright: the greedy heuristic must
     still deliver a configuration flagged as degraded *)
  List.iter
    (fun chip ->
      match Pathgen.generate ~node_limit:0 chip with
      | Error f -> Alcotest.fail (Fail.to_string f)
      | Ok config ->
        check Alcotest.bool "flagged degraded" true config.Pathgen.degraded;
        check Alcotest.bool "still adds dft valves" true (config.Pathgen.added_edges <> []))
    [ Option.get (Benchmarks.by_name "ivd_chip"); synthetic_chip () ]

(* ------------------------------------------------------------------ *)
(* Codesign under injected faults: never crashes, always a valid suite *)

let chaos_codesign_case (label, chip, app, rate, seed) () =
  with_chaos rate (fun () ->
      match Codesign.run ~params:(tiny_params ~seed) chip app with
      | Error f ->
        Alcotest.fail
          (Printf.sprintf "%s: expected a degraded result, got failure: %s" label
             (Fail.to_string f))
      | Ok r ->
        check Alcotest.bool
          (Printf.sprintf "%s: suite valid on the shipped chip" label)
          true
          (Vectors.is_valid r.Codesign.shared r.Codesign.suite);
        if rate >= 1.0 then
          check Alcotest.bool
            (Printf.sprintf "%s: all-faults run is marked degraded" label)
            true (r.Codesign.degradations <> []))

let chaos_codesign_cases =
  [
    ("ivd 30%", Option.get (Benchmarks.by_name "ivd_chip"), Assays.ivd (), 0.3, 42);
    ("ivd 30% reseeded", Option.get (Benchmarks.by_name "ivd_chip"), Assays.ivd (), 0.3, 7);
    ("ivd all faults", Option.get (Benchmarks.by_name "ivd_chip"), Assays.ivd (), 1.0, 42);
    ("synthetic 30%", synthetic_chip (), synthetic_assay (), 0.3, 42);
    ("synthetic all faults", synthetic_chip (), synthetic_assay (), 1.0, 42);
  ]

(* ------------------------------------------------------------------ *)
(* Exhausted budget: the flow still ships a valid (degraded) result *)

let test_zero_budget_still_valid () =
  let chip = Option.get (Benchmarks.by_name "ivd_chip") in
  let app = Assays.ivd () in
  let budget = Budget.of_seconds 0. in
  match Codesign.run ~params:(tiny_params ~seed:42) ~budget chip app with
  | Error f -> Alcotest.fail (Fail.to_string f)
  | Ok r ->
    check Alcotest.bool "suite valid" true (Vectors.is_valid r.Codesign.shared r.Codesign.suite);
    check Alcotest.bool "budget exhaustion recorded" true
      (List.mem Codesign.Budget_exhausted r.Codesign.degradations)

(* ------------------------------------------------------------------ *)
(* Kill/resume differential: interrupted-then-resumed ≡ uninterrupted *)

let test_checkpoint_resume_bit_identical () =
  let chip = Option.get (Benchmarks.by_name "ivd_chip") in
  let app = Assays.ivd () in
  let params = tiny_params ~seed:42 in
  let path = Filename.temp_file "mfdft_ckpt" ".bin" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      let uninterrupted =
        match Codesign.run ~params chip app with
        | Ok r -> fingerprint r
        | Error f -> Alcotest.fail (Fail.to_string f)
      in
      (* kill after 2 of the 3 outer iterations... *)
      (match
         Codesign.run ~params
           ~checkpoint:{ Codesign.path; every = 1; resume = false; stop_after = Some 2 }
           chip app
       with
      | Ok _ -> Alcotest.fail "stop_after should abort the run"
      | Error f ->
        check Alcotest.string "stop is a codesign-stage failure" "codesign"
          (Fail.stage_name f.Fail.stage));
      check Alcotest.bool "checkpoint written" true (Sys.file_exists path);
      (* ...then resume and finish *)
      let resumed =
        match
          Codesign.run ~params
            ~checkpoint:{ Codesign.path; every = 0; resume = true; stop_after = None }
            chip app
        with
        | Ok r -> fingerprint r
        | Error f -> Alcotest.fail (Fail.to_string f)
      in
      check Alcotest.bool "resumed run bit-identical to uninterrupted" true
        (uninterrupted = resumed))

let test_checkpoint_rejects_mismatched_seed () =
  let chip = Option.get (Benchmarks.by_name "ivd_chip") in
  let app = Assays.ivd () in
  let path = Filename.temp_file "mfdft_ckpt" ".bin" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      (match
         Codesign.run ~params:(tiny_params ~seed:42)
           ~checkpoint:{ Codesign.path; every = 1; resume = false; stop_after = Some 1 }
           chip app
       with
      | Ok _ -> Alcotest.fail "stop_after should abort the run"
      | Error _ -> ());
      match
        Codesign.run ~params:(tiny_params ~seed:43)
          ~checkpoint:{ Codesign.path; every = 0; resume = true; stop_after = None }
          chip app
      with
      | Ok _ -> Alcotest.fail "resume with a different seed must be refused"
      | Error f ->
        check Alcotest.string "typed codesign failure" "codesign"
          (Fail.stage_name f.Fail.stage))

(* A damaged checkpoint is refused with a typed codesign failure: a file
   that was never a checkpoint, and a corpus of truncations and single-byte
   flips of a real one.  Never an exception, a signal or a resume from
   altered bytes. *)
let test_checkpoint_corrupt_file () =
  let chip = Option.get (Benchmarks.by_name "ivd_chip") in
  let app = Assays.ivd () in
  let params = tiny_params ~seed:42 in
  let path = Filename.temp_file "mfdft_ckpt" ".bin" in
  let resume_refused label =
    match
      Codesign.run ~params
        ~checkpoint:{ Codesign.path; every = 0; resume = true; stop_after = None }
        chip app
    with
    | Ok _ -> Alcotest.failf "%s: corrupt checkpoint must be refused" label
    | Error f ->
      check Alcotest.string (label ^ ": typed codesign failure") "codesign"
        (Fail.stage_name f.Fail.stage)
  in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc "not a snapshot");
      resume_refused "not a snapshot";
      (match
         Codesign.run ~params
           ~checkpoint:{ Codesign.path; every = 1; resume = false; stop_after = Some 1 }
           chip app
       with
      | Ok _ -> Alcotest.fail "stop_after should abort the run"
      | Error _ -> ());
      let real = Damage.read path in
      check Alcotest.bool "the intact checkpoint verifies" true
        (Codesign.check_checkpoint ~params path = Ok ());
      List.iter
        (fun (label, bytes) ->
          Damage.write path bytes;
          resume_refused label)
        (Damage.variants real))

let test_checkpoint_missing_file () =
  let chip = Option.get (Benchmarks.by_name "ivd_chip") in
  let app = Assays.ivd () in
  let path = Filename.temp_file "mfdft_ckpt" ".bin" in
  Sys.remove path;
  match
    Codesign.run ~params:(tiny_params ~seed:42)
      ~checkpoint:{ Codesign.path; every = 0; resume = true; stop_after = None }
      chip app
  with
  | Ok _ -> Alcotest.fail "resume from a missing checkpoint must be refused, not restarted"
  | Error f ->
    check Alcotest.string "typed codesign failure" "codesign" (Fail.stage_name f.Fail.stage)

(* ------------------------------------------------------------------ *)

let () =
  (* the chaos cases manage injection themselves; start from a clean state
     even under MFDFT_CHAOS so the budget/checkpoint assertions hold *)
  Mf_util.Chaos.neutralise ();
  Alcotest.run "mf_resilience"
    [
      ( "budget",
        [
          Alcotest.test_case "basics" `Quick test_budget_basics;
          Alcotest.test_case "zero budget still valid" `Slow test_zero_budget_still_valid;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "strike rates" `Quick test_chaos_rates;
          Alcotest.test_case "strike counters" `Quick test_chaos_counts;
          Alcotest.test_case "site filter" `Quick test_chaos_site_filter;
          Alcotest.test_case "env parser" `Quick test_chaos_parse;
        ] );
      ( "typed failures",
        [ Alcotest.test_case "rendering" `Quick test_fail_rendering ] );
      ( "degradation",
        [ Alcotest.test_case "heuristic fallback" `Quick test_pathgen_heuristic_fallback ] );
      ( "chaos codesign",
        List.map
          (fun ((label, _, _, _, _) as case) ->
            Alcotest.test_case label `Slow (chaos_codesign_case case))
          chaos_codesign_cases );
      ( "checkpoint",
        [
          Alcotest.test_case "kill/resume bit-identical" `Slow
            test_checkpoint_resume_bit_identical;
          Alcotest.test_case "mismatched seed refused" `Slow
            test_checkpoint_rejects_mismatched_seed;
          Alcotest.test_case "corrupt file refused" `Quick test_checkpoint_corrupt_file;
          Alcotest.test_case "missing file refused" `Quick test_checkpoint_missing_file;
        ] );
    ]
