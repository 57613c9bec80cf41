(* Differential tests for the scheduler fast path: the incrementally
   maintained bitset/CSR implementation behind [Scheduler.run]/[makespan]
   must agree bit-for-bit with the first-principles reference
   ([Scheduler.run_reference], the seed implementation), on the benchmark
   matrix and on random synthetic chips/assays/sharing schemes.  A tiny
   codesign on the scheduler-heavy ivd_chip x ivd pair is pinned exactly
   and must not depend on the job count or on a kill/resume. *)

module Chip = Mf_arch.Chip
module Seqgraph = Mf_bioassay.Seqgraph
module Assays = Mf_bioassay.Assays
module Synth_assay = Mf_bioassay.Synth_assay
module Scheduler = Mf_sched.Scheduler
module Schedule = Mf_sched.Schedule
module Prep = Mf_sched.Prep
module Benchmarks = Mf_chips.Benchmarks
module Synth = Mf_chips.Synth
module Sharing = Mfdft.Sharing
module Codesign = Mfdft.Codesign
module Rng = Mf_util.Rng
module Pool = Mfdft.Pool

let check = Alcotest.check

let schedule : Schedule.t Alcotest.testable = Alcotest.testable Schedule.pp ( = )

let failure : Schedule.failure Alcotest.testable =
  Alcotest.testable Schedule.pp_failure ( = )

let result = Alcotest.result schedule failure

let chips = [ "ivd_chip"; "ra30_chip"; "mrna_chip" ]
let assays = [ "ivd"; "pid"; "cpa" ]

let option_variants =
  [
    ("default", Scheduler.default_options);
    ("wash", { Scheduler.default_options with wash = true });
    ("no-storage", { Scheduler.default_options with allow_storage = false });
    ("no-sharing", { Scheduler.default_options with respect_sharing = false });
  ]

(* fast = reference, full schedule (events included), across the benchmark
   matrix and every option variant *)
let test_benchmark_differential () =
  List.iter
    (fun cn ->
      let chip = Option.get (Benchmarks.by_name cn) in
      List.iter
        (fun an ->
          let app = Option.get (Assays.by_name an) in
          List.iter
            (fun (vn, options) ->
              let fast = Scheduler.run ~options chip app in
              let slow = Scheduler.run_reference ~options chip app in
              check result (Printf.sprintf "%s/%s/%s" cn an vn) slow fast)
            option_variants)
        assays)
    chips

(* explicit prep, prep reuse across assays, and the makespan entries all
   agree with [run] *)
let test_prep_and_entries () =
  let prep_tbl = List.map (fun cn -> (cn, Prep.of_chip (Option.get (Benchmarks.by_name cn)))) chips in
  List.iter
    (fun cn ->
      let chip = Option.get (Benchmarks.by_name cn) in
      let prep = List.assoc cn prep_tbl in
      List.iter
        (fun an ->
          let app = Option.get (Assays.by_name an) in
          let name = Printf.sprintf "%s/%s" cn an in
          let plain = Scheduler.run chip app in
          let with_prep = Scheduler.run ~prep chip app in
          check result (name ^ " prep irrelevant") plain with_prep;
          let m = match plain with Ok s -> Some s.Schedule.makespan | Error _ -> None in
          check (Alcotest.option Alcotest.int) (name ^ " makespan entry") m
            (Scheduler.makespan ~prep chip app))
        assays)
    chips

(* [Prep.for_sharing] on a rewired chip equals building from scratch, and
   the fast path stays faithful under sharing-induced deadlocks *)
let test_sharing_differential () =
  let rng = Rng.create ~seed:7101 in
  let chip = Option.get (Benchmarks.by_name "ivd_chip") in
  let app = Assays.ivd () in
  let base = Prep.of_chip chip in
  for i = 0 to 19 do
    let scheme = Sharing.random rng chip in
    let shared = Sharing.apply chip scheme in
    let prep = Prep.for_sharing base shared in
    let fast = Scheduler.run ~prep shared app in
    let slow = Scheduler.run_reference shared app in
    check result (Printf.sprintf "sharing %d" i) slow fast;
    let scratch = Scheduler.run ~prep:(Prep.of_chip shared) shared app in
    check result (Printf.sprintf "sharing %d for_sharing=of_chip" i) fast scratch
  done

(* fast = reference on the chips the sharing fitness schedules: random
   sharing schemes of the pool entries of ivd_chip and ra30_chip under cpa,
   where the fast path answers most route and storage queries from its
   per-generation memo *)
let test_pool_entry_differential () =
  let app = Assays.cpa () in
  let stored = ref 0 in
  List.iter
    (fun cn ->
      let chip = Option.get (Benchmarks.by_name cn) in
      match Pool.build ~size:3 ~node_limit:300 ~rng:(Rng.create ~seed:23) chip with
      | Error f -> Alcotest.fail (Mf_util.Fail.to_string f)
      | Ok pool ->
        Array.iteri
          (fun k (entry : Pool.entry) ->
            let aug = entry.Pool.augmented in
            let base = Prep.of_chip aug in
            let rng = Rng.create ~seed:99 in
            for i = 0 to 10 do
              let scheme = if i = 0 then [] else Sharing.random rng aug in
              let shared = Sharing.apply aug scheme in
              let prep = Prep.for_sharing base shared in
              List.iter
                (fun (vn, options) ->
                  let fast = Scheduler.run ~options ~prep shared app in
                  let slow = Scheduler.run_reference ~options shared app in
                  (match fast with
                   | Ok s -> stored := !stored + s.Schedule.n_stored
                   | Error _ -> ());
                  check result (Printf.sprintf "%s entry %d scheme %d %s" cn k i vn) slow fast)
                [ ("default", Scheduler.default_options);
                  ("wash", { Scheduler.default_options with wash = true }) ]
            done)
          (Pool.entries pool))
    [ "ivd_chip"; "ra30_chip" ];
  check Alcotest.bool "storage searches ran" true (!stored > 0)

(* random synthetic chips x random assays x option variants *)
let qcheck_synth_differential =
  QCheck.Test.make ~name:"fast path equals reference on synthetic instances" ~count:25
    QCheck.small_int (fun seed ->
      let rng = Rng.create ~seed:(9000 + seed) in
      let spec =
        {
          Synth.default_spec with
          mixers = 1 + Rng.int rng 3;
          detectors = 1 + Rng.int rng 2;
          ports = 2 + Rng.int rng 3;
          pockets = Rng.int rng 3;
        }
      in
      let chip = Synth.generate ~spec rng in
      let app =
        Synth_assay.generate
          ~spec:{ Synth_assay.default_spec with n_ops = 4 + Rng.int rng 12 }
          rng
      in
      let options =
        {
          Scheduler.default_options with
          wash = Rng.int rng 2 = 0;
          respect_sharing = Rng.int rng 4 > 0;
        }
      in
      let fast = Scheduler.run ~options chip app in
      let slow = Scheduler.run_reference ~options chip app in
      fast = slow)

(* ------------------------------------------------------------------ *)
(* Codesign determinism on a tiny budget: the pair whose fitness loop is
   dominated by schedule simulations. *)

let tiny_params ~jobs =
  {
    Codesign.quick_params with
    Codesign.pool_size = 2;
    ilp_node_limit = 300;
    outer = { Mf_pso.Pso.default_params with particles = 3; iterations = 3 };
    inner = { Mf_pso.Pso.default_params with particles = 3; iterations = 3 };
    seed = 42;
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

let codesign_run ?checkpoint params =
  let chip = Option.get (Benchmarks.by_name "ivd_chip") in
  let app = Assays.ivd () in
  match Codesign.run ~params ?checkpoint chip app with
  | Ok r -> fingerprint r
  | Error f -> Alcotest.fail (Mf_util.Fail.to_string f)

(* recorded when fitness simulations could still be cut short at the
   particle's personal best: the full simulation reaches the same result *)
let pinned =
  ( Some 228,
    Some 228,
    Some 219,
    Some 257,
    7,
    7,
    17,
    [ (12, 7); (13, 1); (14, 11); (15, 6); (16, 10); (17, 7); (18, 5) ],
    [ 228.; 228.; 228. ],
    144 )

let test_codesign_pinned () =
  check Alcotest.bool "tiny ivd_chip/ivd fingerprint" true
    (codesign_run (tiny_params ~jobs:1) = pinned)

let test_codesign_jobs () =
  check Alcotest.bool "jobs=1 ≡ jobs=4" true
    (codesign_run (tiny_params ~jobs:1) = codesign_run (tiny_params ~jobs:4))

let test_codesign_resume () =
  let params = tiny_params ~jobs:1 in
  let path = Filename.temp_file "mfdft_sched_ckpt" ".bin" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      let uninterrupted = codesign_run params in
      (match
         Codesign.run ~params
           ~checkpoint:{ Codesign.path; every = 1; resume = false; stop_after = Some 2 }
           (Option.get (Benchmarks.by_name "ivd_chip"))
           (Assays.ivd ())
       with
      | Ok _ -> Alcotest.fail "stop_after should abort the run"
      | Error _ -> ());
      let resumed =
        codesign_run params
          ~checkpoint:{ Codesign.path; every = 0; resume = true; stop_after = None }
      in
      check Alcotest.bool "resumed ≡ uninterrupted" true
        (uninterrupted = resumed))

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "mf_sched_fast"
    [
      ( "differential",
        [
          Alcotest.test_case "benchmark matrix" `Quick test_benchmark_differential;
          Alcotest.test_case "prep + entries" `Quick test_prep_and_entries;
          Alcotest.test_case "sharing schemes" `Quick test_sharing_differential;
          Alcotest.test_case "pool-entry sharing schemes (cpa)" `Quick
            test_pool_entry_differential;
          qt qcheck_synth_differential;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "pinned fingerprint" `Quick test_codesign_pinned;
          Alcotest.test_case "jobs=1 vs jobs=4" `Quick test_codesign_jobs;
          Alcotest.test_case "kill/resume vs uninterrupted" `Quick test_codesign_resume;
        ] );
    ]
