(* Contract of the fault-adaptive repair engine ([Mf_repair.Reconfig]):
   repairing a deployed suite against injected valve faults re-certifies
   through the independent verifier, keeps the undamaged vectors, is
   bit-identical across job counts and across kill/resume, and fails
   typed — never silently — on a missing or damaged checkpoint.  Plus the
   seed-stable fault sampler ([Mf_util.Chaos.sample_sites]) properties the
   CLI and CI chaos mode rely on, and the certificate round-trip with a
   fault context and audited waivers. *)

module Chip = Mf_arch.Chip
module Benchmarks = Mf_chips.Benchmarks
module Assays = Mf_bioassay.Assays
module Pathgen = Mf_testgen.Pathgen
module Cutgen = Mf_testgen.Cutgen
module Vectors = Mf_testgen.Vectors
module Fault = Mf_faults.Fault
module Coverage = Mf_faults.Coverage
module Reconfig = Mf_repair.Reconfig
module Cert = Mf_verify.Cert
module Chaos = Mf_util.Chaos
module Fail = Mf_util.Fail
module Diag = Mf_util.Diag

let check = Alcotest.check

(* One deployed baseline per chip, built once: DFT augmentation + path and
   cut vectors, exactly what [dft_tool repair] reconstructs when no
   certificate is given. *)
let baseline =
  let tbl = Hashtbl.create 4 in
  fun chip_name ->
    match Hashtbl.find_opt tbl chip_name with
    | Some v -> v
    | None ->
      let chip = Option.get (Benchmarks.by_name chip_name) in
      let config =
        match Pathgen.generate ~node_limit:800 chip with
        | Ok c -> c
        | Error f -> Alcotest.fail (Fail.to_string f)
      in
      let aug = Pathgen.apply chip config in
      let cuts =
        Cutgen.generate aug ~source:config.Pathgen.src_port ~meter:config.Pathgen.dst_port
      in
      let suite = Vectors.of_config config cuts in
      let suite =
        if Vectors.is_valid aug suite then suite else Mf_testgen.Repair.run aug suite
      in
      Hashtbl.add tbl chip_name (aug, suite);
      (aug, suite)

let inject ~seed ~count chip =
  List.map
    (fun v -> Fault.Stuck_at_1 v)
    (Chaos.sample_sites ~seed ~count ~n_sites:(Chip.n_valves chip))

let fingerprint (r : Reconfig.result) =
  ( r.Reconfig.suite,
    r.Reconfig.faults,
    r.Reconfig.untestable,
    r.Reconfig.coverage.Coverage.detected,
    r.Reconfig.coverage.Coverage.total_faults,
    r.Reconfig.degradations,
    r.Reconfig.stats.Reconfig.damaged,
    r.Reconfig.stats.Reconfig.reused,
    r.Reconfig.stats.Reconfig.added )

(* ------------------------------------------------------------------ *)
(* repair re-certifies, and the damage arithmetic closes *)

let test_repair_recertifies () =
  let aug, suite = baseline "ivd_chip" in
  let faults = inject ~seed:1 ~count:1 aug in
  match Reconfig.repair aug suite faults with
  | Error f -> Alcotest.fail (Fail.to_string f)
  | Ok r ->
    let n_err, _ = Diag.count (Mf_verify.Verify.certificate r.Reconfig.chip r.Reconfig.cert) in
    check Alcotest.int "independent re-certification has zero errors" 0 n_err;
    let st = r.Reconfig.stats in
    check Alcotest.int "kept + damaged = deployed suite"
      (Vectors.count suite)
      (st.Reconfig.reused + st.Reconfig.damaged);
    check Alcotest.int "kept + added = repaired suite"
      (Vectors.count r.Reconfig.suite)
      (st.Reconfig.reused + st.Reconfig.added);
    let cov = r.Reconfig.coverage in
    check Alcotest.int "no unwaived escape" cov.Coverage.total_faults cov.Coverage.detected;
    check Alcotest.bool "repaired suite valid under the fault context" true
      (Vectors.is_valid
         ~present:(Mf_faults.Pressure.context r.Reconfig.chip r.Reconfig.faults)
         r.Reconfig.chip r.Reconfig.suite)

let test_repair_jobs_invariant () =
  let aug, suite = baseline "ra30_chip" in
  let faults = inject ~seed:7 ~count:2 aug in
  let run jobs =
    match
      Reconfig.repair ~params:{ Reconfig.default_params with Reconfig.jobs } aug suite faults
    with
    | Ok r -> fingerprint r
    | Error f -> Alcotest.fail (Fail.to_string f)
  in
  check Alcotest.bool "jobs=1 and jobs=4 bit-identical" true (run 1 = run 4)

(* ------------------------------------------------------------------ *)
(* checkpointing: kill/resume differential and the typed missing-file path *)

let test_repair_kill_resume_bit_identical () =
  let aug, suite = baseline "ivd_chip" in
  let faults = inject ~seed:3 ~count:1 aug in
  (* escalate one extra fault after round 1 so the run spans two rounds *)
  let escalation = inject ~seed:11 ~count:2 aug in
  let more_faults ~round =
    if round = 1 then List.filter (fun f -> not (List.mem f faults)) escalation else []
  in
  let path = Filename.temp_file "mfdft_repair_ckpt" ".bin" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      let uninterrupted =
        match Reconfig.repair ~more_faults aug suite faults with
        | Ok r -> fingerprint r
        | Error f -> Alcotest.fail (Fail.to_string f)
      in
      (match
         Reconfig.repair
           ~checkpoint:{ Reconfig.path; every = 1; resume = false; stop_after = Some 1 }
           ~more_faults aug suite faults
       with
      | Ok _ -> Alcotest.fail "stop_after should abort the run"
      | Error f ->
        check Alcotest.string "stop is a repair-stage failure" "repair"
          (Fail.stage_name f.Fail.stage));
      check Alcotest.bool "checkpoint written" true (Sys.file_exists path);
      let resumed =
        match
          Reconfig.repair
            ~checkpoint:{ Reconfig.path; every = 0; resume = true; stop_after = None }
            ~more_faults aug suite faults
        with
        | Ok r -> fingerprint r
        | Error f -> Alcotest.fail (Fail.to_string f)
      in
      check Alcotest.bool "resumed repair bit-identical to uninterrupted" true
        (uninterrupted = resumed))

let test_repair_missing_checkpoint () =
  let aug, suite = baseline "ivd_chip" in
  let faults = inject ~seed:1 ~count:1 aug in
  let path = Filename.temp_file "mfdft_repair_ckpt" ".bin" in
  Sys.remove path;
  match
    Reconfig.repair
      ~checkpoint:{ Reconfig.path; every = 0; resume = true; stop_after = None }
      aug suite faults
  with
  | Ok _ -> Alcotest.fail "resume from a missing checkpoint must be refused"
  | Error f ->
    check Alcotest.string "typed repair failure" "repair" (Fail.stage_name f.Fail.stage)

(* A damaged checkpoint is refused with a typed repair failure: a file
   that was never a checkpoint, and a corpus of truncations and single-byte
   flips of a real one.  Never an exception, a signal or a resume from
   altered bytes; the intact file still resumes. *)
let test_repair_corrupt_checkpoint () =
  let aug, suite = baseline "ivd_chip" in
  let faults = inject ~seed:3 ~count:1 aug in
  let escalation = inject ~seed:11 ~count:2 aug in
  let more_faults ~round =
    if round = 1 then List.filter (fun f -> not (List.mem f faults)) escalation else []
  in
  let path = Filename.temp_file "mfdft_repair_ckpt" ".bin" in
  let resume () =
    Reconfig.repair
      ~checkpoint:{ Reconfig.path; every = 0; resume = true; stop_after = None }
      ~more_faults aug suite faults
  in
  let resume_refused label =
    match resume () with
    | Ok _ -> Alcotest.failf "%s: corrupt checkpoint must be refused" label
    | Error f ->
      check Alcotest.string (label ^ ": typed repair failure") "repair"
        (Fail.stage_name f.Fail.stage)
  in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc "garbage");
      resume_refused "garbage";
      (match
         Reconfig.repair
           ~checkpoint:{ Reconfig.path; every = 1; resume = false; stop_after = Some 1 }
           ~more_faults aug suite faults
       with
      | Ok _ -> Alcotest.fail "stop_after should abort the run"
      | Error _ -> ());
      let real = Damage.read path in
      List.iter
        (fun (label, bytes) ->
          Damage.write path bytes;
          resume_refused label)
        (Damage.variants real);
      Damage.write path real;
      match resume () with
      | Ok _ -> ()
      | Error f -> Alcotest.failf "the intact checkpoint must resume: %s" (Fail.to_string f))

(* ------------------------------------------------------------------ *)
(* the seed-stable fault sampler the CLI and chaos CI mode draw from *)

let test_sample_sites_properties () =
  let n_sites = 37 in
  for seed = 0 to 9 do
    let a = Chaos.sample_sites ~seed ~count:5 ~n_sites in
    let b = Chaos.sample_sites ~seed ~count:5 ~n_sites in
    check Alcotest.bool "seed-stable" true (a = b);
    check Alcotest.int "requested count" 5 (List.length a);
    check Alcotest.bool "sites in range" true (List.for_all (fun v -> v >= 0 && v < n_sites) a);
    check Alcotest.bool "sites distinct" true
      (List.length (List.sort_uniq compare a) = List.length a);
    (* subset-monotone: growing the count only adds sites, so CI jobs at
       different fault budgets agree on the shared faults *)
    let shorter = Chaos.sample_sites ~seed ~count:3 ~n_sites in
    check Alcotest.bool "subset-monotone" true
      (List.for_all (fun v -> List.mem v a) shorter)
  done;
  check Alcotest.bool "different seeds differ somewhere" true
    (List.exists
       (fun seed ->
         Chaos.sample_sites ~seed ~count:5 ~n_sites
         <> Chaos.sample_sites ~seed:(seed + 100) ~count:5 ~n_sites)
       [ 0; 1; 2; 3; 4 ])

(* ------------------------------------------------------------------ *)
(* certificate round-trip with context + waivers, and tamper detection *)

let test_cert_context_roundtrip () =
  let aug, suite = baseline "ivd_chip" in
  let faults = inject ~seed:5 ~count:2 aug in
  match Reconfig.repair aug suite faults with
  | Error f -> Alcotest.fail (Fail.to_string f)
  | Ok r ->
    let cert = r.Reconfig.cert in
    let path = Filename.temp_file "mfdft_repair_cert" ".cert" in
    Fun.protect
      ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
      (fun () ->
        Cert.save path cert;
        match Cert.load path with
        | Error ds ->
          Alcotest.fail (String.concat "; " (List.map (Format.asprintf "%a" Diag.pp) ds))
        | Ok cert' ->
          check Alcotest.bool "context survives the round-trip" true
            (cert'.Cert.context = cert.Cert.context);
          check Alcotest.bool "waivers survive the round-trip" true
            (cert'.Cert.waived = cert.Cert.waived);
          let n_err, _ = Diag.count (Cert.check r.Reconfig.chip cert') in
          check Alcotest.int "reloaded certificate re-proves clean" 0 n_err)

let test_cert_bogus_waiver_rejected () =
  let aug, suite = baseline "ivd_chip" in
  let faults = inject ~seed:5 ~count:1 aug in
  match Reconfig.repair aug suite faults with
  | Error f -> Alcotest.fail (Fail.to_string f)
  | Ok r ->
    let cert = r.Reconfig.cert in
    (* waive a fault the suite demonstrably covers: the audit must refuse
       the waiver (MF103/MF106), not quietly shrink the universe *)
    let covered =
      let report =
        Vectors.validate
          ~present:(Mf_faults.Pressure.context r.Reconfig.chip r.Reconfig.faults)
          r.Reconfig.chip r.Reconfig.suite
      in
      ignore report;
      let undet = r.Reconfig.coverage.Coverage.sa0_undetected in
      let pick = ref None in
      Mf_graph.Graph.iter_edges
        (fun e _ _ ->
          if
            !pick = None
            && Chip.is_channel r.Reconfig.chip e
            && (not (List.mem e undet))
            && not (List.exists (Fault.equal (Fault.Stuck_at_0 e)) cert.Cert.waived)
          then pick := Some e)
        (Mf_grid.Grid.graph (Chip.grid r.Reconfig.chip));
      Option.get !pick
    in
    let tampered = { cert with Cert.waived = Fault.Stuck_at_0 covered :: cert.Cert.waived } in
    let n_err, _ = Diag.count (Cert.check r.Reconfig.chip tampered) in
    check Alcotest.bool "tampered waiver list is rejected" true (n_err > 0)

(* ------------------------------------------------------------------ *)

let () =
  Mf_util.Chaos.neutralise ();
  Alcotest.run "mf_repair"
    [
      ( "repair",
        [
          Alcotest.test_case "single fault re-certifies" `Quick test_repair_recertifies;
          Alcotest.test_case "jobs=1 = jobs=4" `Slow test_repair_jobs_invariant;
        ] );
      ( "checkpoint",
        [
          Alcotest.test_case "kill/resume bit-identical" `Slow
            test_repair_kill_resume_bit_identical;
          Alcotest.test_case "missing file refused" `Quick test_repair_missing_checkpoint;
          Alcotest.test_case "corrupt file refused" `Quick test_repair_corrupt_checkpoint;
        ] );
      ( "sampler",
        [ Alcotest.test_case "seed-stable subset-monotone" `Quick test_sample_sites_properties ]
      );
      ( "certificate",
        [
          Alcotest.test_case "context round-trip" `Quick test_cert_context_roundtrip;
          Alcotest.test_case "bogus waiver rejected" `Quick test_cert_bogus_waiver_rejected;
        ] );
    ]
