(* mfdft command-line tool: render chips, generate single-source
   single-meter test programs, schedule assays, and run the full DFT +
   valve-sharing codesign. *)

open Cmdliner

module Chip = Mf_arch.Chip
module Assays = Mf_bioassay.Assays
module Benchmarks = Mf_chips.Benchmarks
module Pathgen = Mf_testgen.Pathgen
module Cutgen = Mf_testgen.Cutgen
module Vectors = Mf_testgen.Vectors
module Scheduler = Mf_sched.Scheduler
module Codesign = Mfdft.Codesign

(* File inputs load tolerantly: parse warnings (unknown directives,
   duplicate headers) go to stderr instead of rejecting the file. *)
let warn_diags diags =
  List.iter (fun d -> Format.eprintf "%a@." Mf_util.Diag.pp d) diags

let diags_msg file diags =
  `Msg
    (Format.asprintf "%s: %a" file Mf_util.Diag.pp
       (match Mf_util.Diag.errors diags with d :: _ -> d | [] -> List.hd diags))

let chip_conv =
  let parse s =
    match Benchmarks.by_name s with
    | Some chip -> Ok chip
    | None ->
      if Sys.file_exists s then
        match Mf_arch.Chip_io.load_diags s with
        | Ok (chip, warnings) ->
          warn_diags warnings;
          Ok chip
        | Error diags -> Error (diags_msg s diags)
      else
        Error
          (`Msg
             (Printf.sprintf "unknown chip %S (benchmarks: %s; or pass a .chip file)" s
                (String.concat ", " Benchmarks.names)))
  in
  Arg.conv (parse, fun ppf chip -> Fmt.string ppf (Chip.name chip))

let assay_conv =
  let parse s =
    match Assays.by_name s with
    | Some app -> Ok (s, app)
    | None ->
      if Sys.file_exists s then
        match Mf_bioassay.Assay_io.load_diags s with
        | Ok (app, warnings) ->
          warn_diags warnings;
          Ok (Filename.remove_extension (Filename.basename s), app)
        | Error diags -> Error (diags_msg s diags)
      else
        Error
          (`Msg
             (Printf.sprintf "unknown assay %S (bundled: %s; or pass a .assay file)" s
                (String.concat ", " Assays.names)))
  in
  Arg.conv (parse, fun ppf (name, _) -> Fmt.string ppf name)

let chip_arg =
  Arg.(required & opt (some chip_conv) None & info [ "chip" ] ~docv:"CHIP" ~doc:"Benchmark chip (ivd_chip, ra30_chip, mrna_chip).")

let assay_arg =
  Arg.(required & opt (some assay_conv) None & info [ "assay" ] ~docv:"ASSAY" ~doc:"Bioassay (ivd, pid, cpa).")

(* ------------------------------------------------------------------ *)

(* Shared flags and output for the static-verification commands. *)

let strict_arg =
  Arg.(
    value
    & flag
    & info [ "strict" ]
        ~doc:"Exit non-zero on warnings too, not only on errors (CI gating).")

let json_arg =
  Arg.(value & flag & info [ "json" ] ~doc:"Emit diagnostics as a JSON array, one per line.")

let emit_diags ~json ~strict diags =
  if json then print_string (Mf_util.Diag.json_list diags)
  else Format.printf "%a@." Mf_util.Diag.pp_list diags;
  exit (Mf_util.Diag.exit_code ~strict diags)

let lint_cmd =
  let run chip strict json = emit_diags ~json ~strict (Mf_verify.Lint.chip chip) in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Statically check a chip netlist (dangling channels, unwired ports, valve placement, \
          reachability, DFT consistency, control-line numbering; codes MF0xx).")
    Term.(const run $ chip_arg $ strict_arg $ json_arg)

let verify_cmd =
  let run chip cert_path strict json =
    match Mf_verify.Cert.load cert_path with
    | Error diags -> emit_diags ~json ~strict diags
    | Ok cert ->
      emit_diags ~json ~strict (Mf_verify.Verify.certificate chip cert)
  in
  let cert_path =
    Arg.(
      required
      & opt (some file) None
      & info [ "cert" ] ~docv:"FILE" ~doc:"Certificate file written by codesign --cert.")
  in
  Cmd.v
    (Cmd.info "verify"
       ~doc:
         "Re-prove a DFT test certificate against a chip with graph reachability and an \
          independent fault simulation — no ILP/LP/PSO involvement (codes MF1xx/MF2xx, plus \
          the MF0xx lints).")
    Term.(const run $ chip_arg $ cert_path $ strict_arg $ json_arg)

let list_cmd =
  let run () =
    Format.printf "chips : %s@." (String.concat ", " Benchmarks.names);
    Format.printf "assays: %s@." (String.concat ", " Assays.names)
  in
  Cmd.v (Cmd.info "list" ~doc:"List benchmark chips and assays.") Term.(const run $ const ())

let render_cmd =
  let run chip =
    Format.printf "%a@.%s@." Chip.pp chip (Chip.render chip)
  in
  Cmd.v (Cmd.info "render" ~doc:"Draw a chip's layout.") Term.(const run $ chip_arg)

let deadline_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "deadline" ] ~docv:"SECS"
        ~doc:
          "Wall-clock budget in seconds. When it expires, solvers degrade gracefully and \
           return their best feasible result so far instead of failing.")

(* [MFDFT_PROF=1] per-stage wall-time/pivot breakdown, printed to stderr
   after the solver-heavy commands; a no-op otherwise *)
let prof_dump () =
  match Mf_util.Prof.report () with
  | None -> ()
  | Some table -> Format.eprintf "@.== MFDFT_PROF stage breakdown ==@.%s@." table

let testgen_cmd =
  let run chip node_limit deadline =
    let budget = Option.map Mf_util.Budget.of_seconds deadline in
    match Pathgen.generate ~node_limit ?budget chip with
    | Error f ->
      Format.eprintf "error: %a@." Mf_util.Fail.pp f;
      exit 1
    | Ok config ->
      if config.Pathgen.degraded then
        Format.printf "note: ILP budget exhausted; configuration from the greedy heuristic@.";
      let aug = Pathgen.apply chip config in
      let cuts = Cutgen.generate aug ~source:config.Pathgen.src_port ~meter:config.Pathgen.dst_port in
      let suite = Vectors.of_config config cuts in
      let suite, report = Mf_testgen.Repair.validate aug suite in
      let ports = Chip.ports chip in
      Format.printf "source port: %s  meter port: %s@."
        ports.(config.Pathgen.src_port).Chip.port_name
        ports.(config.Pathgen.dst_port).Chip.port_name;
      Format.printf "DFT valves added: %d  test paths: %d  cuts: %d  vectors: %d@."
        (List.length config.Pathgen.added_edges)
        (List.length suite.Vectors.path_edges)
        (List.length suite.Vectors.cut_valves)
        (Vectors.count suite);
      Format.printf "%s@." (Chip.render aug);
      Format.printf "fault simulation: %a@." Mf_faults.Coverage.pp report;
      prof_dump ();
      if not (Mf_faults.Coverage.complete report) then exit 2
  in
  let node_limit =
    Arg.(value & opt int 1200 & info [ "ilp-budget" ] ~docv:"NODES" ~doc:"ILP node budget.")
  in
  Cmd.v
    (Cmd.info "testgen" ~doc:"Generate the single-source single-meter test program for a chip.")
    Term.(const run $ chip_arg $ node_limit $ deadline_arg)

let schedule_cmd =
  let run chip (assay_name, app) transport_cost verbose =
    let options = { Scheduler.default_options with transport_cost } in
    match Scheduler.run ~options chip app with
    | Error f ->
      Format.eprintf "schedule failed: %a@." Mf_sched.Schedule.pp_failure f;
      exit 1
    | Ok s ->
      Format.printf "%s on %s: %a@." assay_name (Chip.name chip) Mf_sched.Schedule.pp s;
      if verbose then
        List.iter
          (fun ev ->
            match ev with
            | Mf_sched.Schedule.Op_started { op; device; time } ->
              Format.printf "  t=%4d  start op %d on device %d@." time op device
            | Mf_sched.Schedule.Op_finished { op; device; time } ->
              Format.printf "  t=%4d  finish op %d on device %d@." time op device
            | Mf_sched.Schedule.Transport_started { unit_id; time; finish; _ } ->
              Format.printf "  t=%4d  move fluid %d (arrives %d)@." time unit_id finish
            | Mf_sched.Schedule.Unit_stored { unit_id; edge; time } ->
              Format.printf "  t=%4d  store fluid %d in channel %d@." time unit_id edge
            | Mf_sched.Schedule.Unit_parked { unit_id; port_node; time } ->
              Format.printf "  t=%4d  park fluid %d at port node %d@." time unit_id port_node)
          s.Mf_sched.Schedule.events
  in
  let transport_cost =
    Arg.(value & opt int 1 & info [ "transport-cost" ] ~docv:"TICKS" ~doc:"Ticks per channel segment.")
  in
  let verbose = Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Print the event log.") in
  Cmd.v
    (Cmd.info "schedule" ~doc:"Schedule an assay on a chip and report the execution time.")
    Term.(const run $ chip_arg $ assay_arg $ transport_cost $ verbose)

let codesign_cmd =
  let run chip (assay_name, app) full seed jobs report deadline ckpt_path ckpt_every resume
      stop_after chaos cert_prefix =
    (match chaos with
     | None -> ()
     | Some rate ->
       Mf_util.Chaos.set (Some { Mf_util.Chaos.rate; seed = Mf_util.Chaos.default_seed }));
    let budget = Option.map Mf_util.Budget.of_seconds deadline in
    let checkpoint =
      match ckpt_path with
      | None ->
        if resume || stop_after <> None then begin
          Format.eprintf "error: --resume/--stop-after require --checkpoint FILE@.";
          exit 1
        end;
        None
      | Some path -> Some { Codesign.path; every = ckpt_every; resume; stop_after }
    in
    let jobs = match jobs with Some j -> max 1 j | None -> 1 in
    let params =
      let base = if full then Codesign.default_params else Codesign.quick_params in
      { base with Codesign.seed; jobs }
    in
    Format.printf "codesign %s / %s (%s budgets, seed %d, %d job%s)...@." (Chip.name chip)
      assay_name
      (if full then "paper-scale" else "quick")
      seed jobs
      (if jobs = 1 then "" else "s");
    match Codesign.run ~params ?budget ?checkpoint chip app with
    | Error f ->
      Format.eprintf "error: %a@." Mf_util.Fail.pp f;
      exit 1
    | Ok r ->
      let pp_time ppf = function Some t -> Fmt.pf ppf "%d s" t | None -> Fmt.pf ppf "n/a" in
      Format.printf "%s@." (Chip.render r.Codesign.augmented);
      Format.printf "DFT valves: %d  sharing: %d  vectors: %d  runtime: %.1f s@."
        r.Codesign.n_dft_valves r.Codesign.n_shared r.Codesign.n_vectors_dft r.Codesign.runtime;
      Format.printf "exec original: %a   DFT free-control: %a   DFT no-PSO: %a   DFT+PSO: %a@."
        pp_time r.Codesign.exec_original pp_time r.Codesign.exec_dft_unshared pp_time
        r.Codesign.exec_dft_no_pso pp_time r.Codesign.exec_final;
      (match r.Codesign.degradations with
       | [] -> ()
       | ds ->
         Format.printf "degraded result (still valid):@.";
         List.iter (fun d -> Format.printf "  - %s@." (Codesign.degradation_to_string d)) ds);
      (* automatic post-codesign verification: the independent checker must
         accept the result (degraded or not) before we hand it out *)
      let diags = Codesign.verify r in
      let n_err, n_warn = Mf_util.Diag.count diags in
      Format.printf "verification (independent re-proof): %d error(s), %d warning(s)@." n_err
        n_warn;
      List.iter (fun d -> Format.printf "  %a@." Mf_util.Diag.pp d) diags;
      (match cert_prefix with
       | None -> ()
       | Some prefix ->
         let chip_path = prefix ^ ".chip" and cert_path = prefix ^ ".cert" in
         Mf_arch.Chip_io.save chip_path r.Codesign.shared;
         Mf_verify.Cert.save cert_path (Codesign.certificate r);
         Format.printf "certificate written: %s + %s (re-check with: mfdft verify --chip %s --cert %s)@."
           chip_path cert_path chip_path cert_path);
      (match report with
       | None -> ()
       | Some path ->
         Mfdft.Report.save path r;
         Format.printf "report written to %s@." path);
      prof_dump ();
      if n_err > 0 then exit 2
  in
  let full = Arg.(value & flag & info [ "full" ] ~doc:"Paper-scale PSO budgets (100 iterations).") in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"PSO random seed.") in
  let jobs =
    Arg.(
      value
      & opt (some int) None
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:
            "Evaluate PSO particles on $(docv) domains. Results are identical for any value; \
             only the wall clock changes. Defaults to 1 (serial).")
  in
  let report =
    Arg.(value & opt (some string) None & info [ "report" ] ~docv:"FILE" ~doc:"Write a Markdown report.")
  in
  let ckpt_path =
    Arg.(
      value
      & opt (some string) None
      & info [ "checkpoint" ] ~docv:"FILE"
          ~doc:"Save the outer-PSO state to $(docv) periodically so the run can be resumed.")
  in
  let ckpt_every =
    Arg.(
      value
      & opt int 5
      & info [ "checkpoint-every" ] ~docv:"N" ~doc:"Checkpoint every $(docv) outer iterations.")
  in
  let resume =
    Arg.(
      value
      & flag
      & info [ "resume" ]
          ~doc:
            "Resume from the file given with --checkpoint. The resumed run is bit-identical to \
             an uninterrupted run with the same seed and budgets.")
  in
  let stop_after =
    Arg.(
      value
      & opt (some int) None
      & info [ "stop-after" ] ~docv:"N"
          ~doc:
            "Stop after $(docv) outer iterations, saving a checkpoint (for testing \
             interrupted-run recovery).")
  in
  let chaos =
    Arg.(
      value
      & opt (some float) None
      & info [ "chaos" ] ~docv:"RATE"
          ~doc:
            "Software fault injection: make each solver call fail with probability $(docv) \
             (same as MFDFT_CHAOS). Exercises the degradation paths.")
  in
  let cert_prefix =
    Arg.(
      value
      & opt (some string) None
      & info [ "cert" ] ~docv:"PREFIX"
          ~doc:
            "Write the result as $(docv).chip (the shared architecture) plus $(docv).cert \
             (its test certificate), re-checkable offline with $(b,mfdft verify).")
  in
  Cmd.v
    (Cmd.info "codesign" ~doc:"Run the full DFT + valve-sharing codesign flow (Sec. 4.2).")
    Term.(
      const run $ chip_arg $ assay_arg $ full $ seed $ jobs $ report $ deadline_arg $ ckpt_path
      $ ckpt_every $ resume $ stop_after $ chaos $ cert_prefix)

let repair_cmd =
  let module Reconfig = Mf_repair.Reconfig in
  let module Fault = Mf_faults.Fault in
  (* "sa0:EDGE,sa1:VALVE,leak:VALVE,valves:N" — [valves:N] draws N seed-stable
     stuck-open sites the way the chaos harness does *)
  let parse_faults chip ~seed spec =
    let item s =
      match String.split_on_char ':' (String.trim s) with
      | [ "sa0"; e ] -> (
          match int_of_string_opt e with
          | Some e -> Ok [ Fault.Stuck_at_0 e ]
          | None -> Error (Printf.sprintf "bad edge id %S" e))
      | [ "sa1"; v ] -> (
          match int_of_string_opt v with
          | Some v -> Ok [ Fault.Stuck_at_1 v ]
          | None -> Error (Printf.sprintf "bad valve id %S" v))
      | [ "leak"; v ] -> (
          match int_of_string_opt v with
          | Some v -> Ok [ Fault.Leak v ]
          | None -> Error (Printf.sprintf "bad valve id %S" v))
      | [ "valves"; n ] -> (
          match int_of_string_opt n with
          | Some n ->
            Ok
              (List.map
                 (fun v -> Fault.Stuck_at_1 v)
                 (Mf_util.Chaos.sample_sites ~seed ~count:n
                    ~n_sites:(Chip.n_valves chip)))
          | None -> Error (Printf.sprintf "bad count %S" n))
      | _ ->
        Error
          (Printf.sprintf "bad fault %S (expected sa0:EDGE, sa1:VALVE, leak:VALVE or valves:N)" s)
    in
    let rec go acc = function
      | [] -> Ok (List.concat (List.rev acc))
      | s :: rest -> ( match item s with Ok fs -> go (fs :: acc) rest | Error _ as e -> e)
    in
    go [] (List.filter (fun s -> String.trim s <> "") (String.split_on_char ',' spec))
  in
  let run chip assay_opt cert_path faults_spec escalate_spec seed jobs deadline ckpt_path
      ckpt_every resume stop_after out_prefix =
    let budget = Option.map Mf_util.Budget.of_seconds deadline in
    let checkpoint =
      match ckpt_path with
      | None ->
        if resume || stop_after <> None then begin
          Format.eprintf "error: --resume/--stop-after require --checkpoint FILE@.";
          exit 1
        end;
        None
      | Some path -> Some { Reconfig.path; every = ckpt_every; resume; stop_after }
    in
    (* the deployed suite: a shipped certificate, or a fresh in-process
       baseline on the (then DFT-augmented) chip *)
    let baseline =
      match cert_path with
      | Some path -> (
          match Mf_verify.Cert.load path with
          | Error diags ->
            Format.eprintf "error: %a@." Mf_util.Diag.pp
              (match Mf_util.Diag.errors diags with d :: _ -> d | [] -> List.hd diags);
            exit 1
          | Ok cert ->
            let s = cert.Mf_verify.Cert.suite in
            Ok
              ( chip,
                {
                  Vectors.source_port = s.Mf_verify.Cert.source_port;
                  meter_port = s.Mf_verify.Cert.meter_port;
                  path_edges = s.Mf_verify.Cert.path_edges;
                  cut_valves = s.Mf_verify.Cert.cut_valves;
                } ))
      | None -> (
          match Pathgen.generate ~node_limit:800 ?budget chip with
          | Error f -> Error f
          | Ok config ->
            let aug = Pathgen.apply chip config in
            let cuts =
              Cutgen.generate aug ~source:config.Pathgen.src_port
                ~meter:config.Pathgen.dst_port
            in
            let suite = Vectors.of_config config cuts in
            Ok (aug, fst (Mf_testgen.Repair.validate aug suite)))
    in
    match baseline with
    | Error f ->
      Format.eprintf "error: %a@." Mf_util.Fail.pp f;
      exit 1
    | Ok (chip, suite) ->
      let faults =
        match faults_spec with
        | Some spec -> (
            match parse_faults chip ~seed spec with
            | Ok fs -> fs
            | Error msg ->
              Format.eprintf "error: --faults: %s@." msg;
              exit 1)
        | None ->
          List.map
            (fun v -> Fault.Stuck_at_1 v)
            (Mf_util.Chaos.valve_fault_sites ~n_sites:(Chip.n_valves chip))
      in
      if faults = [] then begin
        Format.eprintf
          "error: no faults: pass --faults SPEC or export MFDFT_CHAOS=valve-faults:N@.";
        exit 1
      end;
      let more_faults =
        match escalate_spec with
        | None -> None
        | Some spec -> (
            match parse_faults chip ~seed spec with
            | Ok fs -> Some (fun ~round -> if round = 1 then fs else [])
            | Error msg ->
              Format.eprintf "error: --escalate: %s@." msg;
              exit 1)
      in
      let params = { Reconfig.default_params with Reconfig.seed; jobs = max 1 jobs } in
      Format.printf "repair %s: %d fault(s), %d vector(s) deployed (seed %d, %d job%s)...@."
        (Chip.name chip) (List.length faults) (Vectors.count suite) seed params.Reconfig.jobs
        (if params.Reconfig.jobs = 1 then "" else "s");
      (match
         Reconfig.repair ~params ?budget ?checkpoint
           ?app:(Option.map snd assay_opt) ?more_faults chip suite faults
       with
      | Error f ->
        Format.eprintf "error: %a@." Mf_util.Fail.pp f;
        exit 1
      | Ok r ->
        let st = r.Reconfig.stats in
        List.iter
          (fun f -> Format.printf "fault: %a@." (Fault.pp r.Reconfig.chip) f)
          r.Reconfig.faults;
        Format.printf
          "rounds: %d  damaged: %d  reused: %d  added: %d  candidates: %d  runtime: %.2f s@."
          st.Reconfig.rounds st.Reconfig.damaged st.Reconfig.reused st.Reconfig.added
          st.Reconfig.candidates st.Reconfig.runtime;
        Format.printf "coverage on degraded chip: %a@." Mf_faults.Coverage.pp
          r.Reconfig.coverage;
        List.iter
          (fun f ->
            Format.printf "waived (proved untestable): %a@." (Fault.pp r.Reconfig.chip) f)
          r.Reconfig.untestable;
        (match (r.Reconfig.exec_before, r.Reconfig.exec_after) with
         | Some before, Some after ->
           Format.printf "assay makespan: %d -> %d ticks@." before after
         | _ -> ());
        (match r.Reconfig.degradations with
         | [] -> ()
         | ds ->
           Format.printf "degraded result (still valid):@.";
           List.iter
             (fun d -> Format.printf "  - %s@." (Reconfig.degradation_to_string d))
             ds);
        let diags = Mf_verify.Verify.certificate r.Reconfig.chip r.Reconfig.cert in
        let n_err, n_warn = Mf_util.Diag.count diags in
        Format.printf "re-certification (independent): %d error(s), %d warning(s)@." n_err
          n_warn;
        List.iter (fun d -> Format.printf "  %a@." Mf_util.Diag.pp d) diags;
        (match out_prefix with
         | None -> ()
         | Some prefix ->
           let chip_path = prefix ^ ".chip" and cert_path = prefix ^ ".cert" in
           Mf_arch.Chip_io.save chip_path r.Reconfig.chip;
           Mf_verify.Cert.save cert_path r.Reconfig.cert;
           Format.printf
             "certificate written: %s + %s (re-check with: mfdft verify --chip %s --cert %s)@."
             chip_path cert_path chip_path cert_path);
        prof_dump ();
        if n_err > 0 then exit 2)
  in
  let assay_opt =
    Arg.(
      value
      & opt (some assay_conv) None
      & info [ "assay" ] ~docv:"ASSAY"
          ~doc:"Report the assay's makespan before and after repair.")
  in
  let cert_path =
    Arg.(
      value
      & opt (some file) None
      & info [ "cert" ] ~docv:"FILE"
          ~doc:
            "Deployed certificate to repair (from codesign --cert or a previous repair). \
             Without it a fresh baseline suite is generated in-process.")
  in
  let faults_spec =
    Arg.(
      value
      & opt (some string) None
      & info [ "faults" ] ~docv:"SPEC"
          ~doc:
            "Observed faults: comma-separated sa0:EDGE, sa1:VALVE, leak:VALVE, or valves:N \
             (N seed-stable stuck-open sites, as the chaos harness injects). Defaults to the \
             MFDFT_CHAOS=valve-faults:N environment mode.")
  in
  let escalate_spec =
    Arg.(
      value
      & opt (some string) None
      & info [ "escalate" ] ~docv:"SPEC"
          ~doc:
            "Additional faults (same syntax as --faults) reported after the first repair \
             round completes — exercises the online escalation loop.")
  in
  let seed =
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Seed for valves:N sampling.")
  in
  let jobs =
    Arg.(
      value
      & opt int 1
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:"Generate candidates on $(docv) domains. Results are identical for any value.")
  in
  let ckpt_path =
    Arg.(
      value
      & opt (some string) None
      & info [ "checkpoint" ] ~docv:"FILE"
          ~doc:"Save the repair state to $(docv) after rounds so the run can be resumed.")
  in
  let ckpt_every =
    Arg.(
      value
      & opt int 1
      & info [ "checkpoint-every" ] ~docv:"N" ~doc:"Checkpoint every $(docv) repair rounds.")
  in
  let resume =
    Arg.(
      value
      & flag
      & info [ "resume" ]
          ~doc:
            "Resume from the file given with --checkpoint. The resumed repair is bit-identical \
             to an uninterrupted run; a missing or corrupt file is a hard error.")
  in
  let stop_after =
    Arg.(
      value
      & opt (some int) None
      & info [ "stop-after" ] ~docv:"N"
          ~doc:"Stop after $(docv) repair rounds, saving a checkpoint (interrupted-run testing).")
  in
  let out_prefix =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"PREFIX"
          ~doc:
            "Write the repaired result as $(docv).chip plus $(docv).cert, re-checkable \
             offline with $(b,mfdft verify).")
  in
  Cmd.v
    (Cmd.info "repair"
       ~doc:
         "Incrementally repair a deployed test suite against observed valve/channel faults \
          and re-certify it — damage analysis, warm-started set-cover, typed degradation, \
          never a from-scratch codesign.")
    Term.(
      const run $ chip_arg $ assay_opt $ cert_path $ faults_spec $ escalate_spec $ seed $ jobs
      $ deadline_arg $ ckpt_path $ ckpt_every $ resume $ stop_after $ out_prefix)

let gen_cmd =
  let run family_name size seed out =
    match Mf_chips.Families.by_name family_name with
    | None ->
      Format.eprintf "error: unknown family %S (families: %s)@." family_name
        (String.concat ", " Mf_chips.Families.names);
      exit 1
    | Some f ->
      (* chip and assay share one seeded stream, exactly as the property
         corpus derives its cases: the emitted pair is reproducible from
         (family, size, seed) alone *)
      let rng = Mf_util.Rng.create ~seed in
      let chip = f.Mf_chips.Families.generate_size ~size rng in
      let profile =
        match f.Mf_chips.Families.profile with
        | Mf_chips.Families.Balanced -> Mf_bioassay.Synth_assay.Balanced
        | Mf_chips.Families.Storage_pressure -> Mf_bioassay.Synth_assay.Storage_pressure
      in
      let spec =
        Mf_bioassay.Synth_assay.spec_of_size ~profile (f.Mf_chips.Families.assay_ops ~size)
      in
      let assay = Mf_bioassay.Synth_assay.generate ~spec rng in
      let chip_path = out ^ ".chip" and assay_path = out ^ ".assay" in
      Mf_arch.Chip_io.save chip_path chip;
      Mf_bioassay.Assay_io.save assay_path assay;
      Format.printf "wrote %s (%d ports, %d valves) + %s (%d ops)@." chip_path
        (Array.length (Chip.ports chip))
        (Array.length (Chip.valves chip))
        assay_path
        (Mf_bioassay.Seqgraph.n_ops assay)
  in
  let family_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "family" ] ~docv:"FAMILY"
          ~doc:
            (Printf.sprintf "Chip family (%s)."
               (String.concat ", " Mf_chips.Families.names)))
  in
  let size_arg =
    Arg.(value & opt int 8 & info [ "size" ] ~docv:"N" ~doc:"Family size knob.")
  in
  let seed_arg =
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Generator seed.")
  in
  let out_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "out" ] ~docv:"PREFIX"
          ~doc:"Write $(docv).chip and $(docv).assay, loadable by every other subcommand.")
  in
  Cmd.v
    (Cmd.info "gen"
       ~doc:
         "Generate a chip + matching synthetic assay from a parametric family (ring, fpva, \
          storage); deterministic in --seed.")
    Term.(const run $ family_arg $ size_arg $ seed_arg $ out_arg)

let export_cmd =
  let run chip assay_opt out_dir =
    if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
    let write name contents =
      let path = Filename.concat out_dir name in
      Out_channel.with_open_text path (fun oc -> Out_channel.output_string oc contents);
      Format.printf "wrote %s@." path
    in
    write "chip.svg" (Mf_viz.Svg.chip chip);
    let layout = Mf_control.Control.synthesize chip in
    write "control.svg" (Mf_viz.Svg.control_layer chip layout);
    (match Mf_testgen.Pathgen.generate ~node_limit:600 chip with
     | Error f -> Format.eprintf "testgen failed: %a@." Mf_util.Fail.pp f
     | Ok config ->
       let aug = Mf_testgen.Pathgen.apply chip config in
       write "chip_dft.svg" (Mf_viz.Svg.chip aug);
       write "control_dft.svg" (Mf_viz.Svg.control_layer aug (Mf_control.Control.synthesize aug)));
    match assay_opt with
    | None -> ()
    | Some (assay_name, app) -> (
        match Scheduler.run chip app with
        | Error f -> Format.eprintf "schedule failed: %a@." Mf_sched.Schedule.pp_failure f
        | Ok s -> write (Printf.sprintf "schedule_%s.svg" assay_name) (Mf_viz.Svg.schedule app s))
  in
  let assay_opt =
    Arg.(value & opt (some assay_conv) None & info [ "assay" ] ~docv:"ASSAY" ~doc:"Also export a schedule Gantt chart.")
  in
  let out_dir =
    Arg.(value & opt string "svg-out" & info [ "out" ] ~docv:"DIR" ~doc:"Output directory.")
  in
  Cmd.v
    (Cmd.info "export" ~doc:"Export SVG renderings (flow layer, control layer, schedule).")
    Term.(const run $ chip_arg $ assay_opt $ out_dir)

(* ------------------------------------------------------------------ *)

(* Serve mode: a persistent daemon with a content-addressed result cache
   (see DESIGN.md Sec. 16), plus a thin line-protocol client and the local
   fingerprint printer. *)

module Serve = Mf_serve.Server
module Sjson = Mf_util.Json
module Sproto = Mf_serve.Protocol

let socket_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH"
        ~doc:"Unix-domain socket path (default mfdft.sock; ignored with $(b,--tcp)).")

let tcp_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "tcp" ] ~docv:"PORT" ~doc:"Use loopback TCP on this port instead of a Unix socket.")

let fp_options_args =
  let full =
    Arg.(
      value & flag
      & info [ "full" ] ~doc:"Paper-scale PSO budgets instead of the quick CI budgets.")
  in
  let seed =
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc:"PSO random seed.")
  in
  (full, seed)

let serve_cmd =
  let run socket tcp state jobs mem_cap disk_cap ckpt_every =
    let endpoint =
      match (socket, tcp) with
      | _, Some port -> Serve.Tcp port
      | Some path, None -> Serve.Unix_socket path
      | None, None -> Serve.Unix_socket "mfdft.sock"
    in
    let jobs = match jobs with Some j -> max 1 j | None -> 1 in
    Serve.run
      {
        Serve.endpoint;
        state_dir = state;
        jobs;
        mem_capacity = mem_cap;
        disk_capacity = disk_cap;
        checkpoint_every = ckpt_every;
      }
  in
  let state_arg =
    Arg.(
      value & opt string "mfdft-state"
      & info [ "state" ] ~docv:"DIR"
          ~doc:"State directory: result cache, persisted job specs and checkpoints.")
  in
  let jobs_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "jobs" ] ~docv:"N" ~doc:"Worker domains shared across all jobs (default 1).")
  in
  let mem_arg =
    Arg.(value & opt int 256 & info [ "mem-cache" ] ~docv:"N" ~doc:"In-memory cache entries.")
  in
  let disk_arg =
    Arg.(value & opt int 4096 & info [ "disk-cache" ] ~docv:"N" ~doc:"On-disk cache entries.")
  in
  let ckpt_arg =
    Arg.(
      value & opt int 1
      & info [ "checkpoint-every" ] ~docv:"N"
          ~doc:"Snapshot running jobs every N outer iterations (crash-recovery granularity).")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the DFT-as-a-service daemon: a job queue over one shared domain pool with a \
          content-addressed result cache and crash recovery.")
    Term.(
      const run $ socket_arg $ tcp_arg $ state_arg $ jobs_arg $ mem_arg $ disk_arg $ ckpt_arg)

let source_conv kind known =
  let parse s =
    if List.mem s known then Ok (Sproto.Name s)
    else if Sys.file_exists s then
      Ok (Sproto.Text (In_channel.with_open_text s In_channel.input_all))
    else
      Error
        (`Msg
           (Printf.sprintf "unknown %s %S (known: %s; or pass a file)" kind s
              (String.concat ", " known)))
  in
  let print ppf = function
    | Sproto.Name n -> Fmt.string ppf n
    | Sproto.Text _ -> Fmt.string ppf "<inline>"
  in
  Arg.conv (parse, print)

let chip_source_arg =
  Arg.(
    value
    & opt (some (source_conv "chip" Benchmarks.names)) None
    & info [ "chip" ] ~docv:"CHIP" ~doc:"Benchmark chip name or a .chip file (sent inline).")

let assay_source_arg =
  Arg.(
    value
    & opt (some (source_conv "assay" Assays.names)) None
    & info [ "assay" ] ~docv:"ASSAY" ~doc:"Assay name or a .assay file (sent inline).")

let submit_cmd =
  let run socket tcp raw chip assay full seed priority deadline no_wait =
    let addr =
      match (socket, tcp) with
      | _, Some port -> Unix.ADDR_INET (Unix.inet_addr_loopback, port)
      | Some path, None -> Unix.ADDR_UNIX path
      | None, None -> Unix.ADDR_UNIX "mfdft.sock"
    in
    let domain = match addr with Unix.ADDR_UNIX _ -> Unix.PF_UNIX | _ -> Unix.PF_INET in
    let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
    (try Unix.connect fd addr
     with Unix.Unix_error (e, _, _) ->
       Format.eprintf "error: cannot connect: %s@." (Unix.error_message e);
       exit 1);
    let ic = Unix.in_channel_of_descr fd in
    let oc = Unix.out_channel_of_descr fd in
    let send line =
      output_string oc line;
      output_char oc '\n';
      flush oc
    in
    let request =
      match raw with
      | Some line -> line
      | None ->
        let need name = function
          | Some v -> v
          | None ->
            Format.eprintf "error: --%s is required (or use --raw)@." name;
            exit 1
        in
        let spec =
          {
            Sproto.chip = need "chip" chip;
            assay = need "assay" assay;
            options = { Mf_serve.Fingerprint.full; seed };
            priority;
            deadline;
            wait = not no_wait;
          }
        in
        (match (Sproto.submit_to_json spec, deadline) with
         | Sjson.Obj kvs, Some d -> Sjson.to_line (Sjson.Obj (kvs @ [ ("deadline", Sjson.Num d) ]))
         | j, _ -> Sjson.to_line j)
    in
    send request;
    (* print response lines until the payload (or an error) terminates the
       exchange; --raw and --no-wait exchanges end sooner *)
    let rec pump () =
      match input_line ic with
      | exception (End_of_file | Sys_error _) -> 0
      | line ->
        print_endline line;
        (match Sjson.parse line with
         | Error _ -> pump ()
         | Ok j ->
           if Sjson.str_field "type" j = Some "result" then 0
           else if Sjson.member "ok" j = Some (Sjson.Bool false) then 1
           else if raw <> None then 0
           else if no_wait && Sjson.member "cached" j = Some (Sjson.Bool false) then 0
           else pump ())
    in
    let code = pump () in
    (try Unix.close fd with Unix.Unix_error _ -> ());
    if code <> 0 then exit code
  in
  let raw_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "raw" ] ~docv:"LINE"
          ~doc:"Send this protocol line verbatim (e.g. '{\"cmd\":\"stats\"}') and print the reply.")
  in
  let priority_arg =
    Arg.(value & opt int 0 & info [ "priority" ] ~docv:"N" ~doc:"Higher runs first (default 0).")
  in
  let deadline_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "deadline" ] ~docv:"SECONDS"
          ~doc:"Wall-clock budget; budgeted jobs are never cached or deduplicated.")
  in
  let no_wait_arg =
    Arg.(
      value & flag
      & info [ "no-wait" ] ~doc:"Acknowledge only; poll later with --raw '{\"cmd\":\"result\",...}'.")
  in
  let full_arg, seed_arg = fp_options_args in
  Cmd.v
    (Cmd.info "submit" ~doc:"Submit a codesign job to a running serve daemon.")
    Term.(
      const run $ socket_arg $ tcp_arg $ raw_arg $ chip_source_arg $ assay_source_arg
      $ full_arg $ seed_arg $ priority_arg $ deadline_arg $ no_wait_arg)

let fingerprint_cmd =
  let run chip (_, app) full seed =
    print_endline
      (Mf_serve.Fingerprint.digest ~chip ~assay:app ~options:{ Mf_serve.Fingerprint.full; seed })
  in
  let full_arg, seed_arg = fp_options_args in
  Cmd.v
    (Cmd.info "fingerprint"
       ~doc:
         "Print the canonical content fingerprint of a chip + assay + options submission — \
          the serve cache's address, computed over the parsed representation.")
    Term.(const run $ chip_arg $ assay_arg $ full_arg $ seed_arg)

let () =
  let info =
    Cmd.info "mfdft" ~version:"1.0.0"
      ~doc:"Design-for-testability for continuous-flow microfluidic biochips (DAC 2018 reproduction)."
  in
  let group =
    Cmd.group info
      [ list_cmd; render_cmd; gen_cmd; lint_cmd; verify_cmd; testgen_cmd; schedule_cmd;
        codesign_cmd; repair_cmd; export_cmd; serve_cmd; submit_cmd; fingerprint_cmd ]
  in
  (* One-line diagnostics instead of backtraces: anything the commands do
     not handle themselves surfaces as "mfdft: error: ..." with exit 3. *)
  let code =
    try Cmd.eval ~catch:false group
    with e ->
      Format.eprintf "mfdft: error: %s@." (Printexc.to_string e);
      3
  in
  exit code
