(* field_repair: online repair of deployed test suites.  Set-up builds the
   deployed ivd_chip x ivd and ra30_chip x ivd designs with the program's
   own codesign; the timed phase repairs each design's suite against every
   single stuck-at-0/1 valve fault and every pair of them, one domain,
   exec before/after included.  The fault set is exhaustive, so the seed
   only orders it.  No PSO and no Pool.build run in the timed phase. *)

open Measure
module Codesign = Mfdft.Codesign
module Reconfig = Mf_repair.Reconfig
module Chip = Mf_arch.Chip
module Fault = Mf_faults.Fault

let inputs = [ ("ivd_chip", "ivd"); ("ra30_chip", "ivd") ]
let jobs = 2

type design = {
  label : string;
  app : Mf_bioassay.Seqgraph.t;
  r : Codesign.result;
}

let deploy (chip_name, assay_name) =
  let chip = Option.get (Mf_chips.Benchmarks.by_name chip_name) in
  let app = Option.get (Mf_bioassay.Assays.by_name assay_name) in
  let label = Printf.sprintf "%s x %s" chip_name assay_name in
  match Codesign.run ~params:{ Codesign.quick_params with Codesign.jobs } chip app with
  | Ok r -> { label; app; r }
  | Error f -> failwith (label ^ ": deployment codesign failed: " ^ Mf_util.Fail.to_string f)

(* Single-fault simulation with the verifier's own primitives: does some
   vector of the deployed suite read differently under [fault]? *)
let detector (r : Codesign.result) =
  let chip = r.shared and s = r.suite in
  let source = (Chip.ports chip).(s.source_port).Chip.node in
  let meter = (Chip.ports chip).(s.meter_port).Chip.node in
  let module Cert = Mf_verify.Cert in
  let actives =
    List.map (Cert.active_lines_of_path chip) s.path_edges
    @ List.map (Cert.active_lines_of_cut chip) s.cut_valves
  in
  let read ?fault active = Cert.reading ?fault chip ~active ~source ~meter in
  let good = List.map (fun a -> (a, read a)) actives in
  let table = Hashtbl.create 64 in
  fun fault ->
    match Hashtbl.find_opt table fault with
    | Some d -> d
    | None ->
      let d = List.exists (fun (a, ok) -> read ~fault a <> ok) good in
      Hashtbl.add table fault d;
      d

(* Every single stuck-at-0/1 valve fault and every unordered pair of them. *)
let fault_sets chip =
  let singles =
    Array.to_list (Chip.valves chip)
    |> List.concat_map (fun v -> [ Fault.Stuck_at_0 v.Chip.edge; Fault.Stuck_at_1 v.Chip.valve_id ])
  in
  let rec pairs = function
    | [] -> []
    | f :: rest -> List.map (fun g -> [ f; g ]) rest @ pairs rest
  in
  List.map (fun f -> [ f ]) singles @ pairs singles

let classify msg =
  let has sub =
    let n = String.length sub and m = String.length msg in
    let rec go i = i + n <= m && (String.sub msg i n = sub || go (i + 1)) in
    go 0
  in
  if has "re-certification failed" then
    if has "MF101" then "re-certification MF101" else "re-certification (other code)"
  else if has "neither repairable nor provably untestable" then "neither repairable nor untestable"
  else "other: " ^ msg

type op = {
  design : design;
  faults : Fault.t list;
  latency : float;
  outcome : (Reconfig.result, string) result;
}

let repair_params = { Reconfig.default_params with Reconfig.jobs = 1 }

let run_op design faults =
  let r = design.r in
  let t0 = now () in
  let res =
    Reconfig.repair ~params:repair_params ~app:design.app ~sharing:(r.augmented, r.sharing)
      r.shared r.suite faults
  in
  let latency = now () -. t0 in
  { design; faults; latency;
    outcome = Result.map_error (fun f -> classify (Mf_util.Fail.to_string f)) res }

(* Independent checks, outside the timed phase: the repair re-proves
   through Mf_verify against the degraded chip, and every injected fault
   is caught by the deployed suite or waived.  Returns the seconds the
   re-proof took: the engine makes the same call once per repair, so this
   re-times the verifier's share of the repair. *)
let check_op ~detected op =
  match op.outcome with
  | Error _ -> 0.
  | Ok rr ->
    let cert = rr.Reconfig.cert in
    let t0 = now () in
    let diags = Mf_verify.Verify.certificate rr.Reconfig.chip cert in
    let cert_s = now () -. t0 in
    let where () =
      Printf.sprintf "%s [%s]" op.design.label
        (String.concat "; "
           (List.map (Format.asprintf "%a" (Fault.pp op.design.r.shared)) op.faults))
    in
    check (not (Mf_util.Diag.has_errors diags)) "%s: repaired suite fails re-certification"
      (where ());
    List.iter
      (fun f ->
        check (List.exists (Fault.equal f) cert.Mf_verify.Cert.context)
          "%s: injected fault missing from the certificate context" (where ());
        check
          (detected f || List.exists (Fault.equal f) cert.Mf_verify.Cert.waived)
          "%s: injected fault neither detected nor waived" (where ()))
      op.faults;
    cert_s

let run ~seed ~seconds =
  let t0 = now () in
  let designs = List.map deploy inputs in
  let setup_s = now () -. t0 in
  let work =
    Array.of_list
      (List.concat_map (fun d -> List.map (fun fs -> (d, fs)) (fault_sets d.r.shared)) designs)
  in
  let rng = Mf_util.Rng.create ~seed in
  reset_counters ();
  let rounds =
    rounds ~seconds (fun () ->
        Mf_util.Rng.shuffle rng work;
        let t0 = now () and c0 = cpu () in
        let ops = Array.map (fun (d, fs) -> run_op d fs) work in
        (ops, now () -. t0, cpu () -. c0))
  in
  let n_rounds = float_of_int (List.length rounds) in
  let detectors = List.map (fun d -> (d.label, detector d.r)) designs in
  let all_ops = List.concat_map (fun (ops, _, _) -> Array.to_list ops) rounds in
  let cert_s =
    sum (List.map (fun op -> check_op ~detected:(List.assoc op.design.label detectors) op) all_ops)
  in
  let reasons = Hashtbl.create 4 in
  List.iter
    (fun op ->
      match op.outcome with
      | Error why ->
        let key = op.design.label ^ ": " ^ why in
        Hashtbl.replace reasons key (1 + Option.value ~default:0 (Hashtbl.find_opt reasons key))
      | Ok _ -> ())
    all_ops;
  Hashtbl.iter
    (fun why n -> Printf.eprintf "perfbench: failed: %d x %s\n%!" n why)
    reasons;
  let ok = List.filter_map (fun op -> Result.to_option op.outcome) all_ops in
  let stat f = sum (List.map (fun rr -> float_of_int (f rr.Reconfig.stats)) ok) /. n_rounds in
  let latencies = List.map (fun op -> op.latency *. 1e3) all_ops in
  let ops_per_round = Array.length work in
  let tail = tail_percentile ~ops_per_round in
  Printf.eprintf "perfbench: %d repairs a round, op_tail_ms is p%g\n%!" ops_per_round tail;
  let call_s = sum (List.map (fun op -> op.latency) all_ops) /. n_rounds in
  let total f = List.fold_left (fun acc d -> acc + f d.r) 0 designs in
  {
    attempted = List.length all_ops;
    failed = List.length all_ops - List.length ok;
    end_to_end =
      [
        m "setup_s" setup_s;
        m "wall_s" (median (List.map (fun (_, w, _) -> w) rounds));
        m "cpu_s" (median (List.map (fun (_, _, c) -> c) rounds));
        m "op_p50_ms" (median latencies);
        m "op_tail_ms" (percentile tail latencies);
        m "peak_rss_mb" (peak_rss_mb ());
        (* the deployed designs the repairs start from *)
        m "exec_final_s"
          (float_of_int (total (fun r -> Option.value ~default:0 r.Codesign.exec_final)));
        m "dft_valves" (float_of_int (total (fun r -> r.Codesign.n_dft_valves)));
        m "test_vectors" (float_of_int (total (fun r -> r.Codesign.n_vectors_dft)));
      ];
    per_layer =
      [
        m "repair.call_s" call_s;
        m "repair.rounds" (stat (fun s -> s.Reconfig.rounds));
        m "repair.damaged" (stat (fun s -> s.Reconfig.damaged));
        m "repair.added" (stat (fun s -> s.Reconfig.added));
        m "repair.candidates" (stat (fun s -> s.Reconfig.candidates));
        m "repair.ilp_nodes" (stat (fun s -> s.Reconfig.solver.Mf_ilp.Ilp.rs_nodes));
        m "repair.lp_pivots"
          (stat (fun s ->
               s.Reconfig.solver.Mf_ilp.Ilp.rs_primal_pivots
               + s.Reconfig.solver.Mf_ilp.Ilp.rs_dual_pivots));
        m "repair.degraded"
          (float_of_int
             (List.length
                (List.filter
                   (fun rr ->
                     List.exists
                       (function Reconfig.Dropped_vectors _ -> false | _ -> true)
                       rr.Reconfig.degradations)
                   ok))
          /. n_rounds);
        m "verify.repair_cert_s" (cert_s /. n_rounds);
        m "trace.wall_s" (sum (List.map (fun (_, w, _) -> w) rounds) /. n_rounds);
        (* one span, the whole Reconfig.repair call: the layers inside it
           are called from lib/repair, where the benchmark adds no spans *)
        m "trace.accounted_s" call_s;
      ]
      @ solver_counters ~per:n_rounds;
  }
