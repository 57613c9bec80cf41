module Chip = Mf_arch.Chip
module Vectors = Mf_testgen.Vectors
module Control = Mf_control.Control

let opt_time = function Some t -> Printf.sprintf "%d s" t | None -> "n/a"

let markdown ?(title = "DFT codesign report") (r : Codesign.result) =
  let buf = Buffer.create 4096 in
  let out fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  out "# %s\n\n" title;
  out "Chip: **%s** — %d devices, %d ports, %d original valves.\n\n" (Chip.name r.original)
    (Array.length (Chip.devices r.original))
    (Array.length (Chip.ports r.original))
    (Chip.n_original_valves r.original);
  out "## Architecture\n\n";
  out "Original:\n\n```\n%s```\n\n" (Chip.render r.original);
  out "Augmented (`o` marks the %d DFT valves):\n\n```\n%s```\n\n" r.n_dft_valves
    (Chip.render r.augmented);
  out "## Test program (single source, single meter)\n\n";
  let ports = Chip.ports r.original in
  out "- pressure source: port **%s**, meter: port **%s** (farthest pair)\n"
    ports.(r.suite.Vectors.source_port).Chip.port_name
    ports.(r.suite.Vectors.meter_port).Chip.port_name;
  out "- %d test paths (stuck-at-0), %d test cuts (stuck-at-1): **%d vectors**\n\n"
    (List.length r.suite.Vectors.path_edges)
    (List.length r.suite.Vectors.cut_valves)
    r.n_vectors_dft;
  out "## Valve sharing\n\n";
  if r.sharing = [] then out "No DFT valves required sharing.\n\n"
  else begin
    out "All %d DFT valves borrow existing control lines — no new control ports:\n\n"
      r.n_shared;
    out "| DFT valve | shares the line of |\n|---|---|\n";
    List.iter
      (fun (d, o) ->
        let ve (v : Chip.valve) = v.edge in
        let grid = Chip.grid r.augmented in
        out "| v%d (%s) | v%d (%s) |\n" d
          (Format.asprintf "%a" (Mf_grid.Grid.pp_edge grid) (ve (Chip.valves r.augmented).(d)))
          o
          (Format.asprintf "%a" (Mf_grid.Grid.pp_edge grid) (ve (Chip.valves r.augmented).(o))))
      r.sharing;
    out "\n"
  end;
  out "Control lines: %d on the original chip, %d with independent DFT control, %d shared.\n\n"
    (Chip.n_controls r.original)
    (Chip.n_controls r.augmented)
    (Chip.n_controls r.shared);
  let layout = Control.synthesize r.shared in
  out "Control layer (shared): %d ports, total channel length %d, worst actuation skew %.1f%s.\n\n"
    (Control.n_ports layout) (Control.total_length layout) (Control.max_skew layout)
    (if layout.Control.unrouted = [] then ""
     else
       Printf.sprintf " — **%d lines not planar-routable** (pick another scheme)"
         (List.length layout.Control.unrouted));
  out "## Application execution time\n\n";
  out "| configuration | makespan |\n|---|---|\n";
  out "| original chip | %s |\n" (opt_time r.exec_original);
  out "| DFT, independent control | %s |\n" (opt_time r.exec_dft_unshared);
  out "| DFT + sharing, first valid scheme | %s |\n" (opt_time r.exec_dft_no_pso);
  out "| DFT + sharing, after two-level PSO | %s |\n\n" (opt_time r.exec_final);
  out "## Optimization\n\n";
  out "- %d fitness evaluations, %.1f s wall clock\n" r.evaluations r.runtime;
  let s = r.config.Mf_testgen.Pathgen.solver in
  out
    "- LP core (final configuration): %d B&B nodes in %d batches, %d primal + %d dual \
     pivots, %d/%d relaxations warm-started (%d cold fallbacks), %d cache hits\n"
    s.Mf_ilp.Ilp.rs_nodes s.Mf_ilp.Ilp.rs_batches s.Mf_ilp.Ilp.rs_primal_pivots
    s.Mf_ilp.Ilp.rs_dual_pivots s.Mf_ilp.Ilp.rs_warm_taken s.Mf_ilp.Ilp.rs_warm_eligible
    s.Mf_ilp.Ilp.rs_fallbacks s.Mf_ilp.Ilp.rs_cache_hits;
  out "- presolve: %d variables fixed, %d tightenings; %d root cover cuts\n"
    s.Mf_ilp.Ilp.rs_presolve_fixed s.Mf_ilp.Ilp.rs_presolve_tightened
    s.Mf_ilp.Ilp.rs_cover_cuts;
  (match r.config.Mf_testgen.Pathgen.attempts with
   | [] -> out "- no ILP attempt (greedy cover only)\n"
   | attempts ->
     out "- ILP attempts behind the final configuration:\n\n";
     out "| paths k | outcome | nodes | root bound | best bound | primed bound |\n";
     out "|---:|---|---:|---:|---:|---:|\n";
     List.iter
       (fun (a : Mf_testgen.Pathgen.attempt) ->
         out "| %d | %s | %d | %.7g | %.7g | %.7g |\n" a.k
           (match a.outcome with
            | `Optimal -> "optimal"
            | `Feasible -> "feasible, unproven"
            | `Infeasible -> "nothing below the primed bound"
            | `Node_limit -> "node cap, no incumbent"
            | `Failed -> "solver failure")
           a.nodes a.root_bound a.best_bound a.primed_bound)
       attempts;
     out "\n");
  let valid = List.filter (fun v -> v < Codesign.invalid_threshold) r.trace in
  (match valid with
   | [] -> out "- the swarm never found a valid sharing scheme\n"
   | v0 :: _ ->
     let final = List.nth valid (List.length valid - 1) in
     out "- global best improved from %.0f s to %.0f s over %d iterations\n" v0 final
       (List.length r.trace));
  out "\n## Resilience\n\n";
  (match r.degradations with
   | [] -> out "Clean run: no degradations.\n"
   | ds ->
     out "This result is degraded (still valid, but weaker than a clean full run):\n\n";
     List.iter (fun d -> out "- %s\n" (Codesign.degradation_to_string d)) ds);
  out "\n## Verification\n\n";
  let cert = Codesign.certificate r in
  out
    "Independent re-proof of the result (`Mf_verify`: chip lint, certificate check by graph \
     reachability + standalone fault simulation, control-sharing conflict scan — no \
     ILP/LP/PSO involvement). Claims checked: %d vectors, stuck-at coverage %d/%d.\n\n"
    cert.Mf_verify.Cert.claimed_vectors cert.Mf_verify.Cert.claimed_detected
    cert.Mf_verify.Cert.claimed_total;
  (match Mf_verify.Verify.certificate r.shared cert with
   | [] -> out "Certificate holds: no findings.\n"
   | diags ->
     let n_err, n_warn = Mf_util.Diag.count diags in
     out "**%d error(s), %d warning(s):**\n\n" n_err n_warn;
     List.iter (fun d -> out "- `%s`\n" (Format.asprintf "%a" Mf_util.Diag.pp d)) diags);
  Buffer.contents buf

let save path result =
  Out_channel.with_open_text path (fun oc -> Out_channel.output_string oc (markdown result))
