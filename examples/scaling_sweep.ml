(* Scaling study: how does the cost of single-source single-meter
   testability grow with chip size?

   For a family of synthetic chips of increasing complexity this sweep
   reports the DFT overhead (added valves), the test program size (vector
   count and estimated application time) and the execution-time impact on a
   randomly generated assay.

   Run with:  dune exec examples/scaling_sweep.exe *)

module Chip = Mf_arch.Chip
module Synth = Mf_chips.Synth
module Synth_assay = Mf_bioassay.Synth_assay
module Pathgen = Mf_testgen.Pathgen
module Cutgen = Mf_testgen.Cutgen
module Vectors = Mf_testgen.Vectors
module Testtime = Mf_testgen.Testtime
module Scheduler = Mf_sched.Scheduler
module Control = Mf_control.Control
module Rng = Mf_util.Rng

let () =
  Format.printf "%-28s %8s %8s %8s %10s %10s %10s@." "chip (m,d,ports)" "valves" "+DFT"
    "vectors" "test[u]" "exec[s]" "exec+DFT";
  let rng = Rng.create ~seed:77 in
  List.iter
    (fun (mixers, detectors, ports) ->
      let spec = { Synth.default_spec with Synth.mixers; detectors; ports; pockets = 2 } in
      let chip = Synth.generate ~spec rng in
      let assay =
        Synth_assay.generate
          ~spec:{ Synth_assay.default_spec with Synth_assay.n_ops = 6 * (mixers + detectors) }
          (Rng.split rng)
      in
      let label = Printf.sprintf "synthetic (%d,%d,%d)" mixers detectors ports in
      match Pathgen.generate ~node_limit:400 chip with
      | Error f -> Format.printf "%-28s %s@." label (Mf_util.Fail.to_string f)
      | Ok config ->
        let aug = Pathgen.apply chip config in
        let cuts =
          Cutgen.generate aug ~source:config.Pathgen.src_port ~meter:config.Pathgen.dst_port
        in
        let suite = Vectors.of_config config cuts in
        let suite, _ = Mf_testgen.Repair.validate aug suite in
        let layout = Control.synthesize aug in
        let test_time = Testtime.total aug layout (Vectors.vectors aug suite) in
        let exec = Scheduler.makespan chip assay in
        let exec_dft = Scheduler.makespan aug assay in
        let pp_o ppf = function Some v -> Fmt.pf ppf "%10d" v | None -> Fmt.pf ppf "%10s" "-" in
        Format.printf "%-28s %8d %8d %8d %10.0f %a %a@." label (Chip.n_valves chip)
          (List.length config.Pathgen.added_edges)
          (Vectors.count suite) test_time pp_o exec pp_o exec_dft)
    [ (2, 1, 2); (2, 2, 3); (3, 2, 3); (3, 3, 4); (4, 3, 4); (5, 4, 5) ]
