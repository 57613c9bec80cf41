(* Bring-your-own biochip: build a custom architecture with the public
   builder API, define a custom bioassay, make the chip single-source
   single-meter testable, and schedule the assay before and after DFT.

   Run with:  dune exec examples/custom_chip.exe *)

module Chip = Mf_arch.Chip
module Op = Mf_bioassay.Op
module Seqgraph = Mf_bioassay.Seqgraph
module Pathgen = Mf_testgen.Pathgen
module Cutgen = Mf_testgen.Cutgen
module Vectors = Mf_testgen.Vectors
module Scheduler = Mf_sched.Scheduler

(* A small two-module chip: one mixer, one heater, three ports. *)
let my_chip () =
  let b = Chip.builder ~name:"demo_chip" ~width:6 ~height:4 in
  Chip.add_device b ~kind:Chip.Mixer ~x:2 ~y:0 ~name:"mixer";
  Chip.add_device b ~kind:Chip.Heater ~x:3 ~y:3 ~name:"heater";
  Chip.add_device b ~kind:Chip.Detector ~x:4 ~y:0 ~name:"camera";
  Chip.add_port b ~x:0 ~y:1 ~name:"sample_in";
  Chip.add_port b ~x:5 ~y:2 ~name:"waste";
  Chip.add_port b ~x:2 ~y:3 ~name:"reagent_in";
  (* transport bus *)
  Chip.add_channel b [ (1, 1); (2, 1); (3, 1); (4, 1); (4, 2); (3, 2); (2, 2); (1, 2); (1, 1) ];
  (* device and port spurs *)
  Chip.add_channel b [ (2, 1); (2, 0) ];
  Chip.add_channel b [ (3, 2); (3, 3) ];
  Chip.add_channel b [ (4, 1); (4, 0) ];
  Chip.add_channel b [ (0, 1); (1, 1) ];
  Chip.add_channel b [ (5, 2); (4, 2) ];
  Chip.add_channel b [ (2, 3); (2, 2) ];
  (* valves: port entries + ring *)
  List.iter
    (fun (a, c) -> Chip.add_valve b a c)
    [
      ((0, 1), (1, 1)); ((5, 2), (4, 2)); ((2, 3), (2, 2));
      ((1, 1), (2, 1)); ((2, 1), (3, 1)); ((3, 1), (4, 1));
      ((4, 1), (4, 2)); ((3, 2), (2, 2)); ((2, 2), (1, 2)); ((1, 2), (1, 1));
    ];
  Chip.finish_exn b

(* sample + reagent are mixed, heated, mixed again, detected *)
let my_assay () =
  Seqgraph.create_exn
    [
      { Op.op_id = 0; kind = Op.Mix; duration = 30; op_name = "lyse" };
      { Op.op_id = 1; kind = Op.Heat; duration = 45; op_name = "denature" };
      { Op.op_id = 2; kind = Op.Mix; duration = 30; op_name = "amplify" };
      { Op.op_id = 3; kind = Op.Detect; duration = 20; op_name = "read_out" };
    ]
    ~edges:[ (0, 1); (1, 2); (2, 3) ]

let () =
  let chip = my_chip () in
  let app = my_assay () in
  Format.printf "Custom chip:@.%s@." (Chip.render chip);
  (match Scheduler.run chip app with
   | Ok s ->
     Format.printf "Assay on the original chip: %a@." Mf_sched.Schedule.pp s
   | Error f ->
     Format.printf "Assay cannot run on the original chip: %a@."
       Mf_sched.Schedule.pp_failure f);
  match Pathgen.generate chip with
  | Error f -> Format.printf "DFT generation failed: %s@." (Mf_util.Fail.to_string f)
  | Ok config ->
    let aug = Pathgen.apply chip config in
    let cuts =
      Cutgen.generate aug ~source:config.Pathgen.src_port ~meter:config.Pathgen.dst_port
    in
    let suite = Vectors.of_config config cuts in
    let suite, report = Mf_testgen.Repair.validate aug suite in
    Format.printf "@.After DFT (%d new valves):@.%s@."
      (List.length config.Pathgen.added_edges)
      (Chip.render aug);
    Format.printf "single-source single-meter suite: %d vectors, complete=%b@."
      (Vectors.count suite)
      (Mf_faults.Coverage.complete report);
    (match Scheduler.run aug app with
     | Ok s ->
       Format.printf "Assay on the augmented chip (free control): %a@." Mf_sched.Schedule.pp s
     | Error f -> Format.printf "augmented schedule failed: %a@." Mf_sched.Schedule.pp_failure f)
