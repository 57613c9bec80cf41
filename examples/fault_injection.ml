(* Manufacturing-test dress rehearsal: inject random defects into the
   augmented IVD chip and watch the generated single-source single-meter
   vector suite catch every one of them.

   Run with:  dune exec examples/fault_injection.exe *)

module Chip = Mf_arch.Chip
module Grid = Mf_grid.Grid
module Rng = Mf_util.Rng
module Pathgen = Mf_testgen.Pathgen
module Cutgen = Mf_testgen.Cutgen
module Vectors = Mf_testgen.Vectors
module Vector = Mf_faults.Vector
module Fault = Mf_faults.Fault
module Pressure = Mf_faults.Pressure

let () =
  let chip = Option.get (Mf_chips.Benchmarks.by_name "ivd_chip") in
  let config =
    match Pathgen.generate chip with Ok c -> c | Error f -> failwith (Mf_util.Fail.to_string f)
  in
  let aug = Pathgen.apply chip config in
  let cuts =
    Cutgen.generate aug ~source:config.Pathgen.src_port ~meter:config.Pathgen.dst_port
  in
  let suite = Vectors.of_config config cuts in
  let suite, _ = Mf_testgen.Repair.validate aug suite in
  let vectors = Vectors.vectors aug suite in
  Format.printf "Chip: %a@.Suite: %d vectors@.@." Chip.pp aug (List.length vectors);

  let grid = Chip.grid aug in
  let rng = Rng.create ~seed:2024 in
  let universe = Array.of_list (Fault.all aug) in
  Format.printf "Injecting 10 random manufacturing defects:@.";
  for trial = 1 to 10 do
    let fault = Rng.pick rng universe in
    (* run the whole test program against the defective chip *)
    let caught_by =
      List.find_opt (fun vec -> Pressure.detects aug vec fault) vectors
    in
    (match caught_by with
     | Some vec ->
       let expected = Pressure.readings aug vec in
       let observed = Pressure.readings aug ~fault vec in
       Format.printf "  trial %2d: %a  -> caught by %s (meter read %a, expected %a)@." trial
         (Fault.pp aug) fault vec.Vector.label
         Fmt.(list ~sep:comma bool)
         observed
         Fmt.(list ~sep:comma bool)
         expected
     | None -> Format.printf "  trial %2d: %a  -> ESCAPED!@." trial (Fault.pp aug) fault)
  done;

  (* double defects: single-fault vectors usually catch those too *)
  Format.printf "@.Double-defect spot check (pairs of stuck-at-0):@.";
  let channel_edges = Mf_util.Bitset.elements (Chip.channel_edges aug) in
  let pairs =
    [ (List.nth channel_edges 0, List.nth channel_edges 5);
      (List.nth channel_edges 2, List.nth channel_edges 9) ]
  in
  List.iter
    (fun (e1, e2) ->
      (* simulate both blockages by composing conduction predicates: a
         vector detects the pair when some meter's reading changes *)
      let detects vec =
        let g = Grid.graph grid in
        let allowed e =
          e <> e2 && Pressure.conducts aug ~fault:(Fault.Stuck_at_0 e1)
                       ~active_lines:vec.Vector.active_lines e
        in
        let reach = Mf_graph.Traverse.reachable g ~allowed ~src:vec.Vector.source in
        let faulty = List.map (fun m -> Mf_util.Bitset.mem reach m) vec.Vector.meters in
        faulty <> Pressure.readings aug vec
      in
      let caught = List.exists detects vectors in
      Format.printf "  SA0@%a + SA0@%a -> %s@." (Grid.pp_edge grid) e1 (Grid.pp_edge grid) e2
        (if caught then "caught" else "escaped"))
    pairs
