module Chip = Mf_arch.Chip
module Vector = Mf_faults.Vector
module Coverage = Mf_faults.Coverage

type t = {
  source_port : int;
  meter_port : int;
  path_edges : int list list;
  cut_valves : int list list;
}

let of_config (config : Pathgen.config) (cuts : Cutgen.result) =
  {
    source_port = config.src_port;
    meter_port = config.dst_port;
    path_edges = config.paths;
    cut_valves = cuts.cuts;
  }

let vectors chip t =
  let ports = Chip.ports chip in
  let source = ports.(t.source_port).node in
  let meters = [ ports.(t.meter_port).node ] in
  List.map (Vector.of_path chip ~source ~meters) t.path_edges
  @ List.map (Vector.of_cut chip ~source ~meters) t.cut_valves

let count t = List.length t.path_edges + List.length t.cut_valves

let validate ?present ?detect chip t = Coverage.measure ?present ?detect chip (vectors chip t)

let is_valid ?present chip t = Coverage.complete (validate ?present chip t)
