module Chip = Mf_arch.Chip
module Grid = Mf_grid.Grid
module Graph = Mf_graph.Graph
module Traverse = Mf_graph.Traverse
module Flow = Mf_graph.Flow
module Bitset = Mf_util.Bitset
module Vector = Mf_faults.Vector
module Pressure = Mf_faults.Pressure
module Fault = Mf_faults.Fault

type result = { cuts : int list list; untestable : int list }

let infinite_capacity = 1_000_000

(* Does closing exactly the valves in [closed] separate [s] from [t]? *)
let separates chip ~closed ~s ~t =
  let g = Grid.graph (Chip.grid chip) in
  let allowed e =
    Chip.is_channel chip e
    &&
    match Chip.valve_on chip e with
    | None -> true
    | Some v -> not (Bitset.mem closed v.valve_id)
  in
  not (Traverse.connected g ~allowed s t)

(* Shrink [cut] to an inclusion-minimal separator, never dropping [keep]. *)
let minimise chip ~s ~t ~keep cut =
  let closed = Bitset.of_list (Chip.n_valves chip) cut in
  List.iter
    (fun v ->
      if v <> keep && Bitset.mem closed v then begin
        Bitset.remove closed v;
        if not (separates chip ~closed ~s ~t) then Bitset.add closed v
      end)
    cut;
  Bitset.elements closed

(* Minimum valve-cut through valve [v], forcing endpoint [a] onto the source
   side and [b] onto the meter side.  Leak paths s→a and b→t are protected
   at infinite capacity so that v stays essential in the resulting cut. *)
let forced_cut chip ~s ~t (v : Chip.valve) ~a ~b =
  let g = Grid.graph (Chip.grid chip) in
  let open_channel e = Chip.is_channel chip e && e <> v.edge in
  let path_sa = Traverse.bfs_path g ~allowed:open_channel ~src:s ~dst:a in
  let path_bt = Traverse.bfs_path g ~allowed:open_channel ~src:b ~dst:t in
  match (path_sa, path_bt) with
  | None, _ | _, None -> None
  | Some sa, Some bt ->
    let protected_edges = Bitset.create (Graph.n_edges g) in
    List.iter (Bitset.add protected_edges) sa;
    List.iter (Bitset.add protected_edges) bt;
    let capacity e =
      if Bitset.mem protected_edges e then infinite_capacity
      else
        match Chip.valve_on chip e with
        | Some _ -> 1
        | None -> infinite_capacity
    in
    let value, cut_edges = Flow.min_cut g ~allowed:open_channel ~capacity ~src:s ~dst:t in
    if value >= infinite_capacity then None
    else begin
      let cut_valves =
        List.filter_map (fun e -> Option.map (fun (w : Chip.valve) -> w.valve_id) (Chip.valve_on chip e)) cut_edges
      in
      Some (v.valve_id :: cut_valves)
    end

let cover_valve chip ~s ~t (v : Chip.valve) =
  let g = Grid.graph (Chip.grid chip) in
  let a, b = Graph.endpoints g v.edge in
  let try_orientation (a, b) =
    match forced_cut chip ~s ~t v ~a ~b with
    | None -> None
    | Some cut ->
      let cut = minimise chip ~s ~t ~keep:v.valve_id cut in
      if separates chip ~closed:(Bitset.of_list (Chip.n_valves chip) cut) ~s ~t then Some cut
      else None
  in
  match try_orientation (a, b) with
  | Some cut -> Some cut
  | None -> try_orientation (b, a)

let generate chip ~source ~meter =
  let ports = Chip.ports chip in
  let s = ports.(source).node and t = ports.(meter).node in
  let n_valves = Chip.n_valves chip in
  let covered = Bitset.create n_valves in
  let cuts = ref [] in
  let untestable = ref [] in
  let mark_detected cut =
    let p = Pressure.prepare chip (Vector.of_cut chip ~source:s ~meters:[ t ] cut) in
    if Pressure.prepared_well_formed p then
      List.iter
        (fun w -> if Pressure.prepared_detects p (Fault.Stuck_at_1 w) then Bitset.add covered w)
        cut
  in
  Array.iter
    (fun (v : Chip.valve) ->
      if not (Bitset.mem covered v.valve_id) then begin
        match cover_valve chip ~s ~t v with
        | Some cut ->
          mark_detected cut;
          if Bitset.mem covered v.valve_id then cuts := cut :: !cuts
          else untestable := v.valve_id :: !untestable
        | None -> untestable := v.valve_id :: !untestable
      end)
    (Chip.valves chip);
  { cuts = List.rev !cuts; untestable = List.rev !untestable }

let fallback_cuts chip ~source:_ ~meter:_ paths =
  let n = Chip.n_valves chip in
  let all = List.init n (fun i -> i) in
  let cuts = ref [] in
  let emitted = Bitset.create n in
  List.iter
    (fun path ->
      let path_valves =
        List.filter_map (fun e -> Option.map (fun (v : Chip.valve) -> v.valve_id) (Chip.valve_on chip e)) path
      in
      List.iter
        (fun v ->
          if not (Bitset.mem emitted v) then begin
            Bitset.add emitted v;
            (* close everything except the rest of this path: the only leak
               route runs through v *)
            let others = List.filter (fun w -> w = v || not (List.mem w path_valves)) all in
            cuts := others :: !cuts
          end)
        path_valves)
    paths;
  List.rev !cuts
