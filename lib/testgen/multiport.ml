module Chip = Mf_arch.Chip
module Grid = Mf_grid.Grid
module Graph = Mf_graph.Graph
module Traverse = Mf_graph.Traverse
module Bitset = Mf_util.Bitset
module Vector = Mf_faults.Vector
module Pressure = Mf_faults.Pressure
module Fault = Mf_faults.Fault

type result = {
  vectors : Vector.t list;
  n_path_vectors : int;
  n_cut_vectors : int;
  sa0_untestable : int list;
  sa1_untestable : int list;
}

type path = { src_port : int; dst_port : int; edges : int list; nodes : Bitset.t }

(* A port-to-port path through the target edge [e]=(a,b): shortest half from
   [a] to some port, then from [b] to another port avoiding the first
   half's nodes.  Port pairs are tried in order of combined distance. *)
let path_through chip e =
  let g = Grid.graph (Chip.grid chip) in
  let channels = Chip.channel_edges chip in
  let a, b = Graph.endpoints g e in
  let without_e f = f <> e && Bitset.mem channels f in
  let ports = Chip.ports chip in
  let dist_a = Traverse.bfs_dist g ~allowed:without_e ~src:a in
  let dist_b = Traverse.bfs_dist g ~allowed:without_e ~src:b in
  let candidates =
    Array.to_list ports
    |> List.concat_map (fun (p : Chip.port) ->
        Array.to_list ports
        |> List.filter_map (fun (q : Chip.port) ->
            if p.port_id = q.port_id then None
            else if dist_a.(p.node) = max_int || dist_b.(q.node) = max_int then None
            else Some (dist_a.(p.node) + dist_b.(q.node), p, q)))
    |> List.sort compare
  in
  let try_pair ((_, (p : Chip.port), (q : Chip.port)) : int * Chip.port * Chip.port) =
    match Traverse.bfs_path g ~allowed:without_e ~src:p.node ~dst:a with
    | None -> None
    | Some half1 ->
      let used = Bitset.create (Graph.n_nodes g) in
      List.iter (Bitset.add used) (Traverse.path_nodes g ~src:p.node half1);
      (* the second half must avoid the first half's nodes so the union is a
         simple path; [b] itself must be fresh *)
      if Bitset.mem used b then None
      else begin
        let avoid f =
          without_e f
          &&
          let u, v = Graph.endpoints g f in
          let fresh n = n = b || not (Bitset.mem used n) in
          fresh u && fresh v
        in
        match Traverse.bfs_path g ~allowed:avoid ~src:b ~dst:q.node with
        | None -> None
        | Some half2 ->
          let edges = half1 @ (e :: half2) in
          let nodes = Bitset.create (Graph.n_nodes g) in
          List.iter (Bitset.add nodes) (Traverse.path_nodes g ~src:p.node edges);
          Some { src_port = p.port_id; dst_port = q.port_id; edges; nodes }
      end
  in
  List.find_map try_pair candidates

(* Pack paths into stimuli: paths sharing a source and otherwise
   node-disjoint form a tree observed by one meter per branch. *)
let pack chip paths =
  let ports = Chip.ports chip in
  let bins : (int * path list ref) list ref = ref [] in
  let disjoint p existing =
    let src_node = ports.(p.src_port).node in
    List.for_all
      (fun q ->
        Bitset.fold (fun n ok -> ok && (n = src_node || not (Bitset.mem q.nodes n))) p.nodes true)
      existing
  in
  List.iter
    (fun p ->
      let placed =
        List.exists
          (fun (src, members) ->
            if src = p.src_port && disjoint p !members
               && not (List.exists (fun q -> q.dst_port = p.dst_port) !members)
            then begin
              members := p :: !members;
              true
            end
            else false)
          !bins
      in
      if not placed then bins := (p.src_port, ref [ p ]) :: !bins)
    paths;
  List.rev_map
    (fun (src, members) ->
      let edges = List.concat_map (fun p -> p.edges) !members in
      let meters = List.map (fun p -> ports.(p.dst_port).node) !members in
      Vector.of_path chip ~source:ports.(src).node ~meters edges)
    !bins

let generate chip =
  let channels = Chip.channel_edges chip in
  let uncovered = Bitset.copy channels in
  let paths = ref [] in
  let sa0_untestable = ref [] in
  (* SA0: greedy path cover, marking by fault simulation *)
  Bitset.iter
    (fun e ->
      if Bitset.mem uncovered e then begin
        match path_through chip e with
        | None ->
          Bitset.remove uncovered e;
          sa0_untestable := e :: !sa0_untestable
        | Some p ->
          paths := p :: !paths;
          let ports = Chip.ports chip in
          let prepared =
            Pressure.prepare chip
              (Vector.of_path chip ~source:(Chip.ports chip).(p.src_port).node
                 ~meters:[ ports.(p.dst_port).node ] p.edges)
          in
          Bitset.iter
            (fun f ->
              if Bitset.mem uncovered f && Pressure.prepared_detects prepared (Fault.Stuck_at_0 f)
              then Bitset.remove uncovered f)
            (Bitset.copy uncovered)
      end)
    channels;
  let path_vectors = pack chip (List.rev !paths) in
  (* SA1: per-valve forced cuts over all port pairs *)
  let n_valves = Chip.n_valves chip in
  let covered = Bitset.create n_valves in
  let cut_vectors = ref [] in
  let sa1_untestable = ref [] in
  let ports = Chip.ports chip in
  Array.iter
    (fun (v : Chip.valve) ->
      if not (Bitset.mem covered v.valve_id) then begin
        let found =
          Array.to_list ports
          |> List.concat_map (fun (p : Chip.port) ->
              Array.to_list ports
              |> List.filter_map (fun (q : Chip.port) ->
                  if p.port_id < q.port_id then Some (p, q) else None))
          |> List.find_map (fun ((p : Chip.port), (q : Chip.port)) ->
              match Cutgen.cover_valve chip ~s:p.node ~t:q.node v with
              | None -> None
              | Some cut ->
                let vec = Vector.of_cut chip ~source:p.node ~meters:[ q.node ] cut in
                let prepared = Pressure.prepare chip vec in
                if
                  Pressure.prepared_well_formed prepared
                  && Pressure.prepared_detects prepared (Fault.Stuck_at_1 v.valve_id)
                then Some (cut, vec, prepared)
                else None)
        in
        match found with
        | Some (cut, vec, prepared) ->
          cut_vectors := vec :: !cut_vectors;
          List.iter
            (fun w ->
              if Pressure.prepared_detects prepared (Fault.Stuck_at_1 w) then Bitset.add covered w)
            cut
        | None -> sa1_untestable := v.valve_id :: !sa1_untestable
      end)
    (Chip.valves chip);
  let cut_vectors = List.rev !cut_vectors in
  {
    vectors = path_vectors @ cut_vectors;
    n_path_vectors = List.length path_vectors;
    n_cut_vectors = List.length cut_vectors;
    sa0_untestable = List.rev !sa0_untestable;
    sa1_untestable = List.rev !sa1_untestable;
  }
