module Chip = Mf_arch.Chip
module Grid = Mf_grid.Grid
module Graph = Mf_graph.Graph
module Traverse = Mf_graph.Traverse
module Bitset = Mf_util.Bitset
module Union_find = Mf_util.Union_find
module Ilp = Mf_ilp.Ilp

type attempt = {
  k : int;
  outcome : [ `Optimal | `Feasible | `Infeasible | `Node_limit | `Failed ];
  nodes : int;
  root_bound : float;
  best_bound : float;
  primed_bound : float;
}

type config = {
  src_port : int;
  dst_port : int;
  added_edges : int list;
  paths : int list list;
  n_paths : int;
  ilp_nodes : int;
  loop_cuts : int;
  solver : Ilp.run_stats;
  attempts : attempt list;
  degraded : bool;
}

let farthest_ports chip =
  let g = Grid.graph (Chip.grid chip) in
  let channels = Chip.channel_edges chip in
  let allowed e = Bitset.mem channels e in
  let ports = Chip.ports chip in
  let best = ref (0, 1) in
  let best_dist = ref (-1) in
  Array.iter
    (fun (p : Chip.port) ->
      let dist = Traverse.bfs_dist g ~allowed ~src:p.node in
      Array.iter
        (fun (q : Chip.port) ->
          if q.port_id > p.port_id then begin
            let d = dist.(q.node) in
            if d < max_int && d > !best_dist then begin
              best_dist := d;
              best := (p.port_id, q.port_id)
            end
          end)
        ports)
    ports;
  !best

(* Variable layout for a [k]-path model over a graph with [ne] edges and
   [nn] nodes. *)
type model = {
  ilp : Ilp.t;
  e_var : int array array; (* r -> edge -> var *)
  s_var : int array; (* edge -> var, or -1 for original channel edges *)
  k : int;
}

let build_model chip ~weights ~k ~s_node ~t_node =
  let g = Grid.graph (Chip.grid chip) in
  let ne = Graph.n_edges g in
  let nn = Graph.n_nodes g in
  let orig = Chip.channel_edges chip in
  let ilp = Ilp.create () in
  let e_var = Array.init k (fun _ -> Array.init ne (fun _ -> -1)) in
  for r = 0 to k - 1 do
    for j = 0 to ne - 1 do
      e_var.(r).(j) <- Ilp.add_binary ilp
    done
  done;
  (* s_j need not be branched on: with integral e_{j,r}, minimisation pins
     each s_j to the covering maximum, which is 0 or 1 *)
  let s_var = Array.make ne (-1) in
  for j = 0 to ne - 1 do
    if not (Bitset.mem orig j) then
      s_var.(j) <- Ilp.add_continuous ~lower:0. ~upper:1. ~obj:(weights j) ilp
  done;
  (* degree constraints (1)-(2); the n_{i,r} must be binary — a continuous
     n would admit degree-1 dead ends (n = 1/2) and break the
     path-plus-cycles structure the loop cuts rely on *)
  for r = 0 to k - 1 do
    for i = 0 to nn - 1 do
      let incident = List.map (fun (e, _) -> (1., e_var.(r).(e))) (Graph.incident g i) in
      if i = s_node || i = t_node then Ilp.add_row ilp incident Ilp.Eq 1.
      else begin
        let n_i = Ilp.add_binary ilp in
        Ilp.add_row ilp (((-2.), n_i) :: incident) Ilp.Eq 0.
      end
    done
  done;
  (* coverage of original channels (3) *)
  Bitset.iter
    (fun j ->
      let terms = List.init k (fun r -> (1., e_var.(r).(j))) in
      Ilp.add_row ilp terms Ilp.Ge 1.)
    orig;
  (* linking of added edges (4) *)
  for j = 0 to ne - 1 do
    if s_var.(j) >= 0 then
      for r = 0 to k - 1 do
        Ilp.add_row ilp [ (1., e_var.(r).(j)); ((-1.), s_var.(j)) ] Ilp.Le 0.
      done
  done;
  (* symmetry breaking: paths are interchangeable, so order them by the
     index of the edge leaving the source *)
  let s_terms r =
    List.map (fun (e, _) -> (float_of_int (e + 1), e_var.(r).(e))) (Graph.incident g s_node)
  in
  for r = 0 to k - 2 do
    Ilp.add_row ilp (s_terms r @ List.map (fun (c, v) -> (-.c, v)) (s_terms (r + 1))) Ilp.Le 0.
  done;
  (* valid strengthening cuts: a non-terminal node whose channel degree is 1
     (a dead-end spur) is visited by some path, which must leave it through
     an added edge — so at least one incident free edge is built *)
  for i = 0 to nn - 1 do
    if i <> s_node && i <> t_node then begin
      let incident = Graph.incident g i in
      let channel_degree =
        List.length (List.filter (fun (e, _) -> Bitset.mem orig e) incident)
      in
      if channel_degree = 1 then begin
        let free_terms =
          List.filter_map
            (fun (e, _) -> if s_var.(e) >= 0 then Some (1., s_var.(e)) else None)
            incident
        in
        if free_terms <> [] then Ilp.add_row ilp free_terms Ilp.Ge 1.
      end
    end
  done;
  { ilp; e_var; s_var; k }

(* Loop handling (Sec. 3): an integral degree-feasible selection for path
   [r] is one s-t path plus possibly node-disjoint cycles.  Stray cycles of
   original edges are cost-free, so they satisfy coverage (3) spuriously;
   however they are harmless when the true path components alone already
   cover every original edge (extraction walks the main component only).
   Only when the genuine cover fails do we emit lazy cuts, and since no
   simple path can use {e all} edges of a cycle, each cut
   [sum_{j in cycle} e_{j,r} <= |cycle| - 1] is valid for every path. *)
let loops_of chip model ~s_node (sol : Ilp.solution) =
  let g = Grid.graph (Chip.grid chip) in
  let nn = Graph.n_nodes g in
  let loops = ref [] in
  let main_edges = ref [] in
  for r = 0 to model.k - 1 do
    let selected j = sol.values.(model.e_var.(r).(j)) > 0.5 in
    let uf = Union_find.create nn in
    Graph.iter_edges (fun j u v -> if selected j then ignore (Union_find.union uf u v)) g;
    let main = Union_find.find uf s_node in
    let by_comp = Hashtbl.create 8 in
    Graph.iter_edges
      (fun j u _v ->
        if selected j then begin
          if Union_find.find uf u = main then main_edges := j :: !main_edges
          else begin
            let root = Union_find.find uf u in
            Hashtbl.replace by_comp root
              (j :: Option.value ~default:[] (Hashtbl.find_opt by_comp root))
          end
        end)
      g;
    Hashtbl.iter (fun _root edges -> loops := edges :: !loops) by_comp
  done;
  (!loops, !main_edges)

let loop_cuts_of chip model ~s_node (sol : Ilp.solution) =
  let loops, main_edges = loops_of chip model ~s_node sol in
  if loops = [] then []
  else begin
    let orig = Chip.channel_edges chip in
    let covered = Bitset.create (Bitset.length orig) in
    List.iter (fun j -> if Bitset.mem orig j then Bitset.add covered j) main_edges;
    let missing = Bitset.fold (fun j acc -> acc || not (Bitset.mem covered j)) orig false in
    if not missing then [] (* loops are decorative; accept the candidate *)
    else
      List.concat_map
        (fun edges ->
          let bound = float_of_int (List.length edges - 1) in
          List.init model.k (fun r ->
              (List.map (fun j -> (1., model.e_var.(r).(j))) edges, Ilp.Le, bound)))
        loops
  end

let extract_paths chip model ~s_node ~t_node (sol : Ilp.solution) =
  let g = Grid.graph (Chip.grid chip) in
  let paths = ref [] in
  for r = model.k - 1 downto 0 do
    let selected j = sol.values.(model.e_var.(r).(j)) > 0.5 in
    (* walk from s: internal nodes have degree 2, so never revisit the
       arrival edge *)
    let rec walk node arrived acc =
      if node = t_node then List.rev acc
      else begin
        let next =
          List.find_opt (fun (e, _) -> selected e && Some e <> arrived) (Graph.incident g node)
        in
        match next with
        | None -> failwith "Pathgen: broken path in ILP solution"
        | Some (e, v) -> walk v (Some e) (e :: acc)
      end
    in
    paths := walk s_node None [] :: !paths
  done;
  !paths

(* Greedy feasible cover used both as a branch-and-bound warm bound and as
   a fallback when the ILP budget runs out: route source → uncovered edge →
   meter as a simple path, preferring existing channels over new edges.
   [jitter] perturbs free-edge costs deterministically so restarts explore
   different covers. *)
let heuristic_cover_once ?(usable = fun _ -> true) chip ~weights ~jitter ~s_node ~t_node =
  let g = Grid.graph (Chip.grid chip) in
  let orig = Chip.channel_edges chip in
  let uncovered = Bitset.copy orig in
  let added = Bitset.create (Graph.n_edges g) in
  (* free edges joining two dead-end spur tips are gold: one new channel
     lets a path chain through both spurs, so make them nearly as cheap as
     existing channels *)
  let tip =
    let deg = Array.make (Graph.n_nodes g) 0 in
    Bitset.iter
      (fun e ->
        let u, v = Graph.endpoints g e in
        deg.(u) <- deg.(u) + 1;
        deg.(v) <- deg.(v) + 1)
      orig;
    fun n -> deg.(n) = 1 && n <> s_node && n <> t_node
  in
  let tip_link e =
    let u, v = Graph.endpoints g e in
    (tip u && (tip v || v = s_node || v = t_node)) || (tip v && (u = s_node || u = t_node))
  in
  let edge_weight e =
    if Bitset.mem uncovered e then 0.2 +. (0.05 *. jitter e)
    else if Bitset.mem orig e || Bitset.mem added e then
      (* caller weights and restart jitter both perturb channel costs so
         that restarts and pool-level re-generation explore different
         half-path routes (and hence different augmentations) *)
      1. +. (0.3 *. jitter e) +. (0.3 *. (weights e -. 1.))
    else if tip_link e then 1.3 +. (0.1 *. (weights e +. jitter e))
    else 4. +. weights e +. jitter e
  in
  let path_via e =
    let a, b = Graph.endpoints g e in
    let try_orientation (a, b) =
      let without_e f = f <> e && usable f in
      match Traverse.dijkstra g ~allowed:without_e ~weight:edge_weight ~src:s_node ~dst:a with
      | None -> None
      | Some (_, half1) ->
        let used = Bitset.create (Graph.n_nodes g) in
        List.iter (Bitset.add used) (Traverse.path_nodes g ~src:s_node half1);
        if Bitset.mem used b || Bitset.mem used t_node then None
        else begin
          let avoid f =
            f <> e && usable f
            &&
            let u, v = Graph.endpoints g f in
            let fresh n = n = b || n = t_node || not (Bitset.mem used n) in
            fresh u && fresh v
          in
          match Traverse.dijkstra g ~allowed:avoid ~weight:edge_weight ~src:b ~dst:t_node with
          | None -> None
          | Some (_, half2) -> Some (half1 @ (e :: half2))
        end
    in
    match try_orientation (a, b) with Some p -> Some p | None -> try_orientation (b, a)
  in
  let paths = ref [] in
  let failed = ref false in
  Bitset.iter
    (fun e ->
      if (not !failed) && Bitset.mem uncovered e then begin
        match path_via e with
        | None -> failed := true
        | Some path ->
          paths := path :: !paths;
          List.iter
            (fun f ->
              if Bitset.mem orig f then Bitset.remove uncovered f
              else Bitset.add added f)
            path
      end)
    orig;
  if !failed then None else Some (List.rev !paths, Bitset.elements added)

(* Drop added edges one at a time as long as a cover restricted to the
   remaining set still succeeds: brings the greedy cover close to a minimal
   augmentation. *)
let prune_added chip ~weights ~s_node ~t_node (paths, added) =
  let orig = Chip.channel_edges chip in
  let rec shrink paths added =
    let try_drop e =
      let usable f = Bitset.mem orig f || (List.mem f added && f <> e) in
      heuristic_cover_once ~usable chip ~weights ~jitter:(fun _ -> 0.) ~s_node ~t_node
    in
    let rec first_success = function
      | [] -> (paths, added)
      | e :: rest ->
        (match try_drop e with
         | Some (paths', added') when List.length added' < List.length added ->
           shrink paths' added'
         | Some _ | None -> first_success rest)
    in
    first_success added
  in
  shrink paths added

(* Multi-restart: the greedy cover is order- and cost-sensitive, so run it
   with several deterministic jitters, prune each cover to a near-minimal
   edge set, and keep the best (fewest added edges, then fewest paths). *)
let heuristic_cover chip ~weights ~s_node ~t_node =
  let g = Grid.graph (Chip.grid chip) in
  let ne = Graph.n_edges g in
  let rng = Mf_util.Rng.create ~seed:9173 in
  let candidates =
    List.init 8 (fun attempt ->
        let jitter =
          if attempt = 0 then fun _ -> 0.
          else begin
            let noise = Array.init ne (fun _ -> Mf_util.Rng.float rng 3.) in
            fun e -> noise.(e)
          end
        in
        Option.map
          (prune_added chip ~weights ~s_node ~t_node)
          (heuristic_cover_once chip ~weights ~jitter ~s_node ~t_node))
  in
  let better a b =
    match (a, b) with
    | None, x | x, None -> x
    | Some (pa, aa), Some (pb, ab) ->
      let ka = (List.length aa, List.length pa) and kb = (List.length ab, List.length pb) in
      if kb < ka then Some (pb, ab) else Some (pa, aa)
  in
  List.fold_left better None candidates

let generate ?(weights = fun _ -> 1.) ?src_port ?dst_port ?(max_paths = 8) ?(node_limit = 1_200)
    ?budget ?(warm = true) ?presolve ?cuts ?pool chip =
  let auto_src, auto_dst = farthest_ports chip in
  let src_port = Option.value ~default:auto_src src_port in
  let dst_port = Option.value ~default:auto_dst dst_port in
  if src_port = dst_port then invalid_arg "Pathgen.generate: source = meter";
  let ports = Chip.ports chip in
  let s_node = ports.(src_port).node and t_node = ports.(dst_port).node in
  let orig = Chip.channel_edges chip in
  let total_nodes = ref 0 in
  let total_cuts = ref 0 in
  let total_stats = ref Ilp.zero_stats in
  let attempts = ref [] (* reversed *) in
  let heuristic =
    Mf_util.Prof.time "pathgen.heuristic" (fun () ->
        heuristic_cover chip ~weights ~s_node ~t_node)
  in
  let heuristic_cost =
    match heuristic with
    | None -> infinity
    | Some (_, added) -> List.fold_left (fun acc e -> acc +. weights e) 0. added
  in
  let primed_bound = heuristic_cost +. 1e-6 in
  let heuristic_config () =
    match heuristic with
    | None -> None
    | Some (paths, added) ->
      Some
        {
          src_port;
          dst_port;
          added_edges = List.sort compare added;
          paths;
          n_paths = List.length paths;
          ilp_nodes = !total_nodes;
          loop_cuts = !total_cuts;
          solver = !total_stats;
          attempts = List.rev !attempts;
          degraded = true;
        }
  in
  let rec attempt k =
    if k > max_paths || !total_nodes >= node_limit || Mf_util.Budget.over budget then begin
      match heuristic_config () with
      | Some config -> Ok config
      | None ->
        Error
          (Mf_util.Fail.v ~nodes:!total_nodes Mf_util.Fail.Pathgen
             (Printf.sprintf "no DFT configuration with at most %d test paths" max_paths))
    end
    else begin
      let model =
        Mf_util.Prof.time "pathgen.build_model" (fun () ->
            build_model chip ~weights ~k ~s_node ~t_node)
      in
      let n_cuts = ref 0 in
      let lazy_cuts sol =
        let cuts = loop_cuts_of chip model ~s_node sol in
        n_cuts := !n_cuts + List.length cuts;
        cuts
      in
      (* branch first on path edges that would create new channels: they
         drive the objective *)
      let is_free = Array.make (Ilp.n_vars model.ilp) false in
      for r = 0 to k - 1 do
        Array.iteri (fun e v -> if model.s_var.(e) >= 0 then is_free.(v) <- true) model.e_var.(r)
      done;
      let branch_priority v = if is_free.(v) then 0 else 1 in
      (* escalating per-attempt budgets: a tight proof that k paths do not
         suffice is expensive, so small k gets a small budget and we move
         on; the budget grows with k where solutions are usually found *)
      let attempt_budget = min (node_limit - !total_nodes) (300 * (1 lsl (k - 2))) in
      let outcome =
        Mf_util.Prof.time "pathgen.ilp_solve" (fun () ->
            Ilp.solve ~node_limit:(max 100 attempt_budget) ?budget ~lazy_cuts ~branch_priority
              ~upper_bound:primed_bound ~warm ?presolve ?cuts ?pool model.ilp)
      in
      total_cuts := !total_cuts + !n_cuts;
      total_nodes := !total_nodes + Ilp.nodes_explored model.ilp;
      let st = Ilp.last_stats model.ilp in
      total_stats := Ilp.add_stats !total_stats st;
      Mf_util.Prof.add_count "pathgen.ilp_solve" st.Ilp.rs_nodes;
      Mf_util.Prof.add_count "lp.pivots" (st.Ilp.rs_primal_pivots + st.Ilp.rs_dual_pivots);
      attempts :=
        {
          k;
          outcome =
            (match outcome with
             | Ilp.Optimal _ -> `Optimal
             | Ilp.Feasible _ -> `Feasible
             | Ilp.Infeasible -> `Infeasible
             | Ilp.Node_limit -> `Node_limit
             | Ilp.Failed _ -> `Failed);
          nodes = st.Ilp.rs_nodes;
          root_bound = st.Ilp.rs_root_bound;
          best_bound = st.Ilp.rs_best_bound;
          primed_bound;
        }
        :: !attempts;
      match outcome with
      | Ilp.Optimal sol | Ilp.Feasible sol ->
        let paths = extract_paths chip model ~s_node ~t_node sol in
        let added = Hashtbl.create 8 in
        List.iter
          (fun path ->
            List.iter (fun j -> if not (Bitset.mem orig j) then Hashtbl.replace added j ()) path)
          paths;
        let added_edges = List.sort compare (Hashtbl.fold (fun j () acc -> j :: acc) added []) in
        Ok
          {
            src_port;
            dst_port;
            added_edges;
            paths;
            n_paths = k;
            ilp_nodes = !total_nodes;
            loop_cuts = !total_cuts;
            solver = !total_stats;
            attempts = List.rev !attempts;
            degraded = false;
          }
      | Ilp.Infeasible | Ilp.Node_limit -> attempt (k + 1)
      | Ilp.Failed _ ->
        (* a typed solver failure (defective relaxation) degrades exactly
           like an exhausted budget: try more paths, then the heuristic *)
        attempt (k + 1)
    end
  in
  attempt 2

let apply chip config = Chip.augment chip ~edges:config.added_edges
