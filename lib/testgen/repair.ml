module Chip = Mf_arch.Chip
module Grid = Mf_grid.Grid
module Graph = Mf_graph.Graph
module Traverse = Mf_graph.Traverse
module Bitset = Mf_util.Bitset
module Rng = Mf_util.Rng
module Vector = Mf_faults.Vector
module Pressure = Mf_faults.Pressure
module Fault = Mf_faults.Fault

let channel_pred chip present via f =
  f <> via
  && Chip.is_channel chip f
  && match present with None -> true | Some ctx -> not (Pressure.blocked ctx f)

(* Edges that conduct under *every* vector: unvalved channels, plus valves
   the context leaves stuck open.  A path/cut vector's conducting graph is
   exactly its own path plus these, so masking analysis reduces to the
   components they induce. *)
let always_conducting chip present f =
  Chip.is_channel chip f
  && (match present with Some ctx when Pressure.blocked ctx f -> false | _ -> true)
  &&
  match Chip.valve_on chip f with
  | None -> true
  | Some v -> (
      match present with Some ctx -> Pressure.stuck_open ctx v.valve_id | None -> false)

(* Union-find labels of the components of the always-conducting subgraph
   minus [via]: two nodes with one label are connected whatever the vector
   does, so a detour reentering a used label would mask the target edge. *)
let conduction_components chip present ~via =
  let g = Grid.graph (Chip.grid chip) in
  let nn = Graph.n_nodes g in
  let parent = Array.init nn Fun.id in
  let rec find i = if parent.(i) = i then i else begin
    let r = find parent.(i) in
    parent.(i) <- r;
    r
  end in
  for f = 0 to Graph.n_edges g - 1 do
    if f <> via && always_conducting chip present f then begin
      let u, v = Graph.endpoints g f in
      let ru = find u and rv = find v in
      if ru <> rv then parent.(ru) <- rv
    end
  done;
  fun n -> find n

(* A source→meter path through channel edge [via] on which [via] stays a
   {e bridge} of the realized conducting graph: the two halves are disjoint
   at the level of always-conducting components, so no vector-independent
   detour can reconnect around [via].  [weight] steers the detour. *)
let bridge_path_through chip ?present ~s ~t ~via ~weight () =
  let g = Grid.graph (Chip.grid chip) in
  let a, b = Graph.endpoints g via in
  let channel = channel_pred chip present via in
  let comp = conduction_components chip present ~via in
  if comp a = comp b then None (* an always-conducting detour spans [via] itself *)
  else begin
    let try_orientation (a, b) =
      match Traverse.dijkstra g ~allowed:channel ~weight ~src:s ~dst:a with
      | None -> None
      | Some (_, half1) ->
        let used = Bitset.create (Graph.n_nodes g) in
        List.iter (fun n -> Bitset.add used (comp n)) (Traverse.path_nodes g ~src:s half1);
        if Bitset.mem used (comp b) || Bitset.mem used (comp t) then None
        else begin
          let avoid f =
            channel f
            &&
            let u, v = Graph.endpoints g f in
            let fresh n =
              let c = comp n in
              c = comp b || c = comp t || not (Bitset.mem used c)
            in
            fresh u && fresh v
          in
          match Traverse.dijkstra g ~allowed:avoid ~weight ~src:b ~dst:t with
          | None -> None
          | Some (_, half2) -> Some (half1 @ (via :: half2))
        end
    in
    match try_orientation (a, b) with Some p -> Some p | None -> try_orientation (b, a)
  end

(* The six detour attempts, in order; attempt [i] draws its noise only
   when forced, so a consumer that stops early never draws the rest.  The
   rng is created per traversal, so every traversal yields one sequence. *)
let candidate_paths chip ?present ~s ~t ~via () : int list Seq.t =
 fun () ->
  let g = Grid.graph (Chip.grid chip) in
  let ne = Graph.n_edges g in
  let rng = Rng.create ~seed:(31 + via) in
  (* riding along always-conducting edges is free of masking risk (they are
     live either way), so bias the detour search toward them *)
  let discount f = if always_conducting chip present f then 0.125 else 1. in
  Seq.filter_map
    (fun attempt ->
      let weight =
        if attempt = 0 then discount
        else begin
          let noise = Array.init ne (fun _ -> Rng.float rng 4.) in
          fun f -> discount f *. (1. +. noise.(f))
        end
      in
      bridge_path_through chip ?present ~s ~t ~via ~weight ())
    (Seq.init 6 Fun.id) ()

let dedup lists =
  let rec go seen = function
    | [] -> []
    | x :: rest -> if List.mem x seen then go seen rest else x :: go (x :: seen) rest
  in
  go [] lists

(* Complete (up to the cap) fallback: the heuristic above can miss routes
   whose halves must thread between always-conducting components, the exact
   contracted-graph search cannot. *)
let exact_route chip ?present ~s ~t ~via () =
  let g = Grid.graph (Chip.grid chip) in
  let allowed f =
    Chip.is_channel chip f
    && match present with Some ctx -> not (Pressure.blocked ctx f) | None -> true
  in
  let contract f = always_conducting chip present f in
  match
    Mf_graph.Disjoint.route_through g ~allowed ~contract ~origins:[ s ] ~target:t ~via
      ~cap:Mf_graph.Disjoint.default_cap
  with
  | Mf_graph.Disjoint.Route p -> [ p ]
  | Mf_graph.Disjoint.No_route | Mf_graph.Disjoint.Capped -> []

(* Every route a repair tries through [via], heuristic detours first; the
   exact search runs only when a consumer gets past them. *)
let route_seq chip ?present ~s ~t ~via () =
  Seq.append
    (candidate_paths chip ?present ~s ~t ~via ())
    (fun () -> List.to_seq (exact_route chip ?present ~s ~t ~via ()) ())

let routes chip ~s ~t via = List.of_seq (route_seq chip ~s ~t ~via ())

type cache = {
  routes : int -> int list list;
  detect : Chip.t -> Vector.t -> Pressure.detection;
}

let tried ?present ?cache chip ~s ~t via =
  match (present, cache) with
  | None, Some c -> List.to_seq (c.routes via)
  | Some _, Some _ -> invalid_arg "Repair: ?cache holds fault-free answers; drop it with ?present"
  | _, None -> route_seq chip ?present ~s ~t ~via ()

(* Is [v] well-formed and does it detect [fault]?  Fault-free checks read
   the vector's detection set, from the cache when there is one. *)
let confirms ?present ?cache chip v fault =
  match present with
  | Some _ ->
    let p = Pressure.prepare ?present chip v in
    Pressure.prepared_well_formed p && Pressure.prepared_detects p fault
  | None ->
    let d = match cache with Some c -> c.detect chip v | None -> Pressure.detect chip v in
    d.well_formed && Pressure.detects_in chip d.detected fault

let confirms_sa0 ?present ?cache chip ~s ~t edge path =
  confirms ?present ?cache chip
    (Vector.of_path chip ~source:s ~meters:[ t ] path)
    (Fault.Stuck_at_0 edge)

let candidates_sa0 ?present chip ~s ~t edge =
  dedup
    (List.of_seq
       (Seq.filter (confirms_sa0 ?present chip ~s ~t edge) (tried ?present chip ~s ~t edge)))

let repair_sa0 ?present ?cache chip ~s ~t edge =
  Seq.find (confirms_sa0 ?present ?cache chip ~s ~t edge) (tried ?present ?cache chip ~s ~t edge)

(* Worst-case stuck-at-1 vector (Sec. 3): close every valve except those on
   one leak path through the defective valve, so pressure at the meter can
   only mean that [v] failed to close. *)
let confirmed_cut ?present ?cache chip ~s ~t valve_id path =
  let open_valves =
    List.filter_map
      (fun f ->
        match Chip.valve_on chip f with
        | Some (w : Chip.valve) when w.valve_id <> valve_id -> Some w.valve_id
        | Some _ | None -> None)
      path
  in
  let cut =
    List.init (Chip.n_valves chip) Fun.id |> List.filter (fun w -> not (List.mem w open_valves))
  in
  if
    confirms ?present ?cache chip
      (Vector.of_cut chip ~source:s ~meters:[ t ] cut)
      (Fault.Stuck_at_1 valve_id)
  then Some cut
  else None

let candidates_sa1 ?present chip ~s ~t valve_id =
  let via = (Chip.valves chip).(valve_id).edge in
  dedup
    (List.of_seq
       (Seq.filter_map (confirmed_cut ?present chip ~s ~t valve_id) (tried ?present chip ~s ~t via)))

let repair_sa1 ?present ?cache chip ~s ~t valve_id =
  let via = (Chip.valves chip).(valve_id).edge in
  Seq.find_map
    (confirmed_cut ?present ?cache chip ~s ~t valve_id)
    (tried ?present ?cache chip ~s ~t via)

(* The vectors [run] appends, as a suite of their own. *)
let additions ?present ?cache chip (suite : Vectors.t) (report : Mf_faults.Coverage.report) =
  Mf_util.Prof.time "testgen.repair" @@ fun () ->
  let ports = Chip.ports chip in
  let s = ports.(suite.source_port).node and t = ports.(suite.meter_port).node in
  {
    suite with
    Vectors.path_edges =
      List.filter_map (fun e -> repair_sa0 ?present ?cache chip ~s ~t e) report.sa0_undetected;
    cut_valves =
      List.filter_map (fun v -> repair_sa1 ?present ?cache chip ~s ~t v) report.sa1_undetected;
  }

let append (suite : Vectors.t) (extra : Vectors.t) =
  {
    suite with
    Vectors.path_edges = suite.path_edges @ extra.path_edges;
    cut_valves = suite.cut_valves @ extra.cut_valves;
  }

let run ?present chip suite =
  append suite (additions ?present chip suite (Vectors.validate ?present chip suite))

let validate ?present ?cache chip suite =
  let detect = Option.map (fun c -> c.detect) cache in
  let report = Vectors.validate ?present ?detect chip suite in
  if Mf_faults.Coverage.complete report then (suite, report)
  else begin
    let extra = additions ?present ?cache chip suite report in
    ( append suite extra,
      Mf_faults.Coverage.extend ?present ?detect chip report (Vectors.vectors chip extra) )
  end
