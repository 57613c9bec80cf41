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

(* The six detour attempts, in order.  Attempt [i] draws its noise from a
   copy of the generator as attempt [i - 1] left it, so the sequence is
   persistent: forcing one node twice gives one route, and a consumer
   that stops early never draws the rest. *)
let candidate_paths chip ?present ~s ~t ~via () : int list Seq.t =
 fun () ->
  let g = Grid.graph (Chip.grid chip) in
  let ne = Graph.n_edges g in
  (* riding along always-conducting edges is free of masking risk (they are
     live either way), so bias the detour search toward them *)
  let discount f = if always_conducting chip present f then 0.125 else 1. in
  let rec from attempt rng () =
    if attempt = 6 then Seq.Nil
    else begin
      let rng = Rng.copy rng in
      let weight =
        if attempt = 0 then discount
        else begin
          let noise = Array.init ne (fun _ -> Rng.float rng 4.) in
          fun f -> discount f *. (1. +. noise.(f))
        end
      in
      let rest = from (attempt + 1) rng in
      match bridge_path_through chip ?present ~s ~t ~via ~weight () with
      | Some p -> Seq.Cons (p, rest)
      | None -> rest ()
    end
  in
  from 0 (Rng.create ~seed:(31 + via)) ()

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

let routes ?present chip ~s ~t via = List.of_seq (route_seq chip ?present ~s ~t ~via ())

(* ------------------------------------------------------------------ *)
(* The route memo.  A stream is one route sequence whose steps are forced
   at most as far as some consumer read.  A missing step is computed
   outside any lock and published with a compare-and-set: route sequences
   are persistent, so two domains racing on one step compute equal steps
   and the loser reads the winner's.  No domain waits for another's
   computation. *)

type stream = step Atomic.t
and step = Pending of int list Seq.t | Last | Route of int list * stream

let rec stream_seq stream () =
  let view = function
    | Route (r, rest) -> Seq.Cons (r, stream_seq rest)
    | Last | Pending _ -> Seq.Nil
  in
  match Atomic.get stream with
  | Pending routes as pending ->
    let step =
      match routes () with
      | Seq.Nil -> Last
      | Seq.Cons (r, rest) ->
        Mf_util.Prof.add_count "repair.route_memo_misses" 1;
        Route (r, Atomic.make (Pending rest))
    in
    (* a lost race leaves the winner's step, never [Pending] *)
    view (if Atomic.compare_and_set stream pending step then step else Atomic.get stream)
  | Route _ as step ->
    Mf_util.Prof.add_count "repair.route_memo_hits" 1;
    view step
  | Last -> Seq.Nil

(* Routes read a context only through its blocked edges and stuck-open
   valves, so those two sets name it; per context, one stream per
   (terminals, via).  The lock guards the tables only. *)
type memo = {
  lock : Mutex.t;
  contexts : (int list * int list, (int * int * int, stream) Hashtbl.t) Hashtbl.t;
}

let memo () = { lock = Mutex.create (); contexts = Hashtbl.create 4 }

let context_key = function
  | None -> ([], [])
  | Some ctx ->
    let faults = Pressure.context_faults ctx in
    let pick f = List.sort_uniq compare (List.filter_map f faults) in
    ( pick (function Fault.Stuck_at_0 e -> Some e | Fault.Stuck_at_1 _ | Fault.Leak _ -> None),
      pick (function Fault.Stuck_at_1 v -> Some v | Fault.Stuck_at_0 _ | Fault.Leak _ -> None) )

let find_or_add lock tbl key make =
  Mutex.protect lock @@ fun () ->
  match Hashtbl.find_opt tbl key with
  | Some v -> v
  | None ->
    let v = make () in
    Hashtbl.add tbl key v;
    v

let memo_routes memo ?present chip ~s ~t =
  let streams =
    find_or_add memo.lock memo.contexts (context_key present) (fun () -> Hashtbl.create 16)
  in
  fun via ->
    stream_seq
      (find_or_add memo.lock streams (s, t, via) (fun () ->
           Atomic.make (Pending (route_seq chip ?present ~s ~t ~via ()))))

type cache = {
  present : Pressure.context option;
  routes : int -> int list Seq.t;
  detect : (Chip.t -> Vector.t -> Pressure.detection) option;
}

let cache ?present memo chip ~s ~t =
  { present; routes = memo_routes memo ?present chip ~s ~t; detect = None }

let fault_free_cache ~detect memo chip ~s ~t =
  { present = None; routes = memo_routes memo chip ~s ~t; detect = Some detect }

let cache_context c = c.present
let cache_routes c via = c.routes via

(* The context an entry point answers for: its cache's, which [?present]
   may restate but not contradict. *)
let context_of ?present ?cache () =
  match (present, cache) with
  | _, None -> present
  | None, Some c -> c.present
  | Some p, Some { present = Some q; _ } when p == q -> present
  | Some _, Some _ -> invalid_arg "Repair: ?cache answers for another fault context"

let tried present cache chip ~s ~t via =
  match cache with Some c -> c.routes via | None -> route_seq chip ?present ~s ~t ~via ()

(* Is [v] intact on the (degraded) chip and does it detect [fault]?
   Fault-free checks read the vector's detection set, from the cache when
   there is one. *)
let confirms present cache chip v fault =
  match present with
  | Some _ ->
    let p = Pressure.prepare ?present chip v in
    Pressure.prepared_intact p && Pressure.prepared_detects p fault
  | None ->
    let d =
      match Option.bind cache (fun c -> c.detect) with
      | Some detect -> detect chip v
      | None -> Pressure.detect chip v
    in
    d.well_formed && Pressure.detects_in chip d.detected fault

let confirmed_sa0 ?present ?cache chip ~s ~t edge =
  let present = context_of ?present ?cache () in
  Seq.filter
    (fun path ->
      confirms present cache chip
        (Vector.of_path chip ~source:s ~meters:[ t ] path)
        (Fault.Stuck_at_0 edge))
    (tried present cache chip ~s ~t edge)

(* Worst-case stuck-at-1 vector (Sec. 3): close every valve except those on
   one leak path through the defective valve, so pressure at the meter can
   only mean that [v] failed to close. *)
let confirmed_cut present cache chip ~s ~t valve_id path =
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
    confirms present cache chip
      (Vector.of_cut chip ~source:s ~meters:[ t ] cut)
      (Fault.Stuck_at_1 valve_id)
  then Some cut
  else None

let confirmed_sa1 ?present ?cache chip ~s ~t valve_id =
  let present = context_of ?present ?cache () in
  let via = (Chip.valves chip).(valve_id).edge in
  Seq.filter_map
    (confirmed_cut present cache chip ~s ~t valve_id)
    (tried present cache chip ~s ~t via)

let first seq = Option.map fst (Seq.uncons seq)

let candidates_sa0 ?present chip ~s ~t edge =
  dedup (List.of_seq (confirmed_sa0 ?present chip ~s ~t edge))

let repair_sa0 ?present ?cache chip ~s ~t edge =
  first (confirmed_sa0 ?present ?cache chip ~s ~t edge)

let candidates_sa1 ?present chip ~s ~t valve_id =
  dedup (List.of_seq (confirmed_sa1 ?present chip ~s ~t valve_id))

let repair_sa1 ?present ?cache chip ~s ~t valve_id =
  first (confirmed_sa1 ?present ?cache chip ~s ~t valve_id)

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

let run ?present ?cache chip suite =
  let present = context_of ?present ?cache () in
  append suite (additions ?present ?cache chip suite (Vectors.validate ?present chip suite))

let validate ?present ?cache chip suite =
  let present = context_of ?present ?cache () in
  let detect = Option.bind cache (fun c -> c.detect) in
  let report = Vectors.validate ?present ?detect chip suite in
  if Mf_faults.Coverage.complete report then (suite, report)
  else begin
    let extra = additions ?present ?cache chip suite report in
    ( append suite extra,
      Mf_faults.Coverage.extend ?present ?detect chip report (Vectors.vectors chip extra) )
  end
