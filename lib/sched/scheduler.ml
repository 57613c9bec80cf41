module Chip = Mf_arch.Chip
module Graph = Mf_graph.Graph
module Bitset = Mf_util.Bitset
module Op = Mf_bioassay.Op
module Seqgraph = Mf_bioassay.Seqgraph
module P = Prep

type options = {
  respect_sharing : bool;
  transport_cost : int;
  allow_storage : bool;
  horizon : int;
  wash : bool;
  wash_penalty : int;
}

let default_options =
  {
    respect_sharing = true;
    transport_cost = 1;
    allow_storage = true;
    horizon = 1_000_000;
    wash = false;
    wash_penalty = 2;
  }

(* ------------------------------------------------------------------ *)
(* Counters *)

module Stats = struct
  type snapshot = { runs : int; steps : int; routes : int; cutoffs : int }

  let runs = Atomic.make 0
  let steps = Atomic.make 0
  let routes = Atomic.make 0

  let reset () =
    Atomic.set runs 0;
    Atomic.set steps 0;
    Atomic.set routes 0

  let snapshot () =
    { runs = Atomic.get runs; steps = Atomic.get steps; routes = Atomic.get routes; cutoffs = 0 }
end

(* Debug dumps are env-gated, read once at module initialisation: PSO
   fitness reaches the deadlock path from several domains at once, where a
   shared [lazy] would raise [CamlinternalLazy.Undefined]. *)
let debug_enabled = Sys.getenv_opt "MFDFT_SCHED_DEBUG" <> None

(* ------------------------------------------------------------------ *)
(* Mutable run state *)

type unit_loc =
  | Fresh  (** reagent available at every port *)
  | At_device of int
  | Stored of int  (** channel edge *)
  | At_reservoir of int  (** parked off-chip in the vial of a port (node id) *)
  | In_transit
  | Consumed

type unit_state = {
  u_id : int;
  producer : int option;  (** producing op, [None] for fresh reagents *)
  consumer : int;
  mutable loc : unit_loc;
}

type device_run = Idle | Running of int * int  (** op, finish time *)

type dev = {
  d_id : int;
  d_kind : Chip.device_kind;
  d_node : int;
  mutable d_run : device_run;
  mutable reserved_by : int option;
}

type dest = To_device of int | To_storage of int | To_reservoir of int

type transport = {
  t_unit : int;
  t_path : int list;  (** channel edges, in travel order *)
  t_nodes : int list;  (** nodes visited, including both ends *)
  t_dest : dest;
  t_finish : int;
}

(* Memo key of a [route] query: its source list and destination. *)
module Route_key = struct
  type t = int list * int

  let equal ((a : int list), (x : int)) (b, y) = x = y && List.equal Int.equal a b
  let hash (srcs, dst) = List.fold_left (fun h n -> (h * 65599) + n) dst srcs land max_int
end

module Route_memo = Hashtbl.Make (Route_key)

(* The state carries two redundant views of occupancy.  The *reference*
   view is the original seed implementation: every query rebuilds its
   answer from [units]/[devs]/[transports] on the spot.  The *fast* view
   maintains the same sets incrementally (bitsets and count arrays updated
   by the mutation hooks below).  Both modes run the identical decision
   algorithm; [fast] only selects which primitive answers each query, so
   any divergence is a bug in exactly one primitive pair — which the
   differential tests check directly. *)
type state = {
  chip : Chip.t;
  prep : P.t;
  g : Graph.t;
  app : Seqgraph.t;
  opts : options;
  fast : bool;
  record_events : bool;
  devs : dev array;
  units : unit_state array;
  inputs_of : int list array;  (** op -> unit ids it consumes *)
  outputs_of : int list array;  (** op -> unit ids it produces *)
  op_bound : int option array;
  op_started : bool array;
  op_finished : bool array;
  op_finish_time : int array;
  mutable transports : transport list;
  mutable events : Schedule.event list;  (** reversed *)
  mutable n_transports : int;
  mutable transport_time : int;
  mutable n_stored : int;
  mutable n_washes : int;
  last_user : int array;  (** edge -> lineage of the last fluid through it *)
  priority : int list;  (** topological op order *)
  port_nodes : int list;
  kind_counts : int array;  (** device kind -> number of devices *)
  mutable c_steps : int;
  mutable c_routes : int;
  mutable c_memo_hits : int;
  (* occupancy generation: every mutation hook bumps it, so two queries at
     one generation see one occupancy state.  [route] and [storage_site]
     answers in fast mode are kept for the generation [memo_gen]. *)
  mutable gen : int;
  mutable memo_gen : int;
  route_memo : (int * int list) option Route_memo.t;
  storage_memo : (int, (int * int list) option) Hashtbl.t;
  (* incremental occupancy (fast primitives) *)
  dev_units : int list array;  (** device -> resident unit ids, ascending *)
  dev_inbound : int list array;  (** device -> unit ids in transit to it *)
  occ_nodes : Bitset.t;  (** busy-device nodes + storage-edge endpoints *)
  storage : Bitset.t;  (** edges stored-at or claimed by in-flight eviction *)
  te_count : int array;  (** edge -> in-flight transports covering it *)
  tn_count : int array;  (** node -> in-flight transports covering it *)
  ctrl_release : int array;  (** control -> valve edges on in-flight paths *)
  res_count : int array;  (** port node -> vial claims (resident + inbound) *)
  (* BFS scratch A: routing / distance fields (epoch-stamped) *)
  q : int array;
  dist_a : int array;
  stamp_a : int array;
  pedge : int array;
  pnode : int array;
  mutable epoch_a : int;
  (* source marks for multi-source routing *)
  smark : int array;
  mutable epoch_s : int;
  (* BFS scratch B: reachability probes nested inside a live scratch-A pass *)
  q_b : int array;
  stamp_b : int array;
  mutable epoch_b : int;
  (* blocked-node marks for connectivity checks *)
  bmark : int array;
  mutable epoch_m : int;
}

(* Residue identity of a unit: its producing operation, or a unique negative
   tag for fresh reagents (each root draws a distinct reagent). *)
let lineage (u : unit_state) =
  match u.producer with Some p -> p | None -> -(u.consumer + 2)

let device_kind_of_op = function
  | Op.Mix -> Chip.Mixer
  | Op.Detect -> Chip.Detector
  | Op.Heat -> Chip.Heater
  | Op.Filter -> Chip.Filter

let kind_index = function Chip.Mixer -> 0 | Chip.Detector -> 1 | Chip.Heater -> 2 | Chip.Filter -> 3

let init chip prep app opts ~fast ~record_events =
  let devs =
    Array.map
      (fun (d : Chip.device) ->
        { d_id = d.device_id; d_kind = d.kind; d_node = d.node; d_run = Idle; reserved_by = None })
      (Chip.devices chip)
  in
  let n = Seqgraph.n_ops app in
  let units = ref [] in
  let next_unit = ref 0 in
  let inputs_of = Array.make n [] in
  let outputs_of = Array.make n [] in
  for j = 0 to n - 1 do
    match Seqgraph.preds app j with
    | [] ->
      let u = { u_id = !next_unit; producer = None; consumer = j; loc = Fresh } in
      incr next_unit;
      units := u :: !units;
      inputs_of.(j) <- [ u.u_id ]
    | preds ->
      List.iter
        (fun p ->
          let u = { u_id = !next_unit; producer = Some p; consumer = j; loc = Consumed } in
          (* loc becomes At_device when the producer finishes; Consumed is a
             safe placeholder meaning "not yet materialised" *)
          incr next_unit;
          units := u :: !units;
          inputs_of.(j) <- inputs_of.(j) @ [ u.u_id ];
          outputs_of.(p) <- outputs_of.(p) @ [ u.u_id ])
        preds
  done;
  let n_nodes = prep.P.n_nodes in
  let n_edges = prep.P.n_edges in
  let kind_counts = Array.make 4 0 in
  Array.iter
    (fun (d : Chip.device) ->
      let k = kind_index d.kind in
      kind_counts.(k) <- kind_counts.(k) + 1)
    (Chip.devices chip);
  {
    chip;
    prep;
    g = prep.P.g;
    app;
    opts;
    fast;
    record_events;
    devs;
    units = Array.of_list (List.rev !units);
    inputs_of;
    outputs_of;
    op_bound = Array.make n None;
    op_started = Array.make n false;
    op_finished = Array.make n false;
    op_finish_time = Array.make n 0;
    transports = [];
    events = [];
    n_transports = 0;
    transport_time = 0;
    n_stored = 0;
    n_washes = 0;
    last_user = Array.make n_edges min_int;
    priority =
      (* sinks first: finishing them consumes fluids without producing new
         ones, releasing devices and storage for everything else *)
      (let topo = Seqgraph.topological app in
       let sinks, inner = List.partition (fun j -> Seqgraph.succs app j = []) topo in
       sinks @ inner);
    port_nodes = Array.to_list (Chip.ports chip) |> List.map (fun (p : Chip.port) -> p.node);
    kind_counts;
    c_steps = 0;
    c_routes = 0;
    c_memo_hits = 0;
    gen = 0;
    memo_gen = 0;
    route_memo = Route_memo.create 16;
    storage_memo = Hashtbl.create 8;
    dev_units = Array.make (Array.length devs) [];
    dev_inbound = Array.make (Array.length devs) [];
    occ_nodes = Bitset.create n_nodes;
    storage = Bitset.create n_edges;
    te_count = Array.make n_edges 0;
    tn_count = Array.make n_nodes 0;
    ctrl_release = Array.make (max 1 prep.P.n_controls) 0;
    res_count = Array.make n_nodes 0;
    q = Array.make n_nodes 0;
    dist_a = Array.make n_nodes 0;
    stamp_a = Array.make n_nodes 0;
    pedge = Array.make n_nodes (-1);
    pnode = Array.make n_nodes (-1);
    epoch_a = 0;
    smark = Array.make n_nodes 0;
    epoch_s = 0;
    q_b = Array.make n_nodes 0;
    stamp_b = Array.make n_nodes 0;
    epoch_b = 0;
    bmark = Array.make n_nodes 0;
    epoch_m = 0;
  }

(* ------------------------------------------------------------------ *)
(* Mutation hooks: every change to unit locations, device runs or the
   in-flight transport set goes through these, keeping the incremental
   view in lock-step with the ground-truth fields in both modes, and
   bumping the occupancy generation. *)

let bump st = st.gen <- st.gen + 1

let refresh_dev_occ st (d : dev) =
  let busy =
    match d.d_run with Running _ -> true | Idle -> st.dev_units.(d.d_id) <> []
  in
  if busy then Bitset.add st.occ_nodes d.d_node else Bitset.remove st.occ_nodes d.d_node

(* Storage-edge endpoints are always plain channel nodes (site selection
   excludes device/port nodes and previously claimed endpoints), so their
   occupancy bits never collide with device bits and each endpoint has one
   claimant — plain add/remove is exact. *)
let storage_claim st e =
  bump st;
  if not (Bitset.mem st.storage e) then begin
    Bitset.add st.storage e;
    Bitset.add st.occ_nodes st.prep.P.edge_u.(e);
    Bitset.add st.occ_nodes st.prep.P.edge_v.(e)
  end

let storage_release st e =
  bump st;
  Bitset.remove st.storage e;
  Bitset.remove st.occ_nodes st.prep.P.edge_u.(e);
  Bitset.remove st.occ_nodes st.prep.P.edge_v.(e)

let rec insert_sorted x = function
  | [] -> [ x ]
  | y :: _ as l when x <= y -> x :: l
  | y :: rest -> y :: insert_sorted x rest

let set_loc st (u : unit_state) loc =
  bump st;
  (match u.loc with
   | At_device d ->
     st.dev_units.(d) <- List.filter (fun id -> id <> u.u_id) st.dev_units.(d);
     refresh_dev_occ st st.devs.(d)
   | Stored e -> storage_release st e
   | At_reservoir n -> st.res_count.(n) <- st.res_count.(n) - 1
   | Fresh | In_transit | Consumed -> ());
  u.loc <- loc;
  match loc with
  | At_device d ->
    st.dev_units.(d) <- insert_sorted u.u_id st.dev_units.(d);
    refresh_dev_occ st st.devs.(d)
  | Stored e -> storage_claim st e
  | At_reservoir n -> st.res_count.(n) <- st.res_count.(n) + 1
  | Fresh | In_transit | Consumed -> ()

let set_run st (d : dev) run =
  bump st;
  d.d_run <- run;
  refresh_dev_occ st d

let add_transport st tr =
  bump st;
  st.transports <- tr :: st.transports;
  List.iter
    (fun e ->
      st.te_count.(e) <- st.te_count.(e) + 1;
      let c = st.prep.P.edge_control.(e) in
      if c >= 0 then st.ctrl_release.(c) <- st.ctrl_release.(c) + 1)
    tr.t_path;
  List.iter (fun n -> st.tn_count.(n) <- st.tn_count.(n) + 1) tr.t_nodes;
  match tr.t_dest with
  | To_device d -> st.dev_inbound.(d) <- tr.t_unit :: st.dev_inbound.(d)
  | To_storage e -> storage_claim st e
  | To_reservoir n -> st.res_count.(n) <- st.res_count.(n) + 1

(* Caller removes [tr] from [st.transports]; this reverses the counters.
   A storage claim persists (the unit lands [Stored] there right after);
   a reservoir claim is re-added by the unit's [set_loc]. *)
let drop_transport st tr =
  bump st;
  List.iter
    (fun e ->
      st.te_count.(e) <- st.te_count.(e) - 1;
      let c = st.prep.P.edge_control.(e) in
      if c >= 0 then st.ctrl_release.(c) <- st.ctrl_release.(c) - 1)
    tr.t_path;
  List.iter (fun n -> st.tn_count.(n) <- st.tn_count.(n) - 1) tr.t_nodes;
  match tr.t_dest with
  | To_device d -> st.dev_inbound.(d) <- List.filter (fun id -> id <> tr.t_unit) st.dev_inbound.(d)
  | To_storage _ -> ()
  | To_reservoir n -> st.res_count.(n) <- st.res_count.(n) - 1

(* ------------------------------------------------------------------ *)
(* Reference occupancy primitives (the seed implementation, rebuilt per
   query) *)

let units_at_device st d_id =
  Array.to_list st.units |> List.filter (fun u -> u.loc = At_device d_id)

(* Units already at the device plus those in transit towards it: binding and
   clearance decisions must see inbound fluids, or an op can claim a chamber
   that a parked unit is about to enter. *)
let units_at_or_heading st d_id =
  let inbound =
    List.filter_map
      (fun tr ->
        match tr.t_dest with
        | To_device d when d = d_id -> Some st.units.(tr.t_unit)
        | To_device _ | To_storage _ | To_reservoir _ -> None)
      st.transports
  in
  units_at_device st d_id @ inbound

let storage_edges_ref st =
  let arrived =
    Array.to_list st.units
    |> List.filter_map (fun u ->
        match u.loc with
        | Stored e -> Some e
        | Fresh | At_device _ | At_reservoir _ | In_transit | Consumed -> None)
  in
  (* pockets already claimed by in-flight evictions count as occupied, or
     two placements can jointly sever the network *)
  let planned =
    List.filter_map
      (fun tr ->
        match tr.t_dest with
        | To_storage e -> Some e
        | To_device _ | To_reservoir _ -> None)
      st.transports
  in
  arrived @ planned

(* Nodes that resting fluids and busy devices make untouchable. *)
let occupied_nodes_ref st =
  let set = Bitset.create (Graph.n_nodes st.g) in
  Array.iter
    (fun d ->
      let busy =
        match d.d_run with Running _ -> true | Idle -> units_at_device st d.d_id <> []
      in
      if busy then Bitset.add set d.d_node)
    st.devs;
  List.iter
    (fun e ->
      let u, v = Graph.endpoints st.g e in
      Bitset.add set u;
      Bitset.add set v)
    (storage_edges_ref st);
  set

let transport_edge_set_ref st extra_path =
  let set = Bitset.create (Graph.n_edges st.g) in
  List.iter (fun tr -> List.iter (Bitset.add set) tr.t_path) st.transports;
  List.iter (Bitset.add set) extra_path;
  set

let transport_node_set_ref st extra_nodes =
  let set = Bitset.create (Graph.n_nodes st.g) in
  List.iter (fun tr -> List.iter (Bitset.add set) tr.t_nodes) st.transports;
  List.iter (Bitset.add set) extra_nodes;
  set

(* ------------------------------------------------------------------ *)
(* Queries: each consults the incremental view when [fast], or rebuilds
   the answer the seed way otherwise. *)

let first_unit_at st d_id =
  if st.fast then
    match st.dev_units.(d_id) with [] -> None | id :: _ -> Some st.units.(id)
  else match units_at_device st d_id with [] -> None | u :: _ -> Some u

let device_empty st d_id =
  if st.fast then st.dev_units.(d_id) = [] && st.dev_inbound.(d_id) = []
  else units_at_or_heading st d_id = []

let all_at_or_heading st d_id pred =
  if st.fast then
    List.for_all pred st.dev_units.(d_id) && List.for_all pred st.dev_inbound.(d_id)
  else List.for_all (fun u -> pred u.u_id) (units_at_or_heading st d_id)

let exists_at_or_heading st d_id pred =
  if st.fast then
    List.exists pred st.dev_units.(d_id) || List.exists pred st.dev_inbound.(d_id)
  else List.exists (fun u -> pred u.u_id) (units_at_or_heading st d_id)

let port_vial_free st n =
  if st.fast then st.res_count.(n) = 0
  else begin
    let occupied_ports =
      (Array.to_list st.units
      |> List.filter_map (fun u ->
          match u.loc with
          | At_reservoir n -> Some n
          | Fresh | At_device _ | Stored _ | In_transit | Consumed -> None))
      @ List.filter_map
          (fun tr ->
            match tr.t_dest with
            | To_reservoir n -> Some n
            | To_device _ | To_storage _ -> None)
          st.transports
    in
    not (List.mem n occupied_ports)
  end

(* ------------------------------------------------------------------ *)
(* Valve-sharing legality (Sec. 4.1): with the candidate path's control
   lines released on top of those of in-flight transports, every valve
   forced open off-path must not border a resting fluid, a busy device or
   any transport's route. *)

let sharing_legal_ref st ~path ~nodes =
  let inactive = Bitset.create (Chip.n_controls st.chip) in
  let release_path edges =
    List.iter
      (fun e ->
        match Chip.valve_on st.chip e with
        | Some v -> Bitset.add inactive v.control
        | None -> ())
      edges
  in
  release_path path;
  List.iter (fun tr -> release_path tr.t_path) st.transports;
  let moving_edges = transport_edge_set_ref st path in
  let protected_nodes =
    let set = occupied_nodes_ref st in
    Bitset.union_into set (transport_node_set_ref st nodes);
    set
  in
  Array.for_all
    (fun (v : Chip.valve) ->
      (not (Bitset.mem inactive v.control))
      || Bitset.mem moving_edges v.edge
      ||
      let a, b = Graph.endpoints st.g v.edge in
      (not (Bitset.mem protected_nodes a)) && not (Bitset.mem protected_nodes b))
    (Chip.valves st.chip)

(* Fast variant: temporarily overlay the candidate path on the in-flight
   counters, run an O(valves) scan against them, then peel the overlay off
   — no allocation, no set rebuilds. *)
let sharing_legal_fast st ~path ~nodes =
  let p = st.prep in
  let bump delta =
    List.iter
      (fun e ->
        st.te_count.(e) <- st.te_count.(e) + delta;
        let c = p.P.edge_control.(e) in
        if c >= 0 then st.ctrl_release.(c) <- st.ctrl_release.(c) + delta)
      path;
    List.iter (fun n -> st.tn_count.(n) <- st.tn_count.(n) + delta) nodes
  in
  bump 1;
  let prot n = Bitset.mem st.occ_nodes n || st.tn_count.(n) > 0 in
  let ok = ref true in
  let v = ref 0 in
  while !ok && !v < p.P.n_valves do
    let c = p.P.valve_control.(!v) in
    let e = p.P.valve_edge.(!v) in
    if st.ctrl_release.(c) > 0 && st.te_count.(e) = 0 then begin
      let a = p.P.edge_u.(e) and b = p.P.edge_v.(e) in
      if prot a || prot b then ok := false
    end;
    incr v
  done;
  bump (-1);
  !ok

let sharing_legal st ~path ~nodes =
  if not st.opts.respect_sharing then true
  else if st.fast then sharing_legal_fast st ~path ~nodes
  else sharing_legal_ref st ~path ~nodes

(* ------------------------------------------------------------------ *)
(* Routing *)

(* BFS routing from any of [srcs] to [dst] through free channels avoiding
   occupied nodes; returns (src, edge path). *)
let route_ref st ~srcs ~dst =
  let occupied = occupied_nodes_ref st in
  let moving_edges = transport_edge_set_ref st [] in
  let moving_nodes = transport_node_set_ref st [] in
  let node_ok n =
    n = dst || List.mem n srcs
    || ((not (Bitset.mem occupied n)) && not (Bitset.mem moving_nodes n))
  in
  let storage = storage_edges_ref st in
  let edge_ok e =
    Bitset.mem st.prep.P.channels e
    && (not (Bitset.mem moving_edges e))
    && (not (List.mem e storage))
    &&
    let u, v = Graph.endpoints st.g e in
    node_ok u && node_ok v
  in
  let best = ref None in
  List.iter
    (fun src ->
      if node_ok src then
        match Mf_graph.Traverse.bfs_path st.g ~allowed:edge_ok ~src ~dst with
        | None -> ()
        | Some path ->
          let len = List.length path in
          (match !best with
           | Some (_, _, l) when l <= len -> ()
           | Some _ | None -> best := Some (src, path, len)))
    srcs;
  Option.map (fun (src, path, _) -> (src, path)) !best

(* Scratch-array BFS.  Visits neighbours in [Graph.incident] order (the
   CSR arrays preserve it), stops as soon as [dst] is discovered — its
   parent pointers are final at discovery time — and prunes expansion at
   depth [cap - 1]: a path of length >= cap can never replace the best
   found so far, which requires a strictly shorter one.  Returns the path
   length, or -1; parent pointers in scratch A describe the path. *)
let bfs_to_dst st ~edge_ok ~src ~dst ~cap =
  if src = dst then if 0 < cap then 0 else -1
  else begin
    let p = st.prep in
    st.epoch_a <- st.epoch_a + 1;
    let ep = st.epoch_a in
    st.stamp_a.(src) <- ep;
    st.dist_a.(src) <- 0;
    st.q.(0) <- src;
    let head = ref 0 and tail = ref 1 in
    let found = ref (-1) in
    (try
       while !head < !tail do
         let u = st.q.(!head) in
         incr head;
         let du = st.dist_a.(u) in
         if du + 1 < cap then
           for k = p.P.adj_off.(u) to p.P.adj_off.(u + 1) - 1 do
             let e = p.P.adj_edge.(k) in
             let v = p.P.adj_node.(k) in
             if st.stamp_a.(v) <> ep && edge_ok e then begin
               st.stamp_a.(v) <- ep;
               st.dist_a.(v) <- du + 1;
               st.pedge.(v) <- e;
               st.pnode.(v) <- u;
               if v = dst then begin
                 found := du + 1;
                 raise Exit
               end;
               st.q.(!tail) <- v;
               incr tail
             end
           done
       done
     with Exit -> ());
    !found
  end

let unwind_scratch st ~src ~dst =
  let rec go v acc = if v = src then acc else go st.pnode.(v) (st.pedge.(v) :: acc) in
  go dst []

(* Full single-source BFS distances into scratch A (no early exit). *)
let bfs_all st ~edge_ok ~src =
  let p = st.prep in
  st.epoch_a <- st.epoch_a + 1;
  let ep = st.epoch_a in
  st.stamp_a.(src) <- ep;
  st.dist_a.(src) <- 0;
  st.q.(0) <- src;
  let head = ref 0 and tail = ref 1 in
  while !head < !tail do
    let u = st.q.(!head) in
    incr head;
    let du = st.dist_a.(u) in
    for k = p.P.adj_off.(u) to p.P.adj_off.(u + 1) - 1 do
      let e = p.P.adj_edge.(k) in
      let v = p.P.adj_node.(k) in
      if st.stamp_a.(v) <> ep && edge_ok e then begin
        st.stamp_a.(v) <- ep;
        st.dist_a.(v) <- du + 1;
        st.q.(!tail) <- v;
        incr tail
      end
    done
  done

let route_fast st ~srcs ~dst =
  let p = st.prep in
  st.epoch_s <- st.epoch_s + 1;
  let es = st.epoch_s in
  List.iter (fun n -> st.smark.(n) <- es) srcs;
  let node_ok n =
    n = dst || st.smark.(n) = es
    || ((not (Bitset.mem st.occ_nodes n)) && st.tn_count.(n) = 0)
  in
  let edge_ok e =
    Bitset.mem p.P.channels e
    && st.te_count.(e) = 0
    && (not (Bitset.mem st.storage e))
    && node_ok p.P.edge_u.(e)
    && node_ok p.P.edge_v.(e)
  in
  let best = ref None in
  List.iter
    (fun src ->
      let cap = match !best with Some (_, _, l) -> l | None -> max_int in
      match bfs_to_dst st ~edge_ok ~src ~dst ~cap with
      | -1 -> ()
      | 0 -> best := Some (src, [], 0)
      | len -> best := Some (src, unwind_scratch st ~src ~dst, len))
    srcs;
  Option.map (fun (src, path, _) -> (src, path)) !best

(* The memo tables hold answers for generation [memo_gen] only. *)
let sync_memo st =
  if st.memo_gen <> st.gen then begin
    Route_memo.clear st.route_memo;
    Hashtbl.clear st.storage_memo;
    st.memo_gen <- st.gen
  end

(* Fast-mode answers are pure functions of the occupancy state and the
   query, so a repeat at an unchanged generation reads the memo. *)
let route st ~srcs ~dst =
  st.c_routes <- st.c_routes + 1;
  if not st.fast then route_ref st ~srcs ~dst
  else begin
    sync_memo st;
    match Route_memo.find_opt st.route_memo (srcs, dst) with
    | Some r ->
      st.c_memo_hits <- st.c_memo_hits + 1;
      r
    | None ->
      let r = route_fast st ~srcs ~dst in
      Route_memo.add st.route_memo (srcs, dst) r;
      r
  end

let push_event st ev = if st.record_events then st.events <- ev :: st.events

let path_nodes st ~src path =
  let p = st.prep in
  let rec walk u acc = function
    | [] -> List.rev acc
    | e :: rest ->
      let v = if p.P.edge_u.(e) = u then p.P.edge_v.(e) else p.P.edge_u.(e) in
      walk v (v :: acc) rest
  in
  walk src [ src ] path

let begin_transport st time u ~src ~path ~dest =
  let nodes = path_nodes st ~src path in
  if not (sharing_legal st ~path ~nodes) then false
  else begin
    (* cross-contamination washing: flush segments whose residue belongs to
       a different sample before this one crosses them *)
    let me = lineage u in
    let dirty =
      if not st.opts.wash then 0
      else
        List.fold_left
          (fun acc e ->
            if st.last_user.(e) <> min_int && st.last_user.(e) <> me then acc + 1 else acc)
          0 path
    in
    if st.opts.wash then begin
      st.n_washes <- st.n_washes + dirty;
      List.iter (fun e -> st.last_user.(e) <- me) path
    end;
    let duration = (List.length path * st.opts.transport_cost) + (dirty * st.opts.wash_penalty) in
    set_loc st u In_transit;
    let finish = time + duration in
    add_transport st
      { t_unit = u.u_id; t_path = path; t_nodes = nodes; t_dest = dest; t_finish = finish };
    st.n_transports <- st.n_transports + 1;
    st.transport_time <- st.transport_time + duration;
    push_event st (Schedule.Transport_started { unit_id = u.u_id; path; time; finish });
    true
  end

(* ------------------------------------------------------------------ *)
(* Storage eviction *)

let storage_site_ref st ~from_node =
  let occupied = occupied_nodes_ref st in
  let moving_edges = transport_edge_set_ref st [] in
  let moving_nodes = transport_node_set_ref st [] in
  let storage = storage_edges_ref st in
  let plain_node n =
    (not (Bitset.mem occupied n))
    && (not (Bitset.mem moving_nodes n))
    && Chip.device_at st.chip n = None
    && Chip.port_at st.chip n = None
  in
  let node_ok n = n = from_node || plain_node n in
  let edge_ok e =
    Bitset.mem st.prep.P.channels e
    && (not (Bitset.mem moving_edges e))
    && (not (List.mem e storage))
    &&
    let u, v = Graph.endpoints st.g e in
    node_ok u && node_ok v
  in
  (* a storage edge must be enclosed by valves so the fluid can be held *)
  let enclosed e =
    let u, v = Graph.endpoints st.g e in
    let boundary n =
      Graph.incident st.g n
      |> List.for_all (fun (f, _) ->
          f = e || (not (Bitset.mem st.prep.P.channels f))
          || Chip.valve_on st.chip f <> None)
    in
    boundary u && boundary v
  in
  (* Occupying a site blocks its endpoints until the fluid leaves; never
     pick one that would cut any device or port off from the rest.  Only
     persistent blockage (stored fluids) counts: busy devices free up on
     their own, but they must still be reachable afterwards, so every hub
     stays in the requirement. *)
  let keeps_network_connected e =
    let storage_blocked = Bitset.create (Graph.n_nodes st.g) in
    let block f =
      let u, v = Graph.endpoints st.g f in
      Bitset.add storage_blocked u;
      Bitset.add storage_blocked v
    in
    block e;
    List.iter block storage;
    let open_edge f =
      Bitset.mem st.prep.P.channels f
      && f <> e
      && (not (List.mem f storage))
      &&
      let u, v = Graph.endpoints st.g f in
      (not (Bitset.mem storage_blocked u)) && not (Bitset.mem storage_blocked v)
    in
    let hubs =
      st.port_nodes @ (Array.to_list st.devs |> List.map (fun d -> d.d_node))
      |> List.filter (fun n -> not (Bitset.mem storage_blocked n))
    in
    match hubs with
    | [] -> false
    | hub :: rest ->
      let reach = Mf_graph.Traverse.reachable st.g ~allowed:open_edge ~src:hub in
      List.for_all (fun n -> Bitset.mem reach n) rest
  in
  (* The parked fluid must stay retrievable even while every device is busy:
     some route from the pocket to a port may not pass through any device
     node, or the fluid can be walled in by long-running neighbours. *)
  let egress_ok e =
    let eu, ev = Graph.endpoints st.g e in
    let device n = Chip.device_at st.chip n <> None in
    let open_edge f =
      f <> e
      && Bitset.mem st.prep.P.channels f
      && (not (List.mem f storage))
      &&
      let u, v = Graph.endpoints st.g f in
      let ok n = n = eu || n = ev || not (device n) in
      ok u && ok v
    in
    let reach = Mf_graph.Traverse.reachable st.g ~allowed:open_edge ~src:eu in
    List.exists (fun p -> Bitset.mem reach p) st.port_nodes
  in
  (* BFS for the nearest suitable edge: walk outward and take the first
     reachable edge that qualifies *)
  let dist = Mf_graph.Traverse.bfs_dist st.g ~allowed:edge_ok ~src:from_node in
  let best = ref None in
  Graph.iter_edges
    (fun e u v ->
      if
        edge_ok e && enclosed e && u <> from_node && v <> from_node
        && plain_node u && plain_node v
        && keeps_network_connected e && egress_ok e
      then begin
        let d = min dist.(u) dist.(v) in
        if d < max_int then
          match !best with
          | Some (_, bd) when bd <= d -> ()
          | Some _ | None -> best := Some (e, d)
      end)
    st.g;
  match !best with
  | None -> None
  | Some (e, _) ->
    let u, v = Graph.endpoints st.g e in
    let target = if dist.(u) <= dist.(v) then u else v in
    (match Mf_graph.Traverse.bfs_path st.g ~allowed:edge_ok ~src:from_node ~dst:target with
     | None -> None
     | Some path -> Some (e, path @ [ e ]))

(* Fast connectivity probe for a candidate pocket: mark the endpoints the
   candidate and existing storage would block, then one early-exit BFS
   counting how many unblocked hubs (ports and devices) stay mutually
   reachable. *)
let keeps_network_connected_fast st cand =
  let p = st.prep in
  st.epoch_m <- st.epoch_m + 1;
  let em = st.epoch_m in
  let block f =
    st.bmark.(p.P.edge_u.(f)) <- em;
    st.bmark.(p.P.edge_v.(f)) <- em
  in
  block cand;
  Bitset.iter (fun f -> block f) st.storage;
  let blocked n = st.bmark.(n) = em in
  let open_edge f =
    Bitset.mem p.P.channels f
    && f <> cand
    && (not (Bitset.mem st.storage f))
    && (not (blocked p.P.edge_u.(f)))
    && not (blocked p.P.edge_v.(f))
  in
  let hub_total = ref 0 in
  let first_hub = ref (-1) in
  let scan arr =
    Array.iter
      (fun n ->
        if not (blocked n) then begin
          incr hub_total;
          if !first_hub < 0 then first_hub := n
        end)
      arr
  in
  scan p.P.port_node;
  scan p.P.dev_node;
  if !first_hub < 0 then false
  else begin
    st.epoch_b <- st.epoch_b + 1;
    let eb = st.epoch_b in
    let reached = ref 0 in
    let is_hub n = p.P.device_of.(n) >= 0 || p.P.port_of.(n) >= 0 in
    let visit n =
      st.stamp_b.(n) <- eb;
      if is_hub n && not (blocked n) then incr reached
    in
    visit !first_hub;
    st.q_b.(0) <- !first_hub;
    let head = ref 0 and tail = ref 1 in
    (try
       while !head < !tail do
         if !reached = !hub_total then raise Exit;
         let u = st.q_b.(!head) in
         incr head;
         for k = p.P.adj_off.(u) to p.P.adj_off.(u + 1) - 1 do
           let f = p.P.adj_edge.(k) in
           let v = p.P.adj_node.(k) in
           if st.stamp_b.(v) <> eb && open_edge f then begin
             visit v;
             st.q_b.(!tail) <- v;
             incr tail
           end
         done
       done
     with Exit -> ());
    !reached = !hub_total
  end

let egress_ok_fast st cand =
  let p = st.prep in
  let eu = p.P.edge_u.(cand) and ev = p.P.edge_v.(cand) in
  let ok_node n = n = eu || n = ev || p.P.device_of.(n) < 0 in
  let open_edge f =
    f <> cand
    && Bitset.mem p.P.channels f
    && (not (Bitset.mem st.storage f))
    && ok_node p.P.edge_u.(f)
    && ok_node p.P.edge_v.(f)
  in
  st.epoch_b <- st.epoch_b + 1;
  let eb = st.epoch_b in
  st.stamp_b.(eu) <- eb;
  st.q_b.(0) <- eu;
  let head = ref 0 and tail = ref 1 in
  let found = ref (p.P.port_of.(eu) >= 0) in
  (try
     while !head < !tail do
       let u = st.q_b.(!head) in
       incr head;
       for k = p.P.adj_off.(u) to p.P.adj_off.(u + 1) - 1 do
         let f = p.P.adj_edge.(k) in
         let v = p.P.adj_node.(k) in
         if st.stamp_b.(v) <> eb && open_edge f then begin
           st.stamp_b.(v) <- eb;
           if p.P.port_of.(v) >= 0 then begin
             found := true;
             raise Exit
           end;
           st.q_b.(!tail) <- v;
           incr tail
         end
       done
     done
   with Exit -> ());
  !found

let storage_site_fast st ~from_node =
  let p = st.prep in
  let plain_node n =
    (not (Bitset.mem st.occ_nodes n))
    && st.tn_count.(n) = 0
    && p.P.device_of.(n) < 0
    && p.P.port_of.(n) < 0
  in
  let node_ok n = n = from_node || plain_node n in
  let edge_ok e =
    Bitset.mem p.P.channels e
    && st.te_count.(e) = 0
    && (not (Bitset.mem st.storage e))
    && node_ok p.P.edge_u.(e)
    && node_ok p.P.edge_v.(e)
  in
  bfs_all st ~edge_ok ~src:from_node;
  let ep = st.epoch_a in
  let dist n = if st.stamp_a.(n) = ep then st.dist_a.(n) else max_int in
  (* Ascending edge scan, strictly-smaller distance wins, exactly like the
     reference; the expensive connectivity probes run only for candidates
     that would actually improve, which cannot change the winner (the
     probes are independent of the incumbent). *)
  let best_e = ref (-1) in
  let best_d = ref max_int in
  for e = 0 to p.P.n_edges - 1 do
    if Bitset.mem p.P.enclosed e && edge_ok e then begin
      let u = p.P.edge_u.(e) and v = p.P.edge_v.(e) in
      if u <> from_node && v <> from_node && plain_node u && plain_node v then begin
        let d = min (dist u) (dist v) in
        if d < !best_d && keeps_network_connected_fast st e && egress_ok_fast st e then begin
          best_e := e;
          best_d := d
        end
      end
    end
  done;
  if !best_e < 0 then None
  else begin
    let e = !best_e in
    let u = p.P.edge_u.(e) and v = p.P.edge_v.(e) in
    let target = if dist u <= dist v then u else v in
    (* the path BFS below recycles scratch A, so [dist] is dead past here *)
    match bfs_to_dst st ~edge_ok ~src:from_node ~dst:target ~cap:max_int with
    | -1 -> None
    | 0 -> Some (e, [ e ])
    | _ -> Some (e, unwind_scratch st ~src:from_node ~dst:target @ [ e ])
  end

let storage_site st ~from_node =
  if not st.fast then storage_site_ref st ~from_node
  else begin
    sync_memo st;
    match Hashtbl.find_opt st.storage_memo from_node with
    | Some r ->
      st.c_memo_hits <- st.c_memo_hits + 1;
      r
    | None ->
      let r = storage_site_fast st ~from_node in
      Hashtbl.add st.storage_memo from_node r;
      r
  end

let try_evict st time d =
  match first_unit_at st d.d_id with
  | None -> false
  | Some u ->
    if not st.opts.allow_storage then false
    else begin
      let to_pocket () =
        match storage_site st ~from_node:d.d_node with
        | None -> false
        | Some (edge, path) ->
          let ok = begin_transport st time u ~src:d.d_node ~path ~dest:(To_storage edge) in
          if ok then st.n_stored <- st.n_stored + 1;
          ok
      in
      (* fall back to parking in an idle, empty, unreserved device: chambers
         double as storage when the channel pockets are full ([5]) *)
      let to_device () =
        Array.to_list st.devs
        |> List.filter (fun d' ->
            d'.d_id <> d.d_id && d'.d_run = Idle && d'.reserved_by = None
            && device_empty st d'.d_id
            (* never park in the only device of a kind: operations of that
               kind would wait behind the parked fluid, a circular-wait
               recipe *)
            && st.kind_counts.(kind_index d'.d_kind) > 1)
        |> List.exists (fun d' ->
            match route st ~srcs:[ d.d_node ] ~dst:d'.d_node with
            | None | Some (_, []) -> false
            | Some (src, path) ->
              let ok = begin_transport st time u ~src ~path ~dest:(To_device d'.d_id) in
              if ok then st.n_stored <- st.n_stored + 1;
              ok)
      in
      (* last resort: push the sample off-chip into a port vial (one fluid
         per port); the round trip is paid in transport time *)
      let to_reservoir () =
        st.port_nodes
        |> List.filter (fun n -> port_vial_free st n)
        |> List.exists (fun n ->
            match route st ~srcs:[ d.d_node ] ~dst:n with
            | None | Some (_, []) -> false
            | Some (src, path) ->
              let ok = begin_transport st time u ~src ~path ~dest:(To_reservoir n) in
              if ok then st.n_stored <- st.n_stored + 1;
              ok)
      in
      to_pocket () || to_device () || to_reservoir ()
    end

(* ------------------------------------------------------------------ *)
(* Op advancement *)

let unit_source_nodes st u =
  match u.loc with
  | Fresh -> st.port_nodes
  | At_device d -> [ st.devs.(d).d_node ]
  | Stored e ->
    let a, b = Graph.endpoints st.g e in
    [ a; b ]
  | At_reservoir n -> [ n ]
  | In_transit | Consumed -> []

let clear_for st j d =
  all_at_or_heading st d.d_id (fun u_id -> List.mem u_id st.inputs_of.(j))

let bind st j =
  match st.op_bound.(j) with
  | Some d -> Some st.devs.(d)
  | None ->
    let kind = device_kind_of_op (Seqgraph.op st.app j).kind in
    let candidates =
      Array.to_list st.devs
      |> List.filter (fun d -> d.d_kind = kind && d.d_run = Idle && d.reserved_by = None)
    in
    let holds_input d =
      exists_at_or_heading st d.d_id (fun u_id -> List.mem u_id st.inputs_of.(j))
    in
    let score d =
      if holds_input d && clear_for st j d then 0
      else if device_empty st d.d_id then 1
      else 2 (* needs eviction *)
    in
    let sorted = List.sort (fun a b -> compare (score a, a.d_id) (score b, b.d_id)) candidates in
    (match sorted with
     | d :: _ when score d <= 1 ->
       st.op_bound.(j) <- Some d.d_id;
       d.reserved_by <- Some j;
       Some d
     | _ -> None)

(* Returns true when any state change happened for op [j]. *)
let try_advance_op st time j =
  match bind st j with
  | None ->
    (* all compatible devices blocked: try freeing one by eviction *)
    let kind = device_kind_of_op (Seqgraph.op st.app j).kind in
    Array.to_list st.devs
    |> List.exists (fun d ->
        d.d_kind = kind && d.d_run = Idle && d.reserved_by = None
        && (not (clear_for st j d))
        && try_evict st time d)
  | Some d ->
    let changed = ref false in
    let all_arrived = ref true in
    List.iter
      (fun u_id ->
        let u = st.units.(u_id) in
        match u.loc with
        | At_device dd when dd = d.d_id -> ()
        | In_transit -> all_arrived := false
        | Fresh | At_device _ | Stored _ | At_reservoir _ ->
          all_arrived := false;
          let srcs = unit_source_nodes st u in
          (match route st ~srcs ~dst:d.d_node with
           | None -> ()
           | Some (src, []) ->
             ignore src;
             (* already adjacent: the unit sits on a storage edge touching
                the device, or a port shares the node — arrive instantly *)
             set_loc st u (At_device d.d_id);
             changed := true
           | Some (src, path) ->
             if begin_transport st time u ~src ~path ~dest:(To_device d.d_id) then
               changed := true)
        | Consumed -> all_arrived := false (* producer not finished: unreachable here *))
      st.inputs_of.(j);
    if !all_arrived && clear_for st j d then begin
      List.iter (fun u_id -> set_loc st st.units.(u_id) Consumed) st.inputs_of.(j);
      let op = Seqgraph.op st.app j in
      set_run st d (Running (j, time + op.duration));
      d.reserved_by <- None;
      st.op_started.(j) <- true;
      push_event st (Schedule.Op_started { op = j; device = d.d_id; time });
      changed := true
    end;
    !changed

let try_progress st time =
  let changed = ref false in
  let continue = ref true in
  while !continue do
    continue := false;
    List.iter
      (fun j ->
        if
          (not st.op_started.(j))
          && List.for_all (fun p -> st.op_finished.(p)) (Seqgraph.preds st.app j)
          && try_advance_op st time j
        then begin
          changed := true;
          continue := true
        end)
      st.priority
  done;
  !changed

(* ------------------------------------------------------------------ *)
(* Completions *)

let complete_at st time =
  (* transports first: arriving fluids may unblock the ops finishing now *)
  let arriving, still = List.partition (fun tr -> tr.t_finish = time) st.transports in
  st.transports <- still;
  List.iter
    (fun tr ->
      drop_transport st tr;
      let u = st.units.(tr.t_unit) in
      match tr.t_dest with
      | To_device d -> set_loc st u (At_device d)
      | To_storage e ->
        set_loc st u (Stored e);
        push_event st (Schedule.Unit_stored { unit_id = u.u_id; edge = e; time })
      | To_reservoir n ->
        set_loc st u (At_reservoir n);
        push_event st (Schedule.Unit_parked { unit_id = u.u_id; port_node = n; time }))
    arriving;
  Array.iter
    (fun d ->
      match d.d_run with
      | Running (j, finish) when finish = time ->
        set_run st d Idle;
        st.op_finished.(j) <- true;
        st.op_finish_time.(j) <- time;
        List.iter (fun u_id -> set_loc st st.units.(u_id) (At_device d.d_id)) st.outputs_of.(j);
        push_event st (Schedule.Op_finished { op = j; device = d.d_id; time })
      | Running _ | Idle -> ())
    st.devs

let next_event_time st =
  let best = ref max_int in
  List.iter (fun tr -> if tr.t_finish < !best then best := tr.t_finish) st.transports;
  Array.iter
    (fun d -> match d.d_run with Running (_, f) when f < !best -> best := f | Running _ | Idle -> ())
    st.devs;
  if !best = max_int then None else Some !best

(* ------------------------------------------------------------------ *)

let dump_state st time =
  let ppf = Format.err_formatter in
  Format.fprintf ppf "@[<v>-- scheduler deadlock at t=%d --@," time;
  Array.iter
    (fun d ->
      let held = units_at_device st d.d_id |> List.map (fun u -> u.u_id) in
      Format.fprintf ppf "dev %d (%s) run=%s reserved=%s holds=%a@," d.d_id
        (match d.d_kind with
         | Chip.Mixer -> "mixer"
         | Chip.Detector -> "detector"
         | Chip.Heater -> "heater"
         | Chip.Filter -> "filter")
        (match d.d_run with Idle -> "idle" | Running (j, f) -> Printf.sprintf "op%d until %d" j f)
        (match d.reserved_by with None -> "-" | Some j -> string_of_int j)
        Fmt.(list ~sep:comma int) held)
    st.devs;
  Array.iteri
    (fun j started ->
      if not started then
        Format.fprintf ppf "op %d pending: preds_done=%b bound=%s@," j
          (List.for_all (fun p -> st.op_finished.(p)) (Seqgraph.preds st.app j))
          (match st.op_bound.(j) with None -> "-" | Some d -> string_of_int d))
    st.op_started;
  Array.iter
    (fun u ->
      let loc =
        match u.loc with
        | Fresh -> "fresh"
        | At_device d -> Printf.sprintf "dev%d" d
        | Stored e -> Printf.sprintf "stored@%d" e
        | At_reservoir n -> Printf.sprintf "reservoir@%d" n
        | In_transit -> "transit"
        | Consumed -> "consumed"
      in
      if u.loc <> Consumed then
        Format.fprintf ppf "unit %d (%s->op%d) %s@," u.u_id
          (match u.producer with None -> "fresh" | Some p -> "op" ^ string_of_int p)
          u.consumer loc)
    st.units;
  Format.fprintf ppf "--@]@."

(* ------------------------------------------------------------------ *)
(* Entry points *)

let prof_flush st =
  Atomic.incr Stats.runs;
  ignore (Atomic.fetch_and_add Stats.steps st.c_steps);
  ignore (Atomic.fetch_and_add Stats.routes st.c_routes);
  Mf_util.Prof.add_count "sched.runs" 1;
  Mf_util.Prof.add_count "sched.steps" st.c_steps;
  Mf_util.Prof.add_count "sched.routes" st.c_routes;
  Mf_util.Prof.add_count "sched.memo_hits" st.c_memo_hits

let exec ~options ~prep ~fast ~record_events chip app =
  (* every op kind used must have a device *)
  let missing =
    Array.to_list (Seqgraph.ops app)
    |> List.find_opt (fun (o : Op.t) ->
        let kind = device_kind_of_op o.kind in
        not (Array.exists (fun (d : Chip.device) -> d.kind = kind) (Chip.devices chip)))
  in
  match missing with
  | Some o -> Error (Schedule.No_device o.kind)
  | None ->
    let prep = match prep with Some p -> p | None -> Prep.of_chip chip in
    let st = init chip prep app options ~fast ~record_events in
    let all_done () = Array.for_all Fun.id st.op_finished in
    let finish r =
      prof_flush st;
      r
    in
    let rec loop time =
      st.c_steps <- st.c_steps + 1;
      if time > options.horizon then finish (Error (Schedule.Timeout time))
      else begin
        complete_at st time;
        ignore (try_progress st time);
        if all_done () then
          finish
            (Ok
               {
                 Schedule.makespan = Array.fold_left max 0 st.op_finish_time;
                 events = List.rev st.events;
                 n_transports = st.n_transports;
                 transport_time = st.transport_time;
                 n_stored = st.n_stored;
                 n_washes = st.n_washes;
               })
        else
          match next_event_time st with
          | Some t -> loop t
          | None ->
            if debug_enabled then dump_state st time;
            finish (Error (Schedule.Deadlock time))
      end
    in
    loop 0

let run ?(options = default_options) ?prep chip app =
  exec ~options ~prep ~fast:true ~record_events:true chip app

let run_reference ?(options = default_options) chip app =
  exec ~options ~prep:None ~fast:false ~record_events:true chip app

let makespan ?(options = default_options) ?prep chip app =
  match exec ~options ~prep ~fast:true ~record_events:false chip app with
  | Ok s -> Some s.Schedule.makespan
  | Error _ -> None
