module Chip = Mf_arch.Chip
module Bitset = Mf_util.Bitset
module Grid = Mf_grid.Grid
module Graph = Mf_graph.Graph
module Traverse = Mf_graph.Traverse

(* A set of faults treated as *present* on the chip — the field-fault
   context the repair engine simulates against.  Compiled to bitsets so the
   inner reachability loops pay one [mem] per edge, not a list scan. *)
type context = {
  ctx_faults : Fault.t list;
  ctx_blocked : Bitset.t; (* edge ids with a present stuck-at-0 *)
  ctx_open : Bitset.t; (* valve ids with a present stuck-at-1 *)
  ctx_leaks : int list; (* valve ids with a present control-to-flow leak *)
}

let context chip faults =
  let g = Grid.graph (Chip.grid chip) in
  let blocked = Bitset.create (Graph.n_edges g) in
  let open_ = Bitset.create (max 1 (Chip.n_valves chip)) in
  let leaks = ref [] in
  List.iter
    (function
      | Fault.Stuck_at_0 e -> Bitset.add blocked e
      | Fault.Stuck_at_1 v -> Bitset.add open_ v
      | Fault.Leak v -> if not (List.mem v !leaks) then leaks := v :: !leaks)
    faults;
  { ctx_faults = faults; ctx_blocked = blocked; ctx_open = open_; ctx_leaks = List.rev !leaks }

let context_faults c = c.ctx_faults
let blocked c e = Bitset.mem c.ctx_blocked e
let stuck_open c v = Bitset.mem c.ctx_open v

let conducts chip ?present ?fault ~active_lines e =
  Chip.is_channel chip e
  && (match present with Some c when Bitset.mem c.ctx_blocked e -> false | _ -> true)
  && (match fault with Some (Fault.Stuck_at_0 e') when e' = e -> false | _ -> true)
  &&
  match Chip.valve_on chip e with
  | None -> true
  | Some v ->
    (not (Bitset.mem active_lines v.control))
    || (match present with Some c when Bitset.mem c.ctx_open v.valve_id -> true | _ -> false)
    || (match fault with Some (Fault.Stuck_at_1 v') -> v' = v.valve_id | _ -> false)

let reach chip ?present ?fault (v : Vector.t) =
  let g = Grid.graph (Chip.grid chip) in
  let allowed e = conducts chip ?present ?fault ~active_lines:v.active_lines e in
  let from_source = Traverse.reachable g ~allowed ~src:v.source in
  (* a control-to-flow leak injects air at the valve seat whenever its
     control line is pressurised, independent of the test source *)
  let leak_in w =
    let valve = (Chip.valves chip).(w) in
    if Bitset.mem v.active_lines valve.control then begin
      let a, b = Mf_graph.Graph.endpoints g valve.edge in
      Bitset.union_into from_source (Traverse.reachable g ~allowed ~src:a);
      Bitset.union_into from_source (Traverse.reachable g ~allowed ~src:b)
    end
  in
  (match present with None -> () | Some c -> List.iter leak_in c.ctx_leaks);
  (match fault with
   | Some (Fault.Leak w) -> leak_in w
   | Some (Fault.Stuck_at_0 _ | Fault.Stuck_at_1 _) | None -> ());
  from_source

let reading chip ?present ?fault (v : Vector.t) =
  let r = reach chip ?present ?fault v in
  List.exists (fun meter -> Bitset.mem r meter) v.meters

let readings chip ?present ?fault (v : Vector.t) =
  let r = reach chip ?present ?fault v in
  List.map (fun meter -> Bitset.mem r meter) v.meters

let detects ?present chip (v : Vector.t) fault =
  readings chip ?present ~fault v <> readings chip ?present v

let well_formed ?present chip (v : Vector.t) =
  (* every meter must agree with the vector's expectation when no defect is
     present: a path/tree vector pressurises all its meters, a cut vector
     none of them *)
  List.for_all (fun r -> r = v.expected) (readings chip ?present v)

(* ------------------------------------------------------------------ *)
(* Prepared vectors.

   The fault-free reach of a vector is a union of whole components of its
   conducting graph G0: the source's component plus, for every context
   leak on a pressurised line, the components of the valve's two
   endpoints.  A candidate fault changes G0 by at most one edge, or adds
   two seeds, and the reach only grows with edges and seeds:

   - stuck-at-1 at valve w adds w's edge to G0 when it is a channel the
     context does not block.  Its two endpoint components merge, and the
     merged component is reached iff one of them was.  A meter's reading
     flips iff one side was reached and the other holds a meter that was
     not (an edge that already conducts has both ends in one component,
     so nothing flips).
   - a leak at w adds w's endpoints as seeds when w's line is pressurised;
     a reading flips iff one of those components holds an unreached meter.
   - stuck-at-0 at edge e removes e.  Removal only shrinks the reach, and
     only inside e's own component, so nothing changes unless e conducts
     and its component holds a meter that reads pressure.  Only then is the
     faulty chip simulated.

   Every answer is therefore the one [detects] computes. *)

type prepared = {
  p_chip : Chip.t;
  p_present : context option;
  p_vector : Vector.t;
  p_conducting : Bitset.t; (* edges of G0 *)
  p_comp : int array; (* node -> component label in G0 *)
  p_reached : Bitset.t; (* component labels inside the fault-free reach *)
  p_dark : Bitset.t; (* unreached component labels holding a meter *)
  p_lit : Bitset.t; (* reached component labels holding a meter *)
  p_readings : bool list;
  mutable p_resimulated : int;
}

let line_active chip (v : Vector.t) w = Bitset.mem v.active_lines (Chip.valves chip).(w).control

let prepare ?present chip (v : Vector.t) =
  let g = Grid.graph (Chip.grid chip) in
  let n = Graph.n_nodes g in
  let conducting = Bitset.create (Graph.n_edges g) in
  for e = 0 to Graph.n_edges g - 1 do
    if conducts chip ?present ~active_lines:v.active_lines e then Bitset.add conducting e
  done;
  let comp = Array.make n (-1) in
  let queue = Array.make (max 1 n) 0 in
  let n_comps = ref 0 in
  for s = 0 to n - 1 do
    if comp.(s) < 0 then begin
      let c = !n_comps in
      incr n_comps;
      comp.(s) <- c;
      queue.(0) <- s;
      let head = ref 0 and tail = ref 1 in
      while !head < !tail do
        let u = queue.(!head) in
        incr head;
        List.iter
          (fun (e, w) ->
            if comp.(w) < 0 && Bitset.mem conducting e then begin
              comp.(w) <- c;
              queue.(!tail) <- w;
              incr tail
            end)
          (Graph.incident g u)
      done
    end
  done;
  let reached = Bitset.create !n_comps in
  Bitset.add reached comp.(v.source);
  (match present with
   | None -> ()
   | Some c ->
     List.iter
       (fun w ->
         if line_active chip v w then begin
           let a, b = Graph.endpoints g (Chip.valves chip).(w).edge in
           Bitset.add reached comp.(a);
           Bitset.add reached comp.(b)
         end)
       c.ctx_leaks);
  let dark = Bitset.create !n_comps and lit = Bitset.create !n_comps in
  List.iter
    (fun m -> Bitset.add (if Bitset.mem reached comp.(m) then lit else dark) comp.(m))
    v.meters;
  {
    p_chip = chip;
    p_present = present;
    p_vector = v;
    p_conducting = conducting;
    p_comp = comp;
    p_reached = reached;
    p_dark = dark;
    p_lit = lit;
    p_readings = List.map (fun m -> Bitset.mem reached comp.(m)) v.meters;
    p_resimulated = 0;
  }

let prepared_readings p = p.p_readings

let prepared_well_formed p = List.for_all (fun r -> r = p.p_vector.expected) p.p_readings

let prepared_resimulated p = p.p_resimulated

(* Pressure can reach the meter around a blocked path edge through
   unvalved channels, so reading as expected is not enough: a path vector
   that crosses a blocked edge no longer tests the path it names. *)
let crosses_blocked present (v : Vector.t) =
  match (present, v.kind) with
  | Some c, Vector.Path edges -> List.exists (Bitset.mem c.ctx_blocked) edges
  | _, (Vector.Path _ | Vector.Cut _) -> false

let intact ?present chip v = (not (crosses_blocked present v)) && well_formed ?present chip v

let prepared_intact p = (not (crosses_blocked p.p_present p.p_vector)) && prepared_well_formed p

let prepared_detects p fault =
  let chip = p.p_chip in
  let g = Grid.graph (Chip.grid chip) in
  match fault with
  | Fault.Stuck_at_0 e ->
    Bitset.mem p.p_conducting e
    && Bitset.mem p.p_lit p.p_comp.(fst (Graph.endpoints g e))
    && begin
      p.p_resimulated <- p.p_resimulated + 1;
      readings chip ?present:p.p_present ~fault p.p_vector <> p.p_readings
    end
  | Fault.Stuck_at_1 w -> (
      w >= 0
      && w < Chip.n_valves chip
      &&
      let e = (Chip.valves chip).(w).edge in
      match Chip.valve_on chip e with
      | Some valve when valve.valve_id = w ->
        Chip.is_channel chip e
        && (match p.p_present with Some c -> not (Bitset.mem c.ctx_blocked e) | None -> true)
        &&
        let a, b = Graph.endpoints g e in
        let ca = p.p_comp.(a) and cb = p.p_comp.(b) in
        (Bitset.mem p.p_reached ca && Bitset.mem p.p_dark cb)
        || (Bitset.mem p.p_reached cb && Bitset.mem p.p_dark ca)
      | Some _ | None -> false)
  | Fault.Leak w ->
    line_active chip p.p_vector w
    &&
    let a, b = Graph.endpoints g (Chip.valves chip).(w).edge in
    Bitset.mem p.p_dark p.p_comp.(a) || Bitset.mem p.p_dark p.p_comp.(b)

(* ------------------------------------------------------------------ *)
(* Detection sets.

   Without a fault context the fault-free reach is exactly the source's
   component of the conducting graph G0, every meter inside it reads
   pressure, and every meter outside it reads none.  So one pass decides
   every single fault:

   - stuck-at-0 at edge e changes a reading iff removing e cuts a meter off
     the source, i.e. iff e is a bridge of the source's component whose far
     side (the DFS subtree below it) holds a meter;
   - stuck-at-1 and leaks are decided from the reached and dark marks of
     the valve's endpoints, as {!prepared_detects} decides them from
     component labels: "dark" marks every node connected to an unreached
     meter.

   Bit [e] of [detected] is stuck-at-0 at edge e, bit [ne + w] stuck-at-1
   at valve w and bit [ne + nv + w] the leak at valve w. *)

type detection = { well_formed : bool; detected : Bitset.t }

let fault_space chip =
  Graph.n_edges (Grid.graph (Chip.grid chip)) + (2 * Chip.n_valves chip)

let detects_in chip set fault =
  let ne = Graph.n_edges (Grid.graph (Chip.grid chip)) and nv = Chip.n_valves chip in
  match fault with
  | Fault.Stuck_at_0 e -> e >= 0 && e < ne && Bitset.mem set e
  | Fault.Stuck_at_1 w -> w >= 0 && w < nv && Bitset.mem set (ne + w)
  | Fault.Leak w -> w >= 0 && w < nv && Bitset.mem set (ne + nv + w)

let detect chip (v : Vector.t) =
  let g = Grid.graph (Chip.grid chip) in
  let n = Graph.n_nodes g and ne = Graph.n_edges g and nv = Chip.n_valves chip in
  let live e = conducts chip ~active_lines:v.active_lines e in
  let is_meter = Bitset.create n in
  List.iter (Bitset.add is_meter) v.meters;
  let detected = Bitset.create (ne + (2 * nv)) in
  (* iterative Tarjan DFS from the source: [disc] >= 0 marks the reach,
     [below.(u)] whether u's subtree holds a meter *)
  let disc = Array.make n (-1) and low = Array.make n 0 and tree_edge = Array.make n (-1) in
  let below = Array.make n false and pending = Array.make n [] in
  let stack = Array.make (max 1 n) 0 and sp = ref 0 and clock = ref 0 in
  let enter u e =
    disc.(u) <- !clock;
    low.(u) <- !clock;
    incr clock;
    tree_edge.(u) <- e;
    below.(u) <- Bitset.mem is_meter u;
    pending.(u) <- Graph.incident g u;
    stack.(!sp) <- u;
    incr sp
  in
  enter v.source (-1);
  while !sp > 0 do
    let u = stack.(!sp - 1) in
    match pending.(u) with
    | (e, w) :: rest ->
      pending.(u) <- rest;
      if e <> tree_edge.(u) && live e then
        if disc.(w) < 0 then enter w e else if disc.(w) < low.(u) then low.(u) <- disc.(w)
    | [] ->
      decr sp;
      if !sp > 0 then begin
        let p = stack.(!sp - 1) in
        if low.(u) < low.(p) then low.(p) <- low.(u);
        if below.(u) then begin
          if low.(u) > disc.(p) then Bitset.add detected tree_edge.(u);
          below.(p) <- true
        end
      end
  done;
  let reached u = disc.(u) >= 0 in
  let dark = Bitset.create n in
  let queue = Array.make (max 1 n) 0 and tail = ref 0 in
  List.iter
    (fun m ->
      if (not (reached m)) && not (Bitset.mem dark m) then begin
        Bitset.add dark m;
        queue.(!tail) <- m;
        incr tail
      end)
    v.meters;
  let head = ref 0 in
  while !head < !tail do
    let u = queue.(!head) in
    incr head;
    List.iter
      (fun (e, w) ->
        if (not (Bitset.mem dark w)) && live e then begin
          Bitset.add dark w;
          queue.(!tail) <- w;
          incr tail
        end)
      (Graph.incident g u)
  done;
  Array.iter
    (fun (valve : Chip.valve) ->
      let w = valve.valve_id and e = valve.edge in
      let a, b = Graph.endpoints g e in
      (match Chip.valve_on chip e with
       | Some on when on.valve_id = w ->
         if
           Chip.is_channel chip e
           && ((reached a && Bitset.mem dark b) || (reached b && Bitset.mem dark a))
         then Bitset.add detected (ne + w)
       | Some _ | None -> ());
      if Bitset.mem v.active_lines valve.control && (Bitset.mem dark a || Bitset.mem dark b) then
        Bitset.add detected (ne + nv + w))
    (Chip.valves chip);
  { well_formed = List.for_all (fun m -> reached m = v.expected) v.meters; detected }

(* The state that fixes [detect]'s answer on chips with one set of
   channels and valves: which valves the vector closes, its source, its
   meters and its expectation.  Control wiring enters only through the
   closed-valve set, so every sharing scheme of one augmented chip maps a
   vector to the same key iff it closes the same valves. *)
let detection_key chip (v : Vector.t) =
  let valves = Chip.valves chip in
  let closed = (Array.length valves + 7) / 8 in
  let key = Bytes.make (closed + (4 * (2 + List.length v.meters))) '\000' in
  Array.iteri
    (fun w (valve : Chip.valve) ->
      if Bitset.mem v.active_lines valve.control then
        Bytes.set_uint8 key (w / 8) (Bytes.get_uint8 key (w / 8) lor (1 lsl (w mod 8))))
    valves;
  Bytes.set_int32_le key closed (Int32.of_int v.source);
  Bytes.set_int32_le key (closed + 4) (if v.expected then 1l else 0l);
  List.iteri (fun i m -> Bytes.set_int32_le key (closed + 8 + (4 * i)) (Int32.of_int m)) v.meters;
  Bytes.unsafe_to_string key
