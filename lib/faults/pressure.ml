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
