module Lp = Mf_lp.Lp
module Heap = Mf_util.Heap

type var = Lp.var

type relation = Lp.relation = Le | Ge | Eq

type run_stats = {
  rs_nodes : int;
  rs_batches : int;
  rs_warm_eligible : int;
  rs_warm_taken : int;
  rs_fallbacks : int;
  rs_cache_hits : int;
  rs_primal_pivots : int;
  rs_dual_pivots : int;
  rs_presolve_fixed : int;
  rs_presolve_tightened : int;
  rs_cover_cuts : int;
  rs_root_bound : float;
  rs_best_bound : float;
}

let zero_stats =
  {
    rs_nodes = 0;
    rs_batches = 0;
    rs_warm_eligible = 0;
    rs_warm_taken = 0;
    rs_fallbacks = 0;
    rs_cache_hits = 0;
    rs_primal_pivots = 0;
    rs_dual_pivots = 0;
    rs_presolve_fixed = 0;
    rs_presolve_tightened = 0;
    rs_cover_cuts = 0;
    rs_root_bound = neg_infinity;
    rs_best_bound = neg_infinity;
  }

let add_stats a b =
  {
    rs_nodes = a.rs_nodes + b.rs_nodes;
    rs_batches = a.rs_batches + b.rs_batches;
    rs_warm_eligible = a.rs_warm_eligible + b.rs_warm_eligible;
    rs_warm_taken = a.rs_warm_taken + b.rs_warm_taken;
    rs_fallbacks = a.rs_fallbacks + b.rs_fallbacks;
    rs_cache_hits = a.rs_cache_hits + b.rs_cache_hits;
    rs_primal_pivots = a.rs_primal_pivots + b.rs_primal_pivots;
    rs_dual_pivots = a.rs_dual_pivots + b.rs_dual_pivots;
    rs_presolve_fixed = a.rs_presolve_fixed + b.rs_presolve_fixed;
    rs_presolve_tightened = a.rs_presolve_tightened + b.rs_presolve_tightened;
    rs_cover_cuts = a.rs_cover_cuts + b.rs_cover_cuts;
    rs_root_bound = b.rs_root_bound;
    rs_best_bound = b.rs_best_bound;
  }

type t = {
  lp : Lp.t;
  mutable binaries : var list; (* reversed *)
  mutable bin_objs : float list; (* reversed, parallel to [binaries] *)
  mutable cont_obj : bool; (* a continuous variable carries objective weight *)
  mutable last_stats : run_stats;
}

type solution = { objective : float; values : float array }

type outcome =
  | Optimal of solution
  | Feasible of solution
  | Infeasible
  | Node_limit
  | Failed of Mf_util.Fail.t

type lazy_cut = (float * var) list * relation * float

(* Process-wide branch-and-bound telemetry, mirroring {!Mf_lp.Simplex.Stats}.
   [warm_eligible] counts non-root nodes that arrived with a usable warm
   basis; [warm_taken] those whose relaxation the dual simplex actually
   re-optimised from it. *)
module Stats = struct
  let nodes = Atomic.make 0
  let warm_eligible = Atomic.make 0
  let warm_taken = Atomic.make 0
  let cache_hits = Atomic.make 0
  let cover_cuts = Atomic.make 0
  let presolve_fixed = Atomic.make 0

  let all = [ nodes; warm_eligible; warm_taken; cache_hits; cover_cuts; presolve_fixed ]
  let reset () = List.iter (fun a -> Atomic.set a 0) all
end

let create () =
  {
    lp = Lp.create ();
    binaries = [];
    bin_objs = [];
    cont_obj = false;
    last_stats = zero_stats;
  }

let last_stats t = t.last_stats

let add_binary ?(obj = 0.) t =
  let v = Lp.add_var ~lower:0. ~upper:1. ~obj t.lp in
  t.binaries <- v :: t.binaries;
  t.bin_objs <- obj :: t.bin_objs;
  v

let add_continuous ?(lower = 0.) ?(upper = infinity) ?(obj = 0.) t =
  if obj <> 0. then t.cont_obj <- true;
  Lp.add_var ~lower ~upper ~obj t.lp

let n_vars t = Lp.n_vars t.lp

let add_row t terms rel rhs = Lp.add_row t.lp terms rel rhs

let int_tol = 1e-6

(* A node is a set of branching decisions on binary variables, plus the
   optimal basis of the relaxation that spawned it: after the one bound
   change of a branching step the parent basis stays dual-feasible, so the
   child's relaxation re-optimises warmly with the dual simplex instead of
   running two cold phases.  Best-first on the parent LP bound, with a
   small depth bonus so ties resolve as a dive (reaches integral incumbents
   quickly); the heap's stable sequence key breaks remaining ties in push
   order, which makes the pop sequence a pure function of the search
   trajectory. *)
type node = { fixings : (var * float) list; bound : float; parent : Lp.basis option }

let node_priority bound depth = bound -. (1e-7 *. float_of_int depth)

(* Relaxation results cached per solve, keyed by the canonical fixing set.
   An entry whose row count still matches answers an identical subproblem
   outright (no LP solve); one made stale by cut installation still seeds
   the re-solve with its basis — the cut rows extend it block-triangularly
   inside {!Mf_lp.Lp}.  Lookups happen at batch assembly and insertions
   when results are reduced in batch order. *)
type cache_entry = {
  ce_rows : int;
  ce_obj : float;
  ce_values : float array;
  ce_basis : Lp.basis option;
}

let cache_cap = 1024

(* Binary, 9 bytes per fixing: the variable as 8 bytes and a tag byte for
   0 or 1 (branching fixes binaries at exactly those); any other value
   follows tag 2 as its 8 bit-pattern bytes. *)
let cache_key fixings =
  let sorted = List.sort (fun (a, _) (b, _) -> compare (a : int) b) fixings in
  let key = Buffer.create (9 * List.length fixings) in
  List.iter
    (fun (v, x) ->
      Buffer.add_int64_le key (Int64.of_int v);
      if x = 0. then Buffer.add_char key '\000'
      else if x = 1. then Buffer.add_char key '\001'
      else begin
        Buffer.add_char key '\002';
        Buffer.add_int64_le key (Int64.bits_of_float x)
      end)
    sorted;
  Buffer.contents key

(* Up to [bmax] open nodes are popped per round, chosen by the heap state
   alone, and all their uncached relaxations are solved against the model
   as it stands at dispatch; only then are the results reduced — pruning,
   incumbent updates, branching, cut installation — in batch order.  This
   batch-synchronous law fixes the node order, pivot counts and objectives
   the benchmark baselines pin (DESIGN.md §15). *)
let bmax = 16

(* 0-1 knapsack cover cuts, separated at the root.  A row all of whose
   variables are binary is complemented into knapsack form
   sum a'_j y_j <= b' with a'_j > 0; a greedy minimal cover C with
   sum_{C} a'_j > b' yields the valid cut sum_{C} y_j <= |C| - 1,
   strengthened to its extension E(C) = C + every item at least as heavy
   as C's heaviest (sum_{E(C)} y_j <= |C| - 1 stays valid and dominates
   the plain cover), then mapped back through the complementation.
   Validity needs only integrality of the row's variables, so the cuts
   hold globally under any branching. *)
let separate_covers lp ~is_binary ~n_rows ~seen ~max_cuts values =
  let cuts = ref [] in
  let n_found = ref 0 in
  let try_form terms b =
    let items = List.filter (fun (c, _) -> abs_float c > 1e-12) terms in
    if items <> [] && List.for_all (fun (_, v) -> is_binary v) items then begin
      (* complement negative coefficients: y = 1 - x *)
      let b' =
        List.fold_left (fun acc (c, _) -> if c < 0. then acc -. c else acc) b items
      in
      let knap =
        List.map
          (fun (c, v) ->
            let y = if c > 0. then values.(v) else 1. -. values.(v) in
            (abs_float c, y, v, c > 0.))
          items
      in
      let total = List.fold_left (fun acc (m, _, _, _) -> acc +. m) 0. knap in
      if b' > 1e-9 && total > b' +. 1e-6 then begin
        (* greedy cover: items by decreasing fractional value, ties toward
           the heavier coefficient then the smaller variable — all
           deterministic keys *)
        let sorted =
          List.stable_sort
            (fun (m1, y1, v1, _) (m2, y2, v2, _) ->
              if y1 <> y2 then compare y2 y1
              else if m1 <> m2 then compare m2 m1
              else compare (v1 : int) v2)
            knap
        in
        let acc = ref 0. in
        let sel = ref [] in
        List.iter
          (fun ((m, _, _, _) as it) ->
            if !acc <= b' +. 1e-9 then begin
              sel := it :: !sel;
              acc := !acc +. m
            end)
          sorted;
        if !acc > b' +. 1e-9 then begin
          (* minimalise: drop members (least fractional first — the reverse
             of selection order) while what remains still overflows *)
          let cover =
            List.fold_left
              (fun kept ((m, _, _, _) as it) ->
                if !acc -. m > b' +. 1e-9 then begin
                  acc := !acc -. m;
                  kept
                end
                else it :: kept)
              [] !sel
          in
          let size = List.length cover in
          (* extended cover: anything at least as heavy as the cover's
             heaviest member joins the left-hand side for free *)
          let a_max = List.fold_left (fun a (m, _, _, _) -> Float.max a m) 0. cover in
          let in_cover v = List.exists (fun (_, _, w, _) -> w = v) cover in
          let extended =
            cover
            @ List.filter
                (fun (m, _, v, _) -> m >= a_max -. 1e-9 && not (in_cover v))
                knap
          in
          let lhs = List.fold_left (fun s (_, y, _, _) -> s +. y) 0. extended in
          if lhs > float_of_int (size - 1) +. 0.02 then begin
            let key =
              String.concat ";"
                (List.map
                   (fun (_, _, v, pos) -> Printf.sprintf "%c%d" (if pos then '+' else '-') v)
                   (List.sort
                      (fun (_, _, v1, _) (_, _, v2, _) -> compare (v1 : int) v2)
                      extended))
            in
            if not (Hashtbl.mem seen key) then begin
              Hashtbl.add seen key ();
              let n_neg =
                List.fold_left (fun k (_, _, _, pos) -> if pos then k else k + 1) 0 extended
              in
              let cut_terms =
                List.map (fun (_, _, v, pos) -> ((if pos then 1. else -1.), v)) extended
              in
              cuts := (cut_terms, Le, float_of_int (size - 1 - n_neg)) :: !cuts;
              incr n_found
            end
          end
        end
      end
    end
  in
  let i = ref 0 in
  while !i < n_rows && !n_found < max_cuts do
    let terms, rel, rhs = Lp.row lp !i in
    (match rel with
     | Le -> try_form terms rhs
     | Ge -> try_form (List.map (fun (c, v) -> (-.c, v)) terms) (-.rhs)
     | Eq -> ());
    incr i
  done;
  List.rev !cuts

let solve ?(node_limit = 100_000) ?budget ?(lazy_cuts = fun _ -> [])
    ?(branch_priority = fun _ -> 0) ?(upper_bound = infinity) ?(warm = true)
    ?(presolve = true) ?(cuts = true) t =
  (* Fault injection: truncate the node budget so callers exercise their
     [Node_limit]/[Feasible] handling on real models. *)
  let node_limit =
    if Mf_util.Chaos.strike Ilp_nodes then min node_limit 2 else node_limit
  in
  let binaries = Array.of_list (List.rev t.binaries) in
  let bin_objs = Array.of_list (List.rev t.bin_objs) in
  let is_binary_arr = Array.make (max 1 (Lp.n_vars t.lp)) false in
  Array.iter (fun v -> is_binary_arr.(v) <- true) binaries;
  let is_binary v = v >= 0 && v < Array.length is_binary_arr && is_binary_arr.(v) in
  let stats = ref zero_stats in
  let nodes = ref 0 in
  let root_bound = ref neg_infinity in
  let finish ?(best_bound = infinity) outcome =
    stats := { !stats with rs_root_bound = !root_bound; rs_best_bound = best_bound };
    t.last_stats <- !stats;
    Mf_util.Prof.add_count "ilp.solves" 1;
    Mf_util.Prof.add_count "ilp.nodes" !stats.rs_nodes;
    Mf_util.Prof.add_count "ilp.batches" !stats.rs_batches;
    Mf_util.Prof.add_count "ilp.cover_cuts" !stats.rs_cover_cuts;
    outcome
  in
  (* ---- presolve: shrink the tree before growing it ---- *)
  let ps_infeasible =
    if not presolve then false
    else begin
      let ps = Lp.presolve ~integer:is_binary t.lp in
      ignore (Atomic.fetch_and_add Stats.presolve_fixed ps.Lp.ps_fixed);
      stats :=
        {
          !stats with
          rs_presolve_fixed = ps.Lp.ps_fixed;
          rs_presolve_tightened = ps.Lp.ps_tightened + ps.Lp.ps_coeffs;
        };
      ps.Lp.ps_infeasible
    end
  in
  if ps_infeasible then begin
    root_bound := infinity;
    finish Infeasible
  end
  else begin
    let incumbent = ref None in
    let incumbent_obj = ref upper_bound in
    let heap : node Heap.t = Heap.create () in
    let next_seq = ref 0 in
    let push_node node =
      Heap.push_seq heap
        (node_priority node.bound (List.length node.fixings))
        !next_seq node;
      incr next_seq
    in
    let truncated = ref false in
    (* set when a relaxation came back without a proven bound (budget ran
       out mid-solve, or numerical distress): the search stays sound for
       feasibility but can no longer certify optimality *)
    let weakened = ref false in
    let aborted = ref None in
    let abort f = if !aborted = None then aborted := Some f in
    let cache : (string, cache_entry) Hashtbl.t = Hashtbl.create 64 in
    let most_fractional values =
      let best = ref (-1) in
      let best_prio = ref max_int in
      let best_frac = ref int_tol in
      Array.iter
        (fun v ->
          let x = values.(v) in
          (* |x - round x| without the C call where x rounds to 0 or 1
             (x - 1 is exact there); -0.5 rounds to -1, same distance *)
          let frac =
            if x >= -0.5 && x < 0.5 then abs_float x
            else if x >= 0.5 && x < 1.5 then abs_float (x -. 1.)
            else abs_float (x -. Float.round x)
          in
          if frac > int_tol then begin
            let prio = branch_priority v in
            if prio < !best_prio || (prio = !best_prio && frac > !best_frac) then begin
              best_prio := prio;
              best_frac := frac;
              best := v
            end
          end)
        binaries;
      !best
    in
    let fold_info (info : Lp.info) =
      stats :=
        {
          !stats with
          rs_primal_pivots = !stats.rs_primal_pivots + info.Lp.primal_pivots;
          rs_dual_pivots = !stats.rs_dual_pivots + info.Lp.dual_pivots;
          rs_fallbacks = (!stats.rs_fallbacks + if info.Lp.fell_back then 1 else 0);
        };
      if info.Lp.warm then begin
        Atomic.incr Stats.warm_taken;
        stats := { !stats with rs_warm_taken = !stats.rs_warm_taken + 1 }
      end
    in
    let count_node () =
      incr nodes;
      Atomic.incr Stats.nodes;
      stats := { !stats with rs_nodes = !stats.rs_nodes + 1 }
    in
    let cache_store key rows_at_solve rel basis =
      match rel with
      | Lp.Optimal { objective; values } when warm && Hashtbl.length cache < cache_cap ->
        (* the values are shared, never written: an integral candidate
           copies them before snapping *)
        Hashtbl.replace cache key
          { ce_rows = rows_at_solve; ce_obj = objective; ce_values = values; ce_basis = basis }
      | _ -> ()
    in
    let debug = Sys.getenv_opt "MFDFT_ILP_DEBUG" <> None in
    let t_start = Unix.gettimeofday () in
    (* ---- root: cover-cut rounds ---- *)
    let root = ref { fixings = []; bound = neg_infinity; parent = None } in
    let root_pushable = ref true in
    let root_infeasible = ref false in
    if cuts then begin
      (* cover cuts persist in the builder, so they must be valid for the
         unrestricted model: separate only from the rows present at entry,
         never from cuts installed by earlier rounds.  (An objective-cutoff
         row from [upper_bound] was tried here and measured out: the primed
         incumbent already prunes the same subtrees, while branching on the
         cutoff-restricted root solution sent some covering models into
         >10x dual-pivot blow-ups.) *)
      let seen = Hashtbl.create 32 in
      let n_rows0 = Lp.n_rows t.lp in
      let basis = ref None in
      let rounds = ref 0 in
      let continue_ = ref true in
      while !continue_ && !rounds < 6 && !aborted = None && not !root_infeasible do
        incr rounds;
        if !nodes >= node_limit || Mf_util.Budget.over budget then begin
          truncated := true;
          continue_ := false
        end
        else begin
          count_node ();
          let rel, b, info = Lp.solve_b ?budget ?warm:!basis t.lp in
          fold_info info;
          match rel with
          | Lp.Optimal { objective; values } ->
            basis := (match b with Some _ -> b | None -> !basis);
            root := { fixings = []; bound = objective; parent = !basis };
            root_bound := objective;
            let fresh =
              separate_covers t.lp ~is_binary ~n_rows:n_rows0 ~seen ~max_cuts:16 values
            in
            if fresh = [] then begin
              (* settled: let the main loop recall this relaxation from the
                 cache instead of re-solving it *)
              if warm then
                cache_store (cache_key []) (Lp.n_rows t.lp)
                  (Lp.Optimal { objective; values })
                  !basis;
              continue_ := false
            end
            else begin
              List.iter (fun (terms, rel, rhs) -> add_row t terms rel rhs) fresh;
              let n = List.length fresh in
              ignore (Atomic.fetch_and_add Stats.cover_cuts n);
              stats := { !stats with rs_cover_cuts = !stats.rs_cover_cuts + n }
            end
          | Lp.Infeasible ->
            root_infeasible := true;
            root_bound := infinity
          | Lp.Unbounded ->
            abort (Mf_util.Fail.v ~nodes:!nodes Mf_util.Fail.Ilp "LP relaxation unbounded")
          | Lp.Iter_limit | Lp.Numerical _ ->
            weakened := true;
            root_pushable := false;
            continue_ := false
          | Lp.Feasible _ ->
            weakened := true;
            continue_ := false
        end
      done
    end;
    if !root_pushable && not !root_infeasible && !aborted = None then push_node !root;
    (* ---- batched best-first search ---- *)
    let batch_no = ref 0 in
    let rec loop () =
      if !aborted <> None then ()
      else if !nodes >= node_limit || Mf_util.Budget.over budget then truncated := true
      else if Heap.is_empty heap then ()
      else begin
        let cap = min bmax (node_limit - !nodes) in
        let picked = ref [] in
        let n_picked = ref 0 in
        while !n_picked < cap && not (Heap.is_empty heap) do
          match Heap.pop_seq heap with
          | None -> ()
          | Some (_, _, node) ->
            if node.bound < !incumbent_obj -. 1e-9 then begin
              incr n_picked;
              picked := node :: !picked
            end
        done;
        let batch = Array.of_list (List.rev !picked) in
        if Array.length batch = 0 then loop ()
        else begin
          incr batch_no;
          stats := { !stats with rs_batches = !stats.rs_batches + 1 };
          Array.iter (fun _ -> count_node ()) batch;
          if debug then
            Printf.eprintf
              "[ilp] batch=%d size=%d nodes=%d rows=%d incumbent=%g elapsed=%.1fs\n%!"
              !batch_no (Array.length batch) !nodes (Lp.n_rows t.lp) !incumbent_obj
              (Unix.gettimeofday () -. t_start);
          let rows_at_dispatch = Lp.n_rows t.lp in
          (* cache consultation, warm-seed selection and every uncached
             relaxation, in batch order and against the model as it stands
             at dispatch: no result is used before the whole round is
             solved *)
          let solved =
            Array.map
              (fun node ->
                let key = if warm then cache_key node.fixings else "" in
                let cached = if warm then Hashtbl.find_opt cache key else None in
                match cached with
                | Some ce when ce.ce_rows = rows_at_dispatch ->
                  Atomic.incr Stats.cache_hits;
                  stats := { !stats with rs_cache_hits = !stats.rs_cache_hits + 1 };
                  `Cached
                    (Lp.Optimal { objective = ce.ce_obj; values = ce.ce_values }, ce.ce_basis)
                | cached ->
                  let seed =
                    if not warm then None
                    else
                      match cached with
                      | Some { ce_basis = Some b; _ } -> Some b (* stale: same fixings *)
                      | _ -> node.parent
                  in
                  if node.fixings <> [] && seed <> None then begin
                    Atomic.incr Stats.warm_eligible;
                    stats := { !stats with rs_warm_eligible = !stats.rs_warm_eligible + 1 }
                  end;
                  `Solved (key, Lp.solve_b ?budget ~fix:node.fixings ?warm:seed t.lp))
              batch
          in
          (* sequential reduction, strictly in batch order *)
          let cuts_installed = ref false in
          Array.iteri
            (fun i node ->
              if !aborted = None then
                if !cuts_installed then begin
                  (* the model grew under this relaxation: fold the effort
                     spent, discard the stale result and re-queue the node
                     under the same priority law *)
                  (match solved.(i) with
                   | `Solved (_, (_, _, info)) -> fold_info info
                   | `Cached _ -> ());
                  push_node node
                end
                else begin
                  let rel, basis =
                    match solved.(i) with
                    | `Cached (rel, basis) -> (rel, basis)
                    | `Solved (key, (rel, basis, info)) ->
                      fold_info info;
                      cache_store key rows_at_dispatch rel basis;
                      (rel, basis)
                  in
                  (* without root cut rounds the first root relaxation
                     is solved here *)
                  (if node.fixings = [] && !root_bound = neg_infinity then
                     match rel with
                     | Lp.Optimal { objective; _ } | Lp.Feasible { objective; _ } ->
                       root_bound := objective
                     | Lp.Infeasible -> root_bound := infinity
                     | Lp.Iter_limit | Lp.Numerical _ | Lp.Unbounded -> ());
                  match rel with
                  | Lp.Infeasible -> ()
                  | Lp.Iter_limit | Lp.Numerical _ ->
                    (* distress in one relaxation prunes that subtree
                       rather than aborting the whole search; without a
                       proven bound the prune is heuristic, so optimality
                       can no longer be certified *)
                    weakened := true
                  | Lp.Unbounded ->
                    (* an unbounded relaxation is a model defect, not a
                       resource outcome: surface it as a typed failure so
                       callers can degrade instead of crashing *)
                    abort
                      (Mf_util.Fail.v ~nodes:!nodes Mf_util.Fail.Ilp
                         "LP relaxation unbounded")
                  | Lp.Optimal { objective; values } | Lp.Feasible { objective; values }
                    ->
                    (match rel with Lp.Feasible _ -> weakened := true | _ -> ());
                    if objective >= !incumbent_obj -. 1e-9 then ()
                    else begin
                      let branch_var = most_fractional values in
                      if branch_var < 0 then begin
                        (* integral candidate: snap tiny residues and make
                           the reported objective a function of the snapped
                           solution rather than of the LP's float path to it
                           — exact when the objective lives entirely on the
                           binaries (integral data sums exactly), a delta
                           correction otherwise.  The candidate owns its
                           values: the relaxation's may be cached. *)
                        let values = Array.copy values in
                        let delta = ref 0. in
                        Array.iteri
                          (fun i v ->
                            let x = values.(v) in
                            let r = Float.round x in
                            if r <> x then begin
                              values.(v) <- r;
                              delta := !delta +. (bin_objs.(i) *. (r -. x))
                            end)
                          binaries;
                        let objective =
                          if t.cont_obj then objective +. !delta
                          else begin
                            let o = ref 0. in
                            Array.iteri
                              (fun i v -> o := !o +. (bin_objs.(i) *. values.(v)))
                              binaries;
                            !o
                          end
                        in
                        let candidate = { objective; values } in
                        match lazy_cuts candidate with
                        | [] ->
                          incumbent := Some candidate;
                          incumbent_obj := objective
                        | cs ->
                          List.iter (fun (terms, rel, rhs) -> add_row t terms rel rhs) cs;
                          (* re-explore this subproblem under the new
                             cuts, seeded by the basis just proved optimal
                             for it (the cut rows only extend it); the
                             rest of the batch re-queues unchanged *)
                          cuts_installed := true;
                          push_node
                            {
                              node with
                              bound = objective;
                              parent =
                                (match basis with Some _ -> basis | None -> node.parent);
                            }
                      end
                      else begin
                        let child x =
                          {
                            fixings = (branch_var, x) :: node.fixings;
                            bound = objective;
                            parent = basis;
                          }
                        in
                        (* explore the branch matching the fractional
                           value first: pushed first, so the stable
                           sequence key pops it first among equal bounds *)
                        let first, second =
                          if values.(branch_var) >= 0.5 then (child 1., child 0.)
                          else (child 0., child 1.)
                        in
                        push_node first;
                        push_node second
                      end
                    end
                end)
            batch;
          loop ()
        end
      end
    in
    if !aborted = None && not !root_infeasible then loop ();
    (* the best bound: the least bound among the nodes left open *)
    let best_bound = ref infinity in
    let rec drain () =
      match Heap.pop heap with
      | Some (_, node) ->
        best_bound := Float.min !best_bound node.bound;
        drain ()
      | None -> ()
    in
    drain ();
    let finish = finish ~best_bound:!best_bound in
    match !aborted with
    | Some f -> finish (Failed f)
    | None -> (
      if !root_infeasible then finish Infeasible
      else
        match !incumbent with
        | Some sol ->
          if !truncated || !weakened then finish (Feasible sol) else finish (Optimal sol)
        | None -> if !truncated || !weakened then finish Node_limit else finish Infeasible)
  end
