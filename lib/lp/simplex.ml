(* Sparse revised bounded-variable simplex with a product-form (eta-file)
   basis inverse.  See simplex.mli for the contract; the notes here cover
   the representation.

   The basis inverse is held as B^-1 = E_k · … · E_1, each eta the
   elementary column transform of one pivot (or one factorisation step).
   FTRAN applies etas in creation order to compute B^-1 v; BTRAN applies
   them transposed in reverse order to compute v B^-1.  Every
   [refactor_interval] fresh etas the file is rebuilt from the current
   basis by deterministic Gaussian elimination, bounding both drift and
   the O(#etas) cost of each FTRAN/BTRAN.  The refactorisation is
   hypersparse (it touches only each column's nonzeros), its scratch and
   every row-length array of a solve come from a per-domain workspace, and
   a warm start reuses the factorisation its sibling node computed for the
   same parent basis.

   Determinism: pricing and both ratio tests break ties on the smallest
   column/basis index, and the refactorisation orders columns by
   (nnz, index) and picks the largest-magnitude pivot row with ties to the
   smallest row, so a solve is a pure function of its inputs. *)

type result =
  | Optimal of { objective : float; values : float array }
  | Feasible of { objective : float; values : float array }
  | Iter_limit
  | Infeasible
  | Unbounded

(* Process-wide solver telemetry.  Atomic so worker domains can bump them
   during parallel pool builds; sums are schedule-independent, so totals are
   deterministic for any job count.  Read/reset by [bench -- perf] and the
   MFDFT_PROF report — never consulted by the solver itself. *)
module Stats = struct
  let primal_pivots = Atomic.make 0
  let dual_pivots = Atomic.make 0
  let phase1_solves = Atomic.make 0
  let refactors = Atomic.make 0

  let all = [ primal_pivots; dual_pivots; phase1_solves; refactors ]
  let reset () = List.iter (fun a -> Atomic.set a 0) all
  let pivots () = Atomic.get primal_pivots + Atomic.get dual_pivots
end

let eps_cost = 1e-7 (* reduced-cost optimality tolerance *)
let eps_pivot = 1e-9 (* smallest acceptable pivot element *)
let eps_feas = 1e-7 (* primal feasibility tolerance *)
let eps_singular = 1e-10 (* factorisation pivot threshold *)
let refactor_interval = 64 (* fresh etas between refactorisations *)

type col = { idx : int array; v : float array }
type problem = { m : int; n : int; cols : col array; b : float array }
type status = Basic | At_lower | At_upper
type basis = { basic : int array; vstat : status array }

type info = {
  primal_pivots : int;
  dual_pivots : int;
  warm : bool;
  fell_back : bool;
}

(* Raised on a pivot the eta representation cannot absorb; converted to
   [Failure] on the cold path, to a silent cold fallback on the warm path. *)
exception Singular of string

type eta = { er : int; ei : int array; ev : float array }
type factor = { f_basic : int array; f_etas : eta array }

let no_eta = { er = 0; ei = [||]; ev = [||] }

(* Per-domain scratch.  Every solve and every factorisation on a domain
   draws its row-length arrays from here, so a warm branch-and-bound node
   allocates none of them.  The row arrays are sized exactly [wm] and
   reallocated together when the row count changes.  Between
   factorisations [fw] is all zero, [inpat] all false and [row_eta] all
   -1.  [last_*] hold the last fresh factorisation of a warm basis: the
   two children of a branched node start from the same parent basis, and
   the second one finds the first one's factorisation here. *)
type work = {
  mutable wm : int;
  mutable xb : float array;
  mutable y : float array;
  mutable rho : float array;
  mutable w : float array;
  mutable r : float array;
  mutable basic_w : int array;
  mutable vstat_w : status array;
  mutable etas_w : eta array;
  mutable order : int array;
  mutable fw : float array; (* the column being factorised *)
  mutable inpat : bool array; (* row is in the column's nonzero pattern *)
  mutable pat : int array; (* the pattern's rows, first [np] valid *)
  mutable row_eta : int array; (* eta pivoting on each row, or -1 *)
  mutable np : int;
  mutable heap : int array; (* eta indices still to apply, a min-heap *)
  mutable hn : int;
  mutable last_problem : problem option;
  mutable last_basic : int array;
  mutable last_factor : factor option;
}

let new_work () =
  {
    wm = 0;
    xb = [||];
    y = [||];
    rho = [||];
    w = [||];
    r = [||];
    basic_w = [||];
    vstat_w = [||];
    etas_w = Array.make 32 no_eta;
    order = [||];
    fw = [||];
    inpat = [||];
    pat = [||];
    row_eta = [||];
    np = 0;
    heap = [||];
    hn = 0;
    last_problem = None;
    last_basic = [||];
    last_factor = None;
  }

let ensure_rows ws m =
  if ws.wm <> m then begin
    ws.wm <- m;
    ws.xb <- Array.make m 0.;
    ws.y <- Array.make m 0.;
    ws.rho <- Array.make m 0.;
    ws.w <- Array.make m 0.;
    ws.r <- Array.make m 0.;
    ws.basic_w <- Array.make m 0;
    ws.order <- Array.make m 0;
    ws.fw <- Array.make m 0.;
    ws.inpat <- Array.make m false;
    ws.pat <- Array.make m 0;
    ws.row_eta <- Array.make m (-1);
    ws.heap <- Array.make m 0
  end

(* The domain's workspace is checked out for the length of one call, so
   threads sharing a domain never share it: a call that finds the slot
   empty works in a fresh workspace. *)
let work_slot : work option Atomic.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Atomic.make None)

let with_work f =
  let slot = Domain.DLS.get work_slot in
  let ws = match Atomic.exchange slot None with Some ws -> ws | None -> new_work () in
  match f ws with
  | v ->
    Atomic.set slot (Some ws);
    v
  | exception e ->
    Atomic.set slot (Some ws);
    raise e

(* Working state for one simplex run.  [n] counts every column visible to
   this run — the caller's columns plus, on the cold path, one artificial
   per row appended at indices >= problem.n. *)
type core = {
  m : int;
  n : int;
  cols : col array;
  b : float array;
  lower : float array;
  upper : float array;
  basic : int array; (* row -> column *)
  vstat : status array; (* column -> status *)
  xb : float array; (* basic values, by row *)
  mutable etas : eta array; (* 0 .. n_etas-1 valid *)
  mutable n_etas : int;
  mutable fresh : int; (* etas pushed since the last factorisation *)
  ws : work;
}

let nonbasic_value core j =
  match core.vstat.(j) with
  | At_lower -> core.lower.(j)
  | At_upper -> core.upper.(j)
  | Basic -> invalid_arg "nonbasic_value of basic variable"

(* ------------------------------------------------------------------ *)
(* eta file *)

let push_eta core e =
  if core.n_etas = Array.length core.etas then begin
    let bigger = Array.make (max 32 (2 * core.n_etas)) e in
    Array.blit core.etas 0 bigger 0 core.n_etas;
    core.etas <- bigger;
    core.ws.etas_w <- bigger
  end;
  core.etas.(core.n_etas) <- e;
  core.n_etas <- core.n_etas + 1;
  core.fresh <- core.fresh + 1

(* Entry of row [i] in the eta absorbing pivot row [r] of the FTRANned
   column [w] — eta_r = 1/w_r, eta_i = -w_i/w_r, none where w_i = 0 —
   written at position [p]; returns the next free position. *)
let put_entry w ei ev r p i =
  if i = r then begin
    ei.(p) <- r;
    ev.(p) <- 1. /. w.(r);
    p + 1
  end
  else if w.(i) <> 0. then begin
    ei.(p) <- i;
    ev.(p) <- -.w.(i) /. w.(r);
    p + 1
  end
  else p

(* Eta absorbing pivot row [r] of the FTRANned column [w], entries in row
   order. *)
let eta_of (w : float array) r =
  let m = Array.length w in
  let nnz = ref 1 in
  for i = 0 to m - 1 do
    if i <> r && w.(i) <> 0. then incr nnz
  done;
  let ei = Array.make !nnz 0 in
  let ev = Array.make !nnz 0. in
  let p = ref 0 in
  for i = 0 to m - 1 do
    p := put_entry w ei ev r !p i
  done;
  { er = r; ei; ev }

(* v <- B^-1 v *)
let ftran core v =
  for k = 0 to core.n_etas - 1 do
    let e = core.etas.(k) in
    let t = v.(e.er) in
    if t <> 0. then begin
      v.(e.er) <- 0.;
      let ei = e.ei and ev = e.ev in
      for p = 0 to Array.length ei - 1 do
        v.(ei.(p)) <- v.(ei.(p)) +. (ev.(p) *. t)
      done
    end
  done

(* y <- y B^-1 (row vector) *)
let btran core y =
  for k = core.n_etas - 1 downto 0 do
    let e = core.etas.(k) in
    let ei = e.ei and ev = e.ev in
    let acc = ref 0. in
    for p = 0 to Array.length ei - 1 do
      acc := !acc +. (ev.(p) *. y.(ei.(p)))
    done;
    y.(e.er) <- !acc
  done

let load_col core j w =
  Array.fill w 0 core.m 0.;
  let c = core.cols.(j) in
  for p = 0 to Array.length c.idx - 1 do
    w.(c.idx.(p)) <- c.v.(p)
  done

(* rho · A_j for a dense row vector rho *)
let row_dot core rho j =
  let c = core.cols.(j) in
  let acc = ref 0. in
  for p = 0 to Array.length c.idx - 1 do
    acc := !acc +. (rho.(c.idx.(p)) *. c.v.(p))
  done;
  !acc

(* ------------------------------------------------------------------ *)
(* factorisation and derived quantities *)

let heap_push ws e =
  let h = ws.heap in
  let i = ref ws.hn in
  ws.hn <- ws.hn + 1;
  while !i > 0 && h.((!i - 1) / 2) > e do
    h.(!i) <- h.((!i - 1) / 2);
    i := (!i - 1) / 2
  done;
  h.(!i) <- e

let heap_pop ws =
  let h = ws.heap in
  let top = h.(0) in
  ws.hn <- ws.hn - 1;
  let n = ws.hn in
  if n > 0 then begin
    let last = h.(n) in
    let i = ref 0 in
    let settled = ref false in
    while not !settled do
      let l = (2 * !i) + 1 in
      if l >= n then settled := true
      else begin
        let c = if l + 1 < n && h.(l + 1) < h.(l) then l + 1 else l in
        if h.(c) < last then begin
          h.(!i) <- h.(c);
          i := c
        end
        else settled := true
      end
    done;
    h.(!i) <- last
  end;
  top

(* Add row [i] to the pattern of the column being factorised; its eta, if
   it has one later than [after], still has to be applied. *)
let enter_pattern ws i ~after =
  if not ws.inpat.(i) then begin
    ws.inpat.(i) <- true;
    ws.pat.(ws.np) <- i;
    ws.np <- ws.np + 1;
    let e = ws.row_eta.(i) in
    if e > after then heap_push ws e
  end

(* Fresh factorisation of the basis [basic] (row count = its length) of
   the columns [cols].  Columns enter in (nnz, index) order; each is
   FTRANned through the etas built so far and pivots on its
   largest-magnitude entry among still-unpivoted rows, ties to the smallest
   row.  Hypersparse: only the column's nonzero pattern is touched.  An eta
   is applied when the column is nonzero in its pivot row, in increasing
   eta order (a min-heap of pending eta indices, fed as rows enter the
   pattern); the pivot search and the new eta walk the pattern.  Each
   floating-point operation is the one a dense sweep over every eta and
   every row performs, in the same order, so the etas are bit-identical to
   it.  [None] when the basis is numerically singular. *)
let factor ws cols basic =
  Atomic.incr Stats.refactors;
  Mf_util.Prof.time "lp.factorize" @@ fun () ->
  let m = Array.length basic in
  ensure_rows ws m;
  let nc = Array.length cols in
  let order = ws.order in
  for i = 0 to m - 1 do
    let j = basic.(i) in
    order.(i) <- (Array.length cols.(j).idx * nc) + j
  done;
  Array.sort Int.compare order;
  let fw = ws.fw and pat = ws.pat and row_eta = ws.row_eta in
  let etas = Array.make m no_eta in
  let new_basic = Array.make m (-1) in
  let ok = ref true in
  let k = ref 0 in
  let nnz_built = ref 0 in
  while !ok && !k < m do
    let j = order.(!k) mod nc in
    let c = cols.(j) in
    ws.np <- 0;
    ws.hn <- 0;
    for p = 0 to Array.length c.idx - 1 do
      let i = c.idx.(p) in
      fw.(i) <- c.v.(p);
      enter_pattern ws i ~after:(-1)
    done;
    while ws.hn > 0 do
      let e = heap_pop ws in
      let eta = etas.(e) in
      let t = fw.(eta.er) in
      if t <> 0. then begin
        fw.(eta.er) <- 0.;
        let ei = eta.ei and ev = eta.ev in
        for p = 0 to Array.length ei - 1 do
          let i = ei.(p) in
          fw.(i) <- fw.(i) +. (ev.(p) *. t);
          enter_pattern ws i ~after:e
        done
      end
    done;
    let r = ref (-1) in
    let best = ref 0. in
    let np = ws.np in
    for q = 0 to np - 1 do
      let i = pat.(q) in
      if row_eta.(i) < 0 then begin
        let a = abs_float fw.(i) in
        if a > !best || (a = !best && a > 0. && i < !r) then begin
          best := a;
          r := i
        end
      end
    done;
    if !best <= eps_singular then ok := false
    else begin
      let r = !r in
      let nnz = ref 1 in
      for q = 0 to np - 1 do
        let i = pat.(q) in
        if i <> r && fw.(i) <> 0. then incr nnz
      done;
      let ei = Array.make !nnz 0 in
      let ev = Array.make !nnz 0. in
      let p = ref 0 in
      (* entries in row order: sort a short pattern, scan the rows for a
         long one *)
      if np * np <= m then begin
        for q = 1 to np - 1 do
          let i = pat.(q) in
          let s = ref (q - 1) in
          while !s >= 0 && pat.(!s) > i do
            pat.(!s + 1) <- pat.(!s);
            decr s
          done;
          pat.(!s + 1) <- i
        done;
        for q = 0 to np - 1 do
          p := put_entry fw ei ev r !p pat.(q)
        done
      end
      else
        for i = 0 to m - 1 do
          if ws.inpat.(i) then p := put_entry fw ei ev r !p i
        done;
      etas.(!k) <- { er = r; ei; ev };
      nnz_built := !nnz_built + !nnz;
      row_eta.(r) <- !k;
      new_basic.(r) <- j;
      incr k
    end;
    for q = 0 to ws.np - 1 do
      let i = pat.(q) in
      fw.(i) <- 0.;
      ws.inpat.(i) <- false
    done
  done;
  Array.fill row_eta 0 m (-1);
  Mf_util.Prof.add_count "lp.factorize" !nnz_built;
  if !ok then Some { f_basic = new_basic; f_etas = etas } else None

let factorize (p : problem) basic =
  if Array.length basic <> p.m || Array.length p.cols <> p.n then
    invalid_arg "Simplex.factorize: dimension mismatch";
  let seen = Array.make p.n false in
  Array.iter
    (fun j ->
      if j < 0 || j >= p.n || seen.(j) then invalid_arg "Simplex.factorize: bad basic set";
      seen.(j) <- true;
      let c = p.cols.(j) in
      if Array.length c.idx <> Array.length c.v then
        invalid_arg "Simplex.factorize: ragged column";
      Array.iter
        (fun i -> if i < 0 || i >= p.m then invalid_arg "Simplex.factorize: row out of range")
        c.idx)
    basic;
  with_work (fun ws -> factor ws p.cols basic)

(* Make [f] the core's eta file and row assignment.  The etas are shared
   read-only; the ones pushed after them are the core's own. *)
let load_factor core f =
  let m = core.m in
  if Array.length core.etas < m + 32 then begin
    core.etas <- Array.make (2 * m + 32) no_eta;
    core.ws.etas_w <- core.etas
  end;
  Array.blit f.f_etas 0 core.etas 0 m;
  core.n_etas <- m;
  Array.blit f.f_basic 0 core.basic 0 m;
  (* the factorisation's own etas are the baseline, not drift *)
  core.fresh <- 0

(* Rebuild the eta file from the current basis.  Returns false when the
   basis is numerically singular.  Row assignment may permute, so callers
   must recompute [xb] afterwards. *)
let factorize_core core =
  match factor core.ws core.cols core.basic with
  | Some f ->
    load_factor core f;
    true
  | None -> false

(* xb <- B^-1 (b - A_N x_N) *)
let compute_xb core =
  let r = core.ws.r in
  Array.blit core.b 0 r 0 core.m;
  for j = 0 to core.n - 1 do
    if core.vstat.(j) <> Basic then begin
      let x = nonbasic_value core j in
      if x <> 0. then begin
        let c = core.cols.(j) in
        for p = 0 to Array.length c.idx - 1 do
          r.(c.idx.(p)) <- r.(c.idx.(p)) -. (c.v.(p) *. x)
        done
      end
    end
  done;
  ftran core r;
  Array.blit r 0 core.xb 0 core.m

(* y <- c_B B^-1 *)
let compute_y core c y =
  for i = 0 to core.m - 1 do
    y.(i) <- c.(core.basic.(i))
  done;
  btran core y

let reduced core c y j = c.(j) -. row_dot core y j

let maybe_refactor core =
  if core.fresh >= refactor_interval then begin
    if not (factorize_core core) then
      raise (Singular "Simplex: singular basis at refactorisation");
    compute_xb core
  end

(* ------------------------------------------------------------------ *)
(* primal simplex *)

(* Entering column choice against current duals [y].  A nonbasic variable
   improves the objective when it is at its lower bound with negative
   reduced cost (increase it) or at its upper bound with positive reduced
   cost (decrease it).  [bland] forces smallest-index selection for
   anti-cycling. *)
let choose_entering core ~c ~y ~bland ~frozen =
  let best = ref (-1) in
  let best_score = ref eps_cost in
  (try
     for j = 0 to core.n - 1 do
       if (not (frozen j)) && core.vstat.(j) <> Basic then begin
         let improving =
           match core.vstat.(j) with
           | Basic -> 0.
           | At_lower -> -.reduced core c y j
           | At_upper ->
             (* a variable with equal bounds cannot move *)
             if core.upper.(j) -. core.lower.(j) < eps_feas then 0.
             else reduced core c y j
         in
         if improving > eps_cost then begin
           if bland then begin
             best := j;
             raise Exit
           end;
           if improving > !best_score then begin
             best_score := improving;
             best := j
           end
         end
       end
     done
   with Exit -> ());
  !best

(* One primal iteration for entering column [j] ([w] is row-length
   scratch).  Returns [`Progress] or [`Unbounded]. *)
let primal_step core j w =
  load_col core j w;
  ftran core w;
  let increasing = core.vstat.(j) = At_lower in
  (* direction of change of basic variables is -dir*t *)
  let dir i = if increasing then w.(i) else -.w.(i) in
  (* ratio test: largest step t >= 0 keeping all basic vars within bounds *)
  let limit = ref (core.upper.(j) -. core.lower.(j)) (* bound-flip limit *) in
  let leave = ref (-1) in
  let leave_at_upper = ref false in
  for i = 0 to core.m - 1 do
    let d = dir i in
    let bvar = core.basic.(i) in
    let consider t at_upper =
      let better =
        t < !limit -. 1e-12
        (* tie-break on smaller basis index to curb cycling *)
        || (t <= !limit +. 1e-12 && !leave >= 0 && bvar < core.basic.(!leave))
      in
      if better then begin
        limit := min t !limit;
        leave := i;
        leave_at_upper := at_upper
      end
    in
    if d > eps_pivot then
      (* basic variable decreases towards its lower bound *)
      consider ((core.xb.(i) -. core.lower.(bvar)) /. d) false
    else if d < -.eps_pivot && core.upper.(bvar) < infinity then
      (* basic variable increases towards its upper bound *)
      consider ((core.upper.(bvar) -. core.xb.(i)) /. -.d) true
  done;
  if !limit = infinity then `Unbounded
  else begin
    let t = max 0. !limit in
    if !leave = -1 then begin
      (* bound flip: the entering variable traverses to its other bound *)
      for i = 0 to core.m - 1 do
        core.xb.(i) <- core.xb.(i) -. (dir i *. t)
      done;
      core.vstat.(j) <- (if increasing then At_upper else At_lower);
      `Progress
    end
    else begin
      let r = !leave in
      if abs_float w.(r) < eps_pivot then
        raise (Singular "Simplex: numerically singular pivot");
      let enter_value =
        if increasing then core.lower.(j) +. t else core.upper.(j) -. t
      in
      for i = 0 to core.m - 1 do
        if i <> r then core.xb.(i) <- core.xb.(i) -. (dir i *. t)
      done;
      let old_basic = core.basic.(r) in
      core.vstat.(old_basic) <- (if !leave_at_upper then At_upper else At_lower);
      core.basic.(r) <- j;
      core.vstat.(j) <- Basic;
      core.xb.(r) <- enter_value;
      push_eta core (eta_of w r);
      maybe_refactor core;
      `Progress
    end
  end

let primal_opt core ~c ~max_iters ~budget ~frozen ~spent =
  let iters = ref 0 in
  let bland_after = max 200 (4 * (core.m + core.n)) in
  let y = core.ws.y in
  let w = core.ws.w in
  let rec loop () =
    if !iters > max_iters then `Iter_limit
    else if !iters land 127 = 0 && Mf_util.Budget.over budget then `Iter_limit
    else begin
      compute_y core c y;
      let bland = !iters > bland_after in
      let j = choose_entering core ~c ~y ~bland ~frozen in
      if j < 0 then `Optimal
      else begin
        incr iters;
        Atomic.incr Stats.primal_pivots;
        incr spent;
        match primal_step core j w with
        | `Unbounded -> `Unbounded
        | `Progress -> loop ()
      end
    end
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* dual simplex (warm path) *)

(* Re-optimise a dual-feasible basis whose [xb] violates bounds — the
   branch-and-bound child-node case.  Leaving row: largest bound violation
   (ties to the smallest row).  Entering column: among nonbasic, non-fixed
   columns whose tableau-row entry lets the leaving variable move back to
   its violated bound while keeping dual feasibility, the smallest ratio
   |d_j| / |alpha_j| (ties to the smallest column).  Columns with equal
   bounds are excluded: a fixed primal variable imposes no dual-sign
   constraint, so skipping them keeps the no-entering-column certificate
   (primal infeasibility) valid.  Short-step variant — no dual bound-flip
   ratio test; termination is guaranteed by [max_iters] with a cold
   fallback behind it. *)
let dual_opt core ~c ~max_iters ~budget ~spent =
  let y = core.ws.y in
  let rho = core.ws.rho in
  let w = core.ws.w in
  let iters = ref 0 in
  let rec loop () =
    if !iters > max_iters then `Iter_limit
    else if !iters land 127 = 0 && Mf_util.Budget.over budget then `Iter_limit
    else begin
      let r = ref (-1) in
      let viol = ref eps_feas in
      let below = ref false in
      for i = 0 to core.m - 1 do
        let bvar = core.basic.(i) in
        let v_lo = core.lower.(bvar) -. core.xb.(i) in
        let v_up = core.xb.(i) -. core.upper.(bvar) in
        if v_lo > !viol then begin
          viol := v_lo;
          r := i;
          below := true
        end;
        if v_up > !viol then begin
          viol := v_up;
          r := i;
          below := false
        end
      done;
      if !r < 0 then `Feasible
      else begin
        let r = !r and below = !below in
        Array.fill rho 0 core.m 0.;
        rho.(r) <- 1.;
        btran core rho;
        compute_y core c y;
        let q = ref (-1) in
        let best = ref infinity in
        for j = 0 to core.n - 1 do
          if core.vstat.(j) <> Basic && core.upper.(j) -. core.lower.(j) >= eps_feas
          then begin
            let alpha = row_dot core rho j in
            let eligible =
              if below then
                (core.vstat.(j) = At_lower && alpha < -.eps_pivot)
                || (core.vstat.(j) = At_upper && alpha > eps_pivot)
              else
                (core.vstat.(j) = At_lower && alpha > eps_pivot)
                || (core.vstat.(j) = At_upper && alpha < -.eps_pivot)
            in
            if eligible then begin
              let ratio = abs_float (reduced core c y j) /. abs_float alpha in
              if ratio < !best -. 1e-12 then begin
                best := ratio;
                q := j
              end
            end
          end
        done;
        if !q < 0 then
          (* dual unbounded: certifies the primal has no feasible point *)
          `Infeasible
        else begin
          let q = !q in
          load_col core q w;
          ftran core w;
          if abs_float w.(r) < eps_pivot then `Breakdown
          else begin
            incr iters;
            Atomic.incr Stats.dual_pivots;
            incr spent;
            (* theta: signed move of the entering variable that drives the
               leaving variable exactly onto its violated bound *)
            let target =
              if below then core.lower.(core.basic.(r))
              else core.upper.(core.basic.(r))
            in
            let theta = (core.xb.(r) -. target) /. w.(r) in
            let enter_value = nonbasic_value core q +. theta in
            for i = 0 to core.m - 1 do
              if i <> r then core.xb.(i) <- core.xb.(i) -. (w.(i) *. theta)
            done;
            let old = core.basic.(r) in
            core.vstat.(old) <- (if below then At_lower else At_upper);
            core.basic.(r) <- q;
            core.vstat.(q) <- Basic;
            core.xb.(r) <- enter_value;
            push_eta core (eta_of w r);
            maybe_refactor core;
            loop ()
          end
        end
      end
    end
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* solution extraction *)

let values_of core n_structural =
  let x = Array.make n_structural 0. in
  for j = 0 to n_structural - 1 do
    if core.vstat.(j) <> Basic then x.(j) <- nonbasic_value core j
  done;
  for i = 0 to core.m - 1 do
    if core.basic.(i) < n_structural then x.(core.basic.(i)) <- core.xb.(i)
  done;
  x

let extract core ~n_structural ~c outcome =
  let values = values_of core n_structural in
  let objective = ref 0. in
  for j = 0 to n_structural - 1 do
    objective := !objective +. (c.(j) *. values.(j))
  done;
  match outcome with
  | `Optimal -> Optimal { objective = !objective; values }
  | `Iter_limit ->
    (* primal feasibility is maintained, so even a truncated run yields a
       usable (suboptimal) point *)
    Feasible { objective = !objective; values }

let snapshot core ~n_structural =
  (* storable only when no artificial occupies the basis *)
  if Array.exists (fun j -> j >= n_structural) core.basic then None
  else
    Some
      { basic = Array.copy core.basic; vstat = Array.sub core.vstat 0 n_structural }

(* ------------------------------------------------------------------ *)
(* cold path: two-phase primal from an artificial basis *)

let phase1_objective core ~n_structural =
  let total = ref 0. in
  for i = 0 to core.m - 1 do
    if core.basic.(i) >= n_structural then total := !total +. core.xb.(i)
  done;
  for j = n_structural to core.n - 1 do
    if core.vstat.(j) <> Basic then total := !total +. nonbasic_value core j
  done;
  !total

(* After phase 1, pivot any artificial still in the basis out (its value
   is ~0) via a zero-length pivot on the first usable nonbasic structural
   column of its tableau row; an artificial whose row has no usable pivot
   marks a redundant row and stays basic at zero, frozen in phase 2. *)
let expel_artificials core ~n_structural =
  let rho = core.ws.rho in
  let w = core.ws.w in
  let stuck = Array.make (core.n - n_structural) false in
  let find_artificial_row () =
    let found = ref (-1) in
    (try
       for i = 0 to core.m - 1 do
         let bvar = core.basic.(i) in
         if bvar >= n_structural && not stuck.(bvar - n_structural) then begin
           found := i;
           raise Exit
         end
       done
     with Exit -> ());
    !found
  in
  let rec go () =
    let i = find_artificial_row () in
    if i >= 0 then begin
      Array.fill rho 0 core.m 0.;
      rho.(i) <- 1.;
      btran core rho;
      let enter = ref (-1) in
      let j = ref 0 in
      while !enter < 0 && !j < n_structural do
        if core.vstat.(!j) <> Basic && abs_float (row_dot core rho !j) > 1e-6 then
          enter := !j;
        incr j
      done;
      (if !enter < 0 then stuck.(core.basic.(i) - n_structural) <- true
       else begin
         let q = !enter in
         load_col core q w;
         ftran core w;
         (* the artificial being expelled is at ~0, so the step is zero and
            the entering variable keeps its current bound value *)
         let enter_value = nonbasic_value core q in
         let old = core.basic.(i) in
         core.vstat.(old) <- At_lower;
         core.basic.(i) <- q;
         core.vstat.(q) <- Basic;
         core.xb.(i) <- enter_value;
         push_eta core (eta_of w i);
         maybe_refactor core
       end);
      go ()
    end
  in
  go ()

let solve_cold ws ~max_iters ~budget (problem : problem) ~lower ~upper ~c ~spent_p =
  let m = problem.m in
  let n_structural = problem.n in
  let n = n_structural + m in
  Atomic.incr Stats.phase1_solves;
  (* residual of each row with structural variables at their lower bounds
     fixes each artificial's sign so the all-artificial basis is feasible *)
  let residual = Array.copy problem.b in
  for j = 0 to n_structural - 1 do
    if lower.(j) <> 0. then begin
      let cj = problem.cols.(j) in
      for p = 0 to Array.length cj.idx - 1 do
        residual.(cj.idx.(p)) <- residual.(cj.idx.(p)) -. (cj.v.(p) *. lower.(j))
      done
    end
  done;
  let cols =
    Array.init n (fun j ->
        if j < n_structural then problem.cols.(j)
        else begin
          let i = j - n_structural in
          { idx = [| i |]; v = [| (if residual.(i) < 0. then -1. else 1.) |] }
        end)
  in
  ensure_rows ws m;
  for i = 0 to m - 1 do
    ws.basic_w.(i) <- n_structural + i
  done;
  let core =
    {
      m;
      n;
      cols;
      b = problem.b;
      lower = Array.append lower (Array.make m 0.);
      upper = Array.append upper (Array.make m infinity);
      basic = ws.basic_w;
      vstat = Array.init n (fun j -> if j < n_structural then At_lower else Basic);
      xb = ws.xb;
      etas = ws.etas_w;
      n_etas = 0;
      fresh = 0;
      ws;
    }
  in
  if not (factorize_core core) then
    raise (Singular "Simplex: singular artificial basis (impossible)");
  compute_xb core;
  (* Phase 1: minimise the sum of artificials. *)
  let phase1_cost = Array.init n (fun j -> if j >= n_structural then 1. else 0.) in
  match
    primal_opt core ~c:phase1_cost ~max_iters ~budget ~frozen:(fun _ -> false)
      ~spent:spent_p
  with
  | `Unbounded -> failwith "Simplex: phase 1 unbounded (impossible)"
  | `Iter_limit ->
    (* no feasible point reached yet: nothing salvageable *)
    (Iter_limit, None)
  | `Optimal ->
    if phase1_objective core ~n_structural > 1e-6 then (Infeasible, None)
    else begin
      expel_artificials core ~n_structural;
      (* Phase 2: real objective; artificial columns are frozen out. *)
      let phase2_cost =
        Array.init n (fun j -> if j < n_structural then c.(j) else 0.)
      in
      let frozen j = j >= n_structural in
      match primal_opt core ~c:phase2_cost ~max_iters ~budget ~frozen ~spent:spent_p with
      | `Unbounded -> (Unbounded, None)
      | (`Optimal | `Iter_limit) as outcome ->
        let result = extract core ~n_structural ~c outcome in
        let basis =
          match result with
          | Optimal _ -> snapshot core ~n_structural
          | _ -> None
        in
        (result, basis)
    end

(* ------------------------------------------------------------------ *)
(* warm path: dual re-optimisation from a supplied basis *)

let basis_shape_ok ~m ~n (wb : basis) =
  Array.length wb.basic = m
  && Array.length wb.vstat = n
  && Array.for_all (fun j -> j >= 0 && j < n && wb.vstat.(j) = Basic) wb.basic
  && begin
       let n_basic = ref 0 in
       Array.iter (fun s -> if s = Basic then incr n_basic) wb.vstat;
       !n_basic = m
     end

let same_ints (a : int array) (b : int array) =
  Array.length a = Array.length b
  && begin
       let i = ref 0 in
       while !i < Array.length a && a.(!i) = b.(!i) do
         incr i
       done;
       !i = Array.length a
     end

(* The fresh factorisation of the warm basis [basic] of [problem].  The
   two children of a branched node bring the same parent basis, one after
   the other, so the domain keeps its last one: keyed by the problem
   (physically: the compiled model, hence its row count) and the basic
   set, it is computed once and shared read-only. *)
let warm_factor ws (problem : problem) basic =
  match ws.last_problem with
  | Some p when p == problem && same_ints ws.last_basic basic -> ws.last_factor
  | _ ->
    let f = factor ws problem.cols basic in
    if Array.length ws.last_basic = Array.length basic then
      Array.blit basic 0 ws.last_basic 0 (Array.length basic)
    else ws.last_basic <- Array.copy basic;
    ws.last_problem <- Some problem;
    ws.last_factor <- f;
    f

(* Returns [Some (result, basis)] when the warm basis carried the solve to
   completion, [None] to request the cold fallback.  Never raises. *)
let solve_warm ws ~max_iters ~budget (problem : problem) ~lower ~upper ~c (wb : basis)
    ~spent_p ~spent_d =
  let m = problem.m in
  let n = problem.n in
  if not (basis_shape_ok ~m ~n wb) then None
  else
    match warm_factor ws problem wb.basic with
    | None -> None
    | Some f -> (
      ensure_rows ws m;
      if Array.length ws.vstat_w <> n then ws.vstat_w <- Array.make n Basic;
      Array.blit wb.vstat 0 ws.vstat_w 0 n;
      let core =
        {
          m;
          n;
          cols = problem.cols;
          b = problem.b;
          lower;
          upper;
          basic = ws.basic_w;
          vstat = ws.vstat_w;
          xb = ws.xb;
          etas = ws.etas_w;
          n_etas = 0;
          fresh = 0;
          ws;
        }
      in
      load_factor core f;
      match
        (* normalise statuses stranded by bound changes, then repair dual
           feasibility: a wrong-sign reduced cost on a boxed column is fixed
           by flipping it to its other bound (primal feasibility is the dual
           simplex's job); on an unboxed column it is unrepairable *)
        begin
        for j = 0 to n - 1 do
          if core.vstat.(j) = At_upper && core.upper.(j) = infinity then
            core.vstat.(j) <- At_lower
        done;
        let y = ws.y in
        compute_y core c y;
        let repairable = ref true in
        for j = 0 to n - 1 do
          if core.vstat.(j) <> Basic && core.upper.(j) -. core.lower.(j) >= eps_feas
          then begin
            let d = reduced core c y j in
            match core.vstat.(j) with
            | At_lower when d < -.eps_cost ->
              if core.upper.(j) < infinity then core.vstat.(j) <- At_upper
              else repairable := false
            | At_upper when d > eps_cost -> core.vstat.(j) <- At_lower
            | _ -> ()
          end
        done;
        if not !repairable then None
        else begin
          compute_xb core;
          match dual_opt core ~c ~max_iters ~budget ~spent:spent_d with
          | `Breakdown -> None
          | `Iter_limit ->
            (* a dual stall under budget pressure is a legitimate resource
               outcome (no primal-feasible point in hand); without pressure
               it asks for the cold fallback *)
            if Mf_util.Budget.over budget then Some (Iter_limit, None) else None
          | `Infeasible -> Some (Infeasible, None)
          | `Feasible -> (
            (* primal cleanup: confirms optimality, absorbs numerical drift;
               normally terminates with zero pivots *)
            match
              primal_opt core ~c ~max_iters ~budget ~frozen:(fun _ -> false)
                ~spent:spent_p
            with
            | `Unbounded -> Some (Unbounded, None)
            | (`Optimal | `Iter_limit) as outcome ->
              let result = extract core ~n_structural:n ~c outcome in
              let basis =
                match result with
                | Optimal _ -> snapshot core ~n_structural:n
                | _ -> None
              in
              Some (result, basis))
        end
        end
      with
      | outcome -> outcome
      | exception Singular _ -> None)

(* ------------------------------------------------------------------ *)
(* entry point *)

let solve ?max_iters ?budget ?warm (problem : problem) ~lower ~upper ~c =
  let m = problem.m in
  let n = problem.n in
  if Array.length problem.cols <> n || Array.length problem.b <> m then
    invalid_arg "Simplex.solve: malformed problem";
  if Array.length lower <> n || Array.length upper <> n || Array.length c <> n then
    invalid_arg "Simplex.solve: dimension mismatch";
  for j = 0 to n - 1 do
    if not (Float.is_finite lower.(j)) then
      invalid_arg "Simplex.solve: infinite lower bound";
    if upper.(j) < lower.(j) -. 1e-12 then invalid_arg "Simplex.solve: crossed bounds";
    let cj = problem.cols.(j) in
    if Array.length cj.idx <> Array.length cj.v then
      invalid_arg "Simplex.solve: ragged column";
    for p = 0 to Array.length cj.idx - 1 do
      if cj.idx.(p) < 0 || cj.idx.(p) >= m then invalid_arg "Simplex.solve: row out of range"
    done
  done;
  let max_iters =
    match max_iters with Some k -> k | None -> max 20_000 (200 * ((2 * m) + n))
  in
  (* Fault injection: starve the pivot budget so callers exercise their
     [Iter_limit] handling on real problems, not just mocks. *)
  let max_iters = if Mf_util.Chaos.strike Simplex_iters then min max_iters 3 else max_iters in
  let spent_p = ref 0 in
  let spent_d = ref 0 in
  with_work @@ fun ws ->
  let run_cold ~fell_back =
    match solve_cold ws ~max_iters ~budget problem ~lower ~upper ~c ~spent_p with
    | result, basis ->
      ( result,
        basis,
        { primal_pivots = !spent_p; dual_pivots = !spent_d; warm = false; fell_back } )
    | exception Singular msg -> raise (Failure msg)
  in
  match warm with
  | None -> run_cold ~fell_back:false
  | Some wb -> (
    match solve_warm ws ~max_iters ~budget problem ~lower ~upper ~c wb ~spent_p ~spent_d with
    | Some (result, basis) ->
      ( result,
        basis,
        {
          primal_pivots = !spent_p;
          dual_pivots = !spent_d;
          warm = true;
          fell_back = false;
        } )
    | None -> run_cold ~fell_back:true)
