(* Sparse revised bounded-variable simplex with a product-form (eta-file)
   basis inverse.  See simplex.mli for the contract; the notes here cover
   the representation.

   The basis inverse is held as B^-1 = E_k · … · E_1, each eta the
   elementary column transform of one pivot (or one factorisation step),
   all of them in one flat eta file.  FTRAN applies etas in creation order
   to compute B^-1 v; BTRAN applies them transposed in reverse order to
   compute v B^-1.  Every [refactor_interval] fresh etas the file is
   rebuilt from the current basis by deterministic Gaussian elimination,
   bounding both drift and the O(#etas) cost of each FTRAN/BTRAN.  The
   refactorisation is hypersparse (it touches only each column's
   nonzeros), its scratch and every row- and column-length array of a
   solve come from a per-domain workspace, and a warm start reuses the
   factorisation its sibling node computed for the same parent basis.
   Pricing (v·A_j for a row vector v) runs row-wise over a row-major copy
   of the matrix, visiting only the nonzero rows of v.

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

(* The matrix row-major: row [i]'s entries sit at positions
   [r_start.(i) .. r_start.(i+1) - 1] of [r_col]/[r_val], columns
   ascending. *)
type rows = { r_start : int array; r_col : int array; r_val : float array }

type model = {
  problem : problem;
  rows : rows;
  order : int array; (* every column, by (nnz, index) *)
  n_values : int;
}

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

(* An eta file, flat: eta [k] pivots on row [e_row.(k)] and holds the
   entries [e_start.(k) .. e_start.(k+1) - 1] of [e_idx]/[e_val], in row
   order.  Etas are appended in place, so building one allocates nothing
   once the arrays have grown to the file's size. *)
type efile = {
  mutable e_row : int array;
  mutable e_start : int array; (* one longer than [e_row]; [e_start.(0) = 0] *)
  mutable e_idx : int array;
  mutable e_val : float array;
  mutable e_n : int; (* etas in the file *)
}

let new_efile () = { e_row = [||]; e_start = [| 0 |]; e_idx = [||]; e_val = [||]; e_n = 0 }

(* [dst.(0 .. n-1)] <- [src.(0 .. n-1)]: a plain loop stores an immediate
   without the write barrier [Array.blit] pays on a major-heap array *)
let copy_ints (src : int array) (dst : int array) n =
  for k = 0 to n - 1 do
    dst.(k) <- src.(k)
  done

(* Room for one more eta of at most [nnz] entries. *)
let reserve f nnz =
  let n = f.e_n in
  if n >= Array.length f.e_row then begin
    let cap = max 64 (2 * n) in
    let row = Array.make cap 0 and start = Array.make (cap + 1) 0 in
    copy_ints f.e_row row n;
    copy_ints f.e_start start (n + 1);
    f.e_row <- row;
    f.e_start <- start
  end;
  let used = f.e_start.(n) in
  if used + nnz > Array.length f.e_idx then begin
    let cap = max 256 (max (used + nnz) (2 * Array.length f.e_idx)) in
    let idx = Array.make cap 0 in
    copy_ints f.e_idx idx used;
    let value = Array.make cap 0. in
    Array.blit f.e_val 0 value 0 used;
    f.e_idx <- idx;
    f.e_val <- value
  end

(* Close the eta on row [r] whose entries end before position [p]. *)
let close_eta f r p =
  f.e_row.(f.e_n) <- r;
  f.e_start.(f.e_n + 1) <- p;
  f.e_n <- f.e_n + 1

(* Per-domain scratch.  Every solve and every factorisation on a domain
   draws its row-length and column-length arrays from here, so a warm
   branch-and-bound node allocates none of them.  The row arrays are sized
   exactly [wm] and reallocated together when the row count changes; the
   column arrays grow to the widest core seen.  Between factorisations
   [fw] is all zero, [inpat] all false and [row_eta] all -1; between
   pricing passes [alpha] is all +0 and [hit] all false.  [last_*] hold
   the last fresh factorisation of a warm basis: the two children of a
   branched node start from the same parent basis, and the second one
   finds the first one's factorisation here.  A warm solve runs on
   [last_file] itself, appending its pivots' etas after the first
   [last_n], which the next solve on it truncates; a refactorisation
   during a solve goes to [file]. *)
type work = {
  mutable wm : int;
  mutable xb : float array;
  mutable y : float array;
  mutable rho : float array;
  mutable w : float array;
  mutable r : float array;
  mutable basic_w : int array;
  mutable vstat_w : status array;
  file : efile;
  mutable order : int array; (* column-length: a refactorisation's column order *)
  mutable fw : float array; (* the column being factorised *)
  mutable inpat : bool array; (* row is in the column's nonzero pattern *)
  mutable pat : int array; (* the pattern's rows, first [np] valid *)
  mutable row_eta : int array; (* eta pivoting on each row, or -1 *)
  mutable np : int;
  mutable heap : int array; (* eta indices still to apply, a min-heap *)
  mutable hn : int;
  mutable f_basic_w : int array; (* a refactorisation's row assignment *)
  mutable alpha : float array; (* v·A_j of the last pricing pass *)
  mutable hit : bool array; (* column has an entry in a nonzero row of v *)
  mutable touched : int array; (* those columns, first [nt] valid *)
  mutable nt : int;
  mutable x : float array; (* every column's value, at extraction *)
  mutable last_model : model option;
  mutable last_basic : int array;
  mutable last_ok : bool; (* the basis was factorisable *)
  last_file : efile;
  mutable last_n : int;
  mutable last_rows : int array; (* its row assignment *)
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
    file = new_efile ();
    order = [||];
    fw = [||];
    inpat = [||];
    pat = [||];
    row_eta = [||];
    np = 0;
    heap = [||];
    hn = 0;
    f_basic_w = [||];
    alpha = [||];
    hit = [||];
    touched = [||];
    nt = 0;
    x = [||];
    last_model = None;
    last_basic = [||];
    last_ok = false;
    last_file = new_efile ();
    last_n = 0;
    last_rows = [||];
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

    ws.fw <- Array.make m 0.;
    ws.inpat <- Array.make m false;
    ws.pat <- Array.make m 0;
    ws.row_eta <- Array.make m (-1);
    ws.heap <- Array.make m 0;
    ws.f_basic_w <- Array.make m 0;
    ws.last_rows <- Array.make m 0;
    (* the kept factorisation's row assignment went with the old arrays *)
    ws.last_model <- None
  end

let ensure_cols ws n =
  if Array.length ws.alpha < n then begin
    ws.alpha <- Array.make n 0.;
    ws.hit <- Array.make n false;
    ws.touched <- Array.make n 0;
    ws.order <- Array.make n 0;
    ws.x <- Array.make n 0.
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
  rows : rows; (* [cols] row-major *)
  order : int array; (* [cols] by (nnz, index) *)
  b : float array;
  lower : float array;
  upper : float array;
  basic : int array; (* row -> column *)
  vstat : status array; (* column -> status *)
  xb : float array; (* basic values, by row *)
  mutable file : efile; (* the workspace's [file] or [last_file] *)
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

(* Entry of row [i] in the eta absorbing pivot row [r] of the FTRANned
   column [w] — eta_r = 1/w_r, eta_i = -w_i/w_r, none where w_i = 0 —
   written at position [p] of [f]; returns the next free position. *)
let put_entry f w r p i =
  if i = r then begin
    f.e_idx.(p) <- r;
    f.e_val.(p) <- 1. /. w.(r);
    p + 1
  end
  else if w.(i) <> 0. then begin
    f.e_idx.(p) <- i;
    f.e_val.(p) <- -.w.(i) /. w.(r);
    p + 1
  end
  else p

(* Append the eta absorbing pivot row [r] of the FTRANned column [w],
   entries in row order. *)
let push_eta core (w : float array) r =
  let f = core.file in
  reserve f core.m;
  let p = ref f.e_start.(f.e_n) in
  for i = 0 to r - 1 do
    if w.(i) <> 0. then p := put_entry f w r !p i
  done;
  p := put_entry f w r !p r;
  for i = r + 1 to core.m - 1 do
    if w.(i) <> 0. then p := put_entry f w r !p i
  done;
  close_eta f r !p;
  core.fresh <- core.fresh + 1

(* The eta sweeps below skip bounds checks.  Every row an eta of the
   core's file names is below the core's row count: the file factorises a
   basis of these rows, from validated columns, and its pivot etas come
   from row-length vectors.  The offsets of its first [e_n] etas lie
   within its arrays, and [check_rows] checks that the swept vector spans
   the rows. *)
let check_rows core v =
  if Array.length v < core.m then invalid_arg "Simplex: vector shorter than the basis"

(* v <- B^-1 v *)
let ftran core v =
  check_rows core v;
  let { e_row; e_start; e_idx; e_val; e_n } = core.file in
  for k = 0 to e_n - 1 do
    let r = Array.unsafe_get e_row k in
    let t = Array.unsafe_get v r in
    if t <> 0. then begin
      Array.unsafe_set v r 0.;
      for p = Array.unsafe_get e_start k to Array.unsafe_get e_start (k + 1) - 1 do
        let i = Array.unsafe_get e_idx p in
        Array.unsafe_set v i (Array.unsafe_get v i +. (Array.unsafe_get e_val p *. t))
      done
    end
  done

(* y <- y B^-1 (row vector) *)
let btran core y =
  check_rows core y;
  let { e_row; e_start; e_idx; e_val; e_n } = core.file in
  for k = e_n - 1 downto 0 do
    let acc = ref 0. in
    for p = Array.unsafe_get e_start k to Array.unsafe_get e_start (k + 1) - 1 do
      acc := !acc +. (Array.unsafe_get e_val p *. Array.unsafe_get y (Array.unsafe_get e_idx p))
    done;
    Array.unsafe_set y (Array.unsafe_get e_row k) !acc
  done

(* rho <- rho B^-1 and y <- y B^-1 in one sweep of the eta file; each
   vector gets exactly the operations [btran] gives it *)
let btran2 core rho y =
  check_rows core rho;
  check_rows core y;
  let { e_row; e_start; e_idx; e_val; e_n } = core.file in
  for k = e_n - 1 downto 0 do
    let acc_r = ref 0. and acc_y = ref 0. in
    for p = Array.unsafe_get e_start k to Array.unsafe_get e_start (k + 1) - 1 do
      let i = Array.unsafe_get e_idx p and a = Array.unsafe_get e_val p in
      acc_r := !acc_r +. (a *. Array.unsafe_get rho i);
      acc_y := !acc_y +. (a *. Array.unsafe_get y i)
    done;
    let r = Array.unsafe_get e_row k in
    Array.unsafe_set rho r !acc_r;
    Array.unsafe_set y r !acc_y
  done

let load_col core j w =
  Array.fill w 0 core.m 0.;
  let c = core.cols.(j) in
  for p = 0 to Array.length c.idx - 1 do
    w.(c.idx.(p)) <- c.v.(p)
  done

(* rho · A_j for a dense row vector rho: one column's price *)
let row_dot core rho j =
  let c = core.cols.(j) in
  let acc = ref 0. in
  for p = 0 to Array.length c.idx - 1 do
    acc := !acc +. (rho.(c.idx.(p)) *. c.v.(p))
  done;
  !acc

(* [cols] row-major, each row's columns ascending *)
let transpose m (cols : col array) =
  let r_start = Array.make (m + 1) 0 in
  Array.iter (fun c -> Array.iter (fun i -> r_start.(i + 1) <- r_start.(i + 1) + 1) c.idx) cols;
  for i = 0 to m - 1 do
    r_start.(i + 1) <- r_start.(i + 1) + r_start.(i)
  done;
  let r_col = Array.make r_start.(m) 0 and r_val = Array.make r_start.(m) 0. in
  let fill = Array.sub r_start 0 m in
  Array.iteri
    (fun j c ->
      for p = 0 to Array.length c.idx - 1 do
        let i = c.idx.(p) in
        r_col.(fill.(i)) <- j;
        r_val.(fill.(i)) <- c.v.(p);
        fill.(i) <- fill.(i) + 1
      done)
    cols;
  { r_start; r_col; r_val }

(* Every column index of [cols], by (nnz, index): counted by nnz, placed
   in index order. *)
let col_order (cols : col array) =
  let top = Array.fold_left (fun d c -> max d (Array.length c.idx)) 0 cols in
  let start = Array.make (top + 2) 0 in
  Array.iter (fun c -> start.(Array.length c.idx + 1) <- start.(Array.length c.idx + 1) + 1) cols;
  for d = 1 to top + 1 do
    start.(d) <- start.(d) + start.(d - 1)
  done;
  let order = Array.make (Array.length cols) 0 in
  Array.iteri
    (fun j c ->
      let d = Array.length c.idx in
      order.(start.(d)) <- j;
      start.(d) <- start.(d) + 1)
    cols;
  order

(* Pricing: alpha_j <- v·A_j for every column with an entry in a nonzero
   row of [v], summed row by row in ascending row order.  Those columns
   are listed in [touched.(0 .. nt-1)] in first-touch order; every other
   alpha_j is +0.  Bit for bit this is [row_dot]: a column receives the
   same products in the same (ascending-row) order, and a skipped row
   contributes a product ±0 to a sum that, started at +0, is never -0, so
   adding it would change nothing (matrix entries are finite).  Callers
   read [alpha], then [unprice]. *)
let price_rows ws { r_start; r_col; r_val } m v =
  let alpha = ws.alpha and hit = ws.hit and touched = ws.touched in
  let nt = ref 0 in
  for i = 0 to m - 1 do
    let vi = v.(i) in
    if vi <> 0. then
      for p = r_start.(i) to r_start.(i + 1) - 1 do
        let j = r_col.(p) in
        if not hit.(j) then begin
          hit.(j) <- true;
          touched.(!nt) <- j;
          incr nt
        end;
        alpha.(j) <- alpha.(j) +. (vi *. r_val.(p))
      done
  done;
  ws.nt <- !nt

let price core v = price_rows core.ws core.rows core.m v

let unprice ws =
  for k = 0 to ws.nt - 1 do
    let j = ws.touched.(k) in
    ws.alpha.(j) <- 0.;
    ws.hit.(j) <- false
  done;
  ws.nt <- 0

(* Put the touched columns of an [n]-column pricing pass in ascending
   order: insertion-sort a short list, read a long one off the marks. *)
let sort_touched ws n =
  let t = ws.touched and nt = ws.nt in
  if nt * nt <= 4 * n then
    for q = 1 to nt - 1 do
      let j = t.(q) in
      let s = ref (q - 1) in
      while !s >= 0 && t.(!s) > j do
        t.(!s + 1) <- t.(!s);
        decr s
      done;
      t.(!s + 1) <- j
    done
  else begin
    let k = ref 0 in
    for j = 0 to n - 1 do
      if ws.hit.(j) then begin
        t.(!k) <- j;
        incr k
      end
    done
  end

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

(* Append to [f] the eta pivoting on row [r] of the factorised column
   [ws.fw], entries in row order: a short pattern (np² <= 4m) is
   insertion-sorted, a long one read off by scanning the rows. *)
let pattern_eta ws f m r =
  let fw = ws.fw and pat = ws.pat and np = ws.np in
  reserve f np;
  let p = ref f.e_start.(f.e_n) in
  if np * np <= 4 * m then begin
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
      p := put_entry f fw r !p pat.(q)
    done
  end
  else
    for i = 0 to m - 1 do
      if ws.inpat.(i) then p := put_entry f fw r !p i
    done;
  close_eta f r !p

(* Factorise column [c]: FTRAN it through the etas of [f] so far, pick
   its pivot row and append its eta.  Returns the pivot row, or -1 when
   the column has no acceptable pivot.  Hypersparse: only the column's
   nonzero pattern is touched.  An eta is applied when the column is
   nonzero in its pivot row, in increasing eta order (a min-heap of
   pending eta indices, fed as rows enter the pattern). *)
let pattern_column ws f m c =
  let fw = ws.fw and pat = ws.pat and row_eta = ws.row_eta in
  ws.np <- 0;
  ws.hn <- 0;
  for p = 0 to Array.length c.idx - 1 do
    let i = c.idx.(p) in
    fw.(i) <- c.v.(p);
    enter_pattern ws i ~after:(-1)
  done;
  while ws.hn > 0 do
    let e = heap_pop ws in
    let er = f.e_row.(e) in
    let t = fw.(er) in
    if t <> 0. then begin
      fw.(er) <- 0.;
      for p = f.e_start.(e) to f.e_start.(e + 1) - 1 do
        let i = f.e_idx.(p) in
        fw.(i) <- fw.(i) +. (f.e_val.(p) *. t);
        enter_pattern ws i ~after:e
      done
    end
  done;
  let r = ref (-1) in
  let best = ref 0. in
  for q = 0 to ws.np - 1 do
    let i = pat.(q) in
    if row_eta.(i) < 0 then begin
      let a = abs_float fw.(i) in
      if a > !best || (a = !best && a > 0. && i < !r) then begin
        best := a;
        r := i
      end
    end
  done;
  let r = if !best <= eps_singular then -1 else !r in
  if r >= 0 then pattern_eta ws f m r;
  for q = 0 to ws.np - 1 do
    let i = pat.(q) in
    fw.(i) <- 0.;
    ws.inpat.(i) <- false
  done;
  r

(* Fresh factorisation of the basis [basic] (row count = its length) of
   the columns [cols], written to the eta file [f] (emptied first) and the
   row assignment [f_basic] ([f_basic.(i)] is the column pivoting on row
   [i]).  Columns enter in (nnz, index) order; each is FTRANned through
   the etas built so far and pivots on its largest-magnitude entry among
   still-unpivoted rows, ties to the smallest row.  Each floating-point
   operation is the one a dense sweep over every eta and every row
   performs, in the same order, so the etas are bit-identical to it.
   False when the basis is numerically singular. *)
let factor ws cols all basic f f_basic =
  Atomic.incr Stats.refactors;
  Mf_util.Prof.time "lp.factorize" @@ fun () ->
  let m = Array.length basic in
  ensure_rows ws m;
  (* the basic columns in (nnz, index) order: the basic ones of [all],
     which lists every column in that order, picked without a branch.
     The pricing marks [hit] mark them: no pricing pass is open during a
     factorisation. *)
  let nc = Array.length cols in
  ensure_cols ws nc;
  let order = ws.order and inb = ws.hit in
  for i = 0 to m - 1 do
    inb.(basic.(i)) <- true
  done;
  let k = ref 0 in
  for q = 0 to nc - 1 do
    let j = all.(q) in
    order.(!k) <- j;
    k := !k + Bool.to_int inb.(j)
  done;
  for i = 0 to m - 1 do
    inb.(basic.(i)) <- false
  done;
  let row_eta = ws.row_eta in
  f.e_n <- 0;
  (* a repeated basic column leaves a row without one: singular *)
  let ok = ref (!k = m) in
  let k = ref 0 in
  while !ok && !k < m do
    let j = order.(!k) in
    let r = pattern_column ws f m cols.(j) in
    if r < 0 then ok := false
    else begin
      row_eta.(r) <- !k;
      f_basic.(r) <- j;
      incr k
    end
  done;
  Array.fill row_eta 0 m (-1);
  Mf_util.Prof.add_count "lp.factorize" f.e_start.(f.e_n);
  !ok

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
      Array.iteri
        (fun q i ->
          if i < 0 || i >= p.m then invalid_arg "Simplex.factorize: row out of range";
          if q > 0 && c.idx.(q - 1) >= i then
            invalid_arg "Simplex.factorize: rows not increasing")
        c.idx)
    basic;
  let f = new_efile () and f_basic = Array.make p.m (-1) in
  if not (with_work (fun ws -> factor ws p.cols (col_order p.cols) basic f f_basic)) then None
  else
    let eta k =
      let lo = f.e_start.(k) and hi = f.e_start.(k + 1) in
      { er = f.e_row.(k); ei = Array.sub f.e_idx lo (hi - lo); ev = Array.sub f.e_val lo (hi - lo) }
    in
    Some { f_basic; f_etas = Array.init f.e_n eta }

(* Rebuild the eta file from the current basis.  Returns false when the
   basis is numerically singular.  Row assignment may permute, so callers
   must recompute [xb] afterwards. *)
let factorize_core core =
  let ws = core.ws in
  (* never over the kept warm factorisation: a sibling may still need it *)
  core.file <- ws.file;
  factor ws core.cols core.order core.basic core.file ws.f_basic_w
  && begin
       copy_ints ws.f_basic_w core.basic core.m;
       (* the factorisation's own etas are the baseline, not drift *)
       core.fresh <- 0;
       true
     end

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

(* Entering column choice against current duals [y], priced row-wise.  A
   nonbasic variable improves the objective when it is at its lower bound
   with negative reduced cost (increase it) or at its upper bound with
   positive reduced cost (decrease it).  [bland] forces smallest-index
   selection for anti-cycling. *)
let choose_entering core ~c ~y ~bland ~frozen =
  price core y;
  let alpha = core.ws.alpha in
  let best = ref (-1) in
  let best_score = ref eps_cost in
  let j = ref 0 in
  while !j < core.n do
    let jj = !j in
    incr j;
    if (not (frozen jj)) && core.vstat.(jj) <> Basic then begin
      let improving =
        match core.vstat.(jj) with
        | Basic -> 0.
        | At_lower -> -.(c.(jj) -. alpha.(jj))
        | At_upper ->
          (* a variable with equal bounds cannot move *)
          if core.upper.(jj) -. core.lower.(jj) < eps_feas then 0. else c.(jj) -. alpha.(jj)
      in
      if improving > eps_cost then begin
        if bland then begin
          best := jj;
          j := core.n
        end
        else if improving > !best_score then begin
          best_score := improving;
          best := jj
        end
      end
    end
  done;
  unprice core.ws;
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
      push_eta core w r;
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
   fallback behind it.  On entry [ws.y] holds the duals c_B B^-1 of the
   starting basis, so the first iteration's BTRAN computes only rho. *)
let dual_opt core ~c ~max_iters ~budget ~spent =
  let ws = core.ws in
  let y = ws.y and rho = ws.rho and w = ws.w in
  let iters = ref 0 in
  let rec loop () =
    if !iters > max_iters then `Iter_limit
    else if !iters land 127 = 0 && Mf_util.Budget.over budget then `Iter_limit
    else begin
      let r = ref (-1) in
      let viol = ref eps_feas in
      let below = ref false in
      let { basic; lower; upper; xb; _ } = core in
      for i = 0 to core.m - 1 do
        let bvar = basic.(i) in
        let v_lo = lower.(bvar) -. xb.(i) in
        let v_up = xb.(i) -. upper.(bvar) in
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
        (* before the first pivot, [y] is the caller's duals of this basis *)
        if !iters = 0 then btran core rho
        else begin
          for i = 0 to core.m - 1 do
            y.(i) <- c.(core.basic.(i))
          done;
          btran2 core rho y
        end;
        (* ratio test over the columns rho touches, in ascending order: an
           untouched column has alpha = +0 and is never eligible *)
        price core rho;
        sort_touched ws core.n;
        let q = ref (-1) in
        let best = ref infinity in
        for k = 0 to ws.nt - 1 do
          let j = ws.touched.(k) in
          if core.vstat.(j) <> Basic && core.upper.(j) -. core.lower.(j) >= eps_feas
          then begin
            let alpha = ws.alpha.(j) in
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
        unprice ws;
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
            let xb = core.xb in
            for i = 0 to core.m - 1 do
              if i <> r then xb.(i) <- xb.(i) -. (w.(i) *. theta)
            done;
            let old = core.basic.(r) in
            core.vstat.(old) <- (if below then At_lower else At_upper);
            core.basic.(r) <- q;
            core.vstat.(q) <- Basic;
            core.xb.(r) <- enter_value;
            push_eta core w r;
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

(* The objective over the first [n_structural] columns, summed in column
   order over every one of them; only the first [n_values] values are
   copied out, once, into the result. *)
let extract core ~n_structural ~n_values ~c outcome =
  let x = core.ws.x in
  for j = 0 to n_structural - 1 do
    match core.vstat.(j) with
    | At_lower -> x.(j) <- core.lower.(j)
    | At_upper -> x.(j) <- core.upper.(j)
    | Basic -> ()
  done;
  for i = 0 to core.m - 1 do
    if core.basic.(i) < n_structural then x.(core.basic.(i)) <- core.xb.(i)
  done;
  let objective = ref 0. in
  for j = 0 to n_structural - 1 do
    objective := !objective +. (c.(j) *. x.(j))
  done;
  let values = Array.sub x 0 n_values in
  match outcome with
  | `Optimal -> Optimal { objective = !objective; values }
  | `Iter_limit ->
    (* primal feasibility is maintained, so even a truncated run yields a
       usable (suboptimal) point *)
    Feasible { objective = !objective; values }

(* Storable only when no artificial occupies the basis.  Copied by plain
   loops: the arrays are too long for the minor heap, and a loop over an
   immediate-valued array initialises without a write barrier. *)
let snapshot core ~n_structural =
  let m = core.m in
  let i = ref 0 in
  while !i < m && core.basic.(!i) < n_structural do
    incr i
  done;
  if !i < m then None
  else begin
    let basic = Array.make m 0 and vstat = Array.make n_structural Basic in
    for i = 0 to m - 1 do
      basic.(i) <- core.basic.(i)
    done;
    for j = 0 to n_structural - 1 do
      vstat.(j) <- core.vstat.(j)
    done;
    Some { basic; vstat }
  end

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
      (* the first usable column; an untouched one has alpha = +0 *)
      price core rho;
      let ws = core.ws in
      let enter = ref (-1) in
      for k = 0 to ws.nt - 1 do
        let j = ws.touched.(k) in
        if j < n_structural && (!enter < 0 || j < !enter) && core.vstat.(j) <> Basic
           && abs_float ws.alpha.(j) > 1e-6
        then enter := j
      done;
      unprice ws;
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
         push_eta core w i;
         maybe_refactor core
       end);
      go ()
    end
  in
  go ()

let solve_cold ws ~max_iters ~budget (md : model) ~lower ~upper ~c ~spent_p =
  let problem = md.problem in
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
  ensure_cols ws n;
  for i = 0 to m - 1 do
    ws.basic_w.(i) <- n_structural + i
  done;
  let core =
    {
      m;
      n;
      cols;
      rows = transpose m cols;
      order = col_order cols;
      b = problem.b;
      lower = Array.append lower (Array.make m 0.);
      upper = Array.append upper (Array.make m infinity);
      basic = ws.basic_w;
      vstat = Array.init n (fun j -> if j < n_structural then At_lower else Basic);
      xb = ws.xb;
      file = ws.file;
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
        let result = extract core ~n_structural ~n_values:md.n_values ~c outcome in
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
  && begin
       let ok = ref true in
       for i = 0 to m - 1 do
         let j = wb.basic.(i) in
         if j < 0 || j >= n || wb.vstat.(j) <> Basic then ok := false
       done;
       (* with [m] Basic statuses, a repeated basic column leaves one of
          them out of [basic]; the factorisation reports it singular *)
       let n_basic = ref 0 in
       for j = 0 to n - 1 do
         if wb.vstat.(j) = Basic then incr n_basic
       done;
       !ok && !n_basic = m
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

(* The fresh factorisation of the warm basis [basic] of [md], kept in
   [ws.last_file] and [ws.last_rows]; false when it is singular.  The two
   children of a branched node bring the same parent basis, one after the
   other, so the domain keeps its last one: keyed by the model
   (physically, hence its row count) and the basic set, it is computed
   once and each child's solve runs on it. *)
let warm_factor ws (md : model) basic =
  ensure_rows ws md.problem.m;
  match ws.last_model with
  | Some p when p == md && same_ints ws.last_basic basic -> ws.last_ok
  | _ ->
    let ok = factor ws md.problem.cols md.order basic ws.last_file ws.last_rows in
    if Array.length ws.last_basic <> Array.length basic then
      ws.last_basic <- Array.make (Array.length basic) 0;
    copy_ints basic ws.last_basic (Array.length basic);
    ws.last_n <- ws.last_file.e_n;
    ws.last_model <- Some md;
    ws.last_ok <- ok;
    ok

(* Returns [Some (result, basis)] when the warm basis carried the solve to
   completion, [None] to request the cold fallback.  Never raises. *)
let solve_warm ws ~max_iters ~budget (md : model) ~lower ~upper ~c (wb : basis) ~spent_p
    ~spent_d =
  let problem = md.problem in
  let m = problem.m in
  let n = problem.n in
  if not (basis_shape_ok ~m ~n wb && warm_factor ws md wb.basic) then None
  else begin
      ensure_cols ws n;
      if Array.length ws.vstat_w <> n then ws.vstat_w <- Array.make n Basic;
      for j = 0 to n - 1 do
        ws.vstat_w.(j) <- wb.vstat.(j)
      done;
      let core =
        {
          m;
          n;
          cols = problem.cols;
          rows = md.rows;
          order = md.order;
          b = problem.b;
          lower;
          upper;
          basic = ws.basic_w;
          vstat = ws.vstat_w;
          xb = ws.xb;
          file = ws.last_file;
          fresh = 0;
          ws;
        }
      in
      (* the solve appends its pivots' etas after the shared factorisation;
         the next one on it drops them *)
      ws.last_file.e_n <- ws.last_n;
      copy_ints ws.last_rows core.basic m;
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
        price core y;
        let repairable = ref true in
        for j = 0 to n - 1 do
          if core.vstat.(j) <> Basic && core.upper.(j) -. core.lower.(j) >= eps_feas
          then begin
            let d = c.(j) -. ws.alpha.(j) in
            match core.vstat.(j) with
            | At_lower when d < -.eps_cost ->
              if core.upper.(j) < infinity then core.vstat.(j) <- At_upper
              else repairable := false
            | At_upper when d > eps_cost -> core.vstat.(j) <- At_lower
            | _ -> ()
          end
        done;
        unprice ws;
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
              let result =
                extract core ~n_structural:n ~n_values:md.n_values ~c outcome
              in
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
      | exception Singular _ -> None
    end

(* ------------------------------------------------------------------ *)
(* entry point *)

(* Structure is checked here, once per model; bounds and costs, which
   change from solve to solve, on every solve. *)
let model ?n_values (p : problem) =
  if Array.length p.cols <> p.n || Array.length p.b <> p.m then
    invalid_arg "Simplex.model: malformed problem";
  Array.iter
    (fun c ->
      if Array.length c.idx <> Array.length c.v then invalid_arg "Simplex.model: ragged column";
      Array.iteri
        (fun q i ->
          if i < 0 || i >= p.m then invalid_arg "Simplex.model: row out of range";
          if q > 0 && c.idx.(q - 1) >= i then invalid_arg "Simplex.model: rows not increasing")
        c.idx)
    p.cols;
  let n_values =
    match n_values with
    | None -> p.n
    | Some k when k >= 0 && k <= p.n -> k
    | Some _ -> invalid_arg "Simplex.model: n_values out of range"
  in
  { problem = p; rows = transpose p.m p.cols; order = col_order p.cols; n_values }

let price_all (md : model) v =
  if Array.length v <> md.problem.m then invalid_arg "Simplex.price_all: dimension mismatch";
  with_work (fun ws ->
      ensure_cols ws md.problem.n;
      price_rows ws md.rows md.problem.m v;
      let alpha = Array.sub ws.alpha 0 md.problem.n in
      unprice ws;
      alpha)

let solve ?max_iters ?budget ?warm (md : model) ~lower ~upper ~c =
  let m = md.problem.m in
  let n = md.problem.n in
  if Array.length lower <> n || Array.length upper <> n || Array.length c <> n then
    invalid_arg "Simplex.solve: dimension mismatch";
  for j = 0 to n - 1 do
    if not (Float.is_finite lower.(j)) then
      invalid_arg "Simplex.solve: infinite lower bound";
    if upper.(j) < lower.(j) -. 1e-12 then invalid_arg "Simplex.solve: crossed bounds"
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
    match solve_cold ws ~max_iters ~budget md ~lower ~upper ~c ~spent_p with
    | result, basis ->
      ( result,
        basis,
        { primal_pivots = !spent_p; dual_pivots = !spent_d; warm = false; fell_back } )
    | exception Singular msg -> raise (Failure msg)
  in
  match warm with
  | None -> run_cold ~fell_back:false
  | Some wb -> (
    match solve_warm ws ~max_iters ~budget md ~lower ~upper ~c wb ~spent_p ~spent_d with
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
