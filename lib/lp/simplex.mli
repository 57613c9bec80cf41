(** Sparse revised bounded-variable simplex over a product-form (eta-file)
    inverse, for linear programs in computational standard form

    {v minimize c·x  subject to  A x = b,  l <= x <= u v}

    with finite lower bounds and possibly infinite upper bounds.  Nonbasic
    variables rest at one of their bounds (bounded-variable simplex), so 0-1
    relaxations need no explicit bound rows.

    Columns are stored sparsely ({!col}); the basis inverse is maintained as
    a product of eta matrices refreshed by a deterministic refactorisation,
    so each pivot costs O(nnz) instead of the dense tableau's O(m·n).

    Two entry points share the core:
    - the {b cold} path runs the classic two-phase primal simplex from an
      all-artificial basis (Dantzig pricing, Bland's rule after a stall
      budget, anti-cycling tie-breaks on smallest basis index);
    - the {b warm} path ({!solve} with [?warm]) re-optimises from a caller
      supplied basis with the dual simplex — the branch-and-bound case,
      where a parent node's optimal basis stays dual-feasible after bound
      changes (branching) or appended rows (lazy cuts).  Any breakdown on
      the warm path (singular factorisation, unrepairable dual
      infeasibility, dual stall, numerical trouble) silently falls back to
      the cold path and is reported in {!info} — it is never an error.

    All pivot choices (pricing, ratio tests, refactorisation order) break
    ties on the smallest index, so a solve is a pure deterministic function
    of its inputs — results are identical for any domain/job count. *)

(** Process-wide solver telemetry: cumulative pivot/solve counters,
    incremented atomically by every solve on any domain.  Totals are
    deterministic for any job count (sums commute); consumed by
    [bench -- perf] and the [MFDFT_PROF] report. *)
module Stats : sig
  val primal_pivots : int Atomic.t
  val dual_pivots : int Atomic.t

  val phase1_solves : int Atomic.t
  (** Cold solves: every solve that had to run phase 1 from an artificial
      basis, including warm attempts that fell back. *)

  val refactors : int Atomic.t
  (** Basis refactorisations (initial factorisations included).  A warm
      start that reuses the factorisation its sibling node computed for the
      same parent basis adds none. *)

  val reset : unit -> unit

  val pivots : unit -> int
  (** Primal + dual pivots since the last {!reset}. *)
end

type col = { idx : int array; v : float array }
(** One sparse column: row indices (strictly increasing) and matching
    finite coefficients. *)

type problem = {
  m : int;  (** rows *)
  n : int;  (** columns *)
  cols : col array;  (** length [n] *)
  b : float array;  (** right-hand side, length [m] *)
}

type model
(** A problem checked once and prepared for solving: its columns plus a
    row-major copy of the matrix, which every pricing pass walks row by
    row over the nonzero rows of the priced vector. *)

val model : ?n_values:int -> problem -> model
(** [model problem] checks the problem's structure (column count, ragged
    columns, row indices in range and strictly increasing) and builds the
    row-major copy.  Results of {!solve} on it carry the values of the
    first [n_values] columns (default: all [n]); the objective always sums
    every column.  Raises [Invalid_argument] on a malformed problem. *)

val price_all : model -> float array -> float array
(** [price_all model v] is [v·A_j] for every column [j], computed by the
    row-wise pricing the simplex uses: bit for bit the column-wise dot
    product over each column's entries in row order. *)

type status = Basic | At_lower | At_upper

type basis = { basic : int array; vstat : status array }
(** A restartable basis snapshot: [basic.(i)] is the column occupying row
    [i]; [vstat] records every column's status.  Only returned for proven
    optimal, artificial-free solutions, so a stored basis is always
    factorisable in exact arithmetic. *)

type eta = { er : int; ei : int array; ev : float array }
(** One elementary column transform of the product-form inverse: applied
    to a vector [v], it replaces [v.(er)] by 0 and adds [ev.(p) *. t] to
    [v.(ei.(p))] for every entry [p], where [t] is the old [v.(er)].  The
    entries are in row order and include [er] itself. *)

type factor = { f_basic : int array; f_etas : eta array }
(** A fresh factorisation of a basis: [f_basic.(i)] is the column that
    pivots on row [i], and applying [f_etas] in order computes [B^-1 v]. *)

val factorize : problem -> int array -> factor option
(** [factorize problem basic] factorises the basis made of the columns
    [basic] (one per row, distinct), or returns [None] when it is
    numerically singular.  Columns enter in (nnz, index) order; each one,
    FTRANned through the etas so far, pivots on its largest-magnitude entry
    among the rows not yet pivoted, ties to the smallest row.  The work
    walks only the nonzeros of each column, and every eta is bit-identical
    to the one a dense sweep over all rows and all etas would build.  A
    pure function of its arguments (it bumps {!Stats.refactors}); the
    simplex refactorises its bases with it.  Raises [Invalid_argument] on a
    malformed basic set or basic column. *)

type info = {
  primal_pivots : int;  (** primal pivots spent by this solve *)
  dual_pivots : int;  (** dual pivots spent by this solve *)
  warm : bool;  (** solved on the warm (dual) path *)
  fell_back : bool;  (** a warm basis was supplied but abandoned *)
}
(** Per-solve effort accounting.  [warm] and [fell_back] are mutually
    exclusive; both are [false] when no warm basis was supplied. *)

type result =
  | Optimal of { objective : float; values : float array }
  | Feasible of { objective : float; values : float array }
      (** primal-feasible but possibly suboptimal: the phase-2 pivot budget
          or wall-clock budget ran out before proving optimality *)
  | Iter_limit
      (** the pivot or wall-clock budget ran out before any feasible point
          was found *)
  | Infeasible
  | Unbounded

val solve :
  ?max_iters:int ->
  ?budget:Mf_util.Budget.t ->
  ?warm:basis ->
  model ->
  lower:float array ->
  upper:float array ->
  c:float array ->
  result * basis option * info
(** [solve model ~lower ~upper ~c] minimises [c·x] subject to
    [A x = b] and [lower <= x <= upper].  [upper.(j)] may be [infinity];
    lower bounds must be finite.  Raises [Invalid_argument] when a bound
    or cost array does not have one entry per column, a lower bound is
    infinite or the bounds cross.

    [max_iters] bounds pivots per phase (default scales with problem size);
    [budget] bounds wall-clock time (polled every 128 pivots).  Running out
    before reaching primal feasibility yields [Iter_limit]; afterwards,
    [Feasible] with the best point reached.  Neither raises.

    [warm] re-optimises from a previous basis with the dual simplex (bound
    flips repair dual feasibility first).  A warm [Infeasible] is certified
    by dual unboundedness; warm breakdowns fall back to the cold path
    (see {!info}).

    The returned basis is [Some] exactly when the result is [Optimal] and
    the final basis is artificial-free; it aliases nothing — safe to store.
    Neither do the result's values, one array of the model's [n_values]
    entries.

    Raises [Failure] only on a numerically singular pivot on the cold path
    — an indication of a degenerate input matrix, not of resource
    exhaustion. *)
