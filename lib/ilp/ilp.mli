(** 0-1 integer linear programming by branch-and-bound over the
    {!Mf_lp.Lp} relaxation, with lazy-constraint callbacks.

    This is the solver behind the paper's DFT test-path formulation
    (constraints (1)–(4), objective (5)); the lazy callback implements the
    loop-elimination cuts of Sec. 3 (analogous to subtour elimination).

    Each node carries the optimal basis of the relaxation that spawned it:
    branching only changes one variable's bounds and lazy cuts only append
    rows, so the child relaxation re-optimises from that basis with the
    dual simplex instead of solving cold (see {!Mf_lp.Lp.solve_b}).  A
    bounded per-solve cache keyed by fixing set recalls relaxations
    re-visited after cut installation.  Neither mechanism changes any
    result — only the work done — and both can be disabled with
    [~warm:false] for differential testing.

    The search is batch-synchronous: each round pops up to 16 open nodes
    (a function of the heap state only), solves all their uncached LP
    relaxations against the model as it stands, then reduces the results
    in batch order — incumbent updates, branching, cache and statistics,
    lazy-cut installation.  The open-node heap orders ties by a stable
    insertion sequence, so the pop order is a pure function of the search
    trajectory. *)

type t
type var = Mf_lp.Lp.var

type relation = Mf_lp.Lp.relation = Le | Ge | Eq

type solution = { objective : float; values : float array }
(** [values.(v)] is exactly [0.] or [1.] for binary variables. *)

type outcome =
  | Optimal of solution  (** proven optimal (within node budget semantics) *)
  | Feasible of solution
      (** incumbent found but optimality unproven: the node or wall-clock
          budget truncated the search, or a relaxation came back without a
          certified bound *)
  | Infeasible
  | Node_limit  (** budget exhausted with no incumbent *)
  | Failed of Mf_util.Fail.t
      (** the search cannot continue and the result is not a resource
          outcome: an LP relaxation came back unbounded (a defective
          model).  Typed so callers degrade per the resilience ladder
          instead of crashing. *)

val create : unit -> t

val add_binary : ?obj:float -> t -> var
(** Declare a 0-1 variable with objective coefficient [obj] (minimised). *)

val add_continuous : ?lower:float -> ?upper:float -> ?obj:float -> t -> var

val n_vars : t -> int

val add_row : t -> (float * var) list -> relation -> float -> unit

type lazy_cut = (float * var) list * relation * float

(** Process-wide branch-and-bound telemetry (see {!Mf_lp.Simplex.Stats}):
    cumulative atomic counters. *)
module Stats : sig
  val nodes : int Atomic.t

  val warm_eligible : int Atomic.t
  (** Non-root nodes whose relaxation had a usable warm basis (from the
      parent node or the fixing-set cache). *)

  val warm_taken : int Atomic.t
  (** Relaxations the dual simplex re-optimised from a warm basis. *)

  val cache_hits : int Atomic.t
  (** Relaxations answered from the fixing-set cache without an LP solve. *)

  val cover_cuts : int Atomic.t
  (** Knapsack cover cuts installed at root separation. *)

  val presolve_fixed : int Atomic.t
  (** Variables fixed by presolve bound propagation. *)

  val reset : unit -> unit
end

type run_stats = {
  rs_nodes : int;  (** nodes expanded (cache-served nodes included) *)
  rs_batches : int;  (** search rounds executed (1..16 nodes each) *)
  rs_warm_eligible : int;
  rs_warm_taken : int;
  rs_fallbacks : int;  (** warm attempts that fell back to a cold solve *)
  rs_cache_hits : int;
  rs_primal_pivots : int;
  rs_dual_pivots : int;
  rs_presolve_fixed : int;  (** variables fixed by presolve *)
  rs_presolve_tightened : int;  (** presolve bound tightenings + coefficient reductions *)
  rs_cover_cuts : int;  (** root cover cuts installed *)
  rs_root_bound : float;
      (** objective of the root relaxation the tree search starts from
          (after the cover-cut rounds); [infinity] when it is infeasible,
          [neg_infinity] when none was solved *)
  rs_best_bound : float;
      (** the least bound among the nodes left open when the search
          stopped; [infinity] once no open node remains *)
}
(** Effort accounting for a single {!solve} call — what {!Stats} counts
    process-wide. *)

val zero_stats : run_stats

val add_stats : run_stats -> run_stats -> run_stats
(** Field-wise sum of the counters, for aggregating across solves; the two
    bounds are those of the second argument, the later solve. *)

val last_stats : t -> run_stats
(** Full effort breakdown of the most recent {!solve} call. *)

val solve :
  ?node_limit:int ->
  ?budget:Mf_util.Budget.t ->
  ?lazy_cuts:(solution -> lazy_cut list) ->
  ?branch_priority:(var -> int) ->
  ?upper_bound:float ->
  ?warm:bool ->
  ?presolve:bool ->
  ?cuts:bool ->
  t ->
  outcome
(** Batched best-first branch-and-bound.  Whenever an integral candidate is
    found, [lazy_cuts] may return violated constraints; a non-empty return
    rejects the candidate, installs the cuts globally, and continues the
    search (the candidate's subtree is re-explored under the new cuts; the
    rest of the round is re-queued under the unchanged priority law, and
    the effort already spent on its relaxations stays counted).
    [node_limit] defaults to 100_000 LP relaxation solves; [budget] adds a
    wall-clock deadline polled once per batch and threaded into each
    relaxation solve — on exhaustion the best incumbent so far is returned
    as [Feasible] (or [Node_limit] when none exists).  Never raises on
    resource exhaustion.
    [branch_priority] groups binaries: among fractional variables, those
    with the smallest priority are branched on first (most-fractional
    within a group); default is one group.
    [upper_bound] primes the incumbent objective for pruning: subtrees that
    cannot beat it are cut, and solutions no better than it are not
    reported — callers supplying a known feasible solution's value should
    fall back to that solution when the outcome is [Infeasible].
    [warm] (default true) enables warm-started relaxations and the
    fixing-set cache; [~warm:false] forces every relaxation to solve cold —
    results are identical either way.
    [presolve] (default true) runs {!Mf_lp.Lp.presolve} once before the
    search: bound tightening with integral rounding plus 0-1 coefficient
    reduction, in place, rows never deleted.  It changes effort, not
    results.
    [cuts] (default true) separates 0-1 knapsack cover cuts at the root
    over a few rounds.  Cover cuts are derived only from rows present at
    entry, hence globally valid under any branching: they change effort,
    never results. *)
