(** Incremental linear-program builder over {!Simplex}.

    Rows may be inequalities; logical (slack/surplus) variables and
    conversion to the simplex computational form happen at solve time, and
    the compiled sparse model is cached across solves until the builder is
    mutated.  The objective sense is minimisation. *)

type t
type var = int

type relation = Le | Ge | Eq

type result =
  | Optimal of { objective : float; values : float array }
      (** [values] is indexed by {!var}. *)
  | Feasible of { objective : float; values : float array }
      (** primal-feasible but possibly suboptimal — the pivot or wall-clock
          budget ran out during phase 2 *)
  | Iter_limit
      (** the budget ran out before any feasible point was found *)
  | Infeasible
  | Unbounded
  | Numerical of string
      (** the simplex hit a numerically singular pivot; the message is the
          underlying diagnostic *)

type basis
(** A warm-start handle: the optimal basis of a previous {!solve_b} on this
    builder (or on an earlier, smaller state of it).  Opaque; pass it back
    via [?warm].  Remains usable after rows are appended — lazy cuts extend
    the basis with their logicals basic — and under different [?fix]
    functions, which is how branch-and-bound children reuse the parent
    node's basis. *)

type info = Simplex.info = {
  primal_pivots : int;
  dual_pivots : int;
  warm : bool;  (** solved by dual re-optimisation of the warm basis *)
  fell_back : bool;  (** a warm basis was supplied but abandoned *)
}
(** Per-solve effort accounting; see {!Simplex.info}. *)

val create : unit -> t

val add_var : ?lower:float -> ?upper:float -> ?obj:float -> t -> var
(** [add_var t] declares a variable with bounds [\[lower, upper\]]
    (default [\[0, infinity)]) and objective coefficient [obj] (default 0). *)

val n_vars : t -> int

val set_obj : t -> var -> float -> unit
(** Overwrite a variable's objective coefficient. *)

val add_row : t -> (float * var) list -> relation -> float -> unit
(** [add_row t terms rel rhs] adds the constraint [Σ coef·var rel rhs].
    Repeated variables in [terms] are summed. *)

val n_rows : t -> int

val row : t -> int -> (float * var) list * relation * float
(** [row t i] is the [i]-th constraint (0-based, insertion order) with
    duplicate variables merged and terms sorted by variable — the
    normal form the compiled model uses, served from it (the first call
    after a mutation compiles the model).  Read-only access for cut
    separation. *)

type presolve_stats = {
  ps_rounds : int;  (** fixpoint passes executed (capped) *)
  ps_fixed : int;  (** variables whose bounds collapsed to a point *)
  ps_tightened : int;  (** bound improvements applied *)
  ps_coeffs : int;  (** coefficients reduced *)
  ps_infeasible : bool;  (** bound propagation proved the model infeasible *)
}

val presolve : ?integer:(var -> bool) -> t -> presolve_stats
(** Tighten the model in place: activity-based bound tightening (with
    integral rounding for variables [integer] selects) and 0-1 coefficient
    reduction on inequality rows, iterated to a capped fixpoint.  Rows are
    never deleted and the variable/row layout is unchanged, so bases and
    {!extend_basis} behave exactly as before; every deduction is implied by
    the model, so solve results are unchanged (only, usually, the effort —
    and the tightness of the LP relaxation).  Deductions remain valid under
    any later per-solve [?fix] within the tightened bounds.  When
    [ps_infeasible] is true the builder is left untouched and the caller
    should report infeasibility without solving. *)

val solve_b :
  ?max_iters:int ->
  ?budget:Mf_util.Budget.t ->
  ?fix:(var * float) list ->
  ?warm:basis ->
  t ->
  result * basis option * info
(** Solve the LP (relaxation).  Each [(v, x)] of [fix] clamps both bounds
    of [v] to [x] for this solve only (the first pair for a variable wins) —
    how branch-and-bound explores subproblems without rebuilding the model.
    Only the fixed variables are visited, and the bound arrays are reused
    across the solves of a domain.  The builder is reusable: more rows and
    variables may be added after a solve and the model solved again, which
    is how lazy loop-elimination constraints are injected.

    [warm] re-optimises from a previously returned basis with the dual
    simplex; when that breaks down the solve transparently restarts cold
    and reports it in {!info} — supplying [warm] never changes the result,
    only (usually) the effort.  The returned basis is [Some] exactly for
    [Optimal] results whose basis is storable; it is independent of the
    builder's later mutations.

    [budget] bounds wall-clock time; see {!Simplex.solve}.  Never raises:
    resource exhaustion surfaces as [Feasible]/[Iter_limit] and numerical
    breakdown as [Numerical]. *)

val solve :
  ?max_iters:int -> ?budget:Mf_util.Budget.t -> ?fix:(var * float) list -> t -> result
(** [solve t] is [solve_b t] without the warm-start plumbing — kept for
    callers that need only the result. *)
