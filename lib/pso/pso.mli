(** Particle swarm optimization (Kennedy–Eberhart), the search engine of the
    paper's two-level codesign (Sec. 4.2, updates (7)–(8)).

    Positions are continuous vectors in a box; callers decode them into the
    discrete structures they search over (edge selections, sharing
    assignments).  The update uses the conventional attractive form
    [v ← ω v + c₁ r₁ (p_best − x) + c₂ r₂ (g_best − x)] (the paper's (7)
    prints the differences reversed, which would repel particles from the
    best positions; we use the canonical orientation).

    Fitness is minimised; [infinity] marks an invalid position (a sharing
    scheme that fails validation). *)

type params = {
  particles : int;
  iterations : int;
  omega : float;  (** inertia *)
  c1 : float;  (** cognitive coefficient *)
  c2 : float;  (** social coefficient *)
  v_max : float;  (** velocity clamp, as a fraction of the box width *)
}

val default_params : params
(** 5 particles, 100 iterations, ω = 0.72, c₁ = c₂ = 1.49 — the paper's
    swarm size with standard constriction-style coefficients. *)

type outcome = {
  best_position : float array;
  best_fitness : float;
  trace : float list;  (** global best fitness after each iteration (Fig. 9) *)
  evaluations : int;
}

type batch_state
(** Opaque snapshot of an in-flight {!run}: swarm positions, velocities,
    personal/global bests, trace, evaluation count and the rng state
    {e after} the snapshot iteration's draws.  Contains only plain data (no
    closures), so it may be persisted with [Marshal] and reloaded by a
    binary built from the same sources. *)

val run :
  ?params:params ->
  ?budget:Mf_util.Budget.t ->
  ?checkpoint:(int -> batch_state -> unit) ->
  ?resume:batch_state ->
  rng:Mf_util.Rng.t ->
  dim:int ->
  batch_fitness:(float array array -> float array) ->
  unit ->
  outcome
(** Search the box [\[0,1\]^dim] with synchronous updates: per iteration,
    all velocity/position updates (and every rng draw) happen on the
    calling domain in particle order, then the whole iteration's positions
    are handed to [batch_fitness] at once.  [batch_fitness] must return
    fitnesses in input order, treat the position arrays as read-only, and
    be a pure function of the positions — under those rules the outcome is
    bit-identical however the batch is evaluated (serially with
    [Array.map], or fanned out with {!Mf_util.Domain_pool.map}).  A
    particle does not see a global best improved earlier in the same
    iteration (the classic synchronous PSO trade-off that makes the batch
    independent); [evaluations] is [particles * (1 + iterations)].

    If every evaluation returns [infinity] the outcome's [best_fitness] is
    [infinity] and [best_position] is the first particle's initial
    position.  Raises [Invalid_argument] when [dim <= 0].

    Resilience hooks: [budget] stops the loop between iterations, returning
    the best-so-far outcome (shorter [trace]).  [checkpoint it state] fires
    after each completed iteration [it] (1-based) with a fully-copied
    snapshot; a subsequent call passing that snapshot as [resume] (with
    identical [params], [dim] and [batch_fitness]) skips the completed
    iterations, overwrites [rng] with the snapshot state, and produces an
    outcome bit-identical to the uninterrupted run.  Exceptions raised by
    the hook propagate to the caller. *)
