(** ILP-based single-source / single-meter test-path generation: the
    formulation of Sec. 3, constraints (1)–(4) with objective (5) and lazy
    loop-elimination cuts.

    The result is a {e DFT configuration}: which free grid edges must be
    added as channels (each carrying a DFT valve) so that [n_paths] paths
    from the source port to the meter port jointly cover every original
    channel edge. *)

type attempt = {
  k : int;  (** path count of this attempt *)
  outcome : [ `Optimal | `Feasible | `Infeasible | `Node_limit | `Failed ];
      (** the branch-and-bound outcome.  [`Infeasible] means no [k]-path
          design beats [primed_bound], i.e. the greedy cover *)
  nodes : int;  (** B&B nodes the attempt explored *)
  root_bound : float;  (** {!Mf_ilp.Ilp.run_stats.rs_root_bound} *)
  best_bound : float;  (** {!Mf_ilp.Ilp.run_stats.rs_best_bound} *)
  primed_bound : float;
      (** the incumbent objective the search was primed with: the greedy
          cover's cost plus 1e-6 ([infinity] without one) *)
}
(** One per-[k] ILP attempt of {!generate}: what it did and what it proved. *)

type config = {
  src_port : int;  (** port id of the pressure source *)
  dst_port : int;  (** port id of the pressure meter *)
  added_edges : int list;  (** free grid edges promoted to DFT channels *)
  paths : int list list;  (** ordered edge lists, each from source to meter *)
  n_paths : int;
  ilp_nodes : int;  (** LP relaxations solved, for the ablation bench *)
  loop_cuts : int;  (** lazy loop-elimination constraints added *)
  solver : Mf_ilp.Ilp.run_stats;
      (** LP-core effort aggregated over every branch-and-bound run behind
          this configuration (warm starts, cache hits, pivots) *)
  attempts : attempt list;
      (** every ILP attempt behind this configuration, in [k] order; empty
          when no ILP ran ([node_limit:0]) *)
  degraded : bool;
      (** [true] when the configuration came from the greedy heuristic
          fallback (ILP budget exhausted) rather than the ILP itself *)
}

val farthest_ports : Mf_arch.Chip.t -> int * int
(** The pair of port ids at maximal hop distance through the existing
    channel network (Sec. 3: long test paths cover more of the chip).
    Ties break toward the smallest ids. *)

val generate :
  ?weights:(int -> float) ->
  ?src_port:int ->
  ?dst_port:int ->
  ?max_paths:int ->
  ?node_limit:int ->
  ?budget:Mf_util.Budget.t ->
  ?warm:bool ->
  ?presolve:bool ->
  ?cuts:bool ->
  ?pool:Mf_util.Domain_pool.t ->
  Mf_arch.Chip.t ->
  (config, Mf_util.Fail.t) result
(** Solve the DFT path formulation, growing the path count from 2 until
    feasible (Sec. 3).  [weights] biases objective (5) per free edge
    (default all 1) — the hook the outer PSO uses to explore alternative
    optimal configurations; weights must be >= some positive value.
    [max_paths] defaults to 8.

    Degradation ladder: when [node_limit] (cumulative LP relaxations across
    the escalating per-[k] attempts) or [budget] runs out, the
    multi-restart greedy cover is returned with [degraded = true] —
    [node_limit:0] forces it outright.  A typed solver failure
    ({!Mf_ilp.Ilp.outcome.Failed}) degrades the same way.  [Error] only
    when even the heuristic cannot cover the chip within [max_paths] paths.

    [warm] (default true), [presolve] and [cuts] (both default true in the
    solver) are passed through to {!Mf_ilp.Ilp.solve} — each changes effort,
    not results.  [pool] parallelises each branch-and-bound's relaxation
    batches across its domains; results, including the [solver] stats in
    the returned configuration, are bit-identical for any pool size. *)

val apply : Mf_arch.Chip.t -> config -> Mf_arch.Chip.t
(** Augment the chip with the configuration's added edges. *)
