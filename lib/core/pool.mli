(** Pool of alternative DFT configurations.

    Problem (5)–(6) usually has many optima and near-optima; the outer PSO
    of Sec. 4.2 explores them.  Re-solving the ILP inside every particle
    update would repeat identical work, so the pool materialises a diverse
    set of configurations up front by re-solving with randomly perturbed
    edge weights; the outer particle position (a preference weight per free
    grid edge) then selects the pool member it agrees with most.  This is
    the repair-based decoding matching step (1) of the paper's PSO loop:
    every decoded position is a feasible single-source single-meter
    architecture produced by the ILP. *)

type entry = {
  config : Mf_testgen.Pathgen.config;
  augmented : Mf_arch.Chip.t;
  suite : Mf_testgen.Vectors.t;  (** paths + cuts, validated pre-sharing *)
  mutable partners : (int * int array) list option;
      (** per-DFT-valve feasible sharing partners, computed lazily by
          [Codesign] and cached here so several applications on the same
          chip share the work *)
}

type reject = {
  rejected_config : Mf_testgen.Pathgen.config;
  escaped : int;  (** faults still escaping simulation after repair *)
  malformed : int;  (** vectors whose fault-free reading is wrong *)
}
(** A candidate configuration that fault simulation rejected even after
    {!Mf_testgen.Repair.run} — surfaced instead of silently dropped so
    callers and reports can tell how much of the pool was lost. *)

type t

val build :
  ?size:int ->
  ?node_limit:int ->
  ?domains:Mf_util.Domain_pool.t ->
  ?budget:Mf_util.Budget.t ->
  rng:Mf_util.Rng.t ->
  Mf_arch.Chip.t ->
  (t, Mf_util.Fail.t) result
(** [build ~rng chip] solves the path ILP [size] times (default 8) with
    weights drawn from [\[1, 2)], deduplicates by added-edge set, records
    any configuration whose vector suite fails post-repair fault simulation
    under {!rejects}, and returns the pool.  [domains] fans the per-attempt
    ILP solves and fault simulations out across a domain pool; all weight
    perturbations are drawn up front on the caller, so the resulting pool
    is identical whatever the parallelism.  [budget] bounds wall-clock
    time: attempts starting after the deadline are skipped and each ILP
    solve degrades to the greedy heuristic when time runs out.

    Degradation ladder: if every ILP attempt fails, is skipped, or is
    rejected, one last candidate is built from the pure greedy cover
    ([node_limit:0]); only when that too is rejected does [build] return a
    typed [Error] — so any chip the heuristic can cover always yields a
    non-empty pool. *)

val entries : t -> entry array
val size : t -> int

val rejects : t -> reject list
(** Candidates rejected by post-repair fault simulation, in attempt order. *)

val free_edges : t -> int array
(** Grid edges unoccupied in the original chip — the outer PSO dimensions. *)

val attempt_objectives : t -> float option array
(** Per ILP attempt (in attempt order, before deduplication), the achieved
    objective (5) — the total weight of the configuration's added edges
    under that attempt's weights — or [None] when the attempt failed or was
    skipped.  Invariant across LP engines and job counts; the perf-regression
    harness pins these against its committed baseline. *)

val decode : t -> float array -> entry
(** [decode pool position] scores each entry by the summed preference of
    its added edges (position is indexed like {!free_edges}) and returns
    the best-scoring entry; ties break toward fewer added edges. *)
