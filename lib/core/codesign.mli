(** The paper's end-to-end flow (Sec. 4.2): two-level particle swarm
    optimization over DFT configurations (outer) and valve-sharing schemes
    (inner), scored by the application execution time on the augmented
    chip.

    Per outer particle evaluation: decode the particle's edge-preference
    position into a feasible DFT configuration (ILP-repaired, via
    {!Pool}), run a sub-PSO over sharing assignments, validate each sharing
    scheme against the full test-vector suite by fault simulation
    (invalid → ∞), schedule the application on the shared chip, and return
    the best execution time found.  The outer trace is the Fig. 9
    convergence curve. *)

type params = {
  pool_size : int;  (** DFT configurations materialised by the ILP *)
  outer : Mf_pso.Pso.params;
  inner : Mf_pso.Pso.params;
  seed : int;
  scheduler : Mf_sched.Scheduler.options;
  ilp_node_limit : int;
  jobs : int;
      (** domains evaluating outer particles (and pool candidates)
          concurrently; results are bit-identical for any value ≥ 1 because
          every rng draw stays on the coordinating domain (default 1) *)
}

val default_params : params
(** Paper-scale: 5 outer and 5 inner particles, 100 outer iterations
    (Fig. 9), 12 inner iterations per outer evaluation. *)

val quick_params : params
(** Reduced budget for CI and the default bench run: 8 outer iterations,
    6 inner; same swarm sizes. *)

type degradation =
  | Heuristic_config
      (** the chosen DFT configuration came from the greedy heuristic, not
          the ILP (node or wall-clock budget exhausted) *)
  | Pool_rejects of int
      (** this many pool candidates were rejected by post-repair fault
          simulation *)
  | Sharing_fallback
      (** no testable sharing scheme was found; the result ships the
          unshared DFT architecture with its (valid) pre-sharing suite *)
  | Budget_exhausted  (** the wall-clock budget ran out before completion *)

val degradation_to_string : degradation -> string

type result = {
  original : Mf_arch.Chip.t;
  augmented : Mf_arch.Chip.t;  (** best configuration applied *)
  shared : Mf_arch.Chip.t;  (** with the best sharing scheme's control rewiring *)
  config : Mf_testgen.Pathgen.config;
  sharing : Sharing.t;
  suite : Mf_testgen.Vectors.t;
  exec_original : int option;  (** makespan on the unmodified chip *)
  exec_dft_unshared : int option;  (** DFT resources, independent control (Fig. 7) *)
  exec_dft_no_pso : int option;  (** first valid random sharing (Table 1) *)
  exec_final : int option;  (** after two-level PSO (Table 1) *)
  n_dft_valves : int;
  n_shared : int;
  n_vectors_dft : int;  (** single-source single-meter vector count (Fig. 8) *)
  trace : float list;
      (** outer global-best per iteration (Fig. 9).  Values below
          {!invalid_threshold} are application execution times in seconds;
          values at or above it are shaped penalties of invalid schemes
          (render as "no valid scheme yet"). *)
  evaluations : int;  (** schedule/validation calls *)
  runtime : float;  (** wall-clock seconds of the whole flow *)
  degradations : degradation list;
      (** every way this result is weaker than a clean full run; empty for
          an undisturbed run.  The suite in [suite] is valid on [shared]
          regardless (graceful degradation, never an invalid artifact). *)
}

val invalid_threshold : float
(** Fitness values at or above this constant denote sharing schemes that
    failed validation (graded by how many faults escape) or deadlocked the
    application; values below it are plain makespans. *)

type checkpoint = {
  path : string;  (** snapshot file ({!Mf_util.Snapshot}: digest-checked, atomic) *)
  every : int;  (** save after every [every] outer iterations; [0] = only on stop/finish *)
  resume : bool;
      (** load [path] first and continue from it; a missing, damaged or
          mismatched file is a typed error, never a silent fresh start *)
  stop_after : int option;
      (** save and abort (with a typed error naming the checkpoint) after
          this many completed outer iterations — bounded sessions, and the
          kill half of the kill/resume differential test *)
}

val run :
  ?params:params ->
  ?pool:Pool.t ->
  ?domains:Mf_util.Domain_pool.t ->
  ?budget:Mf_util.Budget.t ->
  ?checkpoint:checkpoint ->
  ?progress:(int -> unit) ->
  ?stop:(unit -> bool) ->
  Mf_arch.Chip.t ->
  Mf_bioassay.Seqgraph.t ->
  (result, Mf_util.Fail.t) Stdlib.result
(** [run chip app] executes the whole flow.  [pool] short-circuits the ILP
    configuration-pool construction — pools depend only on the chip, so
    callers evaluating several applications on one chip (Table 1) build the
    pool once.

    [domains] supplies an external worker pool for every fan-out (pool
    construction and outer-PSO batches) instead of creating one per run;
    [params.jobs] is then ignored.  The serve daemon uses this to share one
    pool across its whole job queue — domain spin-up is paid once, not per
    submission.  The usual {!Mf_util.Domain_pool} discipline applies: call
    [run] from the domain that created the pool, one run at a time.
    Results are identical with an external or internal pool of any size.

    [progress] is called after every completed outer iteration with the
    iteration number (checkpoint-hook cadence, on the coordinating domain).
    [stop] is polled at the same points; when it returns [true] the run
    saves a snapshot to the [checkpoint] path (if one is configured) and
    aborts with a typed failure naming it — the graceful-shutdown
    counterpart to [checkpoint.stop_after].

    Results are deterministic in [params.seed] and independent
    of [params.jobs]: the outer swarm runs in batch-synchronous mode, all
    rng splits and position updates happen on the coordinating domain, and
    only the pure inner-PSO evaluations fan out to worker domains (the
    sharing-fitness memo table is mutex-guarded and memoises a
    deterministic function, so it changes work, never values).

    [budget] bounds wall-clock time across every stage (pool ILPs, inner
    and outer PSO, baselines); when it expires the best feasible result so
    far is returned with [Budget_exhausted] recorded — the suite is still
    valid for the returned chip.  [checkpoint] enables snapshotting after
    outer iterations and resuming: an interrupted run resumed from its
    snapshot (same binary, params and seed, no budget/chaos interference)
    finishes bit-identical to the uninterrupted run.  Hard failures
    ([Error]) carry the failing stage, budget consumed and best incumbent
    ({!Mf_util.Fail.t}). *)

val check_checkpoint : params:params -> string -> (unit, Mf_util.Fail.t) Stdlib.result
(** [check_checkpoint ~params path] is the refusal [run ~params] would
    give when resuming from [path], without running: [Ok ()] when the
    snapshot verifies and was taken with the same seed and outer swarm. *)

val certificate : result -> Mf_verify.Cert.t
(** The run's claims (suite, vector count, re-measured stuck-at coverage on
    the shared chip) packaged for the independent checker — what
    [dft_tool codesign --cert] writes next to the [.chip] file. *)

val verify : result -> Mf_util.Diag.t list
(** Post-codesign verification: lint the shared chip, re-prove
    {!certificate} with [Mf_verify] (graph reachability + independent fault
    simulation, no solver involvement), and scan for control-sharing
    conflicts.  Run automatically for the report's "Verification" section;
    degraded results must come back clean too. *)
