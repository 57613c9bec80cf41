(** Software fault-injection harness.

    When enabled, solver stages consult {!strike} at their entry points and
    deliberately cripple themselves — the simplex clamps its iteration
    budget, the ILP truncates its node budget, worker domains nap — so the
    degradation paths of the pipeline are exercised for real rather than
    only in unit mocks.

    Enable by exporting [MFDFT_CHAOS=<rate>] (a fault probability in
    [(0, 1]]; the state is read once at program start) or programmatically
    with {!set}.  [MFDFT_CHAOS=<site>:<rate>] (e.g. [ilp-nodes:0.3])
    restricts strikes to one named site, so a single degradation path can
    be driven in isolation.  [MFDFT_CHAOS_SEED] fixes the injection RNG
    seed.  A value that does not parse (see {!parse}) leaves injection off
    and prints one warning on stderr at start-up.

    A second, physical injection mode is selected by
    [MFDFT_CHAOS=valve-faults:N]: instead of crippling solver stages, the
    harness nominates [N] valve sites (seed-stable, see {!sample_sites})
    that drivers treat as stuck-open field faults and feed into the repair
    engine.  The two modes are mutually exclusive — the variable holds
    either a rate or a [valve-faults:] spec.

    Chaos draws come from one global generator shared across domains, so
    under [jobs > 1] the injection pattern depends on scheduling: chaos runs
    deliberately break the bit-for-bit determinism contract.  Test binaries
    that assert exact values call {!neutralise} at startup; the resilience
    suite enables chaos on purpose and asserts only validity, never exact
    objectives. *)

type site =
  | Simplex_iters  (** clamp the simplex pivot budget to force [Iter_limit] *)
  | Ilp_nodes  (** truncate the branch-and-bound node budget *)
  | Worker_delay  (** sleep briefly inside a worker-domain task *)

type spec =
  | Strikes of { only : site option; rate : float }
      (** [<rate>] or [<site>:<rate>]; a rate of [0.] leaves injection off *)
  | Valve_faults of int  (** [valve-faults:N] *)

val parse : string -> (spec, string) result
(** Parse an [MFDFT_CHAOS] value.  A rate is a finite float [>= 0.] (rates
    above 1 act as 1); a site is named by {!site_name}.  [Error] carries a
    one-line message naming the bad value and listing the valid sites. *)

type config = { rate : float; seed : int }

val default_seed : int
(** Seed used when [MFDFT_CHAOS_SEED] is not set. *)

val set : ?only:site -> config option -> unit
(** Override the harness state ([None] disables); [~only] restricts strikes
    to a single site.  Call only while no worker domain is running. *)

val neutralise : unit -> unit
(** Disable injection — both the strike-rate and valve-fault modes —
    regardless of [MFDFT_CHAOS]; for test binaries whose assertions require
    the deterministic, fault-free pipeline. *)

val set_valve_faults : (int * int) option -> unit
(** Override the valve-fault mode with [(count, seed)] ([None] disables).
    Call only while no worker domain is running. *)

val valve_faults : unit -> int option
(** Configured valve-fault count, [None] when the mode is inactive. *)

val sample_sites : seed:int -> count:int -> n_sites:int -> int list
(** [sample_sites ~seed ~count ~n_sites] draws [min count n_sites] distinct
    sites from [0 .. n_sites-1], sorted ascending.  Pure and seed-stable:
    the same [(seed, n_sites)] always yields the same permutation, and the
    sites for [count = k] are a subset of those for [count = k+1], so
    escalating a fault count only grows the injected set. *)

val valve_fault_sites : n_sites:int -> int list
(** {!sample_sites} driven by the [valve-faults:N] state; [[]] when the
    mode is inactive. *)

val active : unit -> bool

val rate : unit -> float
(** Configured fault probability; [0.] when inactive. *)

val strike : site -> bool
(** [strike site] draws once: [true] with the configured probability (and
    records the hit against [site]), always [false] when inactive.
    Thread-safe. *)

val delay : unit -> unit
(** Worker-domain injection point: sleeps ~1.5 ms when a
    [Worker_delay] strike fires, otherwise returns immediately. *)

val strikes : unit -> (site * int) list
(** Strike counters per site since start / last {!reset_counts} (empty when
    inactive) — for bench reporting. *)

val reset_counts : unit -> unit

val site_name : site -> string
