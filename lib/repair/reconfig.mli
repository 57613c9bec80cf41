(** Online fault-adaptive retest: incremental repair of a deployed test
    suite when field faults appear, with independent re-certification.

    Given a chip, its certified single-source/single-meter suite and a set
    of faults observed (or injected) on the deployed chip, {!repair}:

    + compiles the faults into a {!Mf_faults.Pressure.context} and drops
      exactly the vectors the context malforms — the minimal damage set;
    + re-measures coverage on the degraded chip over the remaining fault
      universe and splits the escapes into {e provably untestable}
      (waived, by the same sound structural criteria the verifier audits
      with) and {e coverable};
    + regenerates confirmed candidate vectors per coverable fault (fanned
      out across a domain pool, deterministically) and picks the fewest
      that cover every escape with a set-cover ILP on the warm-started
      dual-simplex core — never re-running the from-scratch codesign;
    + degrades along a typed ladder when the incremental path falls short:
      greedy cover on ILP budget exhaustion, minimal control-line
      {e unsharing} (via [?sharing]), one full re-solve of the suite on
      the degraded chip, every step recorded in [result.degradations];
    + loops while [?more_faults] reports new faults arriving mid-repair
      (bounded by [params.max_rounds]);
    + re-certifies through the independent [Mf_verify] layer: the result
      carries a {!Mf_verify.Cert.t} with the fault context and the audited
      waivers, and [Mf_verify.Verify.certificate result.chip result.cert]
      re-derives its verification diagnostics (errors never, warnings
      possibly) — a repair that cannot be certified is a typed [Error],
      never a silent partial artifact.

    Results are deterministic and independent of [params.jobs]: the engine
    draws no random numbers, candidate generation is per-fault pure, and
    the domain-pool fan-outs preserve input order. *)

type params = {
  seed : int;  (** echoed into checkpoints; the engine itself draws no rng *)
  jobs : int;  (** domains for candidate generation / detect-matrix fan-out *)
  node_limit : int;  (** set-cover ILP node budget per round *)
  max_rounds : int;  (** fault-escalation bound *)
}

val default_params : params

type degradation =
  | Dropped_vectors of int  (** vectors the fault context malformed *)
  | Greedy_cover  (** set-cover ILP exhausted; greedy cover shipped *)
  | Unshared of int
      (** this many control-sharing assignments were dropped to make
          stranded faults repairable *)
  | Full_resolve  (** incremental repair fell back to a full suite re-solve *)
  | Budget_exhausted  (** wall-clock budget ran out; result still certifies *)

val degradation_to_string : degradation -> string

type checkpoint = {
  path : string;  (** snapshot file ({!Mf_util.Snapshot}: digest-checked, atomic) *)
  every : int;  (** save after every [every] rounds; [0] = only on stop *)
  resume : bool;
      (** load [path] first and continue from it; a missing or corrupt
          file is a typed error, never a silent fresh start *)
  stop_after : int option;
      (** save and abort (typed error naming the checkpoint) after this
          many completed rounds — the kill half of kill/resume tests *)
}

type stats = {
  rounds : int;  (** repair rounds executed (≥ 1; > 1 under escalation) *)
  damaged : int;  (** vectors dropped as malformed under the context *)
  reused : int;  (** vectors of the incoming suite kept verbatim *)
  added : int;  (** repair vectors added by the cover *)
  candidates : int;  (** confirmed candidates generated *)
  solver : Mf_ilp.Ilp.run_stats;  (** set-cover ILP effort, all rounds *)
  runtime : float;  (** wall-clock seconds *)
}

type result = {
  chip : Mf_arch.Chip.t;
      (** the repaired-for chip; differs from the input only in control
          wiring when unsharing ran *)
  faults : Mf_faults.Fault.t list;  (** full fault context, escalations included *)
  suite : Mf_testgen.Vectors.t;  (** kept + repair vectors *)
  untestable : Mf_faults.Fault.t list;
      (** escapes proved structurally untestable and waived in the cert *)
  coverage : Mf_faults.Coverage.report;  (** on the degraded chip *)
  exec_before : int option;  (** makespan of [?app] on the input chip *)
  exec_after : int option;  (** makespan on the repaired chip (same prep topology) *)
  degradations : degradation list;
  stats : stats;
  cert : Mf_verify.Cert.t;
      (** context + waivers included; [Mf_verify.Verify.certificate chip cert]
          has no errors.  Its warnings are not kept: a result holds no
          message strings, so a caller that keeps many results keeps only
          their structure *)
}

val repair :
  ?params:params ->
  ?budget:Mf_util.Budget.t ->
  ?checkpoint:checkpoint ->
  ?app:Mf_bioassay.Seqgraph.t ->
  ?sharing:Mf_arch.Chip.t * (int * int) list ->
  ?more_faults:(round:int -> Mf_faults.Fault.t list) ->
  Mf_arch.Chip.t ->
  Mf_testgen.Vectors.t ->
  Mf_faults.Fault.t list ->
  (result, Mf_util.Fail.t) Stdlib.result
(** [repair chip suite faults] repairs [suite] against [faults] on [chip].

    [sharing] is [(augmented, scheme)] — the unshared augmented chip and
    the control-sharing assignment such that
    [chip = Chip.with_sharing augmented scheme]; it enables the minimal
    unsharing fallback (and reuses the scheduler's sharing-aware prep for
    [exec_after]).  [more_faults ~round] is polled after each completed
    round; novel faults trigger another round.  [budget] bounds wall-clock
    time: on expiry the engine ships the current state if it certifies
    (recording [Budget_exhausted]) and fails typed otherwise.  [app]
    enables the [exec_before]/[exec_after] makespans. *)

(** {1 Candidates}

    The confirmed repair vectors {!repair} generates for one fault, on the
    chip and under the context of a {!Mf_testgen.Repair.cache}: the
    stuck-at-0 paths or stuck-at-1 cuts of {!Mf_testgen.Repair}, and for
    a stuck-at-1 without any, the max-flow cut forced through the valve
    ({!Mf_testgen.Cutgen.cover_valve}) when simulation confirms it.  Each
    candidate is intact on the degraded chip
    ({!Mf_faults.Pressure.intact}) and detects the fault. *)

type candidate = Path of int list | Cut of int list

val first_candidate :
  Mf_testgen.Repair.cache -> Mf_arch.Chip.t -> s:int -> t:int -> Mf_faults.Fault.t ->
  (candidate * candidate Seq.t) option
(** The fault's first candidate, if it has any, with the rest of its
    candidate sequence unforced: whether the fault is repairable at all,
    building and simulating nothing past the first candidate. *)

val candidate_list : (candidate * candidate Seq.t) option -> candidate list
(** Every distinct candidate of a {!first_candidate} answer, in generation
    order, the later ones built from its unforced rest: what a covering
    round offers the set-cover ILP for the fault. *)
