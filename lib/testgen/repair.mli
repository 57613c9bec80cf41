(** Targeted repair of a test-vector suite.

    The ILP guarantees every original channel lies on a test path, but a
    fault can still escape detection: an unvalved parallel segment may keep
    the meter pressurised when a path edge is blocked (stuck-at-0 masking),
    and a minimum cut through a valve may not exist for the chosen
    terminals (stuck-at-1).  [run] measures coverage by fault simulation
    and adds dedicated vectors for every escaped fault:

    - stuck-at-0 at edge [e]: alternative source→meter paths through [e]
      (several detours are tried; a candidate is kept only when simulation
      confirms detection);
    - stuck-at-1 at valve [v]: the paper's worst-case construction — close
      every valve except those on one leak path through [v], so the only
      possible pressure route runs through the defect.

    Every entry point takes [?present], a field-fault context
    ({!Mf_faults.Pressure.context}): candidate routes avoid context-blocked
    edges and every candidate is confirmed by simulation {e on the degraded
    chip}, which is what the fault-adaptive repair engine needs. *)

val candidates_sa0 :
  ?present:Mf_faults.Pressure.context ->
  Mf_arch.Chip.t -> s:int -> t:int -> int -> int list list
(** [candidates_sa0 chip ~s ~t e] is every distinct candidate path (edge
    lists, source node [s] to meter node [t]) confirmed by simulation to
    detect stuck-at-0 at edge [e].  Deterministic; may be empty. *)

val candidates_sa1 :
  ?present:Mf_faults.Pressure.context ->
  Mf_arch.Chip.t -> s:int -> t:int -> int -> int list list
(** Same for stuck-at-1 at a valve id: every distinct confirmed cut
    (valve-id lists). *)

val routes : Mf_arch.Chip.t -> s:int -> t:int -> int -> int list list
(** [routes chip ~s ~t via] is every route from [s] to [t] through channel
    edge [via] that repair tries on the fault-free chip, in the order it
    tries them.  It depends on the chip's channels and valve placement, the
    terminals and [via], never on control wiring: every sharing scheme of
    one augmented chip has the same routes. *)

(** Fault-free answers shared by every sharing scheme of one augmented
    chip: callers that repair many schemes memoise both per chip and pass
    them as [?cache]. *)
type cache = {
  routes : int -> int list list;  (** {!routes} for the repair's terminals *)
  detect : Mf_arch.Chip.t -> Mf_faults.Vector.t -> Mf_faults.Pressure.detection;
      (** {!Mf_faults.Pressure.detect}, typically memoised under
          {!Mf_faults.Pressure.detection_key} *)
}

val repair_sa0 :
  ?present:Mf_faults.Pressure.context ->
  ?cache:cache ->
  Mf_arch.Chip.t -> s:int -> t:int -> int -> int list option
(** First confirmed candidate of {!candidates_sa0}, if any; no later
    candidate is built or simulated.  [?cache] supplies the routes and
    the candidates' detection sets; it holds the fault-free chip's
    answers, so it cannot go with [?present] ([Invalid_argument]). *)

val repair_sa1 :
  ?present:Mf_faults.Pressure.context ->
  ?cache:cache ->
  Mf_arch.Chip.t -> s:int -> t:int -> int -> int list option
(** First confirmed candidate of {!candidates_sa1}, if any, with
    [?cache] as in {!repair_sa0}. *)

val run :
  ?present:Mf_faults.Pressure.context -> Mf_arch.Chip.t -> Vectors.t -> Vectors.t
(** [run chip suite] returns the suite extended with repair vectors.  The
    result is not guaranteed complete (genuinely untestable faults remain
    uncovered); {!validate} repairs and reports coverage in one pass. *)

val validate :
  ?present:Mf_faults.Pressure.context ->
  ?cache:cache ->
  Mf_arch.Chip.t -> Vectors.t -> Vectors.t * Mf_faults.Coverage.report
(** [validate chip suite] validates the suite and, when faults escape,
    repairs it with {!run} and re-measures only the appended vectors
    ({!Mf_faults.Coverage.extend}).  It returns the suite (repaired when
    escapes were found) and the report {!Vectors.validate} gives on it.
    [?cache] as in {!repair_sa0}; its detection sets also answer both
    measurements. *)
