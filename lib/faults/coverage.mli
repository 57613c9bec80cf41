(** Fault-coverage measurement of a vector set (used both to validate DFT
    architectures and to score valve-sharing schemes, Sec. 4.1). *)

type report = {
  total_faults : int;
  detected : int;
  sa0_undetected : int list;  (** channel edges whose blockage escapes *)
  sa1_undetected : int list;  (** valve ids whose stuck-open escapes *)
  leak_undetected : int list;  (** valve ids whose control-layer leak escapes *)
  malformed : int;  (** vectors whose fault-free reading is wrong *)
}

val complete : report -> bool
(** All faults detected and every vector well-formed. *)

val ratio : report -> float
(** Detected fraction, in [0, 1]. *)

val measure :
  ?include_leaks:bool ->
  ?present:Pressure.context ->
  ?detect:(Mf_arch.Chip.t -> Vector.t -> Pressure.detection) ->
  Mf_arch.Chip.t ->
  Vector.t list ->
  report
(** Exhaustive single-fault simulation of the vector set.  The default
    universe is the paper's demonstration scope (stuck-at-0/1);
    [include_leaks] extends it with the control-to-flow leak per valve.
    With [?present], simulation runs on the degraded chip (the context's
    faults are treated as physically there) and the universe excludes the
    context faults themselves — the repair engine's re-validation view.

    Without [?present], a fault is detected iff it lies in the union of the
    vectors' {!Pressure.detect} sets; [?detect] replaces {!Pressure.detect}
    with a memoised equal (for instance one keyed by
    {!Pressure.detection_key}).  It answers for the fault-free chip, so it
    cannot go with [?present] ([Invalid_argument]). *)

val extend :
  ?present:Pressure.context ->
  ?detect:(Mf_arch.Chip.t -> Vector.t -> Pressure.detection) ->
  Mf_arch.Chip.t ->
  report ->
  Vector.t list ->
  report
(** [extend chip (measure chip vs) ws] equals [measure chip (vs @ ws)],
    field for field and in list order, under the same [?include_leaks] and
    [?present] as the first report.  Only [ws] is simulated, and only
    against the faults the first report lists as undetected: the re-measure
    after a repair that appended [ws].  [?detect] as in {!measure}. *)

val pp : Format.formatter -> report -> unit
