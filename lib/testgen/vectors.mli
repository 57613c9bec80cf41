(** Assembly of a complete single-source / single-meter test-vector suite
    from a DFT configuration, and its re-validation under control-line
    sharing (Sec. 4.1).

    The suite stores the {e intent} of every vector (which edges form each
    test path, which valves form each cut); actual control-line activations
    are recomputed against a chip, so the same suite can be re-applied to a
    re-wired chip (valve sharing) and checked by fault simulation. *)

type t = {
  source_port : int;
  meter_port : int;
  path_edges : int list list;
  cut_valves : int list list;
}

val of_config : Pathgen.config -> Cutgen.result -> t

val vectors : Mf_arch.Chip.t -> t -> Mf_faults.Vector.t list
(** Materialise the suite against a chip (augmented, with or without
    sharing applied). *)

val count : t -> int
(** Total number of test vectors (paths + cuts), the Fig. 8 metric. *)

val validate :
  ?present:Mf_faults.Pressure.context ->
  ?detect:(Mf_arch.Chip.t -> Mf_faults.Vector.t -> Mf_faults.Pressure.detection) ->
  Mf_arch.Chip.t ->
  t ->
  Mf_faults.Coverage.report
(** Exhaustive fault simulation of the suite against the given chip.  With
    sharing applied this is exactly the validation step of Sec. 4.1: a
    sharing scheme is acceptable only when the report is
    {!Mf_faults.Coverage.complete}.  With [?present] the suite is validated
    on the degraded chip (field faults simulated as physically there) over
    the remaining fault universe — see {!Mf_faults.Coverage.measure}, which
    also describes [?detect]. *)

val is_valid : ?present:Mf_faults.Pressure.context -> Mf_arch.Chip.t -> t -> bool
