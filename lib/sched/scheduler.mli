(** List scheduler with device binding, channel routing and distributed
    channel storage — the execution-model substrate of [6] that the paper's
    codesign evaluates against, extended with the valve-sharing legality
    rules of Sec. 4.1.

    Model (one tick = 1 s):
    - operations bind to free devices of the matching kind, preferring a
      device that already holds one of their input fluids;
    - every dependency edge of the sequencing graph is one {e fluid unit}
      that must be transported from the producing device to the consuming
      device through currently free channels (1 tick per channel segment);
      root operations draw a fresh reagent from the nearest port;
    - a device whose result is not yet consumable can be freed by evicting
      the fluid into {e channel storage}: a free, valve-enclosed channel
      edge (distributed storage, [6]);
    - with [respect_sharing], opening the valves along a transport path also
      opens every valve sharing those control lines; the transport is
      illegal if any such forced-open valve borders a resting fluid, a busy
      device or another transport in flight (the contamination scenarios of
      Fig. 6), so shared chips wait — or deadlock, which scores the sharing
      scheme invalid. *)

type options = {
  respect_sharing : bool;  (** enforce control-line coupling (default true) *)
  transport_cost : int;  (** ticks per channel segment (default 1) *)
  allow_storage : bool;  (** permit eviction to channel storage (default true) *)
  horizon : int;  (** give up after this many ticks (default 1_000_000) *)
  wash : bool;
      (** cross-contamination washing ([11]): a channel segment last used by
          a different sample must be flushed before reuse; each dirty
          segment adds [wash_penalty] ticks to the transport (default
          false, matching the paper's evaluation) *)
  wash_penalty : int;  (** ticks per dirty segment (default 2) *)
}

val default_options : options

(** Global event-loop counters, accumulated across every simulation since
    start (or the last {!Stats.reset}).  Atomic, so concurrent fitness
    workers update them safely; also mirrored into {!Mf_util.Prof} as
    [sched.runs]/[sched.steps]/[sched.routes] when [MFDFT_PROF=1]. *)
module Stats : sig
  type snapshot = {
    runs : int;  (** simulations executed *)
    steps : int;  (** event-loop iterations *)
    routes : int;  (** routing queries answered *)
    cutoffs : int;
        (** always 0: simulations are never cut short.  Kept because
            [perfbench/measure.ml] reads it. *)
  }

  val reset : unit -> unit
  val snapshot : unit -> snapshot
end

val run :
  ?options:options ->
  ?prep:Prep.t ->
  Mf_arch.Chip.t ->
  Mf_bioassay.Seqgraph.t ->
  (Schedule.t, Schedule.failure) result
(** Simulate [app] on [chip] and return the full schedule (events
    included).  [?prep] supplies a prebuilt {!Prep.t} for [chip] — it
    {b must} describe the same chip (same grid, valve placement and
    control wiring) or the simulation is meaningless; when absent the
    cache is built on the fly. *)

val run_reference :
  ?options:options ->
  Mf_arch.Chip.t ->
  Mf_bioassay.Seqgraph.t ->
  (Schedule.t, Schedule.failure) result
(** Same simulation, but every occupancy/routing query rebuilds its answer
    from first principles (the pre-cache seed implementation) instead of
    consulting the incrementally maintained bitsets.  Slow; exists as the
    oracle for differential tests and the bench gate. *)

val makespan :
  ?options:options -> ?prep:Prep.t -> Mf_arch.Chip.t -> Mf_bioassay.Seqgraph.t -> int option
(** [makespan chip app] is the execution time, or [None] when the
    application cannot complete (the PSO fitness maps this to infinity).
    Event recording is disabled — the fitness hot loop allocates no event
    list. *)
