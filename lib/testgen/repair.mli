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

(** Fault-free or fault-context answers shared across many repairs of one
    chip topology.

    {b Routes.}  {!routes} depends on the chip's channels and valve
    placement, the terminals, [via] and the fault context's blocked edges
    and stuck-open valves — never on control wiring, so every sharing
    scheme of one augmented chip has the same routes.  A {!memo} keeps
    them, per context, as sequences forced at most once and only as far
    as some consumer read.

    {b Caches.}  A {!cache} answers for one fault context (or for the
    fault-free chip) and states which: every entry point below that is
    given [?cache] works under the cache's context.  [?present] may
    restate that context (the same value) but not contradict it
    ([Invalid_argument]). *)

type memo
(** Route sequences keyed by context (blocked edges, stuck-open valves),
    terminals and [via].  Safe to share across domains: a missing route
    is computed outside any lock and published with a compare-and-set,
    so a domain never waits for another's computation, and two domains
    racing on one route compute it twice and keep one (routes are
    deterministic).  Every chip it is used with must have the same
    channels and valve placement; control wiring may differ.  Under
    [MFDFT_PROF=1], reads of routes already published count as
    [repair.route_memo_hits] and routes computed as
    [repair.route_memo_misses]. *)

val memo : unit -> memo
(** An empty memo. *)

type cache

val cache :
  ?present:Mf_faults.Pressure.context -> memo -> Mf_arch.Chip.t -> s:int -> t:int -> cache
(** [cache ?present memo chip ~s ~t] answers for context [?present]
    (fault-free when absent) and terminals [s], [t]: its routes come from
    [memo], computed on [chip] at the first miss. *)

val fault_free_cache :
  detect:(Mf_arch.Chip.t -> Mf_faults.Vector.t -> Mf_faults.Pressure.detection) ->
  memo -> Mf_arch.Chip.t -> s:int -> t:int -> cache
(** [fault_free_cache ~detect memo chip ~s ~t] is [cache memo chip ~s ~t]
    whose fault-free detection sets come from [detect]: it gives
    {!Mf_faults.Pressure.detect}, typically memoised under
    {!Mf_faults.Pressure.detection_key}, and also answers {!validate}'s
    measurements.  [Codesign] keeps one memo per pool entry, and the
    detection sets beside its other tables. *)

val cache_context : cache -> Mf_faults.Pressure.context option
(** The context the cache answers for. *)

val cache_routes : cache -> int -> int list Seq.t
(** The cache's routes through [via], read from its memo: equal to
    {!routes} under {!cache_context}, for the cache's chip and terminals. *)

val routes :
  ?present:Mf_faults.Pressure.context -> Mf_arch.Chip.t -> s:int -> t:int -> int -> int list list
(** [routes chip ~s ~t via] is every route from [s] to [t] through channel
    edge [via] that repair tries, in the order it tries them, avoiding the
    edges [?present] blocks.  What a {!memo} holds, computed afresh. *)

(** {1 Candidates}

    Per fault kind, one sequence of confirmed candidates, in the order
    repair tries the routes: a candidate is kept when it is intact on the
    (degraded) chip ({!Mf_faults.Pressure.intact}) and simulation confirms
    it detects the fault.  The candidate list is the sequence with repeats
    dropped, and the repair is its first element: no later candidate is
    built or simulated. *)

val confirmed_sa0 :
  ?present:Mf_faults.Pressure.context ->
  ?cache:cache ->
  Mf_arch.Chip.t -> s:int -> t:int -> int -> int list Seq.t
(** Confirmed stuck-at-0 candidates at an edge: paths (edge lists) from
    source node [s] to meter node [t].  May repeat; deterministic. *)

val confirmed_sa1 :
  ?present:Mf_faults.Pressure.context ->
  ?cache:cache ->
  Mf_arch.Chip.t -> s:int -> t:int -> int -> int list Seq.t
(** Same for stuck-at-1 at a valve id: confirmed cuts (valve-id lists). *)

val candidates_sa0 :
  ?present:Mf_faults.Pressure.context ->
  Mf_arch.Chip.t -> s:int -> t:int -> int -> int list list
(** Every distinct element of {!confirmed_sa0}.  May be empty. *)

val candidates_sa1 :
  ?present:Mf_faults.Pressure.context ->
  Mf_arch.Chip.t -> s:int -> t:int -> int -> int list list
(** Every distinct element of {!confirmed_sa1}. *)

val dedup : 'a list -> 'a list
(** The list with repeats dropped, first occurrences in order: how a
    candidate list drops repeats. *)

val repair_sa0 :
  ?present:Mf_faults.Pressure.context ->
  ?cache:cache ->
  Mf_arch.Chip.t -> s:int -> t:int -> int -> int list option
(** The first element of {!confirmed_sa0}, if any: the head of
    {!candidates_sa0}. *)

val repair_sa1 :
  ?present:Mf_faults.Pressure.context ->
  ?cache:cache ->
  Mf_arch.Chip.t -> s:int -> t:int -> int -> int list option
(** The first element of {!confirmed_sa1}, if any. *)

val run :
  ?present:Mf_faults.Pressure.context ->
  ?cache:cache ->
  Mf_arch.Chip.t -> Vectors.t -> Vectors.t
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
    The cache's detection sets, when it has them, also answer both
    measurements. *)
