(** Pressure-propagation simulation: the test-bench physics of Sec. 2.

    Air injected at the source port spreads through every conducting channel
    edge; a meter reads pressure iff it is in the connected component of the
    source.  An edge conducts when it carries a channel, is not blocked by a
    stuck-at-0 defect, and its valve (if any) is open — either because its
    control line is inactive or because the valve is stuck-at-1.

    {b Fault contexts.}  Every query takes an optional [?present] context: a
    set of faults simulated as {e already on the chip} (field faults the
    repair engine adapts to).  A present stuck-at-0 blocks its edge in every
    simulation, a present stuck-at-1 keeps its valve conducting, a present
    leak feeds its valve seat whenever its line is pressurised.  [?fault]
    remains the {e candidate} fault under test, injected on top of the
    context; {!detects} compares readings with and without it, both under
    the same context. *)

type context
(** A compiled fault set; build once per fault state, reuse across vectors. *)

val context : Mf_arch.Chip.t -> Fault.t list -> context
val context_faults : context -> Fault.t list

val blocked : context -> int -> bool
(** Is this edge stuck-at-0 in the context? *)

val stuck_open : context -> int -> bool
(** Is this valve stuck-at-1 in the context? *)

val conducts :
  Mf_arch.Chip.t -> ?present:context -> ?fault:Fault.t -> active_lines:Mf_util.Bitset.t ->
  int -> bool
(** Does a single edge conduct under the given control state, fault context
    and optional injected fault? *)

val reading : Mf_arch.Chip.t -> ?present:context -> ?fault:Fault.t -> Vector.t -> bool
(** [reading chip ?present ?fault v] applies vector [v] and reports whether
    any meter observes pressure. *)

val readings : Mf_arch.Chip.t -> ?present:context -> ?fault:Fault.t -> Vector.t -> bool list
(** Per-meter readings, in [v.meters] order. *)

val detects : ?present:context -> Mf_arch.Chip.t -> Vector.t -> Fault.t -> bool
(** A vector detects a fault when the faulty reading of {e some} meter
    differs from its fault-free reading (each meter is observed
    independently on the test bench).  Both readings are taken under the
    same [present] context. *)

val well_formed : ?present:context -> Mf_arch.Chip.t -> Vector.t -> bool
(** The vector's context-only reading (no candidate fault) matches its
    [expected] field — the basic sanity required before a vector may enter
    a test set.  Under a non-empty context this is the {e damage test}: a
    path vector that traverses a blocked edge, or a cut vector defeated by
    a stuck-open valve, is no longer well-formed. *)

val intact : ?present:context -> Mf_arch.Chip.t -> Vector.t -> bool
(** The vector is intact on the degraded chip: it is {!well_formed} under
    the context and, when it is a path vector, crosses no edge the context
    blocks.  Pressure can reach the meter around a blocked path edge
    through unvalved channels, so a well-formed path vector may still
    cross one.  Without a context this is {!well_formed}.  What the repair
    engine keeps and adds; the certifier derives the same rules on its own
    (MF101, MF104). *)

(** {1 Prepared vectors}

    One fault-free simulation of a vector, from which every single-fault
    detection question is answered: the reach, the per-meter readings and
    the component labels of the conducting graph.  The reach is always a
    union of whole components (the source's, plus those a context leak
    feeds), and a candidate fault adds or removes at most one edge or adds
    two seeds.  So a stuck-at-1 or leak is decided from the labels of its
    valve's endpoints, and a stuck-at-0 is simulated only when its edge
    conducts inside a component holding a pressurised meter (anywhere else
    removing the edge changes no reading).  Callers that ask one vector
    about many faults prepare it once; the value holds O(nodes + edges) of
    working data and is meant to be dropped after use. *)

type prepared

val prepare : ?present:context -> Mf_arch.Chip.t -> Vector.t -> prepared

val prepared_readings : prepared -> bool list
(** Equal to [readings ?present chip v]. *)

val prepared_well_formed : prepared -> bool
(** Equal to [well_formed ?present chip v]. *)

val prepared_intact : prepared -> bool
(** Equal to [intact ?present chip v]. *)

val prepared_detects : prepared -> Fault.t -> bool
(** [prepared_detects (prepare ?present chip v) f] equals
    [detects ?present chip v f] for every fault [f]; {!detects} stays the
    reference definition the tests compare against. *)

val prepared_resimulated : prepared -> int
(** How many {!prepared_detects} calls on this value fell back to
    simulating the faulty chip. *)

(** {1 Detection sets}

    Without a fault context the fault-free reach is the source's component
    of the conducting graph, so one pass over it decides every single
    fault at once: a stuck-at-0 is detected iff its edge is a bridge of
    that component with a meter on its far side, and a stuck-at-1 or leak
    is decided from the reached and dark endpoints of its valve, as
    {!prepared_detects} decides it.  Fault-context simulation stays on
    {!prepare}. *)

type detection = {
  well_formed : bool;  (** equal to [well_formed chip v] *)
  detected : Mf_util.Bitset.t;
      (** every fault the vector detects, over {!fault_space}; read it with
          {!detects_in} *)
}

val fault_space : Mf_arch.Chip.t -> int
(** Size of a detection set: one bit per grid edge (stuck-at-0), then one
    per valve (stuck-at-1), then one per valve (leak). *)

val detects_in : Mf_arch.Chip.t -> Mf_util.Bitset.t -> Fault.t -> bool
(** Is the fault's bit set?  [detects_in chip (detect chip v).detected f]
    equals [detects chip v f] for every fault [f]. *)

val detect : Mf_arch.Chip.t -> Vector.t -> detection
(** One fault-free simulation of the vector, returning its well-formedness
    and its full detection set. *)

val detection_key : Mf_arch.Chip.t -> Vector.t -> string
(** A packed key of what fixes {!detect}'s answer among chips with the same
    channels and valves: the set of valves the vector closes, its source,
    its meters and its expectation.  Two vectors with equal keys on two
    such chips (say, two sharing schemes of one augmented chip) have equal
    detections; callers that simulate many schemes of one chip memoise
    {!detect} under this key. *)
