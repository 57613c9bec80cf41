(** Imperative binary min-heap keyed by float priorities, optionally
    extended with a stable integer tie-break.

    Used as the priority queue behind Dijkstra routing and the
    branch-and-bound best-first node selection. *)

type 'a t

val create : unit -> 'a t
val is_empty : 'a t -> bool
val size : 'a t -> int

val push : 'a t -> float -> 'a -> unit
(** [push h priority v] inserts [v]; lower priorities pop first.
    Equivalent to [push_seq h priority 0 v]. *)

val push_seq : 'a t -> float -> int -> 'a -> unit
(** [push_seq h priority seq v] inserts [v] under the lexicographic key
    [(priority, seq)]: among equal float priorities the smallest [seq]
    pops first.  Pushing with a monotone insertion counter makes pop
    order a total, reproducible function of the push sequence — the
    deterministic tie-break law the branch-and-bound search relies on. *)

val pop : 'a t -> (float * 'a) option
(** [pop h] removes and returns the minimum-priority element. *)

val pop_seq : 'a t -> (float * int * 'a) option
(** {!pop}, also returning the element's tie-break key. *)

val peek : 'a t -> (float * 'a) option
val clear : 'a t -> unit
