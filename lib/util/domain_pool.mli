(** Fixed-size pool of worker domains (OCaml 5 [Domain]s) for data-parallel
    fan-out of pure computations.

    The pool exists so the hot paths of the codesign flow (PSO fitness
    batches, ILP pool construction) can use every core without giving up
    reproducibility: {!map} preserves input order, so a caller that draws
    all its random numbers on the coordinating domain and hands the workers
    pure closures gets bit-identical results for any [jobs] value.

    Discipline: tasks must not block, must not call back into the pool, and
    must not mutate shared state except through their own result slot (or
    through synchronisation they provide themselves, e.g. a mutex-guarded
    memo table).  [map] may only be called from the domain that created the
    pool, one call at a time. *)

type t

val create : jobs:int -> t
(** [create ~jobs] spawns [jobs - 1] worker domains ([jobs] is the total
    parallelism: the calling domain also executes tasks while it waits).
    [jobs <= 1] spawns nothing and every [map] runs inline on the caller.
    Raises [Invalid_argument] if [jobs < 1]. *)

val jobs : t -> int
(** Total parallelism the pool was created with. *)

val map : t -> ('a -> 'b) -> 'a array -> 'b array
(** [map pool f xs] applies [f] to every element, possibly concurrently,
    and returns the results {b in input order}.  If one or more
    applications raise, the exception of the lowest-index failing element
    is re-raised on the caller after all tasks have finished — so the pool
    stays reusable and the observed exception is deterministic. *)

val map_bounded :
  t -> ?budget:Budget.t -> fallback:('a -> 'b) -> ('a -> 'b) -> 'a array -> 'b array
(** {!map}, except that a task starting after [budget] is exhausted applies
    the (cheap, non-blocking) [fallback] instead of [f] — so a fan-out hit
    by its deadline still returns a full, order-preserving result array
    quickly.  Which elements degrade depends on scheduling; with no
    [budget] this is exactly [map]. *)

val shutdown : t -> unit
(** Joins the worker domains.  Idempotent.  The pool must be idle. *)

val with_pool : jobs:int -> (t -> 'a) -> 'a
(** [with_pool ~jobs f] runs [f] with a fresh pool and shuts it down
    afterwards, also on exception. *)

val default_jobs : unit -> int
(** Parallelism to use when the user did not say: the [MFDFT_JOBS]
    environment variable if set to a positive integer, otherwise
    [Domain.recommended_domain_count ()]. *)
