(** The serve-mode job engine: priority queue, content-addressed cache,
    single-flight deduplication, crash recovery — everything the daemon does
    except sockets, so the whole lifecycle is testable in-process.

    Concurrency model: {!submit}, {!status}, {!stats} and {!request_stop}
    may be called from any thread (connection handlers); {!run_next} — which
    actually solves — must only be called from one thread at a time, the
    thread that created the engine (it drives the shared
    {!Mf_util.Domain_pool}, whose discipline requires exactly that).
    Subscriber callbacks fire on the solver thread, outside the engine lock.

    Persistence under [state_dir], every file an {!Mf_util.Snapshot}
    (versioned magic, payload digest, atomic write):
    - [cache/] — the content-addressed result store ({!Cache});
    - [jobs/<fp>.job] — the spec of every queued or running job without a
      deadline, written on submit and removed on completion;
    - [jobs/<fp>.ckpt] — the codesign checkpoint of a job that got far
      enough to snapshot.

    {!create} deletes the [*.tmp] files of interrupted writes, then scans
    [jobs/] and re-enqueues every persisted spec that verifies (the rest
    are dropped with their checkpoints), resuming from its checkpoint when one exists — so a
    daemon killed mid-solve finishes the job after restart, bit-identical
    to an uninterrupted solve.  A checkpoint that fails verification is
    deleted and the job solved from its spec, to the same payload. *)

type t

type stats = {
  solves : int;  (** jobs actually run to completion *)
  joins : int;  (** submissions attached to an identical in-flight job *)
  recovered : int;  (** jobs re-enqueued from persisted specs at startup *)
  failures : int;  (** jobs that ended in a typed failure *)
  queued : int;  (** currently waiting (running job excluded) *)
  cache : Cache.stats;
}

type outcome =
  | Payload of string  (** the deterministic payload line *)
  | Failed of string  (** rendered {!Mf_util.Fail.t} *)
  | Checkpointed  (** graceful stop: spec + snapshot persisted for restart *)

type disposition =
  | Cached of string  (** served from the cache; the payload line, no job ran *)
  | Enqueued of int  (** job id; events and the outcome will stream *)
  | Joined of int  (** identical submission already in flight; sharing its solve *)

val create :
  ?jobs:int ->
  ?mem_capacity:int ->
  ?disk_capacity:int ->
  ?checkpoint_every:int ->
  ?tune:(Mfdft.Codesign.params -> Mfdft.Codesign.params) ->
  state_dir:string ->
  unit ->
  t
(** [jobs] sizes the shared domain pool (default 1).  [checkpoint_every]
    is the codesign snapshot cadence in outer iterations (default 1, so a
    killed daemon loses at most one iteration).  [tune] post-processes the
    solver parameters of every job — tests use it to shrink PSO budgets;
    it must be deterministic or cached results will not be byte-stable. *)

val submit :
  t ->
  Protocol.submit ->
  on_event:(string -> unit) ->
  on_done:(outcome -> unit) ->
  (string * disposition, string) result
(** Returns the submission's fingerprint and what happened to it.  For
    [Cached] neither callback will fire (the payload is in the
    disposition); otherwise [on_event] receives protocol event lines as the
    job progresses and [on_done] fires exactly once.  Submissions with a
    deadline bypass the cache and single-flight entirely (budgeted solves
    are not deterministic) and are not persisted for recovery. *)

val run_next : ?stop_after:int -> t -> [ `Idle | `Ran ]
(** Solve the highest-priority queued job on the calling thread.  [`Idle]
    when the queue is empty.  [stop_after] checkpoints and aborts the job
    after that many outer iterations (the kill half of the restart
    differential test).  A stop requested via {!request_stop} has the same
    effect at the next iteration boundary. *)

val wait_for_work : t -> unit
(** Block until the queue is non-empty or {!request_stop} was called. *)

val status : t -> string -> string
(** ["queued" | "running" | "cached" | "unknown"] for a fingerprint. *)

val find_cached : t -> string -> string option
(** The cached payload line for a fingerprint, if present. *)

val request_stop : t -> unit
(** Graceful shutdown: the running job checkpoints and re-persists at its
    next iteration boundary, {!wait_for_work} and {!run_next} return.
    Safe from signal handlers' watcher threads. *)

val stopping : t -> bool
val pending : t -> int
val stats : t -> stats

val flush : t -> unit
(** Write the cache index. *)

val shutdown : t -> unit
(** Flush, then join the domain pool.  The engine is unusable afterwards.
    Must be called from the thread that created the engine. *)
