(** The serve daemon: {!Engine} behind a line-oriented socket.

    One listener (Unix-domain socket or loopback TCP), one thread per
    connection, and the calling thread as the solver loop — the engine and
    its shared domain pool are created, driven and shut down on the same
    thread, as the pool discipline requires.

    Shutdown: SIGTERM, SIGINT and the [shutdown] command all funnel into a
    self-pipe ({!run} blocks both signals and takes them on one thread, so
    an idle daemon stops too).  The accept loop notices, stops accepting
    and requests an engine stop; the running job checkpoints at its next
    iteration boundary, queued jobs stay persisted, the cache index is
    flushed, and {!run} returns.  A daemon killed outright (SIGKILL) instead recovers
    from the persisted specs and checkpoints on the next start. *)

type endpoint =
  | Unix_socket of string  (** path; a stale socket file is replaced *)
  | Tcp of int  (** loopback only *)

type config = {
  endpoint : endpoint;
  state_dir : string;
  jobs : int;  (** shared domain-pool width *)
  mem_capacity : int;
  disk_capacity : int;
  checkpoint_every : int;  (** codesign snapshot cadence, outer iterations *)
}

val run : ?tune:(Mfdft.Codesign.params -> Mfdft.Codesign.params) -> config -> unit
(** Serve until shutdown is requested.  [tune] is passed to the engine
    (test harnesses shrink the solver budgets with it). *)
