(** Content-addressed result cache: in-memory LRU over an optional on-disk
    store.

    Entries are opaque byte payloads (the serve protocol's final result
    line) addressed by their submission {!Fingerprint.digest}.  The disk
    tier writes one {!Mf_util.Snapshot} file per entry (versioned magic,
    payload digest, atomic write); a load that fails the check counts as
    corruption, evicts the file, and reports a miss — a poisoned entry is
    re-solved, never served.  An index file (also a snapshot) records
    recency order so the disk LRU survives restarts; a missing or damaged
    index degrades to a directory scan, never a failure.

    All operations are thread-safe (one internal mutex). *)

type t

type stats = {
  mem_hits : int;
  disk_hits : int;  (** disk hit implies promotion into the memory tier *)
  misses : int;
  stores : int;
  evictions : int;  (** disk-tier evictions (capacity) *)
  corrupt : int;  (** on-disk entries rejected and deleted by the integrity check *)
}

val create : ?mem_capacity:int -> ?disk_capacity:int -> ?dir:string -> unit -> t
(** [create ~dir ()] opens (creating if needed) the store rooted at [dir],
    deleting the [*.tmp] files of writes a kill interrupted; without [dir]
    the cache is memory-only.  Defaults: 256 entries in memory, 4096 on
    disk. *)

val find : t -> string -> string option
(** [find t fingerprint] — memory first, then disk (verifying integrity). *)

val store : t -> fingerprint:string -> string -> unit
(** Insert into both tiers, evicting least-recently-used disk entries over
    capacity. *)

val flush : t -> unit
(** Write the disk index.  Called on graceful shutdown; cheap
    enough to call after every store (the engine does). *)

val stats : t -> stats
val entries : t -> int
(** Disk-tier entry count (memory-only caches report the memory tier). *)
