(** Integrity-checked persisted files: the one on-disk format and write
    protocol behind every file the toolkit reads back — codesign and repair
    checkpoints, serve cache entries and index, serve job specs.

    A file is a header line [<magic> <hex MD5 of the payload>\n], then the
    payload.  {!write} fills [<path>.tmp], flushes and fsyncs it, then
    renames it over [path]: a crash leaves the old file or the new one,
    never a torn one (at worst a stray [.tmp], see {!clear_tmp}).  {!read}
    returns the payload only when the magic and the digest both match, so
    damaged bytes are never parsed, let alone unmarshalled.

    The magic names the format and its version, and must be bumped when
    the payload's shape (for {!save}, the marshalled type) changes.  It
    must not contain a space or a newline. *)

type error =
  | Missing  (** no file at the path, or it cannot be opened *)
  | Corrupt  (** no well-formed header, or the payload digest differs *)
  | Wrong_magic  (** a header naming another format or version *)

val error_message : error -> string
(** A clause for a failure reason, e.g. ["does not exist"]. *)

val write : magic:string -> string -> string -> unit
(** [write ~magic path payload] replaces [path] atomically.
    Raises [Sys_error] when it cannot. *)

val read : magic:string -> string -> (string, error) result

val save : magic:string -> string -> 'a -> unit
(** [save ~magic path v] writes [v] marshalled (no closures). *)

val load : magic:string -> string -> ('a, error) result
(** Unmarshals a verified payload.  As type-unsafe as [Marshal]: only the
    magic ties the bytes to a type, so use one magic per type and version. *)

val clear_tmp : string -> unit
(** [clear_tmp dir] deletes every [*.tmp] in [dir], the leftovers of
    writes a kill interrupted.  Call it only while nothing writes there. *)
