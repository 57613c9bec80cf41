(** Damaged copies of one persisted file, for corruption corpora. *)

val variants : string -> (string * string) list
(** [variants bytes] is a list of [(label, damaged bytes)]: [bytes] cut to
    0 bytes, to its header line, to half and to one byte short, then
    [bytes] with one byte XORed with [0x5a] at 40 evenly spaced offsets of
    the header line and 40 of the payload (every offset of a shorter
    region).  The header line ends at the first newline. *)

val flip : string -> int -> string
(** [flip bytes i] is [bytes] with byte [i] XORed with [0x5a]. *)

val read : string -> string
(** The bytes of a file. *)

val write : string -> string -> unit
(** [write path bytes] replaces the file at [path]. *)
