(** The serve-mode wire protocol: one JSON object per line, both ways.

    Requests name a command in ["cmd"].  Chips and assays arrive either by
    benchmark name ([{"name": "ivd_chip"}]) or inline as the textual format
    the CLI already accepts ([{"text": "chip w 6 5\n..."}]) — either way the
    fingerprint is computed over the canonical parsed rendering, so the two
    spellings of the same architecture share one cache entry.

    Responses: an acknowledgement object first (always carrying ["ok"]),
    then — for submissions that wait — streamed event objects (["event"]:
    [queued], [started], [iteration], [done]) and finally the {e payload
    line}, a deterministic result summary ([{"type": "result", ...}]) that
    is byte-identical for every solve of the same fingerprint.  The bench
    byte-identity gate compares exactly this line. *)

module Json = Mf_util.Json

type source = Name of string | Text of string

type submit = {
  chip : source;
  assay : source;
  options : Fingerprint.options;
  priority : int;  (** higher runs first; ties in submission order (default 0) *)
  deadline : float option;
      (** wall-clock budget in seconds.  Budgeted runs are not
          deterministic, so they are never cached, never joined by
          single-flight, and never persisted for crash recovery. *)
  wait : bool;  (** stream events and the payload line on this connection *)
}

type request =
  | Ping
  | Fingerprint_of of { chip : source; assay : source; options : Fingerprint.options }
  | Submit of submit
  | Status of string  (** by fingerprint *)
  | Result of string  (** cached payload by fingerprint, if ready *)
  | Stats
  | Shutdown

val parse_request : string -> (request, string) result
(** Parse one request line. *)

val resolve_chip : source -> (Mf_arch.Chip.t, string) result
val resolve_assay : source -> (Mf_bioassay.Seqgraph.t, string) result

val submit_to_json : submit -> Json.t
(** Persistable spec (the deadline, meaningless across a restart, is
    dropped).  [submit_of_json (submit_to_json s)] round-trips the rest. *)

val submit_of_json : Json.t -> (submit, string) result

val payload_line : fingerprint:string -> Mfdft.Codesign.result -> string
(** The final result line: fingerprint, {!Fingerprint.result_digest}, and
    the result's semantic summary (resource counts, execution times,
    degradations).  Deterministic — no wall-clock fields — so repeated
    solves of one fingerprint produce byte-identical lines. *)

val error_line : string -> string
(** [{"ok": false, "error": msg}] *)

val line_too_long_line : limit:int -> string
(** The reply to a request line longer than [limit] bytes:
    [{"ok":false,"error":...,"code":"line_too_long"}].  The daemon closes
    the connection after sending it. *)
