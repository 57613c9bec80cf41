(** The committed bench baselines ([BENCH_*.json]): one document shape,
    one writer, one loader and one regression gate for every gated bench
    scenario.

    A document is
    {v
{"schema":"mfdft-bench-v1","scenario":"sched","jobs":1,"cores":1,"entries":[
{"name":"ivd_chip/ivd","wall_ms":0.05,"makespan":228,"steps":20,"routes":33},
...
]}
    v}
    with one entry per line, so a baseline refresh diffs line by line.
    [jobs] is the parallelism the run was configured with, [cores] what
    the machine offered ([Domain.recommended_domain_count]).

    Each {!scenario} states, per field, how a run is judged against its
    baseline ({!policy}); a field the table does not name is recorded
    only. *)

module Json = Mf_util.Json

val schema : string

type entry = { name : string; fields : (string * Json.t) list }
type doc = { scenario : string; jobs : int; cores : int; entries : entry list }

(** {1 Policies} *)

val tolerance : float
(** Upper bounds are [tolerance] x baseline + slack; the throughput floor
    is baseline / [tolerance] - slack. *)

type policy =
  | Record  (** kept for the reader, never compared *)
  | Exact  (** deterministic pin: any change fails *)
  | Drift
      (** deterministic, but legitimately moves when the algorithm
          changes: a change is a note, so a refresh is a conscious act *)
  | Ceiling of float  (** count: fails above the upper bound with this slack *)
  | Wall of float
      (** wall clock: fails above the upper bound with this slack; skipped
          across job counts where the scenario says so *)
  | Wall_note of float  (** wall clock whose overrun is only a note *)
  | Floor of float
      (** throughput: fails below the floor with this slack; skipped
          with the wall checks *)
  | Objectives
      (** per-attempt ILP objectives (numbers, [null] = attempt failed):
          no worse than baseline to 1e-6; a better objective or a newly
          succeeding attempt is a note; a worse objective, a newly failing
          attempt or a different attempt count fails *)

type scenario = {
  id : string;  (** the document's ["scenario"] *)
  command : string;  (** [bench -- <command>] runs it, [<command>-baseline] rewrites it *)
  path : string;  (** the committed baseline *)
  walls_need_same_jobs : bool;
      (** skip [Wall] and [Floor] checks when the run and the baseline
          were configured with different job counts *)
  policies : (string * policy) list;
}

val ilp : scenario
(** [bench -- perf]: LP-core counters of the pool build, BENCH_ilp.json. *)

val sched : scenario
(** [bench -- sched]: scheduler fast path and codesign fitness, BENCH_sched.json. *)

val scale : scenario
(** [bench -- scale]: chip-family size sweep, BENCH_scale.json. *)

val repair : scenario
(** [bench -- repair]: fault-adaptive retest vs codesign, BENCH_repair.json. *)

val serve : scenario
(** [bench -- serve]: serve engine cold/hit/warm, BENCH_serve.json. *)

val scenarios : scenario list

(** {1 Documents} *)

val to_string : doc -> string
val save : string -> doc -> unit
val load : string -> (doc, string) result

(** {1 Gate} *)

val compare : scenario -> baseline:doc -> doc -> string list * string list
(** [(failures, notes)]; the run passes when [failures] is empty.  Every
    baseline entry must be present in the run, and every field it pins. *)

val gate :
  ?checks:string list -> scenario -> jobs:int -> write_baseline:bool -> entry list -> unit
(** The tail of every gated scenario, given the run's entries at [jobs]
    (the document's [cores] is this machine's
    [Domain.recommended_domain_count]).  [checks] are failures the
    scenario found on the run alone; any of them fails the gate before a
    baseline is written or compared.  Then either write the baseline, or
    load it, compare, print the notes and PASS or FAIL.  Failing (an
    unusable baseline included) exits with status 1. *)
