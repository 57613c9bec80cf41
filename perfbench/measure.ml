(* Clocks, process accounting, order statistics and the result record
   every workload fills in. *)

(* Wall-clock seconds from the monotonic clock.  Its nanosecond resolution
   keeps the digits of sub-millisecond latencies: [Unix.gettimeofday] steps
   by a microsecond, and a float of seconds since 1970 by 0.24 µs, so on a
   quiet host ten runs could read the same median latency. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* CPU seconds of this process, every thread and domain included. *)
let cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* The machine's steal and total CPU ticks so far, from the "cpu" line of
   /proc/stat: time the hypervisor gave this machine's virtual CPUs to
   others.  A run prints the steal share of its lifetime on stderr, so a
   slow run can be told from a slow program. *)
let host_ticks () =
  let line = List.hd (String.split_on_char '\n' (read_file "/proc/stat")) in
  let ticks =
    String.split_on_char ' ' line
    |> List.filter_map (fun f -> if f = "" || f = "cpu" then None else float_of_string_opt f)
  in
  (* user nice system idle iowait irq softirq steal ... *)
  (List.nth ticks 7, List.fold_left ( +. ) 0. (List.filteri (fun i _ -> i < 8) ticks))

(* Peak resident set ("VmHWM") of a process, in MB. *)
let peak_rss_mb ?(pid = "self") () =
  let status = read_file (Printf.sprintf "/proc/%s/status" pid) in
  let line =
    List.find
      (fun l -> String.length l > 6 && String.sub l 0 6 = "VmHWM:")
      (String.split_on_char '\n' status)
  in
  Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)

(* User + system CPU seconds of another process, from /proc/PID/stat
   (fields 14 and 15, in clock ticks of 1/100 s). *)
let proc_cpu pid =
  let stat = read_file (Printf.sprintf "/proc/%d/stat" pid) in
  (* the command name (field 2) may hold spaces: skip past its ')' *)
  let rest =
    let i = String.rindex stat ')' in
    String.sub stat (i + 2) (String.length stat - i - 2)
  in
  let fields = Array.of_list (String.split_on_char ' ' rest) in
  (* [rest] starts at field 3 *)
  (float_of_string fields.(11) +. float_of_string fields.(12)) /. 100.

(* Nearest-rank percentile of an unsorted sample ([p] in 0..100). *)
let percentile p xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else
    let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))

let median xs = percentile 50. xs
let sum = List.fold_left ( +. ) 0.

(* The tail percentile a workload reports: the highest of these with at
   least ten samples beyond it at the workload's smallest possible sample
   (one round). *)
let tail_percentile ~ops_per_round =
  List.fold_left
    (fun best p ->
      if float_of_int ops_per_round *. (1. -. (p /. 100.)) >= 10. then p else best)
    50. [ 90.; 99.; 99.9 ]

(* A round is one pass over the workload's whole operation set; a run
   repeats rounds until [seconds] have passed, so every run attempts whole
   rounds of the same operations. *)
let rounds ~seconds f =
  let t0 = now () in
  let rec go acc =
    let acc = f () :: acc in
    if now () -. t0 < seconds then go acc else List.rev acc
  in
  go []

(* Units live in BENCHMARK.json only; main.ml pairs them with the values. *)
type metric = { name : string; value : float }

let m name value = { name; value }

type outcome = {
  attempted : int;
  failed : int;
  end_to_end : metric list;
  per_layer : metric list;
}

(* Every check failure is reported on stderr and makes the result
   incorrect. *)
let check_failures = ref 0

let check ok fmt =
  Printf.ksprintf
    (fun msg ->
      if not ok then begin
        incr check_failures;
        if !check_failures <= 20 then prerr_endline ("perfbench: CHECK FAILED: " ^ msg)
      end)
    fmt

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

(* [rows] are (name, unit, value) in BENCHMARK.json order. *)
let to_json (o : outcome) rows =
  let fields =
    List.map
      (fun (name, unit_, value) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number value) unit_)
      rows
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (!check_failures = 0) o.attempted o.failed (String.concat ", " fields)

(* Global solver counters the program already exposes, as per-layer
   metrics (reset at the start of the timed phase). *)
let reset_counters () =
  Mf_lp.Simplex.Stats.reset ();
  Mf_ilp.Ilp.Stats.reset ();
  Mf_sched.Scheduler.Stats.reset ();
  Mf_util.Prof.reset ()

let solver_counters ~per =
  let c a = float_of_int (Atomic.get a) /. per in
  let s = Mf_sched.Scheduler.Stats.snapshot () in
  let module I = Mf_ilp.Ilp.Stats in
  let module L = Mf_lp.Simplex.Stats in
  [
    m "ilp.nodes" (c I.nodes);
    m "ilp.warm_taken" (c I.warm_taken);
    m "ilp.cache_hits" (c I.cache_hits);
    m "lp.pivots" (float_of_int (L.pivots ()) /. per);
    m "lp.refactors" (c L.refactors);
    m "lp.phase1_solves" (c L.phase1_solves);
    m "sched.runs" (float_of_int s.runs /. per);
    m "sched.steps" (float_of_int s.steps /. per);
    m "sched.routes" (float_of_int s.routes /. per);
    m "sched.cutoffs" (float_of_int s.cutoffs /. per);
  ]

(* Stage seconds from the [MFDFT_PROF=1] table ({!Mf_util.Prof.report}),
   summed over domains; 0 when the stage did not run. *)
let prof_seconds stage =
  match Mf_util.Prof.report () with
  | None -> 0.
  | Some table ->
    List.fold_left
      (fun acc line ->
        match Scanf.sscanf line "%s %f %d %s" (fun s t _ _ -> (s, t)) with
        | s, t when s = stage -> t
        | _ -> acc
        | exception _ -> acc)
      0.
      (String.split_on_char '\n' table)
