module Json = Mf_util.Json

let schema = "mfdft-bench-v1"

type entry = { name : string; fields : (string * Json.t) list }
type doc = { scenario : string; jobs : int; cores : int; entries : entry list }

(* ------------------------------------------------------------------ *)
(* policies *)

let tolerance = 1.25

type policy =
  | Record
  | Exact
  | Drift
  | Ceiling of float
  | Wall of float
  | Wall_note of float
  | Floor of float
  | Objectives

type scenario = {
  id : string;
  command : string;
  path : string;
  walls_need_same_jobs : bool;
  policies : (string * policy) list;
}

(* Wall clocks get 50 ms of absolute slack on top of the tolerance (5 ms
   for cache-hit latencies, which are fractions of a millisecond).  The ilp
   and serve baselines are committed at jobs=1 and re-run at MFDFT_JOBS=4
   to pin the deterministic counts, so their wall checks only compare runs
   of equal job count.  The ilp pivot counts are exact pins: a faster LP
   kernel keeps every pivot, and a change to the search re-records them. *)

let ilp =
  {
    id = "ilp";
    command = "perf";
    path = "BENCH_ilp.json";
    walls_need_same_jobs = true;
    policies =
      [
        ("wall_ms", Wall 50.);
        ("pivots", Exact);
        ("dual_pivots", Exact);
        ("nodes", Ceiling 5.);
        ("warm_eligible", Record);
        ("warm_taken", Record);
        ("cache_hits", Record);
        ("phase1_solves", Record);
        ("presolve_fixed", Record);
        ("cover_cuts", Record);
        ("objectives", Objectives);
      ];
  }

let sched =
  {
    id = "sched";
    command = "sched";
    path = "BENCH_sched.json";
    walls_need_same_jobs = false;
    policies =
      [ ("wall_ms", Wall 50.); ("makespan", Exact); ("steps", Drift); ("routes", Drift) ];
  }

(* Chip and assay are pure functions of (family, size): a changed
   channel/valve count means the generator drifted, which invalidates every
   downstream number. *)
let scale =
  {
    id = "scale";
    command = "scale";
    path = "BENCH_scale.json";
    walls_need_same_jobs = false;
    policies =
      [
        ("channels", Exact);
        ("valves", Exact);
        ("sched_ms", Wall 50.);
        ("makespan", Exact);
        ("ilp_ms", Wall 50.);
        ("added", Exact);
        ("paths", Drift);
      ];
  }

(* The repair engine is deterministic, so every count is pinned; the full
   codesign it is measured against only reports its drift. *)
let repair =
  {
    id = "repair";
    command = "repair";
    path = "BENCH_repair.json";
    walls_need_same_jobs = false;
    policies =
      [
        ("full_ms", Wall_note 50.);
        ("repair_ms", Wall 50.);
        ("dropped", Exact);
        ("added", Exact);
        ("detected", Exact);
        ("total", Exact);
        ("vectors", Exact);
        ("waived", Exact);
        ("makespan", Exact);
      ];
  }

(* A drifted fingerprint or result digest silently invalidates every
   cached result in the wild, so both are pins. *)
let serve =
  {
    id = "serve";
    command = "serve";
    path = "BENCH_serve.json";
    walls_need_same_jobs = true;
    policies =
      [
        ("fingerprint", Exact);
        ("digest", Exact);
        ("cold_ms", Wall 50.);
        ("hit_ms", Wall 5.);
        ("warm_jobs_per_s", Floor 2.);
      ];
  }

let scenarios = [ ilp; sched; scale; repair; serve ]

(* ------------------------------------------------------------------ *)
(* documents *)

let to_string doc =
  let str s = Json.to_line (Json.Str s) in
  let entry (e : entry) = Json.to_line (Json.Obj (("name", Json.Str e.name) :: e.fields)) in
  Printf.sprintf "{\"schema\":%s,\"scenario\":%s,\"jobs\":%d,\"cores\":%d,\"entries\":[\n%s\n]}\n"
    (str schema) (str doc.scenario) doc.jobs doc.cores
    (String.concat ",\n" (List.map entry doc.entries))

let save path doc = Out_channel.with_open_text path (fun oc -> output_string oc (to_string doc))

let load path =
  let bad msg = Error (Printf.sprintf "%s: %s" path msg) in
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error msg -> Error msg
  | text -> (
    match Json.parse text with
    | Error msg -> bad msg
    | Ok j -> (
      match
        ( Json.str_field "schema" j,
          Json.str_field "scenario" j,
          Json.int_field "jobs" j,
          Json.int_field "cores" j,
          Json.member "entries" j )
      with
      | Some s, _, _, _, _ when s <> schema -> bad ("unknown schema " ^ s)
      | Some _, Some scenario, Some jobs, Some cores, Some (Json.Arr es) -> (
        let entry = function
          | Json.Obj kvs as e ->
            Option.map
              (fun name -> { name; fields = List.remove_assoc "name" kvs })
              (Json.str_field "name" e)
          | _ -> None
        in
        let entries = List.filter_map entry es in
        if List.length entries <> List.length es then bad "an entry is not an object with a name"
        else Ok { scenario; jobs; cores; entries })
      | _ -> bad "expected schema, scenario, jobs, cores and entries"))

(* ------------------------------------------------------------------ *)
(* gate *)

let compare scn ~baseline current =
  let failures = ref [] and notes = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> failures := m :: !failures) fmt in
  let note fmt = Printf.ksprintf (fun m -> notes := m :: !notes) fmt in
  let walls = (not scn.walls_need_same_jobs) || baseline.jobs = current.jobs in
  if not walls then
    note "baseline at %d job(s), current at %d: wall-clock checks skipped" baseline.jobs
      current.jobs;
  let pct = (tolerance -. 1.) *. 100. in
  let judge what policy b c =
    let show = Json.to_line in
    match (policy, b, c) with
    | Record, _, _ -> ()
    | Exact, _, _ -> if b <> c then fail "%s changed %s -> %s" what (show b) (show c)
    | Drift, _, _ -> if b <> c then note "%s changed %s -> %s" what (show b) (show c)
    | (Ceiling slack | Wall slack | Wall_note slack), Json.Num b, Json.Num c ->
      let is_wall = match policy with Ceiling _ -> false | _ -> true in
      if (walls || not is_wall) && c > (tolerance *. b) +. slack then
        if policy = Wall_note slack then
          note "%s drifted %g -> %g (>%.0f%% over baseline)" what b c pct
        else fail "%s regression %g -> %g (>%.0f%% over baseline)" what b c pct
    | Floor slack, Json.Num b, Json.Num c ->
      if walls && c < (b /. tolerance) -. slack then
        fail "%s regression %g -> %g (>%.0f%% below baseline)" what b c pct
    | Objectives, Json.Arr bs, Json.Arr cs ->
      if List.length bs <> List.length cs then
        fail "%s: %d pool attempts vs %d in baseline" what (List.length cs) (List.length bs)
      else
        List.iteri
          (fun i pair ->
            match pair with
            | Json.Null, Json.Null -> ()
            | Json.Num b, Json.Num c when abs_float (b -. c) <= 1e-6 -> ()
            | Json.Num b, Json.Num c when c < b ->
              note "%s: attempt %d improved %.6f -> %.6f" what i b c
            | Json.Num b, Json.Num c -> fail "%s: attempt %d regressed %.6f -> %.6f" what i b c
            | Json.Num _, Json.Null ->
              fail "%s: attempt %d succeeded in baseline, failed now" what i
            | Json.Null, Json.Num _ -> note "%s: attempt %d failed in baseline, succeeds now" what i
            | b, c -> fail "%s: attempt %d malformed (%s, %s)" what i (show b) (show c))
          (List.combine bs cs)
    | _ -> fail "%s: cannot compare %s -> %s" what (show b) (show c)
  in
  List.iter
    (fun (b : entry) ->
      match List.find_opt (fun (e : entry) -> e.name = b.name) current.entries with
      | None -> fail "%s: missing from current run" b.name
      | Some e ->
        List.iter
          (fun (field, bv) ->
            let policy = Option.value ~default:Record (List.assoc_opt field scn.policies) in
            let what = b.name ^ ": " ^ field in
            match List.assoc_opt field e.fields with
            | None -> if policy <> Record then fail "%s missing from current run" what
            | Some cv -> judge what policy bv cv)
          b.fields)
    baseline.entries;
  (List.rev !failures, List.rev !notes)

let gate ?(checks = []) scn ~jobs ~write_baseline entries =
  let doc = { scenario = scn.id; jobs; cores = Domain.recommended_domain_count (); entries } in
  let verdict failures =
    Format.printf "%s gate: FAIL@." scn.command;
    List.iter (fun m -> Format.printf "  - %s@." m) failures;
    exit 1
  in
  if checks <> [] then verdict checks;
  if write_baseline then begin
    save scn.path doc;
    Format.printf "@.baseline written to %s@." scn.path
  end
  else
    match load scn.path with
    | Error msg ->
      Format.printf "@.no usable baseline (%s); run `bench -- %s-baseline` to create one@." msg
        scn.command;
      verdict [ "no baseline to gate against" ]
    | Ok baseline when baseline.scenario <> scn.id ->
      verdict [ Printf.sprintf "%s holds a %s baseline" scn.path baseline.scenario ]
    | Ok baseline ->
      let failures, notes = compare scn ~baseline doc in
      List.iter (fun m -> Format.printf "note: %s@." m) notes;
      if failures <> [] then verdict failures;
      Format.printf "%s gate: PASS (%d entries vs %s; exact pins held, walls within %.0f%%)@."
        scn.command (List.length baseline.entries) scn.path
        ((tolerance -. 1.) *. 100.)
