(* The committed bench baselines and the policy-driven gate that reads
   them: every BENCH_*.json loads, passes against itself, survives a
   save/load round trip, and each policy class turns a mutated run into the
   failure or note it promises. *)

module B = Mf_bench
module Json = Mf_util.Json

let check = Alcotest.check

(* The baselines sit at the source root: the working directory under
   [dune exec] from the root, its parent under [dune runtest] (cwd
   [_build/default/test], where the stanza's deps copy them). *)
let locate file =
  let rec up dir =
    let path = Filename.concat dir file in
    if Sys.file_exists path then path
    else
      let parent = Filename.dirname dir in
      if parent = dir then Alcotest.failf "%s: not found above %s" file (Sys.getcwd ())
      else up parent
  in
  up (Sys.getcwd ())

let committed (scn : B.scenario) =
  match B.load (locate scn.B.path) with
  | Ok doc -> doc
  | Error e -> Alcotest.failf "%s: %s" scn.B.path e

let test_committed_load () =
  List.iter
    (fun (scn : B.scenario) ->
      let doc = committed scn in
      check Alcotest.string (scn.B.path ^ " scenario") scn.B.id doc.B.scenario;
      check Alcotest.bool (scn.B.path ^ " has entries") true (doc.B.entries <> []);
      (* every field a baseline pins is one its scenario names *)
      List.iter
        (fun (e : B.entry) ->
          List.iter
            (fun (k, _) ->
              if not (List.mem_assoc k scn.B.policies) then
                Alcotest.failf "%s: %s.%s has no policy" scn.B.path e.B.name k)
            e.B.fields)
        doc.B.entries)
    B.scenarios

let test_self_compare () =
  List.iter
    (fun (scn : B.scenario) ->
      let doc = committed scn in
      let failures, notes = B.compare scn ~baseline:doc doc in
      check Alcotest.(list string) (scn.B.id ^ " failures") [] failures;
      check Alcotest.(list string) (scn.B.id ^ " notes") [] notes)
    B.scenarios

let test_round_trip () =
  List.iter
    (fun (scn : B.scenario) ->
      let doc = committed scn in
      let path = Filename.temp_file "mfdft-bench" ".json" in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          B.save path doc;
          match B.load path with
          | Error e -> Alcotest.failf "%s: %s" scn.B.path e
          | Ok back ->
            check Alcotest.bool (scn.B.id ^ " load (save d) = d") true (back = doc);
            (* the committed file is already in the canonical layout *)
            let text = In_channel.with_open_text (locate scn.B.path) In_channel.input_all in
            check Alcotest.string (scn.B.id ^ " canonical bytes") text (B.to_string doc)))
    B.scenarios

(* ------------------------------------------------------------------ *)
(* one mutated run per policy class *)

let num doc name field =
  let e = List.find (fun (e : B.entry) -> e.B.name = name) doc.B.entries in
  List.assoc field e.B.fields

let set name field v (doc : B.doc) =
  let entry (e : B.entry) =
    if e.B.name <> name then e
    else
      let put (k, x) = if k = field then (k, v) else (k, x) in
      { e with B.fields = List.map put e.B.fields }
  in
  { doc with B.entries = List.map entry doc.B.entries }

let map_num name field f doc =
  match num doc name field with
  | Json.Num x -> set name field (Json.Num (f x)) doc
  | _ -> Alcotest.failf "%s.%s is not a number" name field

(* (failures, notes) of a mutated run against the committed baseline *)
let verdict scn mutate =
  let baseline = committed scn in
  let f, n = B.compare scn ~baseline (mutate baseline) in
  (List.length f, List.length n)

let expect what expected scn mutate =
  check Alcotest.(pair int int) what expected (verdict scn mutate)

let test_exact_pins () =
  let succ_f x = x +. 1. and pred_f x = x -. 1. in
  expect "scale makespan +1" (1, 0) B.scale (map_num "ring/8" "makespan" succ_f);
  expect "scale channels" (1, 0) B.scale (map_num "fpva/4" "channels" succ_f);
  expect "repair coverage" (1, 0) B.repair (map_num "ivd_chip/ivd" "detected" pred_f);
  expect "sched makespan" (1, 0) B.sched (map_num "codesign:ivd_chip/cpa" "makespan" pred_f);
  expect "serve digest" (1, 0) B.serve (set "ra30_chip/pid" "digest" (Json.Str "0"));
  expect "missing entry" (1, 0) B.sched (fun d ->
      let keep (e : B.entry) = e.B.name <> "ivd_chip/pid" in
      { d with B.entries = List.filter keep d.B.entries })

let test_drift_notes () =
  expect "sched steps" (0, 1) B.sched (map_num "ivd_chip/ivd" "steps" (fun x -> x +. 1.));
  expect "sched routes" (0, 1) B.sched (map_num "mrna_chip/cpa" "routes" (fun x -> x -. 1.));
  expect "scale paths" (0, 1) B.scale (map_num "ring/12" "paths" (fun x -> x +. 2.));
  expect "repair full_ms over tolerance" (0, 1) B.repair
    (map_num "ivd_chip/ivd" "full_ms" (fun x -> (x *. 2.) +. 100.))

let test_walls () =
  let over slack x = (B.tolerance *. x) +. slack +. 0.01 in
  let under slack x = (B.tolerance *. x) +. slack -. 0.01 in
  expect "sched wall over" (1, 0) B.sched (map_num "mrna_chip/cpa" "wall_ms" (over 50.));
  expect "sched wall under" (0, 0) B.sched (map_num "mrna_chip/cpa" "wall_ms" (under 50.));
  expect "scale ilp wall over" (1, 0) B.scale (map_num "ring/20" "ilp_ms" (over 50.));
  expect "repair wall over" (1, 0) B.repair (map_num "fpva/5" "repair_ms" (over 50.));
  expect "serve hit over" (1, 0) B.serve (map_num "ivd_chip/ivd" "hit_ms" (over 5.));
  expect "serve hit under" (0, 0) B.serve (map_num "ivd_chip/ivd" "hit_ms" (under 5.));
  expect "ilp wall over" (1, 0) B.ilp (map_num "ra30_chip" "wall_ms" (over 50.))

let test_walls_across_jobs () =
  let slow_at_4 name field d =
    { (map_num name field (fun x -> (x *. 10.) +. 100.) d) with B.jobs = 4 }
  in
  (* ilp and serve skip wall checks across job counts, with a note *)
  expect "ilp at jobs=4" (0, 1) B.ilp (slow_at_4 "ivd_chip" "wall_ms");
  expect "serve at jobs=4" (0, 1) B.serve (slow_at_4 "mrna_chip/cpa" "cold_ms");
  expect "serve floor at jobs=4" (0, 1) B.serve (fun d ->
      { (map_num "warm" "warm_jobs_per_s" (fun _ -> 0.) d) with B.jobs = 4 });
  (* ... but never the deterministic counts *)
  expect "ilp nodes at jobs=4" (1, 1) B.ilp (fun d ->
      { (map_num "ivd_chip" "nodes" (fun x -> x *. 2.) d) with B.jobs = 4 });
  (* the other scenarios check walls at any job count *)
  expect "sched at jobs=4" (1, 0) B.sched (slow_at_4 "ivd_chip/cpa" "wall_ms")

let test_ilp_nodes () =
  expect "nodes at the bound" (0, 0) B.ilp
    (map_num "ivd_chip" "nodes" (fun x -> (B.tolerance *. x) +. 5.));
  expect "nodes over the bound" (1, 0) B.ilp
    (map_num "ivd_chip" "nodes" (fun x -> (B.tolerance *. x) +. 6.))

let test_objectives () =
  let attempt i f d =
    match num d "ra30_chip" "objectives" with
    | Json.Arr os ->
      let os = List.mapi (fun j o -> if i = j then f o else o) os in
      set "ra30_chip" "objectives" (Json.Arr os) d
    | _ -> Alcotest.fail "objectives is not an array"
  in
  let shift dx = function Json.Num x -> Json.Num (x +. dx) | o -> o in
  expect "worse" (1, 0) B.ilp (attempt 1 (shift 1e-3));
  expect "better" (0, 1) B.ilp (attempt 2 (shift (-1e-3)));
  expect "within 1e-6" (0, 0) B.ilp (attempt 3 (shift 5e-7));
  expect "failed now" (1, 0) B.ilp (attempt 0 (fun _ -> Json.Null));
  expect "attempt count" (1, 0) B.ilp (fun d ->
      match num d "mrna_chip" "objectives" with
      | Json.Arr os -> set "mrna_chip" "objectives" (Json.Arr (Json.Num 1. :: os)) d
      | _ -> Alcotest.fail "objectives is not an array")

let test_throughput_floor () =
  let floor x = (x /. B.tolerance) -. 2. in
  expect "below the floor" (1, 0) B.serve
    (map_num "warm" "warm_jobs_per_s" (fun x -> floor x -. 0.1));
  expect "at the floor" (0, 0) B.serve (map_num "warm" "warm_jobs_per_s" floor);
  expect "faster" (0, 0) B.serve (map_num "warm" "warm_jobs_per_s" (fun x -> x *. 3.))

let test_load_errors () =
  let with_text text f =
    let path = Filename.temp_file "mfdft-bench" ".json" in
    Fun.protect
      ~finally:(fun () -> Sys.remove path)
      (fun () ->
        Out_channel.with_open_text path (fun oc -> output_string oc text);
        f (B.load path))
  in
  let rejects what text =
    with_text text (function
      | Ok _ -> Alcotest.failf "%s: loaded" what
      | Error _ -> ())
  in
  rejects "old schema" "{\"schema\":\"mfdft-bench-sched-v1\",\"jobs\":1,\"entries\":[]}";
  rejects "no scenario" "{\"schema\":\"mfdft-bench-v1\",\"jobs\":1,\"cores\":1,\"entries\":[]}";
  rejects "nameless entry"
    "{\"schema\":\"mfdft-bench-v1\",\"scenario\":\"x\",\"jobs\":1,\"cores\":1,\
     \"entries\":[{\"a\":1}]}";
  rejects "not json" "{\"schema\":";
  match B.load "no-such-baseline.json" with
  | Ok _ -> Alcotest.fail "missing file loaded"
  | Error _ -> ()

let () =
  Alcotest.run "mf_bench"
    [
      ( "baselines",
        [
          Alcotest.test_case "committed files load" `Quick test_committed_load;
          Alcotest.test_case "self-compare is clean" `Quick test_self_compare;
          Alcotest.test_case "save/load round trip" `Quick test_round_trip;
          Alcotest.test_case "load errors" `Quick test_load_errors;
        ] );
      ( "policies",
        [
          Alcotest.test_case "exact pins" `Quick test_exact_pins;
          Alcotest.test_case "drift notes" `Quick test_drift_notes;
          Alcotest.test_case "walls" `Quick test_walls;
          Alcotest.test_case "walls across job counts" `Quick test_walls_across_jobs;
          Alcotest.test_case "ilp nodes" `Quick test_ilp_nodes;
          Alcotest.test_case "ilp objectives" `Quick test_objectives;
          Alcotest.test_case "throughput floor" `Quick test_throughput_floor;
        ] );
    ]
