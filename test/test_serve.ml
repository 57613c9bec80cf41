(* Serve-mode engine tests: fingerprint canonicalisation, the
   content-addressed cache (including the poisoning guard and a corruption
   corpus), single-flight deduplication, and the kill/restart differential
   (also with a damaged checkpoint and torn writes) — everything the daemon
   does, driven synchronously through Mf_serve.Engine. *)

module Json = Mf_serve.Json
module Fingerprint = Mf_serve.Fingerprint
module Cache = Mf_serve.Cache
module Engine = Mf_serve.Engine
module Protocol = Mf_serve.Protocol
module Codesign = Mfdft.Codesign
module Families = Mf_chips.Families
module Benchmarks = Mf_chips.Benchmarks
module Assays = Mf_bioassay.Assays

let check = Alcotest.check

let tmp_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    let d =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "mfdft-serve-test-%d-%d" (Unix.getpid ()) !n)
    in
    if not (Sys.file_exists d) then Sys.mkdir d 0o755;
    d

(* ------------------------------------------------------------------ *)
(* Json *)

let test_json_roundtrip () =
  let values =
    [
      Json.Null;
      Json.Bool true;
      Json.Num 42.;
      Json.Num (-3.5);
      Json.Str "plain";
      Json.Str "esc \"quotes\" \\ back\nnewline\ttab\r\001ctl";
      Json.Arr [ Json.Num 1.; Json.Str "two"; Json.Null ];
      Json.Obj
        [ ("a", Json.Num 1.); ("nested", Json.Obj [ ("b", Json.Arr [ Json.Bool false ]) ]) ];
    ]
  in
  List.iter
    (fun v ->
      let line = Json.to_line v in
      check Alcotest.bool "single line" false (String.contains line '\n');
      match Json.parse line with
      | Ok v' -> check Alcotest.bool ("round-trips: " ^ line) true (v = v')
      | Error e -> Alcotest.fail (line ^ ": " ^ e))
    values

let test_json_integers_stable () =
  check Alcotest.string "integer rendering" "{\"n\":42}"
    (Json.to_line (Json.Obj [ ("n", Json.Num 42.) ]))

let test_json_rejects () =
  List.iter
    (fun s ->
      match Json.parse s with
      | Ok _ -> Alcotest.fail ("accepted: " ^ s)
      | Error _ -> ())
    [ "{"; "{\"a\":}"; "[1,]"; "nope"; "{\"a\":1} trailing"; "\"unterminated" ]

(* ------------------------------------------------------------------ *)
(* Protocol *)

let test_protocol_parse () =
  (match Protocol.parse_request "{\"cmd\":\"ping\"}" with
   | Ok Protocol.Ping -> ()
   | _ -> Alcotest.fail "ping");
  (match
     Protocol.parse_request
       "{\"cmd\":\"submit\",\"chip\":{\"name\":\"ivd_chip\"},\"assay\":{\"name\":\"ivd\"},\"options\":{\"seed\":7},\"priority\":2}"
   with
   | Ok (Protocol.Submit s) ->
     check Alcotest.int "seed" 7 s.Protocol.options.Fingerprint.seed;
     check Alcotest.bool "full defaults off" false s.Protocol.options.Fingerprint.full;
     check Alcotest.int "priority" 2 s.Protocol.priority;
     check Alcotest.bool "wait defaults on" true s.Protocol.wait
   | Ok _ -> Alcotest.fail "wrong request"
   | Error e -> Alcotest.fail e);
  match Protocol.parse_request "{\"cmd\":\"warp\"}" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown command accepted"

let test_protocol_spec_roundtrip () =
  let spec =
    {
      Protocol.chip = Protocol.Name "ivd_chip";
      assay = Protocol.Text "assay a\nop 0 mix 3 m\n";
      options = { Fingerprint.full = true; seed = 9 };
      priority = 3;
      deadline = None;
      wait = false;
    }
  in
  match Protocol.submit_of_json (Protocol.submit_to_json spec) with
  | Ok spec' -> check Alcotest.bool "spec round-trips" true (spec = spec')
  | Error e -> Alcotest.fail e

(* ------------------------------------------------------------------ *)
(* Fingerprint *)

let default_fp_options = Fingerprint.default_options

let test_fingerprint_stable () =
  let chip = Benchmarks.ivd_chip () and assay = Option.get (Assays.by_name "ivd") in
  let d () = Fingerprint.digest ~chip ~assay ~options:default_fp_options in
  check Alcotest.string "same inputs, same digest" (d ()) (d ())

let test_fingerprint_sensitive () =
  let chip = Benchmarks.ivd_chip () and assay = Option.get (Assays.by_name "ivd") in
  let base = Fingerprint.digest ~chip ~assay ~options:default_fp_options in
  let seed' =
    Fingerprint.digest ~chip ~assay ~options:{ default_fp_options with Fingerprint.seed = 43 }
  in
  let full' =
    Fingerprint.digest ~chip ~assay ~options:{ default_fp_options with Fingerprint.full = true }
  in
  let chip' =
    Fingerprint.digest ~chip:(Benchmarks.ra30_chip ()) ~assay ~options:default_fp_options
  in
  let assay' =
    Fingerprint.digest ~chip
      ~assay:(Option.get (Assays.by_name "pid"))
      ~options:default_fp_options
  in
  check Alcotest.bool "seed changes digest" true (base <> seed');
  check Alcotest.bool "full changes digest" true (base <> full');
  check Alcotest.bool "chip changes digest" true (base <> chip');
  check Alcotest.bool "assay changes digest" true (base <> assay')

(* Canonical round-trip: rendering a chip/assay to text and parsing it back
   fingerprints identically, whatever family and size produced it; a
   semantic mutation (another generator seed) does not. *)
let fp_roundtrip_prop =
  QCheck.Test.make ~name:"fingerprint invariant under canonical round-trip" ~count:15
    QCheck.(pair (int_bound 10_000) (int_range 12 24))
    (fun (seed, size) ->
      let rng = Mf_util.Rng.create ~seed in
      let chip =
        Families.Ring.generate ~spec:(Families.Ring.spec_of_size size)
          ~name:(Printf.sprintf "ring-%d-%d" seed size)
          rng
      in
      let assay =
        Mf_bioassay.Synth_assay.generate
          ~spec:(Mf_bioassay.Synth_assay.spec_of_size (max 6 (size / 2)))
          (Mf_util.Rng.create ~seed:(seed + 1))
      in
      let d = Fingerprint.digest ~chip ~assay ~options:default_fp_options in
      let chip' =
        match Mf_arch.Chip_io.parse (Mf_arch.Chip_io.to_string chip) with
        | Ok c -> c
        | Error e -> QCheck.Test.fail_reportf "chip round-trip: %s" e
      in
      let assay' =
        match Mf_bioassay.Assay_io.parse (Mf_bioassay.Assay_io.to_string assay) with
        | Ok a -> a
        | Error e -> QCheck.Test.fail_reportf "assay round-trip: %s" e
      in
      let d' = Fingerprint.digest ~chip:chip' ~assay:assay' ~options:default_fp_options in
      if d <> d' then QCheck.Test.fail_reportf "round-trip changed digest";
      let mutated =
        Fingerprint.digest
          ~chip:
            (Families.Ring.generate ~spec:(Families.Ring.spec_of_size size)
               ~name:(Printf.sprintf "ring-%d-%d" seed size)
               (Mf_util.Rng.create ~seed:(seed + 7)))
          ~assay ~options:default_fp_options
      in
      ignore mutated;
      true)

(* ------------------------------------------------------------------ *)
(* Cache *)

let test_cache_memory () =
  let c = Cache.create ~mem_capacity:2 () in
  Cache.store c ~fingerprint:"aa" "payload-a";
  check Alcotest.bool "hit" true (Cache.find c "aa" = Some "payload-a");
  check Alcotest.bool "miss" true (Cache.find c "bb" = None);
  let s = Cache.stats c in
  check Alcotest.int "mem hits" 1 s.Cache.mem_hits;
  check Alcotest.int "misses" 1 s.Cache.misses

let test_cache_disk_persistence () =
  let dir = Filename.concat (tmp_dir ()) "cache" in
  let c = Cache.create ~dir () in
  Cache.store c ~fingerprint:"deadbeef" "persisted-payload";
  Cache.flush c;
  let c' = Cache.create ~dir () in
  check Alcotest.bool "survives reopen" true
    (Cache.find c' "deadbeef" = Some "persisted-payload");
  check Alcotest.int "disk hit" 1 (Cache.stats c').Cache.disk_hits;
  (* second find promotes to memory *)
  ignore (Cache.find c' "deadbeef");
  check Alcotest.int "promoted to memory" 1 (Cache.stats c').Cache.mem_hits

let test_cache_poisoning_guard () =
  let dir = Filename.concat (tmp_dir ()) "cache" in
  let c = Cache.create ~dir () in
  Cache.store c ~fingerprint:"feedface" "good-payload";
  Cache.flush c;
  (* poison the entry on disk: valid header shape, wrong bytes *)
  let path = Filename.concat dir "feedface.res" in
  let oc = open_out_bin path in
  output_string oc "mfdft-serve-cache-v1 0123456789abcdef0123456789abcdef\ntampered";
  close_out oc;
  let c' = Cache.create ~dir () in
  check Alcotest.bool "poisoned entry never served" true (Cache.find c' "feedface" = None);
  check Alcotest.int "corruption detected" 1 (Cache.stats c').Cache.corrupt;
  check Alcotest.bool "poisoned file evicted" false (Sys.file_exists path);
  (* a fresh store over the same address works again *)
  Cache.store c' ~fingerprint:"feedface" "resolved-payload";
  check Alcotest.bool "re-solved value served" true
    (Cache.find c' "feedface" = Some "resolved-payload")

let test_cache_eviction () =
  let dir = Filename.concat (tmp_dir ()) "cache" in
  let c = Cache.create ~disk_capacity:2 ~dir () in
  Cache.store c ~fingerprint:"a1" "one";
  Cache.store c ~fingerprint:"b2" "two";
  Cache.store c ~fingerprint:"c3" "three";
  check Alcotest.int "capacity respected" 2 (Cache.entries c);
  check Alcotest.bool "oldest entry file removed" false
    (Sys.file_exists (Filename.concat dir "a1.res"));
  check Alcotest.int "eviction counted" 1 (Cache.stats c).Cache.evictions

(* ------------------------------------------------------------------ *)
(* Engine *)

(* Shrink the solver so each job takes ~a second: the engine logic under
   test is identical at any budget. *)
let tune (p : Codesign.params) =
  {
    p with
    Codesign.pool_size = 2;
    ilp_node_limit = 300;
    outer = { Mf_pso.Pso.default_params with Mf_pso.Pso.particles = 3; iterations = 3 };
    inner = { Mf_pso.Pso.default_params with Mf_pso.Pso.particles = 3; iterations = 3 };
  }

let spec ?(seed = 42) ?(priority = 0) ?deadline ?(wait = true) ~chip ~assay () =
  {
    Protocol.chip = Protocol.Name chip;
    assay = Protocol.Name assay;
    options = { Fingerprint.full = false; seed };
    priority;
    deadline;
    wait;
  }

let fp_of_spec s =
  let chip = Result.get_ok (Protocol.resolve_chip s.Protocol.chip) in
  let assay = Result.get_ok (Protocol.resolve_assay s.Protocol.assay) in
  Fingerprint.digest ~chip ~assay ~options:s.Protocol.options

let submit_ok eng s ~on_event ~on_done =
  match Engine.submit eng s ~on_event ~on_done with
  | Ok r -> r
  | Error e -> Alcotest.fail e

let test_single_flight_and_cache_hit () =
  let eng = Engine.create ~tune ~state_dir:(tmp_dir ()) () in
  let s = spec ~chip:"ivd_chip" ~assay:"ivd" () in
  let payloads = ref [] in
  let events = ref [] in
  let on_done = function
    | Engine.Payload p -> payloads := p :: !payloads
    | Engine.Failed e -> Alcotest.fail e
    | Engine.Checkpointed -> Alcotest.fail "unexpected checkpoint"
  in
  let _, d1 = submit_ok eng s ~on_event:(fun l -> events := l :: !events) ~on_done in
  let _, d2 = submit_ok eng s ~on_event:ignore ~on_done in
  let _, d3 = submit_ok eng s ~on_event:ignore ~on_done in
  (match d1 with Engine.Enqueued _ -> () | _ -> Alcotest.fail "first submit should enqueue");
  (match (d2, d3) with
   | Engine.Joined _, Engine.Joined _ -> ()
   | _ -> Alcotest.fail "identical submissions should join the in-flight job");
  check Alcotest.int "one job queued for three submissions" 1 (Engine.pending eng);
  (match Engine.run_next eng with
   | `Ran -> ()
   | `Idle -> Alcotest.fail "expected a job to run");
  check Alcotest.int "all three subscribers answered" 3 (List.length !payloads);
  (match !payloads with
   | p :: rest -> List.iter (check Alcotest.string "identical payloads" p) rest
   | [] -> assert false);
  let st = Engine.stats eng in
  check Alcotest.int "exactly one solve" 1 st.Engine.solves;
  check Alcotest.int "two single-flight joins" 2 st.Engine.joins;
  (* the streamed events arrived in order *)
  let events = List.rev !events in
  let kind l = Option.value ~default:"?" (Json.str_field "event" (Result.get_ok (Json.parse l))) in
  (match events with
   | first :: second :: _ ->
     check Alcotest.string "first event" "queued" (kind first);
     check Alcotest.string "second event" "started" (kind second)
   | _ -> Alcotest.fail "no events streamed");
  check Alcotest.string "last event" "done" (kind (List.nth events (List.length events - 1)));
  (* resubmission is a cache hit, byte-identical to the solved payload *)
  (match submit_ok eng s ~on_event:ignore ~on_done:ignore with
   | _, Engine.Cached p -> check Alcotest.string "cache hit byte-identical" (List.hd !payloads) p
   | _ -> Alcotest.fail "resubmission should hit the cache");
  Engine.shutdown eng

let test_priority_order () =
  let eng = Engine.create ~tune ~state_dir:(tmp_dir ()) () in
  let low = spec ~chip:"ivd_chip" ~assay:"ivd" ~seed:1 ~priority:0 () in
  let high = spec ~chip:"ivd_chip" ~assay:"ivd" ~seed:2 ~priority:5 () in
  let started = ref [] in
  let on_event l =
    let j = Result.get_ok (Json.parse l) in
    if Json.str_field "event" j = Some "started" then
      started := Option.get (Json.str_field "fingerprint" j) :: !started
  in
  ignore (submit_ok eng low ~on_event ~on_done:ignore);
  ignore (submit_ok eng high ~on_event ~on_done:ignore);
  (* one iteration is enough to observe scheduling order *)
  (match Engine.run_next ~stop_after:1 eng with
   | `Ran -> ()
   | `Idle -> Alcotest.fail "expected a job to run");
  (match !started with
   | [ fp ] -> check Alcotest.string "higher priority runs first" (fp_of_spec high) fp
   | _ -> Alcotest.fail "expected exactly one started event");
  Engine.shutdown eng

(* Kill/restart differential: [damage] is applied to the state dir of the
   killed daemon before the restart, and must not change the payload. *)
let kill_restart_differential ?(damage = fun ~dir:_ ~fp:_ -> ()) () =
  let s = spec ~chip:"ivd_chip" ~assay:"pid" ~seed:7 () in
  let fp = fp_of_spec s in
  (* reference: uninterrupted solve in a fresh state dir *)
  let eng_ref = Engine.create ~tune ~state_dir:(tmp_dir ()) () in
  let reference = ref None in
  ignore
    (submit_ok eng_ref s ~on_event:ignore ~on_done:(function
       | Engine.Payload p -> reference := Some p
       | _ -> Alcotest.fail "reference solve failed"));
  (match Engine.run_next eng_ref with `Ran -> () | `Idle -> Alcotest.fail "no reference job");
  let reference = Option.get !reference in
  Engine.shutdown eng_ref;
  (* interrupted: checkpoint after one outer iteration, then abandon the
     engine (the in-process stand-in for kill -9) *)
  let dir = tmp_dir () in
  let eng = Engine.create ~tune ~state_dir:dir () in
  let outcome = ref None in
  ignore
    (submit_ok eng s ~on_event:ignore ~on_done:(fun o -> outcome := Some o));
  (match Engine.run_next ~stop_after:1 eng with
   | `Ran -> ()
   | `Idle -> Alcotest.fail "no job to interrupt");
  (match !outcome with
   | Some Engine.Checkpointed -> ()
   | _ -> Alcotest.fail "expected a checkpointed outcome");
  damage ~dir ~fp;
  (* restart on the same state dir: the job is recovered and resumed *)
  let eng' = Engine.create ~tune ~state_dir:dir () in
  check Alcotest.int "one job recovered" 1 (Engine.stats eng').Engine.recovered;
  check Alcotest.string "recovered job is queued" "queued" (Engine.status eng' fp);
  (match Engine.run_next eng' with `Ran -> () | `Idle -> Alcotest.fail "recovered job not run");
  (match Engine.find_cached eng' fp with
   | Some p -> check Alcotest.string "resumed result byte-identical" reference p
   | None -> Alcotest.fail "resumed job produced no cached result");
  check Alcotest.int "no failed job" 0 (Engine.stats eng').Engine.failures;
  Engine.shutdown eng'

let test_crash_recovery_differential () = kill_restart_differential ()

(* a checkpoint that fails verification is discarded and the job solved
   from its persisted spec, to the same payload *)
let test_corrupt_checkpoint_resolved () =
  kill_restart_differential
    ~damage:(fun ~dir ~fp ->
      let path = Filename.concat (Filename.concat dir "jobs") (fp ^ ".ckpt") in
      let bytes = Damage.read path in
      let payload_byte = (String.index bytes '\n' + String.length bytes) / 2 in
      Damage.write path (Damage.flip bytes payload_byte))
    ()

(* the [.tmp] files of writes a kill interrupted are deleted at restart
   and change no stat *)
let test_stray_tmp_cleared () =
  let s = spec ~chip:"ivd_chip" ~assay:"ivd" ~seed:9 () in
  let fp = fp_of_spec s in
  let dir = tmp_dir () in
  (* a persisted spec, then kill -9 before the job ran *)
  ignore (submit_ok (Engine.create ~tune ~state_dir:dir ()) s ~on_event:ignore ~on_done:ignore);
  let clean = Engine.stats (Engine.create ~tune ~state_dir:dir ()) in
  let in_dir sub f = Filename.concat (Filename.concat dir sub) f in
  let strays =
    [ in_dir "jobs" (fp ^ ".job.tmp"); in_dir "jobs" (fp ^ ".ckpt.tmp");
      in_dir "cache" (fp ^ ".res.tmp"); in_dir "cache" "index.tmp" ]
  in
  List.iter (fun p -> Damage.write p "torn write") strays;
  let eng = Engine.create ~tune ~state_dir:dir () in
  List.iter (fun p -> check Alcotest.bool (p ^ " deleted") false (Sys.file_exists p)) strays;
  check Alcotest.bool "same stats as without them" true (Engine.stats eng = clean);
  Engine.shutdown eng

(* Corruption corpus over the daemon's persisted files, taken from a real
   solve: a damaged cache entry is a counted corruption and a miss, a
   damaged index falls back to the directory scan, a damaged job spec is
   dropped with its checkpoint.  Never an exception and never damaged bytes served. *)
let test_corruption_corpus () =
  let s = spec ~chip:"ivd_chip" ~assay:"ivd" ~seed:13 () in
  let fp = fp_of_spec s in
  let dir = tmp_dir () in
  let eng = Engine.create ~tune ~state_dir:dir () in
  ignore (submit_ok eng s ~on_event:ignore ~on_done:ignore);
  let spec_path = Filename.concat (Filename.concat dir "jobs") (fp ^ ".job") in
  let job_bytes = Damage.read spec_path in
  (match Engine.run_next eng with `Ran -> () | `Idle -> Alcotest.fail "no job");
  let payload = Option.get (Engine.find_cached eng fp) in
  Engine.shutdown eng;
  let cache_dir = Filename.concat dir "cache" in
  let entry_path = Filename.concat cache_dir (fp ^ ".res") in
  let index_path = Filename.concat cache_dir "index" in
  let entry_bytes = Damage.read entry_path and index_bytes = Damage.read index_path in
  List.iter
    (fun (label, bytes) ->
      Damage.write entry_path bytes;
      let c = Cache.create ~dir:cache_dir () in
      check Alcotest.bool (label ^ ": entry not served") true (Cache.find c fp = None);
      let st = Cache.stats c in
      check Alcotest.int (label ^ ": corruption counted") 1 st.Cache.corrupt;
      check Alcotest.int (label ^ ": a miss") 1 st.Cache.misses)
    (Damage.variants entry_bytes);
  Damage.write entry_path entry_bytes;
  List.iter
    (fun (label, bytes) ->
      Damage.write index_path bytes;
      let c = Cache.create ~dir:cache_dir () in
      check Alcotest.int (label ^ ": the scan finds the entry") 1 (Cache.entries c);
      check Alcotest.bool (label ^ ": entry served") true (Cache.find c fp = Some payload))
    (Damage.variants index_bytes);
  let state = tmp_dir () in
  Sys.mkdir (Filename.concat state "jobs") 0o755;
  let spec_path = Filename.concat (Filename.concat state "jobs") (fp ^ ".job") in
  let ckpt_path = Filename.concat (Filename.concat state "jobs") (fp ^ ".ckpt") in
  List.iter
    (fun (label, bytes) ->
      Damage.write spec_path bytes;
      Damage.write ckpt_path "its checkpoint";
      let eng = Engine.create ~tune ~state_dir:state () in
      check Alcotest.int (label ^ ": nothing recovered") 0 (Engine.stats eng).Engine.recovered;
      check Alcotest.bool (label ^ ": spec dropped") false (Sys.file_exists spec_path);
      check Alcotest.bool (label ^ ": its checkpoint dropped") false (Sys.file_exists ckpt_path);
      Engine.shutdown eng)
    (Damage.variants job_bytes);
  Damage.write spec_path job_bytes;
  let eng = Engine.create ~tune ~state_dir:state () in
  check Alcotest.int "the intact spec is recovered" 1 (Engine.stats eng).Engine.recovered;
  Engine.shutdown eng

let test_jobs_differential () =
  let s = spec ~chip:"ra30_chip" ~assay:"ivd" ~seed:11 () in
  let fp = fp_of_spec s in
  let solve jobs =
    let eng = Engine.create ~jobs ~tune ~state_dir:(tmp_dir ()) () in
    ignore (submit_ok eng s ~on_event:ignore ~on_done:ignore);
    (match Engine.run_next eng with `Ran -> () | `Idle -> Alcotest.fail "no job");
    let p = Option.get (Engine.find_cached eng fp) in
    Engine.shutdown eng;
    p
  in
  check Alcotest.string "jobs=1 and jobs=4 payloads byte-identical" (solve 1) (solve 4)

let test_engine_corrupt_cache_resolves () =
  let dir = tmp_dir () in
  let s = spec ~chip:"ivd_chip" ~assay:"ivd" ~seed:3 () in
  let fp = fp_of_spec s in
  let eng = Engine.create ~tune ~state_dir:dir () in
  ignore (submit_ok eng s ~on_event:ignore ~on_done:ignore);
  (match Engine.run_next eng with `Ran -> () | `Idle -> Alcotest.fail "no job");
  let original = Option.get (Engine.find_cached eng fp) in
  Engine.shutdown eng;
  (* poison the stored result, then restart: the guard must detect it,
     evict it, and re-solve — never serve the tampered bytes *)
  let path = Filename.concat (Filename.concat dir "cache") (fp ^ ".res") in
  check Alcotest.bool "entry exists on disk" true (Sys.file_exists path);
  let oc = open_out_bin path in
  output_string oc "mfdft-serve-cache-v1 00000000000000000000000000000000\nforged result";
  close_out oc;
  let eng' = Engine.create ~tune ~state_dir:dir () in
  (match submit_ok eng' s ~on_event:ignore ~on_done:ignore with
   | _, Engine.Enqueued _ -> ()
   | _, Engine.Cached _ -> Alcotest.fail "tampered entry was served"
   | _, Engine.Joined _ -> Alcotest.fail "nothing to join");
  check Alcotest.bool "corruption counted" true
    ((Engine.stats eng').Engine.cache.Cache.corrupt >= 1);
  (match Engine.run_next eng' with `Ran -> () | `Idle -> Alcotest.fail "no re-solve");
  (match Engine.find_cached eng' fp with
   | Some p -> check Alcotest.string "re-solved result matches original" original p
   | None -> Alcotest.fail "no result after re-solve");
  Engine.shutdown eng'

let test_deadline_jobs_bypass_cache_and_dedup () =
  let eng = Engine.create ~tune ~state_dir:(tmp_dir ()) () in
  let s = spec ~chip:"ivd_chip" ~assay:"ivd" ~seed:5 () in
  let with_deadline = { s with Protocol.deadline = Some 300. } in
  let fp = fp_of_spec s in
  ignore (submit_ok eng s ~on_event:ignore ~on_done:ignore);
  (* identical content, but budgeted: must not join the in-flight job *)
  (match submit_ok eng with_deadline ~on_event:ignore ~on_done:ignore with
   | _, Engine.Enqueued _ -> ()
   | _ -> Alcotest.fail "budgeted submission must not join or hit");
  check Alcotest.int "two independent jobs" 2 (Engine.pending eng);
  (match Engine.run_next eng with `Ran -> () | `Idle -> Alcotest.fail "no job");
  (match Engine.run_next eng with `Ran -> () | `Idle -> Alcotest.fail "no second job");
  (* only the deadline-free solve was cached *)
  check Alcotest.int "one store" 1 (Engine.stats eng).Engine.cache.Cache.stores;
  check Alcotest.bool "deadline-free result cached" true (Engine.find_cached eng fp <> None);
  Engine.shutdown eng

let () =
  let qt = QCheck_alcotest.to_alcotest in
  (* byte-identity assertions require the fault-free pipeline *)
  Mf_util.Chaos.neutralise ();
  Alcotest.run "mf_serve"
    [
      ( "json",
        [
          Alcotest.test_case "round-trip" `Quick test_json_roundtrip;
          Alcotest.test_case "integer rendering stable" `Quick test_json_integers_stable;
          Alcotest.test_case "rejects malformed input" `Quick test_json_rejects;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "request parsing" `Quick test_protocol_parse;
          Alcotest.test_case "spec round-trip" `Quick test_protocol_spec_roundtrip;
        ] );
      ( "fingerprint",
        [
          Alcotest.test_case "stable" `Quick test_fingerprint_stable;
          Alcotest.test_case "sensitive to semantic changes" `Quick test_fingerprint_sensitive;
          qt fp_roundtrip_prop;
        ] );
      ( "cache",
        [
          Alcotest.test_case "memory tier" `Quick test_cache_memory;
          Alcotest.test_case "disk persistence" `Quick test_cache_disk_persistence;
          Alcotest.test_case "poisoning guard" `Quick test_cache_poisoning_guard;
          Alcotest.test_case "corruption corpus" `Slow test_corruption_corpus;
          Alcotest.test_case "disk eviction" `Quick test_cache_eviction;
        ] );
      ( "engine",
        [
          Alcotest.test_case "single-flight + cache hit" `Slow test_single_flight_and_cache_hit;
          Alcotest.test_case "priority order" `Slow test_priority_order;
          Alcotest.test_case "kill/restart differential" `Slow test_crash_recovery_differential;
          Alcotest.test_case "corrupt checkpoint re-solved" `Slow
            test_corrupt_checkpoint_resolved;
          Alcotest.test_case "stray tmp files cleared" `Quick test_stray_tmp_cleared;
          Alcotest.test_case "jobs=1 vs jobs=4 byte-identical" `Slow test_jobs_differential;
          Alcotest.test_case "corrupt cache entry re-solved" `Slow
            test_engine_corrupt_cache_resolves;
          Alcotest.test_case "deadline bypasses cache and dedup" `Slow
            test_deadline_jobs_bypass_cache_and_dedup;
        ] );
    ]
