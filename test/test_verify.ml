module Chip = Mf_arch.Chip
module Grid = Mf_grid.Grid
module Diag = Mf_util.Diag
module Lint = Mf_verify.Lint
module Cert = Mf_verify.Cert
module Conflict = Mf_verify.Conflict
module Vectors = Mf_testgen.Vectors
module Schedule = Mf_sched.Schedule

let check = Alcotest.check

let has_code code diags = List.exists (fun (d : Diag.t) -> d.code = code) diags
let codes diags = List.map (fun (d : Diag.t) -> d.code) diags

(* ------------------------------------------------------------------ *)
(* Diag core *)

let test_exit_code_policy () =
  let e = Diag.errorf ~code:"MF001" "boom" in
  let w = Diag.warningf ~code:"MF004" "meh" in
  check Alcotest.int "empty" 0 (Diag.exit_code ~strict:false []);
  check Alcotest.int "empty strict" 0 (Diag.exit_code ~strict:true []);
  check Alcotest.int "warning lax" 0 (Diag.exit_code ~strict:false [ w ]);
  check Alcotest.int "warning strict" 1 (Diag.exit_code ~strict:true [ w ]);
  check Alcotest.int "error lax" 1 (Diag.exit_code ~strict:false [ e ]);
  check Alcotest.int "error strict" 1 (Diag.exit_code ~strict:true [ e; w ])

let test_rendering () =
  let d =
    Diag.errorf ~where:(Diag.span ~file:"x.chip" ~line:3 ~col:7 ()) ~subject:"valve v1"
      ~code:"MF003" "message"
  in
  check Alcotest.string "pp" "error[MF003] x.chip:3:7: message (valve v1)"
    (Format.asprintf "%a" Diag.pp d);
  let contains hay needle =
    let n = String.length hay and m = String.length needle in
    let rec go i = i + m <= n && (String.sub hay i m = needle || go (i + 1)) in
    go 0
  in
  let json = Diag.to_json d in
  List.iter
    (fun needle -> check Alcotest.bool needle true (contains json needle))
    [ "\"MF003\""; "\"error\""; "x.chip"; "valve v1" ];
  (* the tooling rendering reads back through the shared parser *)
  let bare = Diag.warningf ~code:"MF201" "quote \" tab\t cr\r nl\n end" in
  let module Json = Mf_util.Json in
  match Json.parse (Diag.json_list [ d; bare ]) with
  | Ok (Json.Arr [ j; k ]) ->
    let str key j = Json.str_field key j in
    check Alcotest.(option string) "code" (Some "MF003") (str "code" j);
    check Alcotest.(option string) "severity" (Some "error") (str "severity" j);
    check Alcotest.(option string) "message" (Some "message") (str "message" j);
    check Alcotest.(option string) "file" (Some "x.chip") (str "file" j);
    check Alcotest.(option int) "line" (Some 3) (Json.int_field "line" j);
    check Alcotest.(option int) "col" (Some 7) (Json.int_field "col" j);
    check Alcotest.(option string) "subject" (Some "valve v1") (str "subject" j);
    check Alcotest.(option string) "code 2" (Some "MF201") (str "code" k);
    check Alcotest.(option string) "severity 2" (Some "warning") (str "severity" k);
    check Alcotest.(option string) "escaped message" (Some bare.Diag.message) (str "message" k);
    List.iter
      (fun key -> check Alcotest.bool (key ^ " absent") true (Json.member key k = None))
      [ "file"; "line"; "col"; "subject" ]
  | Ok _ -> Alcotest.fail "json_list: expected a two-element array"
  | Error e -> Alcotest.failf "json_list does not parse: %s" e

(* ------------------------------------------------------------------ *)
(* Linter *)

let test_benchmarks_lint_clean () =
  List.iter
    (fun chip ->
      let diags = Lint.chip chip in
      if diags <> [] then
        Alcotest.failf "%s: %s" (Chip.name chip) (String.concat ", " (codes diags)))
    [
      Mf_chips.Benchmarks.ivd_chip ();
      Mf_chips.Benchmarks.ra30_chip ();
      Mf_chips.Benchmarks.mrna_chip ();
    ]

(* A dead-end unvalved stub at (1,1): lint MF004, even though the builder
   accepts the chip. *)
let test_dangling_stub () =
  let b = Chip.builder ~name:"stub" ~width:4 ~height:2 in
  Chip.add_port b ~x:0 ~y:0 ~name:"P0";
  Chip.add_port b ~x:3 ~y:0 ~name:"P1";
  Chip.add_channel b [ (0, 0); (1, 0); (2, 0); (3, 0) ];
  Chip.add_channel b [ (1, 0); (1, 1) ];
  Chip.add_valve b (0, 0) (1, 0);
  Chip.add_valve b (2, 0) (3, 0);
  let chip = Chip.finish_exn b in
  let diags = Lint.chip chip in
  check Alcotest.bool "MF004" true (has_code "MF004" diags);
  check Alcotest.int "strict exit" 1 (Diag.exit_code ~strict:true diags)

(* The same stub valved off is a legitimate storage pocket: clean. *)
let test_valved_pocket_clean () =
  let b = Chip.builder ~name:"pocket" ~width:4 ~height:2 in
  Chip.add_port b ~x:0 ~y:0 ~name:"P0";
  Chip.add_port b ~x:3 ~y:0 ~name:"P1";
  Chip.add_channel b [ (0, 0); (1, 0); (2, 0); (3, 0) ];
  Chip.add_channel b [ (1, 0); (1, 1) ];
  Chip.add_valve b (0, 0) (1, 0);
  Chip.add_valve b (2, 0) (3, 0);
  Chip.add_valve b (1, 0) (1, 1);
  check Alcotest.(list string) "clean" [] (codes (Lint.chip (Chip.finish_exn b)))

(* A channel island no port can reach passes [Chip.finish] (it holds no
   port or device) but is dead silicon: MF005 warning. *)
let test_floating_island () =
  let b = Chip.builder ~name:"island" ~width:4 ~height:3 in
  Chip.add_port b ~x:0 ~y:0 ~name:"P0";
  Chip.add_port b ~x:3 ~y:0 ~name:"P1";
  Chip.add_channel b [ (0, 0); (1, 0); (2, 0); (3, 0) ];
  Chip.add_valve b (0, 0) (1, 0);
  Chip.add_valve b (2, 0) (3, 0);
  Chip.add_channel b [ (0, 2); (1, 2); (2, 2) ];
  let chip = Chip.finish_exn b in
  let diags = Lint.chip chip in
  check Alcotest.bool "MF005" true (has_code "MF005" diags);
  check Alcotest.bool "warning only" false (Diag.has_errors diags)

(* ------------------------------------------------------------------ *)
(* Linter on FPVA grid topologies: the valve-array sieve exercises the
   structural checks differently from the ring netlists above — the mesh
   makes almost any stub valve-enclosed and the regular lattice hides
   degeneracy — so each code is triggered on a generated grid chip via
   textual mutation of its serialised form. *)

let fpva_chip () =
  Mf_chips.Families.Fpva.generate ~name:"fpva_mut" (Mf_util.Rng.create ~seed:41)

let mutate_text chip extra_lines =
  let text = Mf_arch.Chip_io.to_string chip ^ String.concat "\n" extra_lines ^ "\n" in
  match Mf_arch.Chip_io.parse text with
  | Ok chip' -> chip'
  | Error msg -> Alcotest.failf "mutated chip rejected: %s" msg

(* An unvalved two-edge chain hanging off the mesh corner dead-ends in the
   margin.  One edge is not enough: the fully-valved sieve would make a
   single stub count as a valve-enclosed pocket, which is exempt. *)
let test_fpva_dangling_stub () =
  let chip = mutate_text (fpva_chip ()) [ "channel 1,1 0,1 0,0" ] in
  let diags = Lint.chip chip in
  check Alcotest.bool "MF004" true (has_code "MF004" diags)

(* A channel pair stranded in the margin touches no port: floating island. *)
let test_fpva_floating_island () =
  let chip = mutate_text (fpva_chip ()) [ "channel 0,0 1,0" ] in
  let diags = Lint.chip chip in
  check Alcotest.bool "MF005" true (has_code "MF005" diags);
  check Alcotest.bool "warning only" false (Diag.has_errors diags)

(* A sieve flattened to a single row leaves no off-axis room: MF006 warns
   on the degenerate lattice (the in-grid/adjacency MF006 errors are
   unreachable through the builder, which validates both). *)
let test_flattened_sieve_degenerate () =
  let b = Chip.builder ~name:"flat" ~width:5 ~height:1 in
  Chip.add_port b ~x:0 ~y:0 ~name:"P0";
  Chip.add_port b ~x:4 ~y:0 ~name:"P1";
  Chip.add_channel b [ (0, 0); (1, 0); (2, 0); (3, 0); (4, 0) ];
  for x = 0 to 3 do
    Chip.add_valve b (x, 0) (x + 1, 0)
  done;
  let diags = Lint.chip (Chip.finish_exn b) in
  check Alcotest.bool "MF006" true (has_code "MF006" diags);
  check Alcotest.bool "warning only" false (Diag.has_errors diags)

(* The unmutated generated grid chip is clean — the three findings above
   are properties of the mutations, not of the family. *)
let test_fpva_baseline_clean () =
  check Alcotest.(list string) "clean" [] (codes (Lint.chip (fpva_chip ())))

(* ------------------------------------------------------------------ *)
(* Certificate checker on generated suites *)

let generated chip =
  match Mf_testgen.Pathgen.generate ~node_limit:400 chip with
  | Error f -> Alcotest.failf "pathgen: %a" Mf_util.Fail.pp f
  | Ok config ->
    let aug = Mf_testgen.Pathgen.apply chip config in
    let cuts =
      Mf_testgen.Cutgen.generate aug ~source:config.Mf_testgen.Pathgen.src_port
        ~meter:config.Mf_testgen.Pathgen.dst_port
    in
    let suite = Vectors.of_config config cuts in
    (aug, suite)

let cert_of aug (suite : Vectors.t) =
  let report = Vectors.validate aug suite in
  Cert.make ~chip_name:(Chip.name aug)
    ~suite:
      {
        Cert.source_port = suite.Vectors.source_port;
        meter_port = suite.Vectors.meter_port;
        path_edges = suite.Vectors.path_edges;
        cut_valves = suite.Vectors.cut_valves;
      }
    ~claimed_vectors:(Vectors.count suite)
    ~claimed_coverage:
      (report.Mf_faults.Coverage.detected, report.Mf_faults.Coverage.total_faults)
    ()

let test_generated_suites_verify () =
  List.iter
    (fun chip ->
      let aug, suite = generated chip in
      let cert = cert_of aug suite in
      let diags = Mf_verify.Verify.certificate aug cert in
      if diags <> [] then
        Alcotest.failf "%s: %s" (Chip.name chip) (String.concat ", " (codes diags)))
    [ Mf_chips.Benchmarks.ivd_chip (); Mf_chips.Benchmarks.ra30_chip () ]

(* Mutation: dropping an edge from a test path breaks contiguity → MF101. *)
let test_mutation_drop_path_edge () =
  let aug, suite = generated (Mf_chips.Benchmarks.ivd_chip ()) in
  let cert = cert_of aug suite in
  let mutated =
    {
      cert with
      Cert.suite =
        {
          cert.Cert.suite with
          Cert.path_edges =
            (match cert.Cert.suite.Cert.path_edges with
             | (_ :: rest) :: more -> rest :: more
             | _ -> Alcotest.fail "no path to mutate");
        };
    }
  in
  let diags = Cert.check aug mutated in
  check Alcotest.bool "MF101" true (has_code "MF101" diags);
  check Alcotest.int "strict exit" 1 (Diag.exit_code ~strict:true diags)

(* Mutation: removing a valve from a cut reopens a route → MF102 (and the
   coverage claim breaks → MF103). *)
let test_mutation_open_cut_valve () =
  let aug, suite = generated (Mf_chips.Benchmarks.ivd_chip ()) in
  let cert = cert_of aug suite in
  let mutated =
    {
      cert with
      Cert.suite =
        {
          cert.Cert.suite with
          Cert.cut_valves =
            (match cert.Cert.suite.Cert.cut_valves with
             | (_ :: rest) :: more when rest <> [] -> rest :: more
             | [ _ ] :: _ -> Alcotest.fail "single-valve first cut; pick another chip"
             | _ -> Alcotest.fail "no cut to mutate");
        };
    }
  in
  let diags = Cert.check aug mutated in
  check Alcotest.bool "MF102" true (has_code "MF102" diags);
  check Alcotest.bool "MF103" true (has_code "MF103" diags);
  check Alcotest.int "strict exit" 1 (Diag.exit_code ~strict:true diags)

(* Mutation: a wrong claim is caught even when the suite itself is fine. *)
let test_mutation_inflated_claim () =
  let aug, suite = generated (Mf_chips.Benchmarks.ivd_chip ()) in
  let cert = cert_of aug suite in
  let mutated = { cert with Cert.claimed_detected = cert.Cert.claimed_detected + 1 } in
  check Alcotest.bool "MF103" true (has_code "MF103" (Cert.check aug mutated))

(* Out-of-range ids short-circuit to MF105 alone. *)
let test_range_errors () =
  let aug, suite = generated (Mf_chips.Benchmarks.ivd_chip ()) in
  let cert = cert_of aug suite in
  let mutated =
    { cert with Cert.suite = { cert.Cert.suite with Cert.cut_valves = [ [ 9999 ] ] } }
  in
  let diags = Cert.check aug mutated in
  check Alcotest.bool "MF105" true (has_code "MF105" diags);
  check Alcotest.bool "only MF105 errors" true
    (List.for_all (fun (d : Diag.t) -> d.code = "MF105") (Diag.errors diags))

(* Mutation: aliasing a path's DFT valve with an off-path original valve
   forces contradictory states in that path's vector → MF201. *)
let test_mutation_alias_conflict () =
  let aug, suite = generated (Mf_chips.Benchmarks.ivd_chip ()) in
  let first_path = List.hd suite.Vectors.path_edges in
  let dft_on_path =
    Array.to_list (Chip.valves aug)
    |> List.find_map (fun (v : Chip.valve) ->
           if v.is_dft && List.mem v.edge first_path then Some v.valve_id else None)
  in
  let orig_off_path =
    Array.to_list (Chip.valves aug)
    |> List.find_map (fun (v : Chip.valve) ->
           if (not v.is_dft) && not (List.mem v.edge first_path) then Some v.valve_id else None)
  in
  match (dft_on_path, orig_off_path) with
  | Some d, Some o ->
    let shared = Chip.with_sharing aug [ (d, o) ] in
    let diags = Conflict.suite shared (cert_of aug suite).Cert.suite in
    check Alcotest.bool "MF201" true (has_code "MF201" diags);
    check Alcotest.int "strict exit" 1 (Diag.exit_code ~strict:true diags)
  | _ -> Alcotest.fail "could not pick a conflicting valve pair"

(* ------------------------------------------------------------------ *)
(* Schedule conflicts (MF202) *)

(* A 5x2 chip whose DFT valve v4 shares v0's line; moving a unit over
   v0's edge while another unit rests next to v4 forces v4 open against
   the resting fluid. *)
let test_schedule_conflict () =
  let b = Chip.builder ~name:"sched" ~width:5 ~height:2 in
  Chip.add_port b ~x:0 ~y:0 ~name:"P0";
  Chip.add_port b ~x:4 ~y:0 ~name:"P1";
  Chip.add_channel b [ (0, 0); (1, 0); (2, 0); (3, 0); (4, 0) ];
  Chip.add_valve b (0, 0) (1, 0);
  Chip.add_valve b (1, 0) (2, 0);
  Chip.add_valve b (2, 0) (3, 0);
  Chip.add_valve b (3, 0) (4, 0);
  let chip = Chip.finish_exn b in
  let grid = Chip.grid chip in
  let dft_edge = Option.get (Grid.edge_between_xy grid (2, 0) (2, 1)) in
  let aug = Chip.augment chip ~edges:[ dft_edge ] in
  let v4 = (Option.get (Chip.valve_on aug dft_edge)).Chip.valve_id in
  let shared = Chip.with_sharing aug [ (v4, 0) ] in
  let move_edge = Option.get (Grid.edge_between_xy grid (0, 0) (1, 0)) in
  let rest_edge = Option.get (Grid.edge_between_xy grid (1, 0) (2, 0)) in
  let mk_sched events =
    {
      Schedule.makespan = 5;
      events;
      n_transports = 1;
      transport_time = 2;
      n_stored = 1;
      n_washes = 0;
    }
  in
  (* resting unit's pocket edge ends at (2,0), an endpoint of v4's edge *)
  let hazardous =
    mk_sched
      [
        Schedule.Unit_stored { unit_id = 0; edge = rest_edge; time = 0 };
        Schedule.Transport_started { unit_id = 1; path = [ move_edge ]; time = 1; finish = 3 };
      ]
  in
  let diags = Conflict.schedule shared hazardous in
  check Alcotest.bool "MF202" true (has_code "MF202" diags);
  (* same transport with the resting unit gone: nothing protected, clean *)
  let safe =
    mk_sched
      [ Schedule.Transport_started { unit_id = 1; path = [ move_edge ]; time = 1; finish = 3 } ]
  in
  check Alcotest.(list string) "clean without resting unit" []
    (codes (Conflict.schedule shared safe));
  (* and the unshared chip never conflicts: each valve has its own line *)
  check Alcotest.(list string) "unshared clean" [] (codes (Conflict.schedule aug hazardous))

(* ------------------------------------------------------------------ *)
(* Certificate serialisation *)

let test_cert_round_trip () =
  let aug, suite = generated (Mf_chips.Benchmarks.ivd_chip ()) in
  let cert = cert_of aug suite in
  match Cert.parse (Cert.to_string cert) with
  | Ok cert' -> check Alcotest.bool "round-trip" true (cert = cert')
  | Error ds -> Alcotest.failf "parse: %s" (String.concat ", " (codes ds))

let test_cert_parse_errors () =
  List.iter
    (fun (text, label) ->
      match Cert.parse text with
      | Ok _ -> Alcotest.failf "accepted: %s" label
      | Error ds -> check Alcotest.bool (label ^ " is MF303") true (has_code "MF303" ds))
    [
      ("", "empty");
      ("cert x\npath 1 2\n", "missing suite");
      ("cert x\nsuite 0 1\npath a b\n", "non-integer ids");
      ("cert x\nsuite 0 1\nwibble 3\n", "unknown directive");
      ("cert x\ncert y\nsuite 0 1\n", "duplicate header");
    ]

let test_cert_file_round_trip () =
  let aug, suite = generated (Mf_chips.Benchmarks.ivd_chip ()) in
  let cert = cert_of aug suite in
  let path = Filename.temp_file "mfdft" ".cert" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Cert.save path cert;
      match Cert.load path with
      | Ok cert' ->
        check Alcotest.bool "file round-trip" true (cert = cert');
        check Alcotest.(list string) "verifies" []
          (codes (Mf_verify.Verify.certificate aug cert'))
      | Error ds -> Alcotest.failf "load: %s" (String.concat ", " (codes ds)))

let test_load_missing () =
  match Cert.load "/nonexistent/definitely.cert" with
  | Ok _ -> Alcotest.fail "loaded a ghost"
  | Error ds -> check Alcotest.bool "MF303" true (has_code "MF303" ds)

(* ------------------------------------------------------------------ *)
(* Parser diagnostics (MF301/302) *)

let test_chip_io_diags () =
  let text = "chip demo 4 2\nglitter 9\nport 0 0 P0\nport 3 0 P1\nchip again 4 2\nchannel 0,0 1,0 2,0 3,0\nvalve 0,0 1,0\nvalve 2,0 3,0\n" in
  (match Mf_arch.Chip_io.parse_diags ~file:"demo.chip" text with
   | Error ds -> Alcotest.failf "rejected: %s" (String.concat ", " (codes ds))
   | Ok (chip, warns) ->
     check Alcotest.string "name" "demo" (Chip.name chip);
     check Alcotest.bool "MF301" true (has_code "MF301" warns);
     check Alcotest.bool "MF302" true (has_code "MF302" warns);
     List.iter
       (fun (d : Diag.t) ->
         check Alcotest.(option string) "file" (Some "demo.chip") d.Diag.where.Diag.file;
         check Alcotest.bool "line" true (d.Diag.where.Diag.line <> None))
       warns);
  (* the legacy strict API still rejects the same text *)
  match Mf_arch.Chip_io.parse text with
  | Ok _ -> Alcotest.fail "legacy API accepted warnings"
  | Error _ -> ()

let test_assay_io_diags () =
  let text = "assay x\nop 0 mix 10 a\nsparkle 1\ndep 0 0\n" in
  match Mf_bioassay.Assay_io.parse_diags text with
  | Ok _ -> Alcotest.fail "self-dep must fail validation"
  | Error ds ->
    check Alcotest.bool "MF304" true (has_code "MF304" ds);
    check Alcotest.bool "keeps MF301 warning" true (has_code "MF301" ds)

let test_assay_io_warn_ok () =
  match Mf_bioassay.Assay_io.parse_diags "assay x\nop 0 mix 10 a\nsparkle 1\n" with
  | Ok (_, warns) -> check Alcotest.(list string) "warns" [ "MF301" ] (codes warns)
  | Error ds -> Alcotest.failf "rejected: %s" (String.concat ", " (codes ds))

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "mf_verify"
    [
      ( "diag",
        [
          Alcotest.test_case "exit-code policy" `Quick test_exit_code_policy;
          Alcotest.test_case "rendering" `Quick test_rendering;
        ] );
      ( "lint",
        [
          Alcotest.test_case "benchmarks clean" `Quick test_benchmarks_lint_clean;
          Alcotest.test_case "dangling stub" `Quick test_dangling_stub;
          Alcotest.test_case "valved pocket clean" `Quick test_valved_pocket_clean;
          Alcotest.test_case "floating island" `Quick test_floating_island;
          Alcotest.test_case "fpva baseline clean" `Quick test_fpva_baseline_clean;
          Alcotest.test_case "fpva dangling stub" `Quick test_fpva_dangling_stub;
          Alcotest.test_case "fpva floating island" `Quick test_fpva_floating_island;
          Alcotest.test_case "flattened sieve degenerate" `Quick test_flattened_sieve_degenerate;
        ] );
      ( "cert",
        [
          Alcotest.test_case "generated suites verify" `Quick test_generated_suites_verify;
          Alcotest.test_case "drop path edge" `Quick test_mutation_drop_path_edge;
          Alcotest.test_case "open cut valve" `Quick test_mutation_open_cut_valve;
          Alcotest.test_case "inflated claim" `Quick test_mutation_inflated_claim;
          Alcotest.test_case "range errors" `Quick test_range_errors;
        ] );
      ( "conflict",
        [
          Alcotest.test_case "alias conflict" `Quick test_mutation_alias_conflict;
          Alcotest.test_case "schedule conflict" `Quick test_schedule_conflict;
        ] );
      ( "cert-io",
        [
          Alcotest.test_case "round-trip" `Quick test_cert_round_trip;
          Alcotest.test_case "parse errors" `Quick test_cert_parse_errors;
          Alcotest.test_case "file round-trip" `Quick test_cert_file_round_trip;
          Alcotest.test_case "missing file" `Quick test_load_missing;
        ] );
      ( "parser-diags",
        [
          Alcotest.test_case "chip io" `Quick test_chip_io_diags;
          Alcotest.test_case "assay io" `Quick test_assay_io_diags;
          Alcotest.test_case "assay warn ok" `Quick test_assay_io_warn_ok;
        ] );
    ]
