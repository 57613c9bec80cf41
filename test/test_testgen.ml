module Chip = Mf_arch.Chip
module Grid = Mf_grid.Grid
module Graph = Mf_graph.Graph
module Traverse = Mf_graph.Traverse
module Bitset = Mf_util.Bitset
module Pathgen = Mf_testgen.Pathgen
module Cutgen = Mf_testgen.Cutgen
module Multiport = Mf_testgen.Multiport
module Vectors = Mf_testgen.Vectors
module Repair = Mf_testgen.Repair
module Vector = Mf_faults.Vector
module Pressure = Mf_faults.Pressure
module Fault = Mf_faults.Fault
module Coverage = Mf_faults.Coverage

let check = Alcotest.check

(* The motivating chip of Fig. 4(a): three ports around a cross of channels,
   a valve on every channel edge. *)
let fig4_chip () =
  let b = Chip.builder ~name:"fig4" ~width:5 ~height:5 in
  Chip.add_port b ~x:0 ~y:2 ~name:"P0";
  Chip.add_port b ~x:4 ~y:2 ~name:"P1";
  Chip.add_port b ~x:2 ~y:0 ~name:"P2";
  Chip.add_device b ~kind:Chip.Mixer ~x:2 ~y:3 ~name:"M";
  Chip.add_channel b [ (0, 2); (1, 2); (2, 2); (3, 2); (4, 2) ];
  Chip.add_channel b [ (2, 0); (2, 1); (2, 2) ];
  Chip.add_channel b [ (2, 2); (2, 3) ];
  List.iter
    (fun (a, c) -> Chip.add_valve b a c)
    [
      ((0, 2), (1, 2)); ((1, 2), (2, 2)); ((2, 2), (3, 2)); ((3, 2), (4, 2));
      ((2, 0), (2, 1)); ((2, 1), (2, 2)); ((2, 2), (2, 3));
    ];
  Chip.finish_exn b

let test_farthest_ports () =
  let chip = fig4_chip () in
  let a, b = Pathgen.farthest_ports chip in
  (* P0 and P1 are 4 hops apart, P2 is 3 from either *)
  check Alcotest.(pair int int) "farthest" (0, 1) (a, b)

let walk_is_path chip ~src path =
  (* ordered edges must form a connected walk starting at src *)
  let g = Grid.graph (Chip.grid chip) in
  try
    ignore (Traverse.path_nodes g ~src path);
    true
  with _ -> false

let test_pathgen_fig4 () =
  let chip = fig4_chip () in
  match Pathgen.generate chip with
  | Error f -> Alcotest.fail (Mf_util.Fail.to_string f)
  | Ok config ->
    check Alcotest.bool "some edges added" true (config.Pathgen.added_edges <> []);
    let aug = Pathgen.apply chip config in
    let orig = Chip.channel_edges chip in
    let covered = Bitset.create (Bitset.length orig) in
    let s_node = (Chip.ports chip).(config.Pathgen.src_port).node in
    List.iter
      (fun path ->
        check Alcotest.bool "walk from source" true (walk_is_path aug ~src:s_node path);
        List.iter (fun e -> if Bitset.mem orig e then Bitset.add covered e) path)
      config.Pathgen.paths;
    Bitset.iter
      (fun e -> check Alcotest.bool "original edge covered" true (Bitset.mem covered e))
      orig

let test_pathgen_paths_end_at_meter () =
  let chip = fig4_chip () in
  match Pathgen.generate chip with
  | Error f -> Alcotest.fail (Mf_util.Fail.to_string f)
  | Ok config ->
    let aug = Pathgen.apply chip config in
    let g = Grid.graph (Chip.grid aug) in
    let s = (Chip.ports chip).(config.Pathgen.src_port).node in
    let t = (Chip.ports chip).(config.Pathgen.dst_port).node in
    List.iter
      (fun path ->
        let nodes = Traverse.path_nodes g ~src:s path in
        check Alcotest.int "ends at meter" t (List.nth nodes (List.length nodes - 1)))
      config.Pathgen.paths

(* Differential check of the warm-started LP core on a real pathgen model:
   disabling warm starts and the fixing-set cache must not change what is
   achieved — the same added-edge cost (objective (5)) and a full cover —
   even though the search trajectory (and hence the concrete paths or path
   count) may differ. *)
let test_pathgen_warm_vs_cold () =
  let chip = fig4_chip () in
  let node_limit = 20_000 in
  match (Pathgen.generate ~node_limit ~warm:true chip, Pathgen.generate ~node_limit ~warm:false chip) with
  | Ok w, Ok c ->
    check Alcotest.bool "warm not degraded" false w.Pathgen.degraded;
    check Alcotest.bool "cold not degraded" false c.Pathgen.degraded;
    check Alcotest.int "same added-edge cost"
      (List.length w.Pathgen.added_edges)
      (List.length c.Pathgen.added_edges);
    check Alcotest.bool "warm starts actually used" true
      (w.Pathgen.solver.Mf_ilp.Ilp.rs_warm_taken > 0);
    check Alcotest.bool "cold run is cold" true
      (c.Pathgen.solver.Mf_ilp.Ilp.rs_warm_taken = 0
      && c.Pathgen.solver.Mf_ilp.Ilp.rs_dual_pivots = 0)
  | (Error f, _ | _, Error f) -> Alcotest.fail (Mf_util.Fail.to_string f)

(* every per-k attempt is recorded, in k order, with the nodes it spent *)
let test_pathgen_attempts () =
  let chip = fig4_chip () in
  match (Pathgen.generate chip, Pathgen.generate ~node_limit:0 chip) with
  | Ok c, Ok greedy ->
    let ks = List.map (fun (a : Pathgen.attempt) -> a.k) c.Pathgen.attempts in
    check
      Alcotest.(list int)
      "k from 2 up to n_paths"
      (List.init (c.Pathgen.n_paths - 1) (fun i -> i + 2))
      ks;
    check Alcotest.int "nodes add up" c.Pathgen.ilp_nodes
      (List.fold_left (fun acc (a : Pathgen.attempt) -> acc + a.nodes) 0 c.Pathgen.attempts);
    List.iter
      (fun (a : Pathgen.attempt) ->
        check Alcotest.bool "root bound below the best bound" true
          (a.root_bound <= a.best_bound +. 1e-9);
        match a.outcome with
        | `Infeasible | `Optimal ->
          check Alcotest.bool "closed search" true (a.best_bound = infinity)
        | `Feasible | `Node_limit | `Failed -> ())
      c.Pathgen.attempts;
    (match List.rev c.Pathgen.attempts with
     | last :: _ when not c.Pathgen.degraded ->
       check Alcotest.bool "the shipped k succeeded" true
         (last.outcome = `Optimal || last.outcome = `Feasible)
     | _ -> ());
    check Alcotest.int "no ILP at node_limit 0" 0 (List.length greedy.Pathgen.attempts)
  | (Error f, _ | _, Error f) -> Alcotest.fail (Mf_util.Fail.to_string f)

(* The whole configuration behind [generate ~node_limit:400] on two
   benchmark chips, recorded before the in-search parallel axis was
   deleted: the serial branch-and-bound must keep the same node order,
   effort and bounds (floats in hex, so the pin is bit-exact). *)
let render_config (c : Pathgen.config) =
  let ints l = String.concat " " (List.map string_of_int l) in
  let s = c.Pathgen.solver in
  let outcome = function
    | `Optimal -> "optimal"
    | `Feasible -> "feasible"
    | `Infeasible -> "infeasible"
    | `Node_limit -> "node_limit"
    | `Failed -> "failed"
  in
  [
    Printf.sprintf "ports %d -> %d" c.Pathgen.src_port c.Pathgen.dst_port;
    "added " ^ ints c.Pathgen.added_edges;
  ]
  @ List.map (fun p -> "path " ^ ints p) c.Pathgen.paths
  @ [
      Printf.sprintf "n_paths %d ilp_nodes %d loop_cuts %d degraded %b" c.Pathgen.n_paths
        c.Pathgen.ilp_nodes c.Pathgen.loop_cuts c.Pathgen.degraded;
      Printf.sprintf
        "nodes %d batches %d warm %d/%d fallbacks %d cache_hits %d pivots %d/%d presolve %d/%d \
         covers %d"
        s.Mf_ilp.Ilp.rs_nodes s.Mf_ilp.Ilp.rs_batches s.Mf_ilp.Ilp.rs_warm_taken
        s.Mf_ilp.Ilp.rs_warm_eligible s.Mf_ilp.Ilp.rs_fallbacks s.Mf_ilp.Ilp.rs_cache_hits
        s.Mf_ilp.Ilp.rs_primal_pivots s.Mf_ilp.Ilp.rs_dual_pivots s.Mf_ilp.Ilp.rs_presolve_fixed
        s.Mf_ilp.Ilp.rs_presolve_tightened s.Mf_ilp.Ilp.rs_cover_cuts;
      Printf.sprintf "root_bound %h best_bound %h" s.Mf_ilp.Ilp.rs_root_bound
        s.Mf_ilp.Ilp.rs_best_bound;
    ]
  @ List.map
      (fun (a : Pathgen.attempt) ->
        Printf.sprintf "k=%d %s nodes %d root %h best %h primed %h" a.k (outcome a.outcome)
          a.nodes a.root_bound a.best_bound a.primed_bound)
      c.Pathgen.attempts

let pinned_configs =
  [
    ( "ivd_chip",
      [
        "ports 0 -> 1";
        "added 4 10 17 26 36 37 38";
        "path 18 12 11 5 4 7 16 24";
        "path 10 9 11 13 15 17";
        "path 18 21 29 31 25 24";
        "path 18 21 27 28 36 37 32 31 33 26";
        "path 18 21 29 32 38 34 33 26";
        "n_paths 5 ilp_nodes 400 loop_cuts 0 degraded true";
        "nodes 400 batches 32 warm 396/396 fallbacks 0 cache_hits 2 pivots 400/1034 presolve 2/2 \
         covers 0";
        "root_bound 0x1.8p+2 best_bound 0x1.8p+2";
        "k=2 node_limit nodes 300 root 0x1.8p+2 best 0x1.8p+2 primed 0x1.c0000431bde83p+2";
        "k=3 node_limit nodes 100 root 0x1.8p+2 best 0x1.8p+2 primed 0x1.c0000431bde83p+2";
      ] );
    ( "ra30_chip",
      [
        "ports 0 -> 1";
        "added 2 6 10 11 25 28 54 55";
        "path 26 16 3 2 5 17 19 21 24 36";
        "path 26 16 15 17 7 6 9 21 24 36";
        "path 26 29 41 43 45 47 37 24 11 10 12 25";
        "path 26 28 30 20 19 21 23 25";
        "path 26 29 41 44 54 46 45 47 37 36";
        "path 26 29 41 43 46 55 48 47 37 36";
        "n_paths 6 ilp_nodes 400 loop_cuts 0 degraded true";
        "nodes 400 batches 32 warm 396/396 fallbacks 0 cache_hits 2 pivots 557/1307 presolve 2/2 \
         covers 0";
        "root_bound 0x1.8p+2 best_bound 0x1.8p+2";
        "k=2 node_limit nodes 300 root 0x1.8p+2 best 0x1.8p+2 primed 0x1.00000218def41p+3";
        "k=3 node_limit nodes 100 root 0x1.8p+2 best 0x1.8p+2 primed 0x1.00000218def41p+3";
      ] );
  ]

let test_pathgen_pinned () =
  List.iter
    (fun (name, expected) ->
      let chip = Option.get (Mf_chips.Benchmarks.by_name name) in
      match Pathgen.generate ~node_limit:400 chip with
      | Error f -> Alcotest.fail (Mf_util.Fail.to_string f)
      | Ok c -> check Alcotest.(list string) name expected (render_config c))
    pinned_configs

let test_cutgen_fig4 () =
  let chip = fig4_chip () in
  match Pathgen.generate chip with
  | Error f -> Alcotest.fail (Mf_util.Fail.to_string f)
  | Ok config ->
    let aug = Pathgen.apply chip config in
    let result = Cutgen.generate aug ~source:config.Pathgen.src_port ~meter:config.Pathgen.dst_port in
    check Alcotest.(list int) "all valves cut-testable" [] result.Cutgen.untestable;
    let ports = Chip.ports aug in
    let s = ports.(config.Pathgen.src_port).node and t = ports.(config.Pathgen.dst_port).node in
    List.iter
      (fun cut ->
        let vec = Vector.of_cut aug ~source:s ~meters:[ t ] cut in
        check Alcotest.bool "cut separates" true (Pressure.well_formed aug vec);
        (* every member is essential: its leak is observed *)
        List.iter
          (fun v ->
            check Alcotest.bool "member essential" true
              (Pressure.detects aug vec (Fault.Stuck_at_1 v)))
          cut)
      result.Cutgen.cuts

let test_full_suite_complete () =
  let chip = fig4_chip () in
  match Pathgen.generate chip with
  | Error f -> Alcotest.fail (Mf_util.Fail.to_string f)
  | Ok config ->
    let aug = Pathgen.apply chip config in
    let cuts = Cutgen.generate aug ~source:config.Pathgen.src_port ~meter:config.Pathgen.dst_port in
    let suite = Vectors.of_config config cuts in
    let report = Vectors.validate aug suite in
    check Alcotest.bool "complete single-source single-meter coverage" true
      (Coverage.complete report)

let test_fallback_cuts () =
  let chip = fig4_chip () in
  match Pathgen.generate chip with
  | Error f -> Alcotest.fail (Mf_util.Fail.to_string f)
  | Ok config ->
    let aug = Pathgen.apply chip config in
    let fallback =
      Cutgen.fallback_cuts aug ~source:config.Pathgen.src_port ~meter:config.Pathgen.dst_port
        config.Pathgen.paths
    in
    check Alcotest.bool "fallback produces cuts" true (fallback <> []);
    (* roughly one cut per valve on the paths: at least as many as the
       minimum-cut generator needs *)
    let minimal = Cutgen.generate aug ~source:config.Pathgen.src_port ~meter:config.Pathgen.dst_port in
    check Alcotest.bool "fallback is the bulkier scheme" true
      (List.length fallback >= List.length minimal.Cutgen.cuts)

let test_multiport_original () =
  let chip = fig4_chip () in
  let r = Multiport.generate chip in
  (* the mixer's dead-end spur cannot be exercised port-to-port without DFT:
     exactly the paper's motivation *)
  let spur = Option.get (Grid.edge_between_xy (Chip.grid chip) (2, 2) (2, 3)) in
  check Alcotest.(list int) "only the mixer spur sa0-untestable" [ spur ]
    r.Multiport.sa0_untestable;
  let spur_valve = (Option.get (Chip.valve_on chip spur)).Chip.valve_id in
  check Alcotest.(list int) "only the spur valve sa1-untestable" [ spur_valve ]
    r.Multiport.sa1_untestable;
  let report = Coverage.measure chip r.Multiport.vectors in
  check Alcotest.(list int) "sa0 misses only the spur" [ spur ] report.Coverage.sa0_undetected;
  check Alcotest.(list int) "sa1 misses only the spur valve" [ spur_valve ]
    report.Coverage.sa1_undetected

let test_dft_fixes_untestable () =
  (* after augmentation the single-pair suite covers what multi-port could
     not: the complete DFT story in one assertion *)
  let chip = fig4_chip () in
  let pre = Multiport.generate chip in
  check Alcotest.bool "pre-DFT has untestable faults" true
    (pre.Multiport.sa0_untestable <> [] || pre.Multiport.sa1_untestable <> []);
  match Pathgen.generate chip with
  | Error f -> Alcotest.fail (Mf_util.Fail.to_string f)
  | Ok config ->
    let aug = Pathgen.apply chip config in
    let cuts = Cutgen.generate aug ~source:config.Pathgen.src_port ~meter:config.Pathgen.dst_port in
    let suite = Vectors.of_config config cuts in
    check Alcotest.bool "post-DFT complete" true (Coverage.complete (Vectors.validate aug suite))

let test_multiport_fewer_vectors_than_dft () =
  (* the Fig. 8 relationship on the benchmark chips *)
  List.iter
    (fun name ->
      let chip = Option.get (Mf_chips.Benchmarks.by_name name) in
      let original = Multiport.generate chip in
      let n_original =
        original.Multiport.n_path_vectors + original.Multiport.n_cut_vectors
      in
      match Pathgen.generate ~node_limit:400 chip with
      | Error f -> Alcotest.fail (Mf_util.Fail.to_string f)
      | Ok config ->
        let aug = Pathgen.apply chip config in
        let cuts =
          Cutgen.generate aug ~source:config.Pathgen.src_port ~meter:config.Pathgen.dst_port
        in
        let suite = Vectors.of_config config cuts in
        check Alcotest.bool
          (name ^ ": dft needs at least as many vectors")
          true
          (Vectors.count suite >= n_original))
    [ "ivd_chip" ]

let test_repair_adds_vectors () =
  let chip = fig4_chip () in
  match Pathgen.generate chip with
  | Error f -> Alcotest.fail (Mf_util.Fail.to_string f)
  | Ok config ->
    let aug = Pathgen.apply chip config in
    let cuts = Cutgen.generate aug ~source:config.Pathgen.src_port ~meter:config.Pathgen.dst_port in
    let suite = Vectors.of_config config cuts in
    (* cripple the suite: drop all cuts; repair must bring sa1 coverage back *)
    let crippled = { suite with Vectors.cut_valves = [] } in
    let repaired = Repair.run aug crippled in
    check Alcotest.bool "repair restored coverage" true (Vectors.is_valid aug repaired)

let test_vectors_count () =
  let suite =
    { Vectors.source_port = 0; meter_port = 1; path_edges = [ [ 1 ]; [ 2 ] ]; cut_valves = [ [ 0 ] ] }
  in
  check Alcotest.int "count" 3 (Vectors.count suite)

let test_generate_rejects_same_port () =
  let chip = fig4_chip () in
  check Alcotest.bool "same port rejected" true
    (try
       ignore (Pathgen.generate ~src_port:0 ~dst_port:0 chip);
       false
     with Invalid_argument _ -> true)

let () =
  (* exact-value assertions require the fault-free pipeline *)
  Mf_util.Chaos.neutralise ();
  Alcotest.run "mf_testgen"
    [
      ( "pathgen",
        [
          Alcotest.test_case "farthest ports" `Quick test_farthest_ports;
          Alcotest.test_case "fig4 coverage" `Quick test_pathgen_fig4;
          Alcotest.test_case "paths end at meter" `Quick test_pathgen_paths_end_at_meter;
          Alcotest.test_case "warm vs cold LP core" `Slow test_pathgen_warm_vs_cold;
          Alcotest.test_case "same port rejected" `Quick test_generate_rejects_same_port;
          Alcotest.test_case "per-k attempts" `Quick test_pathgen_attempts;
          Alcotest.test_case "node_limit 400 pinned" `Quick test_pathgen_pinned;
        ] );
      ( "cutgen",
        [
          Alcotest.test_case "fig4 cuts" `Quick test_cutgen_fig4;
          Alcotest.test_case "full suite complete" `Quick test_full_suite_complete;
          Alcotest.test_case "fallback cuts" `Quick test_fallback_cuts;
        ] );
      ( "multiport",
        [
          Alcotest.test_case "original coverage" `Quick test_multiport_original;
          Alcotest.test_case "DFT fixes untestable" `Quick test_dft_fixes_untestable;
          Alcotest.test_case "fig8 relationship" `Slow test_multiport_fewer_vectors_than_dft;
        ] );
      ( "repair",
        [
          Alcotest.test_case "repair adds vectors" `Quick test_repair_adds_vectors;
          Alcotest.test_case "vectors count" `Quick test_vectors_count;
        ] );
      ( "testtime",
        [
          Alcotest.test_case "positive and additive" `Quick (fun () ->
              let chip = fig4_chip () in
              let layout = Mf_control.Control.synthesize chip in
              match Pathgen.generate chip with
              | Error f -> Alcotest.fail (Mf_util.Fail.to_string f)
              | Ok config ->
                let aug = Pathgen.apply chip config in
                let aug_layout = Mf_control.Control.synthesize aug in
                let cuts =
                  Cutgen.generate aug ~source:config.Pathgen.src_port
                    ~meter:config.Pathgen.dst_port
                in
                let suite = Vectors.of_config config cuts in
                let vectors = Vectors.vectors aug suite in
                let total = Mf_testgen.Testtime.total aug aug_layout vectors in
                let single = Mf_testgen.Testtime.per_vector aug aug_layout (List.hd vectors) in
                check Alcotest.bool "single positive" true (single > 0.);
                check Alcotest.bool "total at least n * (settle+read)" true
                  (total >= float_of_int (List.length vectors) *. 15.);
                check Alcotest.bool "total exceeds one" true (total > single);
                ignore layout);
          Alcotest.test_case "more vectors, more time" `Quick (fun () ->
              let chip = fig4_chip () in
              let layout = Mf_control.Control.synthesize chip in
              let s = (Chip.ports chip).(0).Chip.node and t = (Chip.ports chip).(1).Chip.node in
              let vec =
                Mf_faults.Vector.of_cut chip ~source:s ~meters:[ t ] [ 0 ]
              in
              let one = Mf_testgen.Testtime.total chip layout [ vec ] in
              let three = Mf_testgen.Testtime.total chip layout [ vec; vec; vec ] in
              check (Alcotest.float 1e-6) "3x vectors = 3x time" (3. *. one) three);
        ] );
    ]
