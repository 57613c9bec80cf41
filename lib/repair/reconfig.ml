module Chip = Mf_arch.Chip
module Grid = Mf_grid.Grid
module Graph = Mf_graph.Graph
module Traverse = Mf_graph.Traverse
module Bitset = Mf_util.Bitset
module Fail = Mf_util.Fail
module Diag = Mf_util.Diag
module Budget = Mf_util.Budget
module Domain_pool = Mf_util.Domain_pool
module Prof = Mf_util.Prof
module Fault = Mf_faults.Fault
module Pressure = Mf_faults.Pressure
module Coverage = Mf_faults.Coverage
module Vector = Mf_faults.Vector
module Vectors = Mf_testgen.Vectors
module Vrepair = Mf_testgen.Repair
module Cutgen = Mf_testgen.Cutgen
module Ilp = Mf_ilp.Ilp
module Prep = Mf_sched.Prep
module Scheduler = Mf_sched.Scheduler
module Cert = Mf_verify.Cert

type params = {
  seed : int;
  jobs : int;
  node_limit : int;
  max_rounds : int;
}

let default_params = { seed = 42; jobs = 1; node_limit = 2000; max_rounds = 8 }

type degradation =
  | Dropped_vectors of int
  | Greedy_cover
  | Unshared of int
  | Full_resolve
  | Budget_exhausted

let degradation_to_string = function
  | Dropped_vectors n -> Printf.sprintf "dropped-vectors:%d" n
  | Greedy_cover -> "greedy-cover"
  | Unshared n -> Printf.sprintf "unshared:%d" n
  | Full_resolve -> "full-resolve"
  | Budget_exhausted -> "budget-exhausted"

type checkpoint = {
  path : string;
  every : int;
  resume : bool;
  stop_after : int option;
}

type stats = {
  rounds : int;
  damaged : int;
  reused : int;
  added : int;
  candidates : int;
  solver : Ilp.run_stats;
  runtime : float;
}

type result = {
  chip : Chip.t;
  faults : Fault.t list;
  suite : Vectors.t;
  untestable : Fault.t list;
  coverage : Coverage.report;
  exec_before : int option;
  exec_after : int option;
  degradations : degradation list;
  stats : stats;
  cert : Cert.t;
}

let failf ?elapsed fmt =
  Printf.ksprintf (fun reason -> Error (Fail.v ?elapsed Fail.Repair reason)) fmt

(* ------------------------------------------------------------------ *)
(* Structural untestability prover — the same sound criteria the verifier
   audits waivers with (Cert, MF106), derived independently here so the
   engine never waives a fault the checker would reject.

   M: edges that can conduct under some vector (channel, not blocked).
   U: edges that conduct under every vector (M, and unvalved or stuck
   open).  A fault that can never change origin→meter connectivity is
   untestable; origins are the source plus the seats of context leaks. *)
let prover chip ctx ~s ~t =
  let g = Grid.graph (Chip.grid chip) in
  let valves = Chip.valves chip in
  let m_allowed e = Chip.is_channel chip e && not (Pressure.blocked ctx e) in
  let u_allowed e =
    m_allowed e
    &&
    match Chip.valve_on chip e with
    | None -> true
    | Some v -> Pressure.stuck_open ctx v.valve_id
  in
  let origins =
    s
    :: List.concat_map
         (function
           | Fault.Leak w ->
             let a, b = Graph.endpoints g valves.(w).edge in
             [ a; b ]
           | Fault.Stuck_at_0 _ | Fault.Stuck_at_1 _ -> [])
         (Pressure.context_faults ctx)
  in
  let to_meter = Traverse.reachable g ~allowed:m_allowed ~src:t in
  let always_connected = Traverse.connected g ~allowed:u_allowed s t in
  (* Every vector's conducting graph is sandwiched between the
     always-conducting subgraph and M, so fault observability at an edge
     reduces to the exact contracted-graph bridge search: [No_route] is a
     sound proof that no vector can observe the edge. *)
  let routable e =
    match
      Mf_graph.Disjoint.route_through g ~allowed:m_allowed ~contract:u_allowed ~origins
        ~target:t ~via:e ~cap:Mf_graph.Disjoint.default_cap
    with
    | Mf_graph.Disjoint.No_route -> false
    | Mf_graph.Disjoint.Route _ | Mf_graph.Disjoint.Capped -> true
  in
  let context_leak_at w =
    List.exists
      (function Fault.Leak x -> x = w | Fault.Stuck_at_0 _ | Fault.Stuck_at_1 _ -> false)
      (Pressure.context_faults ctx)
  in
  function
  | Fault.Stuck_at_0 e ->
    (not (Chip.is_channel chip e)) || Pressure.blocked ctx e || not (routable e)
  | Fault.Stuck_at_1 w ->
    let v = valves.(w) in
    Pressure.stuck_open ctx w
    (* a present leak at [w] pressurises both seats whenever its line is
       active, so whether the valve seals can never reach the meter *)
    || context_leak_at w
    || Pressure.blocked ctx v.edge
    || not (routable v.edge)
  | Fault.Leak w ->
    let v = valves.(w) in
    Pressure.blocked ctx v.edge || always_connected
    ||
    let a, b = Graph.endpoints g v.edge in
    not (Bitset.mem to_meter a || Bitset.mem to_meter b)

(* ------------------------------------------------------------------ *)
(* Damage analysis and candidate generation *)

let terminals chip (suite : Vectors.t) =
  let ports = Chip.ports chip in
  (ports.(suite.Vectors.source_port).node, ports.(suite.Vectors.meter_port).node)

(* Vectors the context damages are dead on the degraded chip; everything
   else is reusable verbatim.  This is the minimal damage set: only faults
   these vectors covered (or fresh escapes) need re-solving. *)
let drop_damaged ctx chip (suite : Vectors.t) =
  let s, t = terminals chip suite in
  let intact v = Pressure.intact ~present:ctx chip v in
  let ok_path p = intact (Vector.of_path chip ~source:s ~meters:[ t ] p) in
  let ok_cut c = intact (Vector.of_cut chip ~source:s ~meters:[ t ] c) in
  let keep_paths = List.filter ok_path suite.Vectors.path_edges in
  let keep_cuts = List.filter ok_cut suite.Vectors.cut_valves in
  let dropped =
    List.length suite.Vectors.path_edges
    - List.length keep_paths
    + List.length suite.Vectors.cut_valves
    - List.length keep_cuts
  in
  ({ suite with Vectors.path_edges = keep_paths; cut_valves = keep_cuts }, dropped)

type candidate = Path of int list | Cut of int list

let cand_vector chip ~s ~t = function
  | Path p -> Vector.of_path chip ~source:s ~meters:[ t ] p
  | Cut c -> Vector.of_cut chip ~source:s ~meters:[ t ] c

let escaped_faults (report : Coverage.report) =
  List.map (fun e -> Fault.Stuck_at_0 e) report.Coverage.sa0_undetected
  @ List.map (fun v -> Fault.Stuck_at_1 v) report.Coverage.sa1_undetected

(* Per-fault confirmed repair candidates on the degraded chip, as one
   sequence: [Vrepair]'s, and for a stuck-at-1 without any, the max-flow
   minimum cut forced through the valve (the second algorithm), confirmed
   on the degraded chip.  Pure and deterministic given the cache's
   context, so the per-fault fan-out below is jobs-independent. *)
let candidate_seq cache chip ~s ~t fault : candidate Seq.t =
  match fault with
  | Fault.Stuck_at_0 e -> Seq.map (fun p -> Path p) (Vrepair.confirmed_sa0 ~cache chip ~s ~t e)
  | Fault.Stuck_at_1 w -> (
      let cuts = Seq.map (fun c -> Cut c) (Vrepair.confirmed_sa1 ~cache chip ~s ~t w) in
      fun () ->
        match cuts () with
        | Seq.Cons _ as found -> found
        | Seq.Nil -> (
            match Cutgen.cover_valve chip ~s ~t (Chip.valves chip).(w) with
            | Some cut
              when let p =
                     Pressure.prepare ?present:(Vrepair.cache_context cache) chip
                       (Vector.of_cut chip ~source:s ~meters:[ t ] cut)
                   in
                   Pressure.prepared_intact p && Pressure.prepared_detects p fault ->
              Seq.Cons (Cut cut, Seq.empty)
            | Some _ | None -> Seq.Nil))
  | Fault.Leak _ -> Seq.empty

let first_candidate cache chip ~s ~t fault = Seq.uncons (candidate_seq cache chip ~s ~t fault)

let candidate_list = function
  | Some (first, rest) -> Vrepair.dedup (first :: List.of_seq rest)
  | None -> []

(* ------------------------------------------------------------------ *)
(* Cover selection: the fewest candidate vectors detecting every escaped
   coverable fault.  Solved as a set-cover ILP on the warm-started
   dual-simplex core; on node/budget exhaustion the greedy
   most-coverage-first cover steps in (recorded as a degradation). *)
let select_cover ?budget ~node_limit cands detect_matrix n_faults =
  let n = Array.length cands in
  if n = 0 then ([], Ilp.zero_stats, false)
  else begin
    let ilp = Ilp.create () in
    let vars = Array.init n (fun _ -> Ilp.add_binary ~obj:1. ilp) in
    for fi = 0 to n_faults - 1 do
      let row = ref [] in
      for ci = 0 to n - 1 do
        if detect_matrix.(ci).(fi) then row := (1., vars.(ci)) :: !row
      done;
      Ilp.add_row ilp !row Ilp.Ge 1.
    done;
    let greedy () =
      let covered = Array.make n_faults false in
      let chosen = ref [] in
      let remaining = ref n_faults in
      while !remaining > 0 do
        let best = ref (-1) and best_gain = ref 0 in
        for ci = n - 1 downto 0 do
          let gain = ref 0 in
          for fi = 0 to n_faults - 1 do
            if detect_matrix.(ci).(fi) && not covered.(fi) then incr gain
          done;
          if !gain >= !best_gain && !gain > 0 then begin
            best := ci;
            best_gain := !gain
          end
        done;
        if !best < 0 then remaining := 0 (* uncoverable residue; caller re-validates *)
        else begin
          chosen := !best :: !chosen;
          for fi = 0 to n_faults - 1 do
            if detect_matrix.(!best).(fi) then
              if not covered.(fi) then begin
                covered.(fi) <- true;
                decr remaining
              end
          done
        end
      done;
      List.sort compare !chosen
    in
    match Ilp.solve ~node_limit ?budget ~warm:true ilp with
    | Ilp.Optimal sol | Ilp.Feasible sol ->
      let chosen =
        List.filter (fun ci -> sol.Ilp.values.(vars.(ci)) > 0.5) (List.init n Fun.id)
      in
      (chosen, Ilp.last_stats ilp, false)
    | Ilp.Infeasible | Ilp.Node_limit | Ilp.Failed _ ->
      (greedy (), Ilp.last_stats ilp, true)
  end

(* ------------------------------------------------------------------ *)
(* Fallbacks *)

(* Full re-solve on the degraded chip: regenerate the cut side with the
   generation-side max-flow cut generator and re-run the per-fault repair
   over the whole remaining universe.  Much more work than the incremental
   path — exactly what [Full_resolve] records. *)
let full_resolve cache chip (kept : Vectors.t) =
  let s, t = terminals chip kept in
  let cg =
    Cutgen.generate chip ~source:kept.Vectors.source_port ~meter:kept.Vectors.meter_port
  in
  let usable cut =
    Pressure.intact ?present:(Vrepair.cache_context cache) chip
      (Vector.of_cut chip ~source:s ~meters:[ t ] cut)
  in
  let cuts = List.filter usable cg.Cutgen.cuts in
  let seeded =
    { kept with Vectors.cut_valves = Vrepair.dedup (kept.Vectors.cut_valves @ cuts) }
  in
  Vrepair.run ~cache chip seeded

(* Minimal unsharing: keep the longest greedy prefix-closure of the sharing
   scheme under which every stranded fault has a confirmed candidate (its
   first one: nothing past it is built).  The suite's paths and cuts carry
   edge/valve ids, which sharing rewiring preserves, so vectors stay
   portable across the rewired chip, and so do the routes in [memo]. *)
let unshare memo faults0 ~missing ~s ~t aug scheme =
  let ok chip' =
    let cache = Vrepair.cache ~present:(Pressure.context chip' faults0) memo chip' ~s ~t in
    List.for_all (fun f -> Option.is_some (first_candidate cache chip' ~s ~t f)) missing
  in
  if not (ok aug) then None
  else begin
    let kept =
      List.fold_left
        (fun kept a ->
          let trial = kept @ [ a ] in
          if ok (Chip.with_sharing aug trial) then trial else kept)
        [] scheme
    in
    Some (Chip.with_sharing aug kept, List.length scheme - List.length kept)
  end

(* ------------------------------------------------------------------ *)
(* Checkpointing: the state between rounds, with the parameters it was
   taken under *)

type state = {
  st_round : int; (* completed rounds *)
  st_chip : Chip.t;
  st_suite : Vectors.t;
  st_faults : Fault.t list;
  st_unshared : int option; (* sharing assignments dropped, when unsharing ran *)
  st_full : bool;
  st_greedy : bool;
  st_damaged : int;
  st_added : int;
  st_candidates : int;
  st_solver : Ilp.run_stats;
}

let snapshot_magic = "mfdft-repair-checkpoint-v3"

type snapshot = { ck_seed : int; ck_node_limit : int; ck_max_rounds : int; ck_state : state }

let load_state ~params path : (state, Fail.t) Stdlib.result =
  let fail reason = Error (Fail.v Fail.Repair reason) in
  match (Mf_util.Snapshot.load ~magic:snapshot_magic path : (snapshot, _) Stdlib.result) with
  | Error e ->
    fail
      (Printf.sprintf "cannot resume: checkpoint %s %s" path (Mf_util.Snapshot.error_message e))
  | Ok snap ->
    if
      snap.ck_seed <> params.seed
      || snap.ck_node_limit <> params.node_limit
      || snap.ck_max_rounds <> params.max_rounds
    then
      fail
        (Printf.sprintf
           "checkpoint %s was taken with different repair parameters (seed %d, node \
            limit %d, max rounds %d)"
           path snap.ck_seed snap.ck_node_limit snap.ck_max_rounds)
    else Ok snap.ck_state

(* ------------------------------------------------------------------ *)
(* The engine *)

let repair ?(params = default_params) ?budget ?checkpoint ?app ?sharing ?more_faults
    chip0 (suite0 : Vectors.t) faults0 =
  let started = Unix.gettimeofday () in
  let elapsed () = Unix.gettimeofday () -. started in
  if faults0 = [] then failf "no faults to repair against"
  else begin
    let resume_state =
      match checkpoint with
      | Some ck when ck.resume -> Result.map Option.some (load_state ~params ck.path)
      | _ -> Ok None
    in
    match resume_state with
    | Error f -> Error f
    | Ok resume_state ->
      let save st =
        match checkpoint with
        | None -> ()
        | Some ck ->
          Mf_util.Snapshot.save ~magic:snapshot_magic ck.path
            {
              ck_seed = params.seed;
              ck_node_limit = params.node_limit;
              ck_max_rounds = params.max_rounds;
              ck_state = st;
            }
      in
      let initial =
        {
          st_round = 0;
          st_chip = chip0;
          st_suite = suite0;
          st_faults = faults0;
          st_unshared = None;
          st_full = false;
          st_greedy = false;
          st_damaged = 0;
          st_added = 0;
          st_candidates = 0;
          st_solver = Ilp.zero_stats;
        }
      in
      Domain_pool.with_pool ~jobs:(max 1 params.jobs) @@ fun dpool ->
      (* Exec-time bookkeeping rides the PR-5 sharing-aware prep cache: the
         engine never changes topology (unsharing and full re-solve only
         rewire controls / regenerate vectors), so the final chip reuses the
         input chip's routing cache via [Prep.for_sharing]. *)
      let base_prep = lazy (Prep.of_chip chip0) in
      (* Routes depend on topology, valve placement, terminals, [via] and
         the context's blocked and stuck-open sets, never on control
         wiring: one memo serves every round, every unsharing trial and
         the full re-solve of this call (DESIGN.md §14). *)
      let memo = Vrepair.memo () in
      let finish ?(extra = []) st (report : Coverage.report) untestable =
        let cert =
          Cert.make ~chip_name:(Chip.name st.st_chip)
            ~suite:
              {
                Cert.source_port = st.st_suite.Vectors.source_port;
                meter_port = st.st_suite.Vectors.meter_port;
                path_edges = st.st_suite.Vectors.path_edges;
                cut_valves = st.st_suite.Vectors.cut_valves;
              }
            ~context:st.st_faults ~waived:untestable
            ~claimed_vectors:(Vectors.count st.st_suite)
            ~claimed_coverage:(report.Coverage.detected, report.Coverage.total_faults)
            ()
        in
        let diags =
          Prof.time "repair.certify" (fun () -> Mf_verify.Verify.certificate st.st_chip cert)
        in
        if Diag.has_errors diags then
          failf ~elapsed:(elapsed ()) "re-certification failed: %s"
            (match Diag.errors diags with
             | d :: _ -> Format.asprintf "%a" Diag.pp d
             | [] -> "unknown error")
        else begin
          let exec_before, exec_after =
            Prof.time "repair.exec" @@ fun () ->
            match app with
            | None -> (None, None)
            | Some app ->
              let before = Scheduler.makespan ~prep:(Lazy.force base_prep) chip0 app in
              let prep =
                if st.st_chip == chip0 then Lazy.force base_prep
                else Prep.for_sharing (Lazy.force base_prep) st.st_chip
              in
              (before, Scheduler.makespan ~prep st.st_chip app)
          in
          let degradations =
            (if st.st_damaged > 0 then [ Dropped_vectors st.st_damaged ] else [])
            @ (if st.st_greedy then [ Greedy_cover ] else [])
            @ (match st.st_unshared with Some n -> [ Unshared n ] | None -> [])
            @ (if st.st_full then [ Full_resolve ] else [])
            @ extra
          in
          Ok
            {
              chip = st.st_chip;
              faults = st.st_faults;
              suite = st.st_suite;
              untestable;
              coverage = report;
              exec_before;
              exec_after;
              degradations;
              stats =
                {
                  rounds = st.st_round;
                  damaged = st.st_damaged;
                  reused = max 0 (Vectors.count st.st_suite - st.st_added);
                  added = st.st_added;
                  candidates = st.st_candidates;
                  solver = st.st_solver;
                  runtime = elapsed ();
                };
              cert;
            }
        end
      in
      (* One repair round over the current fault set.  Returns either the
         next state, a finished result, or a typed failure. *)
      let rec rounds st =
        let budget_out = Budget.over budget in
        if st.st_round >= params.max_rounds && not budget_out then
          failf ~elapsed:(elapsed ()) "fault escalation exceeded %d rounds" params.max_rounds
        else begin
          let round = st.st_round + 1 in
          let ctx = Pressure.context st.st_chip st.st_faults in
          let s, t = terminals st.st_chip st.st_suite in
          let cache = Vrepair.cache ~present:ctx memo st.st_chip ~s ~t in
          let kept, dropped = drop_damaged ctx st.st_chip st.st_suite in
          let st = { st with st_suite = kept; st_damaged = st.st_damaged + dropped } in
          let report = Vectors.validate ~present:ctx st.st_chip st.st_suite in
          let escaped = escaped_faults report in
          let prove = prover st.st_chip ctx ~s ~t in
          let untestable, coverable =
            Prof.time "repair.prover" (fun () -> List.partition prove escaped)
          in
          if budget_out then
            (* Out of time: ship the current state if it certifies (every
               residual escape provably untestable), typed failure
               otherwise — never an unflagged partial artifact. *)
            if coverable = [] then
              finish ~extra:[ Budget_exhausted ] { st with st_round = round } report untestable
            else
              failf ~elapsed:(elapsed ())
                "wall-clock budget exhausted with %d coverable faults unrepaired"
                (List.length coverable)
          else begin
            (* Each fault's first candidate decides whether the round can
               cover; only then are the lists completed, from the same
               sequences past their first elements. *)
            let firsts =
              Prof.time "repair.candidates" (fun () ->
                  Domain_pool.map dpool
                    (first_candidate cache st.st_chip ~s ~t)
                    (Array.of_list coverable))
            in
            let missing = List.filteri (fun i _ -> Option.is_none firsts.(i)) coverable in
            if missing <> [] then begin
              (* fallback ladder: minimal unsharing, then full re-solve *)
              let resolve_or_fail () =
                if st.st_full then
                  failf ~elapsed:(elapsed ())
                    "fault %s is neither repairable nor provably untestable"
                    (Format.asprintf "%a" (Fault.pp st.st_chip) (List.hd missing))
                else
                  rounds
                    { st with st_suite = full_resolve cache st.st_chip st.st_suite; st_full = true }
              in
              match sharing with
              | Some (aug, scheme) when st.st_unshared = None -> (
                  let s, t = terminals aug st.st_suite in
                  match
                    Prof.time "repair.unshare" (fun () ->
                        unshare memo st.st_faults ~missing ~s ~t aug scheme)
                  with
                  | Some (chip', dropped_assignments) ->
                    rounds
                      { st with st_chip = chip'; st_unshared = Some dropped_assignments }
                  | None -> resolve_or_fail ())
              | _ -> resolve_or_fail ()
            end
            else begin
              let owners = Array.of_list coverable in
              let n_faults = Array.length owners in
              let cand_lists =
                Prof.time "repair.candidates" (fun () ->
                    Domain_pool.map dpool candidate_list firsts)
              in
              let cands =
                Array.of_list (List.concat (Array.to_list cand_lists))
              in
              let detect_matrix =
                Domain_pool.map dpool
                  (fun c ->
                    let p =
                      Pressure.prepare ~present:ctx st.st_chip (cand_vector st.st_chip ~s ~t c)
                    in
                    Array.map (Pressure.prepared_detects p) owners)
                  cands
              in
              let chosen, solver_stats, greedy =
                select_cover ?budget ~node_limit:params.node_limit cands detect_matrix
                  n_faults
              in
              Prof.add_count "repair.candidates" (Array.length cands);
              let extra_paths, extra_cuts =
                List.fold_left
                  (fun (ps, cs) ci ->
                    match cands.(ci) with
                    | Path p -> (p :: ps, cs)
                    | Cut c -> (ps, c :: cs))
                  ([], []) (List.rev chosen)
              in
              let suite' =
                {
                  st.st_suite with
                  Vectors.path_edges = st.st_suite.Vectors.path_edges @ extra_paths;
                  cut_valves = st.st_suite.Vectors.cut_valves @ extra_cuts;
                }
              in
              let st =
                {
                  st with
                  st_round = round;
                  st_suite = suite';
                  st_added = st.st_added + List.length chosen;
                  st_candidates = st.st_candidates + Array.length cands;
                  st_solver = Ilp.add_stats st.st_solver solver_stats;
                  st_greedy = st.st_greedy || greedy;
                }
              in
              (match checkpoint with
               | Some ck when ck.every > 0 && round mod ck.every = 0 -> save st
               | _ -> ());
              match checkpoint with
              | Some ck when ck.stop_after = Some round ->
                save st;
                failf ~elapsed:(elapsed ())
                  "stopped after repair round %d; checkpoint saved to %s" round ck.path
              | _ -> after_round st
            end
          end
        end
      (* Post-round tail: poll the escalation hook, then validate and either
         finish, fall back to a full re-solve, or start another round.  Also
         the resume entry point — a checkpoint is saved exactly before this
         tail, so a resumed run replays the same poll the interrupted run
         never reached and stays bit-identical. *)
      and after_round st =
        let ctx = Pressure.context st.st_chip st.st_faults in
        let s, t = terminals st.st_chip st.st_suite in
        let prove = prover st.st_chip ctx ~s ~t in
        let novel =
          match more_faults with
          | None -> []
          | Some f ->
            List.filter
              (fun x -> not (List.exists (Fault.equal x) st.st_faults))
              (f ~round:st.st_round)
        in
        if novel <> [] then rounds { st with st_faults = st.st_faults @ novel }
        else begin
          let report' = Vectors.validate ~present:ctx st.st_chip st.st_suite in
          let escaped' = escaped_faults report' in
          let untestable, still_coverable =
            Prof.time "repair.prover" (fun () -> List.partition prove escaped')
          in
          if still_coverable <> [] then
            if st.st_full then
              failf ~elapsed:(elapsed ())
                "%d faults remain unrepaired after full re-solve"
                (List.length still_coverable)
            else
              rounds
                {
                  st with
                  st_suite = full_resolve (Vrepair.cache ~present:ctx memo st.st_chip ~s ~t)
                      st.st_chip st.st_suite;
                  st_full = true;
                }
          else finish st report' untestable
        end
      in
      Prof.time "repair.run" (fun () ->
          match resume_state with Some st -> after_round st | None -> rounds initial)
  end
