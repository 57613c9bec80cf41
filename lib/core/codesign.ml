module Chip = Mf_arch.Chip
module Rng = Mf_util.Rng
module Domain_pool = Mf_util.Domain_pool
module Pso = Mf_pso.Pso
module Scheduler = Mf_sched.Scheduler
module Prep = Mf_sched.Prep
module Vectors = Mf_testgen.Vectors
module Pathgen = Mf_testgen.Pathgen

type params = {
  pool_size : int;
  outer : Pso.params;
  inner : Pso.params;
  seed : int;
  scheduler : Scheduler.options;
  ilp_node_limit : int;
  jobs : int;
}

let default_params =
  {
    pool_size = 8;
    outer = { Pso.default_params with particles = 5; iterations = 100 };
    inner = { Pso.default_params with particles = 5; iterations = 12 };
    seed = 42;
    scheduler = Scheduler.default_options;
    ilp_node_limit = 4_000;
    jobs = 1;
  }

let quick_params =
  {
    default_params with
    pool_size = 4;
    outer = { Pso.default_params with particles = 5; iterations = 8 };
    inner = { Pso.default_params with particles = 5; iterations = 6 };
    ilp_node_limit = 2_000;
  }

type degradation =
  | Heuristic_config
  | Pool_rejects of int
  | Sharing_fallback
  | Budget_exhausted

let degradation_to_string = function
  | Heuristic_config -> "configuration from greedy heuristic (ILP budget exhausted)"
  | Pool_rejects n ->
    Printf.sprintf "%d pool candidate%s rejected by post-repair fault simulation" n
      (if n = 1 then "" else "s")
  | Sharing_fallback -> "no testable sharing scheme found; shipping unshared DFT architecture"
  | Budget_exhausted -> "wall-clock budget exhausted; optimisation cut short"

type result = {
  original : Chip.t;
  augmented : Chip.t;
  shared : Chip.t;
  config : Pathgen.config;
  sharing : Sharing.t;
  suite : Vectors.t;
  exec_original : int option;
  exec_dft_unshared : int option;
  exec_dft_no_pso : int option;
  exec_final : int option;
  n_dft_valves : int;
  n_shared : int;
  n_vectors_dft : int;
  trace : float list;
  evaluations : int;
  runtime : float;
  degradations : degradation list;
}

type checkpoint = {
  path : string;
  every : int;
  resume : bool;
  stop_after : int option;
}

(* Any fitness at or above this is an invalid scheme; below it, the fitness
   is the application makespan in seconds. *)
let invalid_threshold = 1e5

(* The fitness memo table, shared across the whole run and consulted from
   worker domains during batch evaluation.  A mutex guards the tables; the
   memoised function is deterministic, so two workers racing on the same
   miss both compute the same value and the table keeps the first — the
   cache affects work, never results.

   [tbl] holds the fitness values (it is what checkpoints persist and
   [worst_cached_valid] scans); [preps] caches the per-configuration
   {!Prep.t} topology snapshot, and [routes] and [detections] the
   per-configuration repair route memo ({!Mf_testgen.Repair.memo}) and
   detection sets ({!Mf_faults.Pressure.detect}, keyed by
   {!Mf_faults.Pressure.detection_key}), purely to save work. *)
type cache = {
  tbl : ((int list * Sharing.t), float) Hashtbl.t;
  preps : (int list, Prep.t) Hashtbl.t;
  routes : (int list, Mf_testgen.Repair.memo) Hashtbl.t;
  detections : (int list * string, Mf_faults.Pressure.detection) Hashtbl.t;
  lock : Mutex.t;
}

let cache_create () =
  {
    tbl = Hashtbl.create 64;
    preps = Hashtbl.create 8;
    routes = Hashtbl.create 8;
    detections = Hashtbl.create 1024;
    lock = Mutex.create ();
  }

let cache_find cache key =
  Mutex.lock cache.lock;
  let v = Hashtbl.find_opt cache.tbl key in
  Mutex.unlock cache.lock;
  v

let cache_store cache key v =
  Mutex.lock cache.lock;
  Hashtbl.replace cache.tbl key v;
  Mutex.unlock cache.lock

let cache_fold cache f init =
  Mutex.lock cache.lock;
  let acc = Hashtbl.fold (fun _ v acc -> f v acc) cache.tbl init in
  Mutex.unlock cache.lock;
  acc

let cache_dump cache =
  Mutex.lock cache.lock;
  let items = Hashtbl.fold (fun k v acc -> (k, v) :: acc) cache.tbl [] in
  Mutex.unlock cache.lock;
  Array.of_list items

let cache_restore cache items = Array.iter (fun (k, v) -> Hashtbl.replace cache.tbl k v) items

(* Built outside the lock: racing workers build identical values, the
   table keeps the first and every worker returns it. *)
let memo cache tbl key build =
  Mutex.lock cache.lock;
  let hit = Hashtbl.find_opt tbl key in
  Mutex.unlock cache.lock;
  match hit with
  | Some v -> v
  | None ->
    let v = build () in
    Mutex.protect cache.lock @@ fun () ->
    match Hashtbl.find_opt tbl key with
    | Some first -> first
    | None ->
      Hashtbl.add tbl key v;
      v

let prep_of cache (entry : Pool.entry) =
  memo cache cache.preps entry.Pool.config.Pathgen.added_edges (fun () ->
      Prep.of_chip entry.Pool.augmented)

(* A sharing scheme is testable if the configuration's suite still covers
   every fault on the re-wired chip, or can be repaired to (the paper
   regenerates vectors per sharing scheme; {!Mf_testgen.Repair} adds the
   vectors a scheme needs).  [Untestable n] carries the number of faults
   that still escape, so the PSO can climb towards validity.  Sharing
   rewires control lines only, so the entry's repair routes serve every
   scheme, and a vector's detection set depends on the scheme only through
   the valves it closes: both come from the per-entry memo. *)
type verdict =
  | Testable of Chip.t * Vectors.t
  | Untestable of int

let testable_suite cache (entry : Pool.entry) scheme =
  let shared = Sharing.apply entry.Pool.augmented scheme in
  let suite = entry.Pool.suite in
  let ports = Chip.ports entry.Pool.augmented in
  let s = ports.(suite.Vectors.source_port).Chip.node
  and t = ports.(suite.Vectors.meter_port).Chip.node in
  let added = entry.Pool.config.Pathgen.added_edges in
  let lookups = ref 0 and misses = ref 0 in
  let memo_cache =
    Mf_testgen.Repair.fault_free_cache
      ~detect:(fun chip v ->
        incr lookups;
        memo cache cache.detections (added, Mf_faults.Pressure.detection_key chip v) (fun () ->
            incr misses;
            Mf_faults.Pressure.detect chip v))
      (memo cache cache.routes added Mf_testgen.Repair.memo)
      entry.Pool.augmented ~s ~t
  in
  let suite, report = Mf_testgen.Repair.validate ~cache:memo_cache shared suite in
  Mf_util.Prof.add_count "faults.memo_hits" (!lookups - !misses);
  Mf_util.Prof.add_count "faults.memo_misses" !misses;
  if Mf_faults.Coverage.complete report then Testable (shared, suite)
  else
    Untestable
      (report.Mf_faults.Coverage.total_faults - report.Mf_faults.Coverage.detected
      + report.Mf_faults.Coverage.malformed)

(* On-disk snapshot of a paused run.  Everything the continuation depends
   on is stored by value: the pool (rebuilding it under chaos or a changed
   budget would diverge), the outer swarm state, the root rng (it is split
   once per particle per iteration inside [outer_batch]), the running best
   (as an index into the pool's entries), the fitness memo (the no-PSO
   baseline scans it) and the evaluation counter.  Plain data only, saved
   with [Mf_util.Snapshot.save]; loadable by binaries built from the same
   sources, so the magic is bumped whenever this type changes. *)
let snapshot_magic = "mfdft-codesign-checkpoint-v5"

type snapshot = {
  ck_seed : int;
  ck_particles : int;
  ck_iterations : int;
  ck_pool : Pool.t;
  ck_pso : Pso.batch_state;
  ck_root_rng : Rng.t;
  ck_best : (int * Sharing.t * float) option;
  ck_cache : ((int list * Sharing.t) * float) array;
  ck_evals : int;
}

let load_snapshot ~seed ~outer path : (snapshot, Mf_util.Fail.t) Stdlib.result =
  let fail reason = Error (Mf_util.Fail.v Mf_util.Fail.Codesign reason) in
  match (Mf_util.Snapshot.load ~magic:snapshot_magic path : (snapshot, _) Stdlib.result) with
  | Error e ->
    fail
      (Printf.sprintf "cannot resume: checkpoint %s %s" path (Mf_util.Snapshot.error_message e))
  | Ok snap ->
    if
      snap.ck_seed <> seed
      || snap.ck_particles <> outer.Pso.particles
      || snap.ck_iterations <> outer.Pso.iterations
    then
      fail
        (Printf.sprintf
           "checkpoint %s was taken with different codesign parameters (seed %d, %d \
            particles, %d iterations)"
           path snap.ck_seed snap.ck_particles snap.ck_iterations)
    else Ok snap

let check_checkpoint ~params path =
  Result.map ignore (load_snapshot ~seed:params.seed ~outer:params.outer path)

(* Fitness shaping: schemes whose test program cannot be completed are
   penalised by how many faults escape; schemes that deadlock the
   application rank between those and valid ones.  Memoised per
   (entry, scheme). *)
let sharing_fitness cache params app (entry : Pool.entry) scheme =
  let key = (entry.Pool.config.Pathgen.added_edges, scheme) in
  match cache_find cache key with
  | Some fit -> fit
  | None ->
    let fit =
      match Mf_util.Prof.time "codesign.verdict" (fun () -> testable_suite cache entry scheme) with
      | Untestable misses -> (100. *. invalid_threshold) +. (1000. *. float_of_int misses)
      | Testable (shared, _suite) ->
        Mf_util.Prof.time "codesign.schedule" @@ fun () ->
        let prep = Prep.for_sharing (prep_of cache entry) shared in
        (match Scheduler.makespan ~options:params.scheduler ~prep shared app with
         | Some makespan -> float_of_int makespan
         | None -> 10. *. invalid_threshold)
    in
    cache_store cache key fit;
    fit

(* Per-valve partner feasibility: original valves whose control line a DFT
   valve can share without breaking testability {e on its own}.  Pair
   interactions remain (the PSO's job), but decoding into these sets puts
   the swarm in a mostly-valid region instead of a ~0% one.  Cached on the
   pool entry: the sets depend only on the chip, so every application
   evaluated against this configuration reuses them. *)
let allowed_partners cache dpool (entry : Pool.entry) =
  match entry.Pool.partners with
  | Some allowed -> allowed
  | None ->
    let aug = entry.Pool.augmented in
    let n_orig = Chip.n_original_valves aug in
    let dft_ids =
      Array.to_list (Chip.valves aug)
      |> List.filter_map (fun (v : Chip.valve) -> if v.is_dft then Some v.valve_id else None)
    in
    (* every single-pair scheme, checked on the worker domains; the
       results come back in input order *)
    let pairs =
      Array.of_list (List.concat_map (fun d -> List.init n_orig (fun o -> (d, o))) dft_ids)
    in
    let ok =
      Domain_pool.map dpool
        (fun pair ->
          match testable_suite cache entry [ pair ] with
          | Testable _ -> true
          | Untestable _ -> false)
        pairs
    in
    let allowed =
      List.mapi
        (fun i d ->
          let feasible = List.filter (fun o -> ok.((i * n_orig) + o)) (List.init n_orig Fun.id) in
          let options = if feasible = [] then List.init n_orig Fun.id else feasible in
          (d, Array.of_list options))
        dft_ids
    in
    entry.Pool.partners <- Some allowed;
    allowed

let decode_constrained allowed position =
  List.mapi
    (fun i (d, options) ->
      let x = if i < Array.length position then position.(i) else 0. in
      let n = Array.length options in
      let idx = min (n - 1) (max 0 (int_of_float (x *. float_of_int n))) in
      (d, options.(idx)))
    allowed

let random_constrained rng allowed =
  List.map (fun (d, options) -> (d, options.(Rng.int rng (Array.length options)))) allowed

let run ?(params = default_params) ?pool ?domains ?budget ?checkpoint ?progress ?stop chip
    app =
  let started = Unix.gettimeofday () in
  let rng = Rng.create ~seed:params.seed in
  let evaluations = Atomic.make 0 in
  let go dpool =
  let resume_snap =
    match checkpoint with
    | Some ck when ck.resume ->
      Result.map Option.some (load_snapshot ~seed:params.seed ~outer:params.outer ck.path)
    | _ -> Ok None
  in
  match resume_snap with
  | Error f -> Error f
  | Ok resume_snap ->
  let pool =
    match resume_snap with
    | Some snap ->
      (* the run being resumed owns the rng stream; the root rng is
         restored from the snapshot below, so this split is irrelevant —
         it only keeps the code path uniform *)
      ignore (Rng.split rng);
      Ok snap.ck_pool
    | None ->
      (match pool with
       | Some pool ->
         (* consume the stream the builder would have used, so results with
            a pre-built pool match results without one *)
         ignore (Rng.split rng);
         Ok pool
       | None ->
         Pool.build ~size:params.pool_size ~node_limit:params.ilp_node_limit ~domains:dpool
           ?budget ~rng:(Rng.split rng) chip)
  in
  match pool with
  | Error f -> Error f
  | Ok pool ->
    let cache = cache_create () in
    let fitness_of entry scheme =
      Atomic.incr evaluations;
      Mf_util.Prof.add_count "codesign.fitness" 1;
      Mf_util.Prof.time "codesign.fitness" (fun () ->
          sharing_fitness cache params app entry scheme)
    in
    (* inner PSO: best sharing scheme for a fixed configuration, searching
       inside the per-valve feasible partner sets.  Self-contained once the
       rng is split off, so one whole inner run is the unit of parallelism. *)
    let best_sharing entry allowed inner_rng =
      let dim = List.length allowed in
      if dim = 0 then ([], fitness_of entry [])
      else begin
        let outcome =
          Pso.run ~params:params.inner ?budget ~rng:inner_rng ~dim
            ~batch_fitness:
              (Array.map (fun position -> fitness_of entry (decode_constrained allowed position)))
            ()
        in
        (decode_constrained allowed outcome.Pso.best_position, outcome.Pso.best_fitness)
      end
    in
    (* outer PSO over edge preferences, batch-synchronous: decoding, the
       lazily cached partner sets and every rng split stay on this domain in
       particle order; only the (pure) inner runs fan out, and the running
       best folds back in particle order — bit-identical for any job count. *)
    let outer_dim = max 1 (Array.length (Pool.free_edges pool)) in
    let outer_rng = Rng.split rng in
    let best_entry = ref None in
    let outer_batch positions =
      let n = Array.length positions in
      let prepared = Array.make n None in
      for i = 0 to n - 1 do
        let entry = Pool.decode pool positions.(i) in
        let allowed = allowed_partners cache dpool entry in
        prepared.(i) <- Some (entry, allowed, Rng.split rng)
      done;
      let evaluated =
        (* particles whose task starts after the deadline degrade to an
           empty scheme at infinite fitness: never the best, never invalid
           input downstream *)
        Domain_pool.map_bounded dpool ?budget
          ~fallback:(function
            | Some (entry, _, _) -> (entry, [], infinity)
            | None -> assert false)
          (function
            | Some (entry, allowed, inner_rng) ->
              let scheme, fit = best_sharing entry allowed inner_rng in
              (entry, scheme, fit)
            | None -> assert false)
          prepared
      in
      Array.iter
        (fun (entry, scheme, fit) ->
          match !best_entry with
          | Some (_, _, best) when best <= fit -> ()
          | Some _ | None -> best_entry := Some (entry, scheme, fit))
        evaluated;
      Array.map (fun (_, _, fit) -> fit) evaluated
    in
    (* restore the interrupted run's state: memo cache (the no-PSO baseline
       scans it), evaluation counter, running best, and the root rng stream
       as it stood after the snapshot iteration's splits *)
    (match resume_snap with
     | None -> ()
     | Some snap ->
       cache_restore cache snap.ck_cache;
       Atomic.set evaluations snap.ck_evals;
       (match snap.ck_best with
        | Some (idx, scheme, fit) when idx >= 0 && idx < Pool.size pool ->
          best_entry := Some ((Pool.entries pool).(idx), scheme, fit)
        | Some _ | None -> ());
       Rng.blit ~src:snap.ck_root_rng ~dst:rng);
    let snapshot_of pso_state =
      {
        ck_seed = params.seed;
        ck_particles = params.outer.Pso.particles;
        ck_iterations = params.outer.Pso.iterations;
        ck_pool = pool;
        ck_pso = pso_state;
        ck_root_rng = Rng.copy rng;
        ck_best =
          (match !best_entry with
           | None -> None
           | Some (entry, scheme, fit) ->
             let idx = ref (-1) in
             Array.iteri (fun i e -> if e == entry then idx := i) (Pool.entries pool);
             Some (!idx, scheme, fit));
        ck_cache = cache_dump cache;
        ck_evals = Atomic.get evaluations;
      }
    in
    let exception Stop_after_checkpoint of int in
    let hook =
      match (checkpoint, progress, stop) with
      | None, None, None -> None
      | _ ->
        Some
          (fun it state ->
            (match progress with Some f -> f it | None -> ());
            let stop_here =
              (match stop with Some f -> f () | None -> false)
              || (match checkpoint with Some ck -> ck.stop_after = Some it | None -> false)
            in
            (match checkpoint with
             | None -> ()
             | Some ck ->
               let due =
                 stop_here
                 || (ck.every > 0 && it mod ck.every = 0)
                 || it = params.outer.Pso.iterations
               in
               if due then Mf_util.Snapshot.save ~magic:snapshot_magic ck.path (snapshot_of state));
            if stop_here then raise (Stop_after_checkpoint it))
    in
    let outcome =
      match
        Mf_util.Prof.time "codesign.pso" (fun () ->
            Pso.run ~params:params.outer ?budget ?checkpoint:hook
              ?resume:(Option.map (fun s -> s.ck_pso) resume_snap) ~rng:outer_rng
              ~dim:outer_dim ~batch_fitness:outer_batch ())
      with
      | outcome -> Ok outcome
      | exception Stop_after_checkpoint it ->
        let msg =
          match checkpoint with
          | Some ck ->
            Printf.sprintf
              "stopped after outer iteration %d; checkpoint saved to %s (rerun with \
               --resume to continue)"
              it ck.path
          | None -> Printf.sprintf "stopped after outer iteration %d (no checkpoint)" it
        in
        Error
          (Mf_util.Fail.v Mf_util.Fail.Codesign
             ?incumbent:
               (match !best_entry with
                | Some (_, _, fit) when fit < invalid_threshold ->
                  Some (Printf.sprintf "makespan %d" (int_of_float fit))
                | _ -> None)
             msg)
    in
    match outcome with
    | Error f -> Error f
    | Ok outcome ->
    (match !best_entry with
     | None ->
       Error (Mf_util.Fail.v Mf_util.Fail.Codesign "two-level PSO produced no evaluation")
     | Some (entry, scheme, best_fit) ->
       let augmented = entry.Pool.augmented in
       let scheme, shared, suite, sharing_fallback =
         match testable_suite cache entry scheme with
         | Testable (shared, suite) -> (scheme, shared, suite, false)
         | Untestable _ ->
           (* degrade to the unshared DFT architecture: the empty scheme is
              testable by pool construction, so the shipped suite is always
              valid on the shipped chip *)
           (match testable_suite cache entry [] with
            | Testable (shared, suite) -> ([], shared, suite, true)
            | Untestable _ -> ([], augmented, entry.Pool.suite, true))
       in
       (* Table 1 baseline: the first valid random sharing, no PSO — random
          search over the same feasible partner sets the swarm uses.  The
          schemes are drawn in order here and evaluated [jobs] at a time;
          the first valid one in draw order wins, as in a serial search. *)
       let no_pso_rng = Rng.create ~seed:(params.seed + 1) in
       let allowed = allowed_partners cache dpool entry in
       let rec first_valid attempts =
         if attempts = 0 then None
         else begin
           let batch =
             Array.init (min attempts (Domain_pool.jobs dpool)) (fun _ ->
                 random_constrained no_pso_rng allowed)
           in
           let fits = Domain_pool.map dpool (sharing_fitness cache params app entry) batch in
           match Array.find_opt (fun fit -> fit < invalid_threshold) fits with
           | Some fit -> Some (int_of_float fit)
           | None -> first_valid (attempts - Array.length batch)
         end
       in
       (* when random search misses, fall back to the worst valid scheme the
          search ever evaluated: still a scheme found without optimisation
          pressure *)
       let worst_cached_valid () =
         cache_fold cache
           (fun fit acc ->
             if fit < invalid_threshold then
               match acc with Some w when w >= fit -> acc | Some _ | None -> Some fit
             else acc)
           None
         |> Option.map int_of_float
       in
       let exec_dft_no_pso =
         (* past the deadline, don't burn 100 more schedule evaluations on a
            baseline: settle for what the cache already holds *)
         if Mf_util.Budget.over budget then worst_cached_valid ()
         else
           match Mf_util.Prof.time "codesign.baseline" (fun () -> first_valid 100) with
           | Some t -> Some t
           | None -> worst_cached_valid ()
       in
       (* Fig. 7 baseline: DFT resources with independent control lines *)
       let exec_dft_unshared =
         Scheduler.makespan ~options:params.scheduler ~prep:(prep_of cache entry) augmented app
       in
       let exec_original = Scheduler.makespan ~options:params.scheduler chip app in
       let exec_final =
         if best_fit < invalid_threshold then Some (int_of_float best_fit) else None
       in
       let degradations =
         List.filter_map Fun.id
           [
             (match Pool.rejects pool with
              | [] -> None
              | rs -> Some (Pool_rejects (List.length rs)));
             (if entry.Pool.config.Pathgen.degraded then Some Heuristic_config else None);
             (if sharing_fallback then Some Sharing_fallback else None);
             (if Mf_util.Budget.over budget then Some Budget_exhausted else None);
           ]
       in
       Ok
         {
           original = chip;
           augmented;
           shared;
           config = entry.Pool.config;
           sharing = scheme;
           suite;
           exec_original;
           exec_dft_unshared;
           exec_dft_no_pso;
           exec_final;
           n_dft_valves = List.length entry.Pool.config.Pathgen.added_edges;
           n_shared = Sharing.n_shared scheme;
           n_vectors_dft = Vectors.count suite;
           trace = outcome.Pso.trace;
           evaluations = Atomic.get evaluations;
           runtime = Unix.gettimeofday () -. started;
           degradations;
         })
  in
  match domains with
  | Some dpool -> go dpool
  | None -> Domain_pool.with_pool ~jobs:(max 1 params.jobs) go

(* The claims a finished run makes about itself, in the form the
   independent checker re-proves.  Coverage is re-measured here rather than
   carried through [run] so the claim reflects the *returned* chip/suite
   pair even after degradations. *)
let certificate (r : result) =
  let report = Vectors.validate r.shared r.suite in
  Mf_verify.Cert.make
    ~chip_name:(Chip.name r.shared)
    ~suite:
      {
        Mf_verify.Cert.source_port = r.suite.Vectors.source_port;
        meter_port = r.suite.Vectors.meter_port;
        path_edges = r.suite.Vectors.path_edges;
        cut_valves = r.suite.Vectors.cut_valves;
      }
    ~claimed_vectors:(Vectors.count r.suite)
    ~claimed_coverage:
      (report.Mf_faults.Coverage.detected, report.Mf_faults.Coverage.total_faults)
    ()

let verify r = Mf_verify.Verify.certificate r.shared (certificate r)
