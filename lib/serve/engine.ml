module Json = Mf_util.Json
module Snapshot = Mf_util.Snapshot
module Codesign = Mfdft.Codesign
module Domain_pool = Mf_util.Domain_pool

type stats = {
  solves : int;
  joins : int;
  recovered : int;
  failures : int;
  queued : int;
  cache : Cache.stats;
}

type outcome = Payload of string | Failed of string | Checkpointed

type disposition = Cached of string | Enqueued of int | Joined of int

type job = {
  jid : int;
  fp : string;
  spec : Protocol.submit;
  chip : Mf_arch.Chip.t;
  assay : Mf_bioassay.Seqgraph.t;
  seq : int;  (** submission order, the priority tiebreak *)
  mutable resume : bool;  (** a checkpoint exists; load it before solving *)
  mutable subs : ((string -> unit) * (outcome -> unit)) list;
}

type t = {
  jobs_dir : string;
  cache : Cache.t;
  pool : Domain_pool.t;
  checkpoint_every : int;
  tune : Codesign.params -> Codesign.params;
  lock : Mutex.t;
  work : Condition.t;
  mutable queue : job list;  (** unordered; popped by (priority desc, seq asc) *)
  mutable running : job option;
  inflight : (string, job) Hashtbl.t;  (** single-flight index, deadline-free jobs only *)
  stop : bool Atomic.t;
  mutable next_jid : int;
  mutable next_seq : int;
  mutable solves : int;
  mutable joins : int;
  mutable recovered : int;
  mutable failures : int;
}

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let spec_path t fp = Filename.concat t.jobs_dir (fp ^ ".job")
let ckpt_path t fp = Filename.concat t.jobs_dir (fp ^ ".ckpt")

let spec_magic = "mfdft-serve-job-v1"

let remove_quiet path = try Sys.remove path with Sys_error _ -> ()

let fingerprint_of spec =
  match
    (Protocol.resolve_chip spec.Protocol.chip, Protocol.resolve_assay spec.Protocol.assay)
  with
  | Ok chip, Ok assay ->
    Ok (chip, assay, Fingerprint.digest ~chip ~assay ~options:spec.Protocol.options)
  | Error e, _ -> Error (Printf.sprintf "chip: %s" e)
  | _, Error e -> Error (Printf.sprintf "assay: %s" e)

let enqueue_unlocked t ?(recovering = false) ~chip ~assay ~fp spec subs =
  let job =
    {
      jid = t.next_jid;
      fp;
      spec;
      chip;
      assay;
      seq = t.next_seq;
      resume = recovering && Sys.file_exists (ckpt_path t fp);
      subs;
    }
  in
  t.next_jid <- t.next_jid + 1;
  t.next_seq <- t.next_seq + 1;
  if spec.Protocol.deadline = None then begin
    Hashtbl.replace t.inflight fp job;
    if not recovering then
      Snapshot.write ~magic:spec_magic (spec_path t fp)
        (Json.to_line (Protocol.submit_to_json spec))
  end;
  t.queue <- job :: t.queue;
  Condition.broadcast t.work;
  job

let recover t =
  let files = try Sys.readdir t.jobs_dir with Sys_error _ -> [||] in
  Array.sort compare files;
  Array.iter
    (fun f ->
      if Filename.check_suffix f ".job" then begin
        let path = Filename.concat t.jobs_dir f in
        let drop () =
          remove_quiet path;
          remove_quiet (Filename.chop_suffix path ".job" ^ ".ckpt")
        in
        match Snapshot.read ~magic:spec_magic path with
        | Error _ -> drop ()
        | Ok text -> (
          match Result.bind (Json.parse text) Protocol.submit_of_json with
          | Error _ -> drop ()
          | Ok spec -> (
            match fingerprint_of spec with
            | Error _ -> drop ()
            | Ok (chip, assay, fp) ->
              if fp ^ ".job" <> f then drop () (* stale or renamed: address mismatch *)
              else if Cache.find t.cache fp <> None then drop () (* already solved *)
              else begin
                ignore (enqueue_unlocked t ~recovering:true ~chip ~assay ~fp spec []);
                t.recovered <- t.recovered + 1
              end))
      end)
    files

let create ?(jobs = 1) ?(mem_capacity = 256) ?(disk_capacity = 4096)
    ?(checkpoint_every = 1) ?(tune = Fun.id) ~state_dir () =
  if not (Sys.file_exists state_dir) then Sys.mkdir state_dir 0o755;
  let jobs_dir = Filename.concat state_dir "jobs" in
  if not (Sys.file_exists jobs_dir) then Sys.mkdir jobs_dir 0o755;
  Snapshot.clear_tmp jobs_dir;
  let t =
    {
      jobs_dir;
      cache =
        Cache.create ~mem_capacity ~disk_capacity ~dir:(Filename.concat state_dir "cache")
          ();
      pool = Domain_pool.create ~jobs:(max 1 jobs);
      checkpoint_every = max 1 checkpoint_every;
      tune;
      lock = Mutex.create ();
      work = Condition.create ();
      queue = [];
      running = None;
      inflight = Hashtbl.create 16;
      stop = Atomic.make false;
      next_jid = 1;
      next_seq = 0;
      solves = 0;
      joins = 0;
      recovered = 0;
      failures = 0;
    }
  in
  recover t;
  t

let event_line fields = Json.to_line (Json.obj fields)

let notify_event subs line = List.iter (fun (on_event, _) -> on_event line) subs

let submit t spec ~on_event ~on_done =
  match fingerprint_of spec with
  | Error e -> Error e
  | Ok (chip, assay, fp) ->
    let action =
      locked t @@ fun () ->
      if Atomic.get t.stop then `Refuse "daemon is shutting down"
      else if spec.Protocol.deadline <> None then
        (* budgeted: always a private solve, invisible to cache and dedup *)
        `Queued (enqueue_unlocked t ~chip ~assay ~fp spec [ (on_event, on_done) ])
      else
        match Cache.find t.cache fp with
        | Some payload -> `Hit payload
        | None -> (
          match Hashtbl.find_opt t.inflight fp with
          | Some job ->
            job.subs <- (on_event, on_done) :: job.subs;
            t.joins <- t.joins + 1;
            `Joined job
          | None -> `Queued (enqueue_unlocked t ~chip ~assay ~fp spec [ (on_event, on_done) ]))
    in
    (match action with
     | `Refuse msg -> Error msg
     | `Hit payload -> Ok (fp, Cached payload)
     | `Joined job -> Ok (fp, Joined job.jid)
     | `Queued job ->
       on_event
         (event_line
            [
              ("event", Json.Str "queued");
              ("job", Json.Num (float_of_int job.jid));
              ("fingerprint", Json.Str fp);
            ]);
       Ok (fp, Enqueued job.jid))

let pop_best_unlocked t =
  match t.queue with
  | [] -> None
  | q ->
    let better a b =
      a.spec.Protocol.priority > b.spec.Protocol.priority
      || (a.spec.Protocol.priority = b.spec.Protocol.priority && a.seq < b.seq)
    in
    let best = List.fold_left (fun acc j -> if better j acc then j else acc) (List.hd q) q in
    t.queue <- List.filter (fun j -> j != best) q;
    Some best

let cacheable spec (r : Codesign.result) =
  spec.Protocol.deadline = None
  && (not (List.mem Codesign.Budget_exhausted r.Codesign.degradations))
  && not (Mf_util.Chaos.active ())

let params_for t spec =
  let base = if spec.Protocol.options.Fingerprint.full then Codesign.default_params
             else Codesign.quick_params in
  t.tune { base with Codesign.seed = spec.Protocol.options.Fingerprint.seed }

let run_next ?stop_after t =
  let job = locked t (fun () ->
      match pop_best_unlocked t with
      | None -> None
      | Some job ->
        t.running <- Some job;
        Some job)
  in
  match job with
  | None -> `Idle
  | Some job ->
    let subs () = locked t (fun () -> job.subs) in
    notify_event (subs ())
      (event_line
         [
           ("event", Json.Str "started");
           ("job", Json.Num (float_of_int job.jid));
           ("fingerprint", Json.Str job.fp);
         ]);
    let params = params_for t job.spec in
    let total = params.Codesign.outer.Mf_pso.Pso.iterations in
    let progress it =
      notify_event (subs ())
        (event_line
           [
             ("event", Json.Str "iteration");
             ("job", Json.Num (float_of_int job.jid));
             ("iteration", Json.Num (float_of_int it));
             ("of", Json.Num (float_of_int total));
           ])
    in
    let budget = Option.map Mf_util.Budget.of_seconds job.spec.Protocol.deadline in
    (if job.resume then
       match Codesign.check_checkpoint ~params (ckpt_path t job.fp) with
       | Ok () -> ()
       | Error f ->
         (* results are deterministic, so solving from the persisted spec
            gives the payload the checkpoint would have led to *)
         Printf.eprintf "serve: job %d: discarding its checkpoint, solving from the spec: %s\n%!"
           job.jid (Mf_util.Fail.to_string f);
         remove_quiet (ckpt_path t job.fp);
         job.resume <- false);
    let checkpoint =
      (* budgeted jobs are not persisted, so a snapshot would be orphaned *)
      if job.spec.Protocol.deadline = None then
        Some
          {
            Codesign.path = ckpt_path t job.fp;
            every = t.checkpoint_every;
            resume = job.resume;
            stop_after;
          }
      else None
    in
    let stop () = Atomic.get t.stop in
    let drop_job_files () =
      remove_quiet (spec_path t job.fp);
      remove_quiet (ckpt_path t job.fp)
    in
    let outcome =
      match
        Codesign.run ~params ~domains:t.pool ?budget ?checkpoint ~progress ~stop job.chip
          job.assay
      with
      | Ok r ->
        let payload = Protocol.payload_line ~fingerprint:job.fp r in
        if cacheable job.spec r then begin
          Cache.store t.cache ~fingerprint:job.fp payload;
          Cache.flush t.cache
        end;
        drop_job_files ();
        Payload payload
      | Error f ->
        (* the stop hook's typed failure, not a genuine solver failure *)
        let reason = f.Mf_util.Fail.reason in
        let is_stop_failure =
          (Atomic.get t.stop || stop_after <> None)
          && String.length reason >= 7
          && String.sub reason 0 7 = "stopped"
        in
        if is_stop_failure then begin
          (* graceful stop: the snapshot just written + the persisted spec
             are the restart contract; resume from there next time *)
          job.resume <- Sys.file_exists (ckpt_path t job.fp);
          Checkpointed
        end
        else begin
          drop_job_files ();
          Failed (Mf_util.Fail.to_string f)
        end
    in
    let finished_subs =
      locked t @@ fun () ->
      t.running <- None;
      let unregister () =
        (* only this job's own registration: a budgeted twin must not evict
           a deadline-free job's single-flight entry *)
        match Hashtbl.find_opt t.inflight job.fp with
        | Some j when j == job -> Hashtbl.remove t.inflight job.fp
        | _ -> ()
      in
      (match outcome with
       | Payload _ ->
         t.solves <- t.solves + 1;
         unregister ()
       | Failed _ ->
         t.failures <- t.failures + 1;
         unregister ()
       | Checkpointed ->
         (* on graceful shutdown the persisted spec carries the job to the
            next process; on a plain stop_after it goes back on the queue.
            Subscribers are dropped either way — they were told. *)
         if Atomic.get t.stop then unregister ()
         else t.queue <- job :: t.queue);
      let s = job.subs in
      job.subs <- [];
      s
    in
    let status =
      match outcome with
      | Payload _ -> "ok"
      | Failed _ -> "failed"
      | Checkpointed -> "checkpointed"
    in
    notify_event finished_subs
      (event_line
         [
           ("event", Json.Str "done");
           ("job", Json.Num (float_of_int job.jid));
           ("fingerprint", Json.Str job.fp);
           ("status", Json.Str status);
         ]);
    List.iter (fun (_, on_done) -> on_done outcome) finished_subs;
    `Ran

let wait_for_work t =
  locked t @@ fun () ->
  while t.queue = [] && not (Atomic.get t.stop) do
    Condition.wait t.work t.lock
  done

let status t fp =
  locked t @@ fun () ->
  match t.running with
  | Some job when job.fp = fp -> "running"
  | _ ->
    if Hashtbl.mem t.inflight fp then "queued"
    else if Cache.find t.cache fp <> None then "cached"
    else "unknown"

let find_cached t fp = Cache.find t.cache fp

let request_stop t =
  Atomic.set t.stop true;
  (* the lock may be held by the solver; broadcast is still safe because
     the watcher thread (not the signal handler itself) calls this *)
  locked t (fun () -> Condition.broadcast t.work)

let stopping t = Atomic.get t.stop
let pending t = locked t (fun () -> List.length t.queue)

let stats t =
  let cache = Cache.stats t.cache in
  locked t @@ fun () ->
  {
    solves = t.solves;
    joins = t.joins;
    recovered = t.recovered;
    failures = t.failures;
    queued = List.length t.queue;
    cache;
  }

let flush t = Cache.flush t.cache

let shutdown t =
  flush t;
  Domain_pool.shutdown t.pool
