(* serve_replay: the real [dft_tool serve] daemon on a Unix socket, replaying
   a seeded request trace over two connections from one client thread.

   Set-up starts the daemon with its default settings (one worker domain,
   256-entry memory tier) on an empty state directory and warms its cache
   with a fixed hot set: ivd_chip x ivd (submitted by name) and five
   generated fpva size-3 chips (submitted as inline text).

   A round: the same 1000 requests in a seed-drawn order — each hot entry
   160 times (ivd_chip half by name, half as text), 30 [status] and 10
   [stats] queries — sent one at a time and alternating between the two
   connections; then a cold phase: two fixed fpva chips, each under a chip
   name no earlier request used, each written on both connections before
   either reply is read, so single-flight joins the pair into one solve.
   Renaming gives each cold submission a new fingerprint while the solve
   itself is the same in every round and run.  The proportions are synthetic: no
   recorded traffic exists to draw them from. *)

open Measure
module Json = Mf_serve.Json
module Fingerprint = Mf_serve.Fingerprint

let hot_fpva = 5
(* a round: each hot entry [per_entry] times, ivd_chip half by name and half
   as text, and [n_status] status and [n_stats] stats queries *)
let per_entry = 160
let n_status = 30
let n_stats = 10
let per_round = ((1 + hot_fpva) * per_entry) + n_status + n_stats
let cold_chips = 2
let run_dir = ".perfbench-run"

type source = { name : string option; text : string }

type entry = { chip : source; assay : source; fp : string }

let fpva_input rng =
  let f = Mf_chips.Families.fpva in
  let chip = f.Mf_chips.Families.generate_size ~size:3 rng in
  let spec = Mf_bioassay.Synth_assay.spec_of_size (f.Mf_chips.Families.assay_ops ~size:3) in
  let assay = Mf_bioassay.Synth_assay.generate ~spec rng in
  (chip, assay)

(* every submission runs with the default options (PSO seed 42) *)
let entry_of ?chip_name ?assay_name chip assay =
  {
    chip = { name = chip_name; text = Mf_arch.Chip_io.to_string chip };
    assay = { name = assay_name; text = Mf_bioassay.Assay_io.to_string assay };
    fp = Fingerprint.digest ~chip ~assay ~options:Fingerprint.default_options;
  }

let hot_set () =
  let ivd =
    entry_of ~chip_name:"ivd_chip" ~assay_name:"ivd" (Mf_chips.Benchmarks.ivd_chip ())
      (Mf_bioassay.Assays.ivd ())
  in
  ivd
  :: List.init hot_fpva (fun i ->
         let chip, assay = fpva_input (Mf_util.Rng.create ~seed:(1000 + i)) in
         entry_of chip assay)

let cold_inputs () =
  List.init cold_chips (fun i -> fpva_input (Mf_util.Rng.create ~seed:(2000 + i)))

(* [chip] under another name: a new fingerprint for the same solve. *)
let renamed chip name =
  let text = Mf_arch.Chip_io.to_string chip in
  let eol = String.index text '\n' in
  match String.split_on_char ' ' (String.sub text 0 eol) with
  | [ "chip"; _; w; h ] -> (
    let header = String.concat " " [ "chip"; name; w; h ] in
    match Mf_arch.Chip_io.parse (header ^ String.sub text eol (String.length text - eol)) with
    | Ok c -> c
    | Error e -> failwith ("renamed cold chip: " ^ e))
  | _ -> failwith "renamed cold chip: unexpected header"

type req =
  | Submit of entry * bool  (** [true]: spelled by name *)
  | Status of string
  | Stats

let submit_line e ~by_name =
  let src s =
    match s.name with
    | Some n when by_name -> Json.obj [ ("name", Json.Str n) ]
    | _ -> Json.obj [ ("text", Json.Str s.text) ]
  in
  Json.to_line
    (Json.obj [ ("cmd", Json.Str "submit"); ("chip", src e.chip); ("assay", src e.assay) ])

let request_line = function
  | Submit (e, by_name) -> submit_line e ~by_name
  | Status fp ->
    Json.to_line (Json.obj [ ("cmd", Json.Str "status"); ("fingerprint", Json.Str fp) ])
  | Stats -> {|{"cmd": "stats"}|}

(* ---- the daemon process ---------------------------------------------- *)

let daemon_pid = ref None

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Unix.unlink path

let dft_tool () =
  let build = Filename.dirname (Filename.dirname Sys.executable_name) in
  Filename.concat (Filename.concat build "bin") "dft_tool.exe"

let start_daemon ~state ~socket =
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let log =
    Unix.openfile (Filename.concat state "daemon.log") [ Unix.O_WRONLY; Unix.O_CREAT ] 0o644
  in
  let exe = dft_tool () in
  let pid =
    Unix.create_process exe
      [| exe; "serve"; "--socket"; socket; "--state"; state |]
      devnull devnull log
  in
  Unix.close devnull;
  Unix.close log;
  daemon_pid := Some pid;
  pid

(* [dft_tool serve] ignores SIGTERM (see README), so the normal stop is the
   [shutdown] command; this is the last resort. *)
let kill_daemon () =
  match !daemon_pid with
  | None -> ()
  | Some pid ->
    daemon_pid := None;
    (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
    ignore (Unix.waitpid [] pid)

let wait_exit pid ~timeout =
  let deadline = now () +. timeout in
  let rec go () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when now () < deadline ->
      Unix.sleepf 0.02;
      go ()
    | 0, _ -> false
    | _ ->
      daemon_pid := None;
      true
  in
  go ()

type conn = { fd : Unix.file_descr; ic : in_channel; oc : out_channel }

let connect socket =
  let deadline = now () +. 60. in
  let rec go () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX socket) with
    | () -> { fd; ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd }
    | exception (Unix.Unix_error _ as e) ->
      Unix.close fd;
      if now () > deadline then raise e;
      Unix.sleepf 0.01;
      go ()
  in
  go ()

let close_conn c = try Unix.close c.fd with Unix.Unix_error _ -> ()

(* ---- one request ------------------------------------------------------ *)

type reply =
  | Submitted of { fp : string; cached : bool; payload : string }
  | State of string
  | Counters of Json.t
  | Refused of string

let parse line =
  match Json.parse line with
  | Ok j -> j
  | Error e -> failwith (Printf.sprintf "unparsable reply %S: %s" line e)

let ok j = Json.member "ok" j = Some (Json.Bool true)
let error_of j = Option.value ~default:"(no message)" (Json.str_field "error" j)

(* The next line that is not a progress event (the engine may stream a
   [queued] event before the acknowledgement). *)
let rec next_reply c =
  let line = input_line c.ic in
  let j = parse line in
  if Json.member "event" j <> None then next_reply c else (line, j)

let send c req =
  output_string c.oc (request_line req);
  output_char c.oc '\n';
  flush c.oc

let receive c req =
  let _, first = next_reply c in
  if not (ok first) then Refused (error_of first)
  else
    match req with
    | Status _ -> State (Option.value ~default:"" (Json.str_field "state" first))
    | Stats -> Counters first
    | Submit _ ->
      let fp = Option.value ~default:"" (Json.str_field "fingerprint" first) in
      let cached = Json.member "cached" first = Some (Json.Bool true) in
      (* events stream until the payload line *)
      let payload =
        let line, j = next_reply c in
        if ok j && Json.str_field "type" j = Some "result" then Ok line else Error (error_of j)
      in
      (match payload with
       | Ok payload -> Submitted { fp; cached; payload }
       | Error e -> Refused e)

let exchange c req =
  send c req;
  receive c req

type op = { req : req; latency : float; reply : reply }

let timed_exchange c req =
  let t0 = now () in
  let reply = exchange c req in
  { req; latency = now () -. t0; reply }

(* ---- trace ------------------------------------------------------------ *)

(* A round's requests: the same multiset in every round, so the mix of
   request kinds does not move with the seed (a percentile of the round
   would move with it), in a seed-drawn order. *)
let round_trace rng hot =
  let submits =
    List.concat_map
      (fun e -> List.init per_entry (fun i -> Submit (e, e.chip.name <> None && i land 1 = 0)))
      hot
  in
  let statuses = List.init n_status (fun i -> Status (List.nth hot (i mod List.length hot)).fp) in
  let reqs = Array.of_list (submits @ statuses @ List.init n_stats (fun _ -> Stats)) in
  Mf_util.Rng.shuffle rng reqs;
  Array.to_list reqs

(* The same submission written on both connections before either reply is
   read: the second joins the first's solve.  Returns both operations and
   the span of the pair. *)
let concurrent_pair c0 c1 req =
  let t0 = now () in
  send c0 req;
  send c1 req;
  let r0 = receive c0 req in
  let t1 = now () in
  let r1 = receive c1 req in
  let t2 = now () in
  ([ { req; latency = t1 -. t0; reply = r0 }; { req; latency = t2 -. t0; reply = r1 } ], t2 -. t0)

(* One round: the trace one request at a time, alternating connections,
   then the cold pairs.  Returns the operations and the time they spanned. *)
let run_round c0 c1 reqs colds =
  let hits = List.mapi (fun i req -> timed_exchange (if i land 1 = 0 then c0 else c1) req) reqs in
  let pairs = List.map (fun e -> concurrent_pair c0 c1 (Submit (e, false))) colds in
  ( hits @ List.concat_map fst pairs,
    sum (List.map (fun op -> op.latency) hits) +. sum (List.map snd pairs) )

let counter j name = Option.value ~default:0 (Json.int_field name j)

let stats c =
  match exchange c Stats with
  | Counters j -> j
  | _ -> failwith "stats query refused"

(* In-process re-timing of the daemon's hit path, on the same requests:
   protocol parsing, fingerprinting (resolve + digest), and the engine's
   cache lookup against the daemon's own cache directory with the same
   (default) memory-tier size.  The three are disjoint parts of a hit.
   Each is the mean over the whole batch, since one call can be shorter
   than the clock's resolution. *)
let retime_hit_path ~state lines =
  let module P = Mf_serve.Protocol in
  let mean_us f xs =
    let t0 = now () in
    List.iter (fun x -> ignore (Sys.opaque_identity (f x))) xs;
    (now () -. t0) *. 1e6 /. float_of_int (List.length xs)
  in
  let specs =
    List.map
      (fun l -> match P.parse_request l with Ok (P.Submit s) -> s | _ -> failwith "bad line")
      lines
  in
  let digest s =
    match (P.resolve_chip s.P.chip, P.resolve_assay s.P.assay) with
    | Ok chip, Ok assay -> Fingerprint.digest ~chip ~assay ~options:s.P.options
    | _ -> failwith "unresolvable spec"
  in
  let cache = Mf_serve.Cache.create ~dir:(Filename.concat state "cache") () in
  let find fp =
    match Mf_serve.Cache.find cache fp with
    | Some _ -> ()
    | None -> failwith "re-timed request was not a cache hit"
  in
  let parse_us = mean_us P.parse_request lines in
  let digest_us = mean_us digest specs in
  let lookup_us = mean_us find (List.map digest specs) in
  (parse_us, digest_us, lookup_us)

let run ~seed ~seconds ~trace =
  let hot = hot_set () in
  let state = Filename.concat run_dir (Printf.sprintf "serve-%d" (Unix.getpid ())) in
  (try Unix.mkdir run_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  rm_rf state;
  Unix.mkdir state 0o755;
  let socket = Filename.concat state "d.sock" in
  Fun.protect ~finally:(fun () -> kill_daemon (); rm_rf state) @@ fun () ->
  (* set-up: daemon start and cache warm-up *)
  let t0 = now () in
  let pid = start_daemon ~state ~socket in
  let c0 = connect socket and c1 = connect socket in
  let cold_payload = Hashtbl.create 64 in
  let distinct = Hashtbl.create 64 in
  List.iter
    (fun e ->
      Hashtbl.replace distinct e.fp ();
      match exchange c0 (Submit (e, e.chip.name <> None)) with
      | Submitted { fp; payload; _ } ->
        check (fp = e.fp) "warm-up fingerprint differs from the in-process digest";
        Hashtbl.replace cold_payload fp payload
      | Refused why -> failwith ("warm-up submission refused: " ^ why)
      | _ -> failwith "warm-up submission: reply of the wrong kind")
    hot;
  let setup_s = now () -. t0 in
  let before = stats c0 in
  let rng = Mf_util.Rng.create ~seed in
  let cold = cold_inputs () in
  let rounds =
    rounds ~seconds (fun () ->
        let t0 = now () and c0_cpu = cpu () +. proc_cpu pid in
        let reqs = round_trace rng hot in
        let colds =
          List.mapi
            (fun i (chip, assay) ->
              let name = Printf.sprintf "cold%d_%d" i (Mf_util.Rng.int rng 1_000_000_000) in
              entry_of (renamed chip name) assay)
            cold
        in
        List.iter (fun e -> Hashtbl.replace distinct e.fp ()) colds;
        let ops, busy = run_round c0 c1 reqs colds in
        ((ops, busy), now () -. t0, cpu () +. proc_cpu pid -. c0_cpu))
  in
  let after = stats c0 in
  let peak = peak_rss_mb ~pid:(string_of_int pid) () in
  output_string c0.oc "{\"cmd\": \"shutdown\"}\n";
  flush c0.oc;
  ignore (input_line c0.ic);
  close_conn c0;
  close_conn c1;
  check (wait_exit pid ~timeout:30.) "daemon did not stop after the shutdown command";
  let n_rounds = float_of_int (List.length rounds) in
  let all_ops = List.concat_map (fun ((ops, _), _, _) -> ops) rounds in
  (* checks: every request answered, hits byte-identical to the cold
     payload, both spellings on one fingerprint, one solve per distinct
     submission *)
  let failed = ref 0 in
  List.iter
    (fun op ->
      match (op.req, op.reply) with
      | _, Refused why ->
        incr failed;
        prerr_endline ("perfbench: failed: " ^ why)
      | Submit (e, _), Submitted { fp; cached; payload } ->
        if fp <> e.fp then
          check false "submission answered under fingerprint %s, expected %s" fp e.fp
        else (
          match Hashtbl.find_opt cold_payload fp with
          | Some p -> check (p = payload) "payload for %s differs from its cold payload" fp
          | None ->
            check (not cached) "cache hit %s without a cold solve" fp;
            Hashtbl.replace cold_payload fp payload)
      | Status _, State s -> check (s = "cached") "status of a hot entry is %S" s
      | Stats, Counters _ -> ()
      | _ -> check false "reply of the wrong kind")
    all_ops;
  check (counter after "solves" = Hashtbl.length distinct)
    "daemon solved %d jobs for %d distinct submissions" (counter after "solves")
    (Hashtbl.length distinct);
  check (counter after "failures" = 0) "daemon reports failed jobs";
  let latencies = List.map (fun op -> op.latency *. 1e3) all_ops in
  let ops_per_round = per_round + (2 * cold_chips) in
  (* p90, not the p99 that [tail_percentile] gives for a round of 1004
     requests: the p99 of a round, with 10 requests beyond it, follows the
     host's speed several times as strongly as the median does (over five
     runs on a shared 2-vCPU host it spread 0.82 of its median where the
     p90, with 100 requests beyond it, spread 0.08).  Both are printed. *)
  let tail = 90. in
  let round_tail p =
    median
      (List.map
         (fun ((ops, _), _, _) -> percentile p (List.map (fun op -> op.latency *. 1e3) ops))
         rounds)
  in
  Printf.eprintf "perfbench: %d requests a round, op_tail_ms is p%g (p%g %.4f ms)\n%!"
    ops_per_round tail (tail_percentile ~ops_per_round)
    (round_tail (tail_percentile ~ops_per_round));
  let kind op =
    match (op.req, op.reply) with
    | Submit _, Submitted { cached = false; _ } -> "cold submission"
    | Submit (_, true), _ -> "ivd_chip hit by name"
    | Submit (e, false), _ when e.chip.name <> None -> "ivd_chip hit as text"
    | Submit _, _ -> "fpva hit as text"
    | Status _, _ -> "status"
    | Stats, _ -> "stats"
  in
  List.iter
    (fun k ->
      let ls =
        List.filter_map (fun op -> if kind op = k then Some (op.latency *. 1e3) else None) all_ops
      in
      if ls <> [] then
        Printf.eprintf "perfbench: %-20s %6.1f a round, p50 %.4f ms, p90 %.4f ms\n%!" k
          (float_of_int (List.length ls) /. n_rounds) (median ls) (percentile 90. ls))
    [ "ivd_chip hit by name"; "ivd_chip hit as text"; "fpva hit as text"; "status"; "stats";
      "cold submission" ];
  let of_kind pred =
    List.filter_map
      (fun op ->
        match op.reply with
        | Submitted { cached; _ } when pred cached -> Some (op.latency *. 1e3)
        | _ -> None)
      all_ops
  in
  let delta name = float_of_int (counter after name - counter before name) /. n_rounds in
  let quality field =
    List.fold_left
      (fun acc e ->
        let j = parse (Hashtbl.find cold_payload e.fp) in
        acc +. Option.value ~default:0. (Option.bind (Json.member field j) Json.num))
      0. hot
  in
  let hit_lines =
    match rounds with
    | ((ops, _), _, _) :: _ ->
      List.filter_map
        (fun op -> match op.req with Submit _ -> Some (request_line op.req) | _ -> None)
        ops
    | [] -> []
  in
  let parse_us, digest_us, engine_us =
    if trace then retime_hit_path ~state hit_lines else (0., 0., 0.)
  in
  {
    attempted = List.length all_ops;
    failed = !failed;
    end_to_end =
      [
        m "setup_s" setup_s;
        m "wall_s" (median (List.map (fun (_, w, _) -> w) rounds));
        m "cpu_s" (median (List.map (fun (_, _, c) -> c) rounds));
        m "op_p50_ms" (median latencies);
        (* per round, then the median round: a few stalled rounds do not
           move it *)
        m "op_tail_ms" (round_tail tail);
        m "peak_rss_mb" peak;
        (* the designs the hot set serves *)
        m "exec_final_s" (quality "exec_final");
        m "dft_valves" (quality "n_dft_valves");
        m "test_vectors" (quality "n_vectors_dft");
      ];
    per_layer =
      [
        m "serve.hit_ms" (median (of_kind Fun.id));
        m "serve.cold_ms" (median (of_kind not));
        m "serve.solves" (delta "solves");
        m "serve.joins" (delta "joins");
        m "cache.mem_hits" (delta "cache_mem_hits");
        m "cache.disk_hits" (delta "cache_disk_hits");
        m "cache.misses" (delta "cache_misses");
        m "cache.stores" (delta "cache_stores");
        m "fingerprint.digest_us" digest_us;
        m "protocol.parse_us" parse_us;
        m "engine.hit_us" engine_us;
        m "trace.wall_s" (sum (List.map (fun (_, w, _) -> w) rounds) /. n_rounds);
        m "trace.accounted_s" (sum (List.map (fun ((_, busy), _, _) -> busy) rounds) /. n_rounds);
      ];
  }
