module Json = Mf_util.Json

type endpoint = Unix_socket of string | Tcp of int

type config = {
  endpoint : endpoint;
  state_dir : string;
  jobs : int;
  mem_capacity : int;
  disk_capacity : int;
  checkpoint_every : int;
}

let num i = Json.Num (float_of_int i)

let log fmt = Printf.eprintf ("serve: " ^^ fmt ^^ "\n%!")

let stats_line engine =
  let s = Engine.stats engine in
  Json.to_line
    (Json.obj
       [
         ("ok", Json.Bool true);
         ("solves", num s.Engine.solves);
         ("joins", num s.Engine.joins);
         ("recovered", num s.Engine.recovered);
         ("failures", num s.Engine.failures);
         ("queued", num s.Engine.queued);
         ("cache_mem_hits", num s.Engine.cache.Cache.mem_hits);
         ("cache_disk_hits", num s.Engine.cache.Cache.disk_hits);
         ("cache_misses", num s.Engine.cache.Cache.misses);
         ("cache_stores", num s.Engine.cache.Cache.stores);
         ("cache_evictions", num s.Engine.cache.Cache.evictions);
         ("cache_corrupt", num s.Engine.cache.Cache.corrupt);
       ])

let ack_line fp ~cached ~job ~joined =
  Json.to_line
    (Json.obj
       ([
          ("ok", Json.Bool true);
          ("fingerprint", Json.Str fp);
          ("cached", Json.Bool cached);
          ("job", match job with Some id -> num id | None -> Json.Null);
        ]
       @ if joined then [ ("joined", Json.Bool true) ] else []))

(* The longest request line the daemon reads.  The largest inline
   submission the family generators produce — storage size 18, the top of
   its [bench -- scale] sweep, with chip and assay both sent as text — is a
   4.7 KB line; 1 MiB leaves two hundred times that for hand-written chips
   while bounding what one client can make the daemon hold. *)
let max_line_bytes = 1 lsl 20

(* Request lines off [fd], read in 64 KiB chunks.  [`Line l] comes without
   its newline (a final unterminated line is returned too, as [input_line]
   does); [`Too_long] once a line passes [max_line_bytes], leaving the rest
   unread; [`Eof] at end of stream or on a read error. *)
let line_reader fd =
  let chunk = Bytes.create 65536 in
  let pos = ref 0 and len = ref 0 in
  let line = Buffer.create 256 in
  let take () =
    let l = Buffer.contents line in
    Buffer.clear line;
    `Line l
  in
  let rec next () =
    if !pos = !len then
      match Unix.read fd chunk 0 (Bytes.length chunk) with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> next ()
      | exception Unix.Unix_error _ -> `Eof
      | 0 -> if Buffer.length line > 0 then take () else `Eof
      | n ->
        pos := 0;
        len := n;
        next ()
    else begin
      let stop = ref !pos in
      while !stop < !len && Bytes.get chunk !stop <> '\n' do
        incr stop
      done;
      if Buffer.length line + (!stop - !pos) > max_line_bytes then `Too_long
      else begin
        Buffer.add_subbytes line chunk !pos (!stop - !pos);
        if !stop < !len then begin
          pos := !stop + 1;
          take ()
        end
        else begin
          pos := !len;
          next ()
        end
      end
    end
  in
  next

(* Per-connection output discipline: every write happens under [lock] after
   checking [alive], and the fd is only closed under the same lock once
   [alive] is false and no submitted job still holds a callback — so a
   solver-thread event can never race a close and hit a recycled fd. *)
let handle_conn engine request_shutdown fd =
  let next_line = line_reader fd in
  let oc = Unix.out_channel_of_descr fd in
  let lock = Mutex.create () in
  let alive = ref true in
  let pending = ref 0 in
  let closed = ref false in
  let with_lock f =
    Mutex.lock lock;
    Fun.protect ~finally:(fun () -> Mutex.unlock lock) f
  in
  let close_now () =
    (* caller holds [lock] *)
    if not !closed then begin
      closed := true;
      (try flush oc with Sys_error _ -> ());
      try Unix.close fd with Unix.Unix_error _ -> ()
    end
  in
  let send line =
    with_lock @@ fun () ->
    if !alive then (
      try
        output_string oc line;
        output_char oc '\n';
        flush oc
      with Sys_error _ -> alive := false)
  in
  let job_started () = with_lock (fun () -> incr pending) in
  let job_finished () =
    with_lock @@ fun () ->
    decr pending;
    if (not !alive) && !pending = 0 then close_now ()
  in
  let dispatch = function
    | Protocol.Ping ->
      send (Json.to_line (Json.obj [ ("ok", Json.Bool true); ("pong", Json.Bool true) ]))
    | Protocol.Fingerprint_of { chip; assay; options } -> (
      match (Protocol.resolve_chip chip, Protocol.resolve_assay assay) with
      | Ok chip, Ok assay ->
        let fp = Fingerprint.digest ~chip ~assay ~options in
        send
          (Json.to_line (Json.obj [ ("ok", Json.Bool true); ("fingerprint", Json.Str fp) ]))
      | Error e, _ -> send (Protocol.error_line ("chip: " ^ e))
      | _, Error e -> send (Protocol.error_line ("assay: " ^ e)))
    | Protocol.Submit s -> (
      let wait = s.Protocol.wait in
      if wait then job_started ();
      let on_event = if wait then send else ignore in
      let on_done outcome =
        if wait then begin
          (match outcome with
           | Engine.Payload p -> send p
           | Engine.Failed msg -> send (Protocol.error_line msg)
           | Engine.Checkpointed ->
             send
               (Json.to_line
                  (Json.obj
                     [
                       ("ok", Json.Bool false);
                       ("error", Json.Str "daemon stopping; job checkpointed for restart");
                       ("checkpointed", Json.Bool true);
                     ])));
          job_finished ()
        end
      in
      match Engine.submit engine s ~on_event ~on_done with
      | Error e ->
        if wait then job_finished ();
        send (Protocol.error_line e)
      | Ok (fp, Engine.Cached payload) ->
        if wait then job_finished ();
        send (ack_line fp ~cached:true ~job:None ~joined:false);
        send payload
      | Ok (fp, Engine.Enqueued id) -> send (ack_line fp ~cached:false ~job:(Some id) ~joined:false)
      | Ok (fp, Engine.Joined id) -> send (ack_line fp ~cached:false ~job:(Some id) ~joined:true))
    | Protocol.Status fp ->
      send
        (Json.to_line
           (Json.obj
              [
                ("ok", Json.Bool true);
                ("fingerprint", Json.Str fp);
                ("state", Json.Str (Engine.status engine fp));
              ]))
    | Protocol.Result fp -> (
      match Engine.find_cached engine fp with
      | Some payload -> send payload
      | None ->
        send
          (Json.to_line
             (Json.obj
                [
                  ("ok", Json.Bool true);
                  ("fingerprint", Json.Str fp);
                  ("ready", Json.Bool false);
                ])))
    | Protocol.Stats -> send (stats_line engine)
    | Protocol.Shutdown ->
      send (Json.to_line (Json.obj [ ("ok", Json.Bool true); ("stopping", Json.Bool true) ]));
      request_shutdown ()
  in
  let rec read_loop () =
    match next_line () with
    | `Eof -> ()
    | `Too_long ->
      log "closing a connection: request line over %d bytes" max_line_bytes;
      send (Protocol.line_too_long_line ~limit:max_line_bytes)
    | `Line line ->
      let line = String.trim line in
      if line <> "" then (
        match Protocol.parse_request line with
        | Error e -> send (Protocol.error_line e)
        | Ok req -> dispatch req);
      read_loop ()
  in
  read_loop ();
  with_lock @@ fun () ->
  alive := false;
  if !pending = 0 then close_now ()

let listen_socket = function
  | Unix_socket path ->
    if Sys.file_exists path then Unix.unlink path;
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.bind fd (Unix.ADDR_UNIX path);
    Unix.listen fd 16;
    fd
  | Tcp port ->
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.setsockopt fd Unix.SO_REUSEADDR true;
    Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
    Unix.listen fd 16;
    fd

let run ?tune config =
  (* Blocked before any thread or domain exists, so all inherit the mask and
     one thread takes the signals: an OCaml handler runs only at a poll
     point, which an idle daemon's threads (in waits and [select]) never reach. *)
  let stop_signals = [ Sys.sigterm; Sys.sigint ] in
  ignore (Thread.sigmask Unix.SIG_BLOCK stop_signals);
  let engine =
    Engine.create ~jobs:config.jobs ~mem_capacity:config.mem_capacity
      ~disk_capacity:config.disk_capacity ~checkpoint_every:config.checkpoint_every ?tune
      ~state_dir:config.state_dir ()
  in
  let stop_r, stop_w = Unix.pipe () in
  let request_shutdown () =
    try ignore (Unix.write stop_w (Bytes.of_string "x") 0 1) with Unix.Unix_error _ -> ()
  in
  let on_signal () = ignore (Thread.wait_signal stop_signals); request_shutdown () in
  ignore (Thread.create on_signal ());
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let listen_fd = listen_socket config.endpoint in
  (match config.endpoint with
   | Unix_socket path -> log "listening on %s (jobs=%d, state=%s)" path config.jobs config.state_dir
   | Tcp port -> log "listening on 127.0.0.1:%d (jobs=%d, state=%s)" port config.jobs config.state_dir);
  let recovered = (Engine.stats engine).Engine.recovered in
  if recovered > 0 then log "recovered %d persisted job(s)" recovered;
  let acceptor =
    Thread.create
      (fun () ->
        let rec loop () =
          match Unix.select [ listen_fd; stop_r ] [] [] (-1.0) with
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
          | ready, _, _ ->
            if List.mem stop_r ready then ()
            else begin
              (match Unix.accept listen_fd with
               | exception Unix.Unix_error (_, _, _) -> ()
               | fd, _ ->
                 ignore
                   (Thread.create
                      (fun () ->
                        try handle_conn engine request_shutdown fd
                        with e -> log "connection error: %s" (Printexc.to_string e))
                      ()));
              loop ()
            end
        in
        loop ();
        Engine.request_stop engine)
      ()
  in
  (* solver loop: this thread created the engine (and its domain pool), so
     this thread does the solving *)
  let rec solve () =
    if not (Engine.stopping engine) then
      match Engine.run_next engine with
      | `Ran -> solve ()
      | `Idle ->
        Engine.wait_for_work engine;
        solve ()
  in
  solve ();
  Thread.join acceptor;
  (try Unix.close listen_fd with Unix.Unix_error _ -> ());
  (match config.endpoint with
   | Unix_socket path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
   | Tcp _ -> ());
  Engine.shutdown engine;
  let left = Engine.pending engine in
  if left > 0 then log "stopped; %d job(s) checkpointed for restart" left else log "stopped"
