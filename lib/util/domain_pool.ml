type task = Task of (unit -> unit)

type t = {
  jobs : int;
  queue : task Queue.t;
  mutex : Mutex.t;
  wakeup : Condition.t;  (* signalled when the queue gains work or the pool closes *)
  mutable workers : unit Domain.t list;
  mutable closed : bool;
}

let worker_loop pool =
  let rec loop () =
    Mutex.lock pool.mutex;
    let rec next () =
      match Queue.pop pool.queue with
      | task -> Some task
      | exception Queue.Empty ->
        if pool.closed then None
        else begin
          Condition.wait pool.wakeup pool.mutex;
          next ()
        end
    in
    match next () with
    | None -> Mutex.unlock pool.mutex
    | Some (Task run) ->
      Mutex.unlock pool.mutex;
      run ();
      loop ()
  in
  loop ()

let create ~jobs =
  if jobs < 1 then invalid_arg "Domain_pool.create: jobs must be >= 1";
  let pool =
    {
      jobs;
      queue = Queue.create ();
      mutex = Mutex.create ();
      wakeup = Condition.create ();
      workers = [];
      closed = false;
    }
  in
  pool.workers <- List.init (jobs - 1) (fun _ -> Domain.spawn (fun () -> worker_loop pool));
  pool

let jobs pool = pool.jobs

let shutdown pool =
  Mutex.lock pool.mutex;
  pool.closed <- true;
  Condition.broadcast pool.wakeup;
  Mutex.unlock pool.mutex;
  let workers = pool.workers in
  pool.workers <- [];
  List.iter Domain.join workers

let with_pool ~jobs f =
  let pool = create ~jobs in
  Fun.protect ~finally:(fun () -> shutdown pool) (fun () -> f pool)

(* Tasks never block, so the coordinator can help drain the queue and then
   sleep on [finished] until the last worker's decrement. *)
let map pool f xs =
  let n = Array.length xs in
  if n = 0 then [||]
  else if pool.jobs = 1 || n = 1 then Array.map f xs
  else begin
    let results = Array.make n None in
    let errors = Array.make n None in
    let remaining = ref n in
    let finished = Condition.create () in
    let task i =
      Task
        (fun () ->
          Chaos.delay ();
          (match f xs.(i) with
           | r -> results.(i) <- Some r
           | exception e -> errors.(i) <- Some e);
          Mutex.lock pool.mutex;
          decr remaining;
          if !remaining = 0 then Condition.broadcast finished;
          Mutex.unlock pool.mutex)
    in
    Mutex.lock pool.mutex;
    for i = 0 to n - 1 do
      Queue.push (task i) pool.queue
    done;
    Condition.broadcast pool.wakeup;
    let rec drain () =
      match Queue.pop pool.queue with
      | Task run ->
        Mutex.unlock pool.mutex;
        run ();
        Mutex.lock pool.mutex;
        drain ()
      | exception Queue.Empty -> ()
    in
    drain ();
    while !remaining > 0 do
      Condition.wait finished pool.mutex
    done;
    Mutex.unlock pool.mutex;
    Array.iter (function Some e -> raise e | None -> ()) errors;
    Array.map
      (function
        | Some r -> r
        | None -> assert false (* every slot filled: remaining reached 0 with no error *))
      results
  end

let map_bounded pool ?budget ~fallback f xs =
  match budget with
  | None -> map pool f xs
  | Some b ->
    (* tasks that start after the deadline degrade to the cheap fallback,
       so a late deadline drains the queue quickly instead of hanging *)
    map pool (fun x -> if Budget.exhausted b then fallback x else f x) xs

let default_jobs () =
  match Sys.getenv_opt "MFDFT_JOBS" with
  | Some s ->
    (match int_of_string_opt (String.trim s) with
     | Some j when j >= 1 -> j
     | Some _ | None -> Domain.recommended_domain_count ())
  | None -> Domain.recommended_domain_count ()
