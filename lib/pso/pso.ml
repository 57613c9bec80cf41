module Rng = Mf_util.Rng

type params = {
  particles : int;
  iterations : int;
  omega : float;
  c1 : float;
  c2 : float;
  v_max : float;
}

let default_params =
  { particles = 5; iterations = 100; omega = 0.72; c1 = 1.49; c2 = 1.49; v_max = 0.5 }

type outcome = {
  best_position : float array;
  best_fitness : float;
  trace : float list;
  evaluations : int;
}

let clamp lo hi x = if x < lo then lo else if x > hi then hi else x

type batch_state = {
  next_iter : int; (* first iteration the resumed run will execute *)
  st_rng : Rng.t;
  st_xs : float array array;
  st_vs : float array array;
  st_p_best : float array array;
  st_p_fit : float array;
  st_g_best : float array;
  st_g_fit : float;
  st_rev_trace : float list;
  st_evals : int;
}

(* Synchronous updates: every RNG draw happens here, in particle order,
   before the whole iteration's positions go to [batch_fitness] as one
   read-only batch.  Velocity updates use the previous iteration's global
   best, so the outcome depends only on the rng stream and the fitness
   values — never on the order the batch is evaluated in. *)
let run ?(params = default_params) ?budget ?checkpoint ?resume ~rng ~dim ~batch_fitness () =
  if dim <= 0 then invalid_arg "Pso.run: dim must be positive";
  let n = params.particles in
  let evaluations = ref 0 in
  let eval_all xs =
    let fits = batch_fitness xs in
    if Array.length fits <> Array.length xs then
      invalid_arg "Pso.run: batch_fitness must return one fitness per position";
    evaluations := !evaluations + Array.length xs;
    fits
  in
  let xs, vs, p_best, p_fit, g_best, g_fit, trace, start_iter =
    match resume with
    | Some st ->
      if Array.length st.st_xs <> n then
        invalid_arg "Pso.run: resume state swarm size mismatch";
      if n > 0 && Array.length st.st_xs.(0) <> dim then
        invalid_arg "Pso.run: resume state dimension mismatch";
      (* the caller's rng continues exactly where the snapshot left off *)
      Rng.blit ~src:st.st_rng ~dst:rng;
      evaluations := st.st_evals;
      ( Array.map Array.copy st.st_xs,
        Array.map Array.copy st.st_vs,
        Array.map Array.copy st.st_p_best,
        Array.copy st.st_p_fit,
        ref (Array.copy st.st_g_best),
        ref st.st_g_fit,
        ref st.st_rev_trace,
        st.next_iter )
    | None ->
      let xs = Array.make n [||] in
      let vs = Array.make n [||] in
      for i = 0 to n - 1 do
        xs.(i) <- Array.init dim (fun _ -> Rng.uniform rng);
        vs.(i) <- Array.init dim (fun _ -> (Rng.uniform rng -. 0.5) *. params.v_max)
      done;
      let fits = eval_all xs in
      let p_best = Array.map Array.copy xs in
      let p_fit = Array.copy fits in
      let g_best = ref (Array.copy xs.(0)) in
      let g_fit = ref fits.(0) in
      for i = 1 to n - 1 do
        if fits.(i) < !g_fit then begin
          g_fit := fits.(i);
          g_best := Array.copy xs.(i)
        end
      done;
      (xs, vs, p_best, p_fit, g_best, g_fit, ref [], 1)
  in
  let snapshot it =
    {
      next_iter = it + 1;
      st_rng = Rng.copy rng;
      st_xs = Array.map Array.copy xs;
      st_vs = Array.map Array.copy vs;
      st_p_best = Array.map Array.copy p_best;
      st_p_fit = Array.copy p_fit;
      st_g_best = Array.copy !g_best;
      st_g_fit = !g_fit;
      st_rev_trace = !trace;
      st_evals = !evaluations;
    }
  in
  (let exception Out_of_budget in
   try
     for it = start_iter to params.iterations do
       if Mf_util.Budget.over budget then raise Out_of_budget;
       for i = 0 to n - 1 do
         for d = 0 to dim - 1 do
           let r1 = Rng.uniform rng and r2 = Rng.uniform rng in
           let v =
             (params.omega *. vs.(i).(d))
             +. (params.c1 *. r1 *. (p_best.(i).(d) -. xs.(i).(d)))
             +. (params.c2 *. r2 *. (!g_best.(d) -. xs.(i).(d)))
           in
           vs.(i).(d) <- clamp (-.params.v_max) params.v_max v;
           xs.(i).(d) <- clamp 0. 1. (xs.(i).(d) +. vs.(i).(d))
         done
       done;
       let fits = eval_all xs in
       for i = 0 to n - 1 do
         if fits.(i) < p_fit.(i) then begin
           p_fit.(i) <- fits.(i);
           p_best.(i) <- Array.copy xs.(i)
         end;
         if fits.(i) < !g_fit then begin
           g_fit := fits.(i);
           g_best := Array.copy xs.(i)
         end
       done;
       trace := !g_fit :: !trace;
       match checkpoint with None -> () | Some hook -> hook it (snapshot it)
     done
   with Out_of_budget -> ());
  {
    best_position = !g_best;
    best_fitness = !g_fit;
    trace = List.rev !trace;
    evaluations = !evaluations;
  }
