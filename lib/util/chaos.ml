type site = Simplex_iters | Ilp_nodes | Worker_delay

let n_sites = 3

let site_index = function
  | Simplex_iters -> 0
  | Ilp_nodes -> 1
  | Worker_delay -> 2

let site_name = function
  | Simplex_iters -> "simplex-iters"
  | Ilp_nodes -> "ilp-nodes"
  | Worker_delay -> "worker-delay"

let all_sites = [ Simplex_iters; Ilp_nodes; Worker_delay ]

type config = { rate : float; seed : int }

type state = {
  cfg : config;
  only : site option; (* restrict strikes to one site; [None] = all sites *)
  rng : Rng.t;
  lock : Mutex.t;
  counts : int array; (* strikes recorded per site, indexed by [site_index] *)
}

let of_config ?only cfg =
  {
    cfg = { cfg with rate = Float.min 1. (Float.max 0. cfg.rate) };
    only;
    rng = Rng.create ~seed:cfg.seed;
    lock = Mutex.create ();
    counts = Array.make n_sites 0;
  }

let default_seed = 0xC4A05

let env_seed () =
  match Option.bind (Sys.getenv_opt "MFDFT_CHAOS_SEED") int_of_string_opt with
  | Some seed -> seed
  | None -> default_seed

type spec = Strikes of { only : site option; rate : float } | Valve_faults of int

let vf_prefix = "valve-faults:"

let parse s =
  let s = String.trim s in
  let rate_of r =
    match float_of_string_opt r with
    | Some rate when Float.is_finite rate && rate >= 0. -> Some rate
    | Some _ | None -> None
  in
  let bad what =
    Error
      (Printf.sprintf
         "MFDFT_CHAOS=%s: %s (expected <rate>, <site>:<rate> with site one of %s, or %sN)" s
         what
         (String.concat ", " (List.map site_name all_sites))
         vf_prefix)
  in
  match rate_of s with
  | Some rate -> Ok (Strikes { only = None; rate })
  | None -> (
      match String.index_opt s ':' with
      | None -> bad "not a rate"
      | Some i -> (
          let name = String.sub s 0 i in
          let rest = String.sub s (i + 1) (String.length s - i - 1) in
          if name ^ ":" = vf_prefix then
            match int_of_string_opt rest with
            | Some count when count >= 0 -> Ok (Valve_faults count)
            | Some _ | None -> bad (Printf.sprintf "bad valve-fault count %S" rest)
          else
            match List.find_opt (fun site -> site_name site = name) all_sites with
            | None -> bad (Printf.sprintf "unknown site %S" name)
            | Some site -> (
                match rate_of rest with
                | Some rate -> Ok (Strikes { only = Some site; rate })
                | None -> bad (Printf.sprintf "bad rate %S" rest))))

(* Read once at program start; a value that does not parse is reported on
   stderr instead of silently leaving injection off. *)
let env_spec =
  match Sys.getenv_opt "MFDFT_CHAOS" with
  | None -> None
  | Some s when String.trim s = "" -> None
  | Some s -> (
      match parse s with
      | Ok spec -> Some spec
      | Error msg ->
          Printf.eprintf "warning: chaos injection off: %s\n%!" msg;
          None)

(* Initialised eagerly at program start so worker domains never race an
   env lookup.  [set] is only meant to be called while no worker domain is
   running (test setup, CLI argument handling). *)
let state =
  ref
    (match env_spec with
     | Some (Strikes { only; rate }) when rate > 0. ->
         Some (of_config ?only { rate; seed = env_seed () })
     | Some (Strikes _ | Valve_faults _) | None -> None)

let vf_state =
  ref
    (match env_spec with
     | Some (Valve_faults count) when count > 0 -> Some (count, env_seed ())
     | Some (Strikes _ | Valve_faults _) | None -> None)

let set ?only cfg = state := Option.map (of_config ?only) cfg
let set_valve_faults vf = vf_state := vf

let neutralise () =
  state := None;
  vf_state := None

let valve_faults () = Option.map fst !vf_state

(* Fisher–Yates over the whole site universe, then the first [count]
   positions: stable in (seed, n_sites), and monotone in [count] — the
   sites of [valve-faults:k] are a prefix of those of [valve-faults:k+1],
   so escalating the fault count only ever grows the injected set. *)
let sample_sites ~seed ~count ~n_sites =
  if count <= 0 || n_sites <= 0 then []
  else begin
    let rng = Rng.create ~seed in
    let idx = Array.init n_sites Fun.id in
    Rng.shuffle rng idx;
    Array.to_list (Array.sub idx 0 (min count n_sites)) |> List.sort Stdlib.compare
  end

let valve_fault_sites ~n_sites =
  match !vf_state with
  | None -> []
  | Some (count, seed) -> sample_sites ~seed ~count ~n_sites

let active () = Option.is_some !state

let rate () = match !state with None -> 0. | Some st -> st.cfg.rate

let strike site =
  match !state with
  | None -> false
  | Some st when st.only <> None && st.only <> Some site -> false
  | Some st ->
      Mutex.lock st.lock;
      let hit = Rng.uniform st.rng < st.cfg.rate in
      if hit then begin
        let i = site_index site in
        st.counts.(i) <- st.counts.(i) + 1
      end;
      Mutex.unlock st.lock;
      hit

let delay () = if strike Worker_delay then Unix.sleepf 0.0015

let strikes () =
  match !state with
  | None -> []
  | Some st ->
      Mutex.lock st.lock;
      let out = List.map (fun s -> (s, st.counts.(site_index s))) all_sites in
      Mutex.unlock st.lock;
      out

let reset_counts () =
  match !state with
  | None -> ()
  | Some st ->
      Mutex.lock st.lock;
      Array.fill st.counts 0 n_sites 0;
      Mutex.unlock st.lock
