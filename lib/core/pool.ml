module Chip = Mf_arch.Chip
module Grid = Mf_grid.Grid
module Bitset = Mf_util.Bitset
module Rng = Mf_util.Rng
module Pathgen = Mf_testgen.Pathgen
module Cutgen = Mf_testgen.Cutgen
module Vectors = Mf_testgen.Vectors

type entry = {
  config : Pathgen.config;
  augmented : Chip.t;
  suite : Vectors.t;
  mutable partners : (int * int array) list option;
}

type reject = { rejected_config : Pathgen.config; escaped : int; malformed : int }

type t = {
  entries : entry array;
  free_edges : int array;
  rejects : reject list;
  attempt_objectives : float option array;
}

let entries t = t.entries
let size t = Array.length t.entries

let free_edges t = t.free_edges
let rejects t = t.rejects
let attempt_objectives t = t.attempt_objectives

let materialise chip (config : Pathgen.config) =
  Mf_util.Prof.time "pool.materialise" @@ fun () ->
  let augmented = Pathgen.apply chip config in
  let cuts = Cutgen.generate augmented ~source:config.src_port ~meter:config.dst_port in
  let suite = Vectors.of_config config cuts in
  let suite, report = Mf_testgen.Repair.validate augmented suite in
  if Mf_faults.Coverage.complete report then Ok { config; augmented; suite; partners = None }
  else
    Error
      {
        rejected_config = config;
        escaped = report.Mf_faults.Coverage.total_faults - report.Mf_faults.Coverage.detected;
        malformed = report.Mf_faults.Coverage.malformed;
      }

let build ?(size = 8) ?(node_limit = 20_000) ?domains ?budget ~rng chip =
  Mf_util.Prof.time "pool.build" @@ fun () ->
  let n_edges = Grid.n_edges (Chip.grid chip) in
  let channels = Chip.channel_edges chip in
  let free =
    Array.of_list
      (List.filter (fun e -> not (Bitset.mem channels e)) (List.init n_edges Fun.id))
  in
  (* all rng draws happen here, in attempt order, so the stream matches the
     serial builder whatever the parallelism below *)
  let weightss = Array.make (max 0 size) (fun _ -> 1. (* the unperturbed optimum first *)) in
  for attempt = 1 to size - 1 do
    let noise = Array.init n_edges (fun _ -> 1. +. Rng.uniform rng) in
    weightss.(attempt) <- fun e -> noise.(e)
  done;
  (* solving the ILP and fault-simulating the candidate suite are pure in
     the weights, so the attempts fan out; duplicate-key candidates cost a
     redundant materialisation but the deduplicated result is identical *)
  let solve weights =
    match Pathgen.generate ~weights ~node_limit ?budget chip with
    | Error _ -> None
    | Ok config ->
      let key = String.concat "," (List.map string_of_int config.added_edges) in
      (* the attempt's achieved objective (5): total weight of added edges —
         the invariant the perf-regression harness pins across LP engines *)
      let objective =
        List.fold_left (fun acc e -> acc +. weights e) 0. config.added_edges
      in
      Some (key, objective, materialise chip config)
  in
  let candidates =
    let fan_out dpool =
      Mf_util.Domain_pool.map_bounded dpool ?budget ~fallback:(fun _ -> None) solve weightss
    in
    match domains with
    | Some dpool -> fan_out dpool
    | None -> Mf_util.Domain_pool.with_pool ~jobs:1 fan_out
  in
  let attempt_objectives = Array.map (Option.map (fun (_, o, _) -> o)) candidates in
  let seen = Hashtbl.create 8 in
  let pool = ref [] in
  let rejected = ref [] in
  let consider = function
    | None -> ()
    | Some (key, _objective, outcome) ->
      if not (Hashtbl.mem seen key) then begin
        Hashtbl.add seen key ();
        match outcome with
        | Ok entry -> pool := entry :: !pool
        | Error reject -> rejected := reject :: !rejected
      end
  in
  Array.iter consider candidates;
  (match List.rev !pool with
   | [] ->
     (* degradation ladder, last rung before giving up: the deterministic
        greedy cover with no ILP at all — cheap enough to run even when the
        budget is already spent *)
     (match Pathgen.generate ~node_limit:0 chip with
      | Ok config ->
        consider
          (Some
             ( String.concat "," (List.map string_of_int config.added_edges),
               float_of_int (List.length config.added_edges),
               materialise chip config ))
      | Error _ -> ())
   | _ :: _ -> ());
  match List.rev !pool with
  | [] ->
    let n_rejected = List.length !rejected in
    let reason =
      if n_rejected = 0 then "no DFT configuration found"
      else
        Printf.sprintf
          "no valid DFT configuration found (%d candidate%s rejected: repair left faults \
           escaping simulation)"
          n_rejected
          (if n_rejected = 1 then "" else "s")
    in
    Error (Mf_util.Fail.v Mf_util.Fail.Pool reason)
  | entries ->
    Ok
      {
        entries = Array.of_list entries;
        free_edges = free;
        rejects = List.rev !rejected;
        attempt_objectives;
      }

let decode t position =
  let pref = Hashtbl.create 32 in
  Array.iteri
    (fun i e ->
      let x = if i < Array.length position then position.(i) else 0.5 in
      Hashtbl.replace pref e x)
    t.free_edges;
  let score entry =
    let added = entry.config.Pathgen.added_edges in
    let total =
      List.fold_left
        (fun acc e -> acc +. Option.value ~default:0.5 (Hashtbl.find_opt pref e))
        0. added
    in
    (* average preference of the edges this configuration would add, with a
       mild penalty on configuration size *)
    let n = float_of_int (max 1 (List.length added)) in
    (total /. n) -. (0.01 *. n)
  in
  let best = ref t.entries.(0) in
  let best_score = ref (score t.entries.(0)) in
  Array.iter
    (fun entry ->
      let s = score entry in
      if s > !best_score then begin
        best_score := s;
        best := entry
      end)
    t.entries;
  !best
