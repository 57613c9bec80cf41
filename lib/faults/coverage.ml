module Chip = Mf_arch.Chip

type report = {
  total_faults : int;
  detected : int;
  sa0_undetected : int list;
  sa1_undetected : int list;
  leak_undetected : int list;
  malformed : int;
}

let complete r =
  r.malformed = 0 && r.sa0_undetected = [] && r.sa1_undetected = [] && r.leak_undetected = []

let ratio r = if r.total_faults = 0 then 1. else float_of_int r.detected /. float_of_int r.total_faults

(* The report over [faults], given which of them some vector detects.
   Every undetected list keeps the order [faults] gives it; [detected] and
   [malformed] start at the counts of vectors already simulated. *)
let report ~total ~detected ~malformed faults found =
  let undetected pick =
    Array.to_list faults
    |> List.filteri (fun i _ -> not found.(i))
    |> List.filter_map pick
  in
  {
    total_faults = total;
    detected = Array.fold_left (fun n hit -> if hit then n + 1 else n) detected found;
    sa0_undetected = undetected (function Fault.Stuck_at_0 e -> Some e | _ -> None);
    sa1_undetected = undetected (function Fault.Stuck_at_1 v -> Some v | _ -> None);
    leak_undetected = undetected (function Fault.Leak v -> Some v | _ -> None);
    malformed;
  }

(* Under a fault context, vector-major: each vector is prepared once (one
   fault-free simulation) and asked only about the faults no earlier vector
   detected.  A fault's verdict is whether any vector detects it, so the
   order changes no report. *)
let simulate_under present chip ~total ~detected ~malformed faults vectors =
  let faults = Array.of_list faults in
  let found = Array.make (Array.length faults) false in
  let malformed = ref malformed in
  let decided = ref 0 and resimulated = ref 0 in
  List.iter
    (fun v ->
      let p = Pressure.prepare ~present chip v in
      if not (Pressure.prepared_well_formed p) then incr malformed;
      Array.iteri
        (fun i fault ->
          if not found.(i) then begin
            incr decided;
            found.(i) <- Pressure.prepared_detects p fault
          end)
        faults;
      resimulated := !resimulated + Pressure.prepared_resimulated p)
    vectors;
  Mf_util.Prof.add_count "faults.decided" !decided;
  Mf_util.Prof.add_count "faults.resimulated" !resimulated;
  report ~total ~detected ~malformed:!malformed faults found

(* Without one, a fault is detected iff it lies in the union of the
   vectors' detection sets. *)
let simulate_sets detect chip ~total ~detected ~malformed faults vectors =
  let union = Mf_util.Bitset.create (Pressure.fault_space chip) in
  let malformed = ref malformed in
  List.iter
    (fun v ->
      let d : Pressure.detection = detect chip v in
      if not d.well_formed then incr malformed;
      Mf_util.Bitset.union_into union d.detected)
    vectors;
  let faults = Array.of_list faults in
  report ~total ~detected ~malformed:!malformed faults
    (Array.map (Pressure.detects_in chip union) faults)

let simulate ?present ?detect chip =
  match (present, detect) with
  | Some _, Some _ ->
    invalid_arg "Coverage: ?detect answers for the fault-free chip; drop it with ?present"
  | Some ctx, None -> simulate_under ctx chip
  | None, _ -> simulate_sets (Option.value detect ~default:Pressure.detect) chip

let measure ?(include_leaks = false) ?present ?detect chip vectors =
  Mf_util.Prof.time "faults.measure" @@ fun () ->
  let faults = if include_leaks then Fault.all_with_leaks chip else Fault.all chip in
  let faults =
    (* faults already present on the chip are the simulation baseline, not
       test targets: detection is measured over the remaining universe *)
    match present with
    | None -> faults
    | Some ctx ->
      let ctx_faults = Pressure.context_faults ctx in
      List.filter (fun f -> not (List.exists (Fault.equal f) ctx_faults)) faults
  in
  simulate ?present ?detect chip ~total:(List.length faults) ~detected:0 ~malformed:0 faults
    vectors

(* The faults [r] leaves undetected are the only verdicts [vectors] can
   still change. *)
let extend ?present ?detect chip r vectors =
  Mf_util.Prof.time "faults.extend" @@ fun () ->
  let faults =
    List.map (fun e -> Fault.Stuck_at_0 e) r.sa0_undetected
    @ List.map (fun v -> Fault.Stuck_at_1 v) r.sa1_undetected
    @ List.map (fun v -> Fault.Leak v) r.leak_undetected
  in
  simulate ?present ?detect chip ~total:r.total_faults ~detected:r.detected ~malformed:r.malformed
    faults vectors

let pp ppf r =
  Fmt.pf ppf "coverage %d/%d%s%s%s%s" r.detected r.total_faults
    (if r.sa0_undetected = [] then "" else Fmt.str " sa0-miss=%a" Fmt.(list ~sep:comma int) r.sa0_undetected)
    (if r.sa1_undetected = [] then "" else Fmt.str " sa1-miss=%a" Fmt.(list ~sep:comma int) r.sa1_undetected)
    (if r.leak_undetected = [] then "" else Fmt.str " leak-miss=%a" Fmt.(list ~sep:comma int) r.leak_undetected)
    (if r.malformed = 0 then "" else Fmt.str " malformed=%d" r.malformed)
