module Lp = Mf_lp.Lp
module Simplex = Mf_lp.Simplex
module Rng = Mf_util.Rng

let check = Alcotest.check
let feps = Alcotest.float 1e-6

let solve_exn lp =
  match Lp.solve lp with
  | Lp.Optimal { objective; values } -> (objective, values)
  | Lp.Feasible _ | Lp.Iter_limit -> Alcotest.fail "unexpected budget exhaustion"
  | Lp.Numerical m -> Alcotest.fail ("unexpected numerical failure: " ^ m)
  | Lp.Infeasible -> Alcotest.fail "unexpected infeasible"
  | Lp.Unbounded -> Alcotest.fail "unexpected unbounded"

let test_basic_max () =
  (* max x+y st x+2y<=4, 3x+y<=6 -> (1.6, 1.2) *)
  let lp = Lp.create () in
  let x = Lp.add_var ~obj:(-1.) lp in
  let y = Lp.add_var ~obj:(-1.) lp in
  Lp.add_row lp [ (1., x); (2., y) ] Lp.Le 4.;
  Lp.add_row lp [ (3., x); (1., y) ] Lp.Le 6.;
  let obj, values = solve_exn lp in
  check feps "objective" (-2.8) obj;
  check feps "x" 1.6 values.(x);
  check feps "y" 1.2 values.(y)

let test_equality_and_ge () =
  let lp = Lp.create () in
  let x = Lp.add_var ~obj:1. lp in
  let y = Lp.add_var ~obj:2. lp in
  Lp.add_row lp [ (1., x); (1., y) ] Lp.Eq 10.;
  Lp.add_row lp [ (1., y) ] Lp.Ge 3.;
  let obj, values = solve_exn lp in
  check feps "objective" 13. obj;
  check feps "y at its bound" 3. values.(y)

let test_infeasible () =
  let lp = Lp.create () in
  let x = Lp.add_var ~upper:1. lp in
  Lp.add_row lp [ (1., x) ] Lp.Ge 2.;
  check Alcotest.bool "infeasible" true (Lp.solve lp = Lp.Infeasible)

let test_infeasible_rows () =
  let lp = Lp.create () in
  let x = Lp.add_var lp in
  Lp.add_row lp [ (1., x) ] Lp.Le 1.;
  Lp.add_row lp [ (1., x) ] Lp.Ge 2.;
  check Alcotest.bool "conflicting rows" true (Lp.solve lp = Lp.Infeasible)

let test_unbounded () =
  let lp = Lp.create () in
  let x = Lp.add_var ~obj:(-1.) lp in
  Lp.add_row lp [ (1., x) ] Lp.Ge 0.;
  check Alcotest.bool "unbounded" true (Lp.solve lp = Lp.Unbounded)

let test_variable_bounds () =
  (* bounds handled without explicit rows: min -x -2y, x<=3, y<=2 *)
  let lp = Lp.create () in
  let x = Lp.add_var ~upper:3. ~obj:(-1.) lp in
  let y = Lp.add_var ~upper:2. ~obj:(-2.) lp in
  Lp.add_row lp [ (1., x); (1., y) ] Lp.Le 100.;
  let obj, values = solve_exn lp in
  check feps "x at upper" 3. values.(x);
  check feps "y at upper" 2. values.(y);
  check feps "objective" (-7.) obj

let test_lower_bounds () =
  let lp = Lp.create () in
  let x = Lp.add_var ~lower:2. ~obj:1. lp in
  let y = Lp.add_var ~lower:1. ~obj:1. lp in
  Lp.add_row lp [ (1., x); (1., y) ] Lp.Le 10.;
  let obj, _ = solve_exn lp in
  check feps "rest at lower bounds" 3. obj

let test_fixing () =
  let lp = Lp.create () in
  let x = Lp.add_var ~upper:1. ~obj:(-1.) lp in
  let y = Lp.add_var ~upper:1. ~obj:(-1.) lp in
  Lp.add_row lp [ (1., x); (1., y) ] Lp.Le 2.;
  let fix = [ (x, 0.) ] in
  (match Lp.solve ~fix lp with
   | Lp.Optimal { objective; values } ->
     check feps "x fixed" 0. values.(x);
     check feps "obj with fixing" (-1.) objective
   | Lp.Infeasible | Lp.Unbounded | Lp.Feasible _ | Lp.Iter_limit | Lp.Numerical _ ->
     Alcotest.fail "expected optimal");
  (* without fixing the model is untouched *)
  let obj, _ = solve_exn lp in
  check feps "obj without fixing" (-2.) obj

let test_degenerate () =
  (* many redundant constraints through one vertex *)
  let lp = Lp.create () in
  let x = Lp.add_var ~obj:(-1.) lp in
  let y = Lp.add_var ~obj:(-1.) lp in
  Lp.add_row lp [ (1., x); (1., y) ] Lp.Le 2.;
  Lp.add_row lp [ (2., x); (2., y) ] Lp.Le 4.;
  Lp.add_row lp [ (1., x) ] Lp.Le 1.;
  Lp.add_row lp [ (1., y) ] Lp.Le 1.;
  Lp.add_row lp [ (3., x); (3., y) ] Lp.Le 6.;
  let obj, _ = solve_exn lp in
  check feps "degenerate optimum" (-2.) obj

let test_duplicate_terms () =
  (* repeated variables in a row are summed *)
  let lp = Lp.create () in
  let x = Lp.add_var ~obj:(-1.) lp in
  Lp.add_row lp [ (1., x); (1., x) ] Lp.Le 4.;
  let obj, values = solve_exn lp in
  check feps "2x <= 4" 2. values.(x);
  check feps "objective" (-2.) obj

let test_set_obj () =
  let lp = Lp.create () in
  let x = Lp.add_var ~upper:5. lp in
  Lp.add_row lp [ (1., x) ] Lp.Ge 1.;
  Lp.set_obj lp x (-1.);
  let obj, _ = solve_exn lp in
  check feps "maximise after set_obj" (-5.) obj

let test_bad_inputs () =
  let lp = Lp.create () in
  let x = Lp.add_var lp in
  Alcotest.check_raises "bad var in row" (Invalid_argument "Lp.add_row: bad variable") (fun () ->
      Lp.add_row lp [ (1., x + 1) ] Lp.Le 1.)

(* Random LPs with a known feasible point: the optimum must not exceed the
   witness objective, and returned values must satisfy all rows. *)
let random_lp_prop =
  QCheck.Test.make ~name:"optimal <= witness and solution feasible" ~count:100 QCheck.int
    (fun seed ->
      let rng = Rng.create ~seed:(abs seed) in
      let n = 2 + Rng.int rng 4 in
      let m = 1 + Rng.int rng 5 in
      let lp = Lp.create () in
      let witness = Array.init n (fun _ -> Rng.float rng 5.) in
      let cost = Array.init n (fun _ -> Rng.float rng 4. -. 2.) in
      let vars = Array.init n (fun j -> Lp.add_var ~upper:10. ~obj:cost.(j) lp) in
      let rows = ref [] in
      for _ = 1 to m do
        let coefs = Array.init n (fun _ -> Rng.float rng 3.) in
        let lhs = ref 0. in
        Array.iteri (fun j c -> lhs := !lhs +. (c *. witness.(j))) coefs;
        (* rhs chosen so the witness satisfies the row *)
        let rhs = !lhs +. Rng.float rng 2. in
        let terms = Array.to_list (Array.mapi (fun j c -> (c, vars.(j))) coefs) in
        Lp.add_row lp terms Lp.Le rhs;
        rows := (coefs, rhs) :: !rows
      done;
      let witness_obj = ref 0. in
      Array.iteri (fun j c -> witness_obj := !witness_obj +. (c *. witness.(j))) cost;
      match Lp.solve lp with
      | Lp.Infeasible | Lp.Unbounded | Lp.Feasible _ | Lp.Iter_limit | Lp.Numerical _ -> false
      | Lp.Optimal { objective; values } ->
        objective <= !witness_obj +. 1e-6
        && Array.for_all (fun x -> x >= -1e-6 && x <= 10. +. 1e-6) values
        && List.for_all
             (fun (coefs, rhs) ->
               let lhs = ref 0. in
               Array.iteri (fun j c -> lhs := !lhs +. (c *. values.(j))) coefs;
               !lhs <= rhs +. 1e-5)
             !rows)

(* Differential property for the warm-start machinery: after a
   branching-style fixing (and sometimes a lazily appended cut row), the
   dual re-optimisation from the parent optimal basis and a cold primal
   solve must agree on feasibility and, when both optimal, on the objective
   to 1e-6.  All variables are boxed, so every subproblem is bounded. *)
let warm_cold_prop =
  QCheck.Test.make ~name:"warm dual agrees with cold primal" ~count:200 QCheck.int
    (fun seed ->
      let rng = Rng.create ~seed:(abs seed) in
      let n = 2 + Rng.int rng 6 in
      let m = 1 + Rng.int rng 6 in
      let lp = Lp.create () in
      let witness = Array.init n (fun _ -> Rng.float rng 1.) in
      let vars =
        Array.init n (fun _ -> Lp.add_var ~upper:1. ~obj:(Rng.float rng 4. -. 2.) lp)
      in
      for _ = 1 to m do
        let coefs = Array.init n (fun _ -> Rng.float rng 3. -. 1.) in
        let lhs = ref 0. in
        Array.iteri (fun j c -> lhs := !lhs +. (c *. witness.(j))) coefs;
        let terms = Array.to_list (Array.mapi (fun j c -> (c, vars.(j))) coefs) in
        (* rhs keeps the witness feasible for the root; fixings below may
           still cut it off, which both solvers must then report *)
        if Rng.bool rng then Lp.add_row lp terms Lp.Le (!lhs +. Rng.float rng 1.)
        else Lp.add_row lp terms Lp.Ge (!lhs -. Rng.float rng 1.)
      done;
      match Lp.solve_b lp with
      | Lp.Optimal _, Some parent, _ ->
        (* a branching step: clamp a few variables to 0/1 *)
        let fixed = Array.init n (fun _ -> if Rng.int rng 3 = 0 then Some (float_of_int (Rng.int rng 2)) else None) in
        let fix =
          List.filter_map
            (fun (var, x) -> Option.map (fun x -> (var, x)) x)
            (Array.to_list (Array.mapi (fun j var -> (var, fixed.(j))) vars))
        in
        (* half the time, also append a cut row (basis extension path) *)
        if Rng.bool rng then begin
          let coefs = Array.init n (fun _ -> Rng.float rng 2.) in
          let terms = Array.to_list (Array.mapi (fun j c -> (c, vars.(j))) coefs) in
          Lp.add_row lp terms Lp.Le (Rng.float rng (float_of_int n))
        end;
        let cold, _, cold_info = Lp.solve_b ~fix lp in
        let warm, _, _ = Lp.solve_b ~fix ~warm:parent lp in
        if cold_info.Lp.warm then false (* no basis was passed: must be cold *)
        else begin
          match (cold, warm) with
          | Lp.Optimal { objective = a; _ }, Lp.Optimal { objective = b; _ } ->
            abs_float (a -. b) < 1e-6
          | Lp.Infeasible, Lp.Infeasible -> true
          | _ -> false
        end
      | (Lp.Infeasible | Lp.Numerical _), _, _ -> true (* nothing to warm-start *)
      | _ -> false)

(* The dense refactorisation the simplex ran before the hypersparse one:
   every eta visited in each FTRAN, every row scanned for the pivot and
   again for the eta.  [Simplex.factorize] must reproduce it bit for bit. *)
let dense_factor (p : Simplex.problem) basic =
  let m = p.Simplex.m and cols = p.Simplex.cols in
  let order = Array.copy basic in
  Array.sort
    (fun j1 j2 ->
      let n1 = Array.length cols.(j1).Simplex.idx and n2 = Array.length cols.(j2).Simplex.idx in
      if n1 <> n2 then compare n1 n2 else compare j1 j2)
    order;
  let etas = ref [] in
  let ftran w =
    List.iter
      (fun (e : Simplex.eta) ->
        let t = w.(e.er) in
        if t <> 0. then begin
          w.(e.er) <- 0.;
          Array.iteri (fun p i -> w.(i) <- w.(i) +. (e.ev.(p) *. t)) e.ei
        end)
      (List.rev !etas)
  in
  let pivoted = Array.make m false in
  let new_basic = Array.make m (-1) in
  let w = Array.make m 0. in
  let ok = ref true in
  let k = ref 0 in
  while !ok && !k < m do
    let j = order.(!k) in
    Array.fill w 0 m 0.;
    Array.iteri (fun p i -> w.(i) <- cols.(j).Simplex.v.(p)) cols.(j).Simplex.idx;
    ftran w;
    let r = ref (-1) and best = ref 0. in
    for i = 0 to m - 1 do
      if (not pivoted.(i)) && abs_float w.(i) > !best then begin
        best := abs_float w.(i);
        r := i
      end
    done;
    if !best <= 1e-10 then ok := false
    else begin
      let r = !r in
      let entries = ref [] in
      for i = m - 1 downto 0 do
        if i = r then entries := (r, 1. /. w.(r)) :: !entries
        else if w.(i) <> 0. then entries := (i, -.w.(i) /. w.(r)) :: !entries
      done;
      let ei = Array.of_list (List.map fst !entries) in
      let ev = Array.of_list (List.map snd !entries) in
      etas := { Simplex.er = r; ei; ev } :: !etas;
      pivoted.(r) <- true;
      new_basic.(r) <- j;
      incr k
    end
  done;
  if !ok then Some { Simplex.f_basic = new_basic; f_etas = Array.of_list (List.rev !etas) }
  else None

(* Random sparse bases over small integer and half-integer coefficients:
   equal magnitudes make pivot ties, explicit zeros sit in the patterns,
   and a basic column made a copy, a negation or a sum of others makes
   the basis singular through exact cancellation. *)
let random_basis seed =
  let rng = Rng.create ~seed in
  let m = 1 + Rng.int rng 12 in
  let n = m + Rng.int rng 6 in
  let values = [| 1.; -1.; 2.; -2.; 0.5; -0.5; 0.; 3. |] in
  let column () =
    let rows = List.filter (fun _ -> Rng.int rng 3 = 0) (List.init m Fun.id) in
    let rows = if rows = [] && Rng.int rng 4 > 0 then [ Rng.int rng m ] else rows in
    let idx = Array.of_list rows in
    { Simplex.idx; v = Array.map (fun _ -> values.(Rng.int rng (Array.length values))) idx }
  in
  let cols = Array.init n (fun _ -> column ()) in
  (* the basic set: m distinct columns, the first m after a shuffle *)
  let perm = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let s = Rng.int rng (i + 1) in
    let x = perm.(i) in
    perm.(i) <- perm.(s);
    perm.(s) <- x
  done;
  let basic = Array.sub perm 0 m in
  (if m >= 3 then
     let a = cols.(basic.(0)) and b = cols.(basic.(1)) in
     let dense c =
       let d = Array.make m 0. in
       Array.iteri (fun p i -> d.(i) <- c.Simplex.v.(p)) c.Simplex.idx;
       d
     in
     let da = dense a and db = dense b in
     let combine f =
       let d = Array.init m (fun i -> f da.(i) db.(i)) in
       let rows = List.filter (fun i -> d.(i) <> 0.) (List.init m Fun.id) in
       let idx = Array.of_list rows in
       { Simplex.idx; v = Array.map (fun i -> d.(i)) idx }
     in
     match Rng.int rng 5 with
     | 0 -> cols.(basic.(2)) <- combine (fun x _ -> x)
     | 1 -> cols.(basic.(2)) <- combine (fun x _ -> -.x)
     | 2 -> cols.(basic.(2)) <- combine (fun x y -> x +. y)
     | _ -> ());
  ({ Simplex.m; n; cols; b = Array.make m 0. }, basic)

let same_factor (a : Simplex.factor option) (b : Simplex.factor option) =
  let bits x = Int64.bits_of_float x in
  match (a, b) with
  | None, None -> true
  | Some a, Some b ->
    a.f_basic = b.f_basic
    && Array.length a.f_etas = Array.length b.f_etas
    && Array.for_all2
         (fun (x : Simplex.eta) (y : Simplex.eta) ->
           x.er = y.er && x.ei = y.ei
           && Array.length x.ev = Array.length y.ev
           && Array.for_all2 (fun u v -> bits u = bits v) x.ev y.ev)
         a.f_etas b.f_etas
  | _ -> false

let factorize_prop =
  QCheck.Test.make ~name:"hypersparse factorize = dense reference, bit for bit" ~count:1000
    QCheck.int (fun seed ->
      let p, basic = random_basis (abs seed) in
      same_factor (Simplex.factorize p basic) (dense_factor p basic))

(* the generator reaches both outcomes, and ties among the pivots *)
let test_factorize_cases () =
  let singular = ref 0 and regular = ref 0 in
  for seed = 0 to 399 do
    let p, basic = random_basis seed in
    match Simplex.factorize p basic with
    | None -> incr singular
    | Some _ -> incr regular
  done;
  check Alcotest.bool "singular bases generated" true (!singular >= 40);
  check Alcotest.bool "regular bases generated" true (!regular >= 40);
  (* two equal pivot candidates: the smallest row wins *)
  let p =
    {
      Simplex.m = 2;
      n = 2;
      cols =
        [| { Simplex.idx = [| 0; 1 |]; v = [| 2.; -2. |] }; { idx = [| 0; 1 |]; v = [| 1.; 3. |] } |];
      b = [| 0.; 0. |];
    }
  in
  match Simplex.factorize p [| 1; 0 |] with
  | None -> Alcotest.fail "regular basis reported singular"
  | Some f ->
    check Alcotest.(array int) "tie to the smallest row" [| 0; 1 |] f.f_basic;
    check Alcotest.bool "same as dense" true (same_factor (Some f) (dense_factor p [| 1; 0 |]))

(* A seeded corpus of random sparse LPs for pinning the LP kernel bit for
   bit: <=, >= and = rows, boxed and unbounded-above columns, explicit zero
   and negative-zero coefficients, and duplicate terms that cancel.  Each
   model is solved three times: cold, warm after fixing one fractional
   variable, and warm after appending one cut row.  A record per solve
   holds the result class, the objective's bits, the primal and dual
   pivot counts, [warm], [fell_back] and a digest of the values' bits. *)
let corpus_size = 200

let corpus_coefs = [| 1.; -1.; 2.; -2.; 0.5; -0.5; 3.; 0.; -0.; 1.5 |]

let corpus_model seed =
  let rng = Rng.create ~seed in
  let n = 4 + Rng.int rng 20 in
  let m = 3 + Rng.int rng 16 in
  let lp = Lp.create () in
  let witness = Array.make n 0. in
  let vars =
    Array.init n (fun j ->
        (* integral costs on half the models make ratio-test ties *)
        let obj =
          if seed mod 2 = 0 then float_of_int (Rng.int rng 5 - 2) else Rng.float rng 4. -. 2.
        in
        if Rng.int rng 4 = 0 then begin
          witness.(j) <- Rng.float rng 3.;
          Lp.add_var ~obj:(abs_float obj) lp
        end
        else begin
          let upper = float_of_int (1 + Rng.int rng 4) in
          witness.(j) <- Rng.float rng upper;
          Lp.add_var ~upper ~obj lp
        end)
  in
  for _ = 1 to m do
    let terms = ref [] in
    Array.iter
      (fun v ->
        if Rng.int rng 3 = 0 then begin
          let a = corpus_coefs.(Rng.int rng (Array.length corpus_coefs)) in
          terms := (a, v) :: !terms;
          (* a duplicate pair that cancels exactly *)
          if Rng.int rng 8 = 0 then terms := (-.a, v) :: (a, v) :: !terms
        end)
      vars;
    if !terms = [] then terms := [ (1., vars.(Rng.int rng n)) ];
    let lhs = List.fold_left (fun acc (a, v) -> acc +. (a *. witness.(v))) 0. !terms in
    match Rng.int rng 3 with
    | 0 -> Lp.add_row lp !terms Lp.Le (lhs +. Rng.float rng 2.)
    | 1 -> Lp.add_row lp !terms Lp.Ge (lhs -. Rng.float rng 2.)
    | _ -> Lp.add_row lp !terms Lp.Eq lhs
  done;
  (lp, vars, rng)

let corpus_record tag (result, _, (info : Lp.info)) =
  let cls, obj, values =
    match result with
    | Lp.Optimal { objective; values } -> ("opt", objective, values)
    | Lp.Feasible { objective; values } -> ("feas", objective, values)
    | Lp.Infeasible -> ("inf", 0., [||])
    | Lp.Unbounded -> ("unb", 0., [||])
    | Lp.Iter_limit -> ("iter", 0., [||])
    | Lp.Numerical _ -> ("num", 0., [||])
  in
  let bits = Buffer.create 64 in
  Array.iter (fun x -> Buffer.add_string bits (Int64.to_string (Int64.bits_of_float x))) values;
  Printf.sprintf "%s %s %Ld %d %d %b %b %s" tag cls (Int64.bits_of_float obj) info.primal_pivots
    info.dual_pivots info.warm info.fell_back
    (Digest.to_hex (Digest.string (Buffer.contents bits)))

let corpus_records seed =
  let lp, vars, rng = corpus_model seed in
  let ((result, basis, _) as cold) = Lp.solve_b lp in
  let cold_rec = corpus_record "cold" cold in
  match result with
  | Lp.Optimal { values; _ } ->
    let frac =
      Array.fold_left
        (fun acc v ->
          if acc < 0 && abs_float (values.(v) -. Float.round values.(v)) > 1e-6 then v else acc)
        (-1) vars
    in
    let v = if frac >= 0 then frac else vars.(0) in
    let x = if Rng.bool rng then floor values.(v) else ceil values.(v) in
    let fixed = corpus_record "fix" (Lp.solve_b ~fix:[ (v, x) ] ?warm:basis lp) in
    (* a cut through the optimum; an appended equality row cannot extend
       the basis, so one cut in six makes the warm solve fall back *)
    let support = Array.to_list (Array.map (fun v -> (1., v)) vars) in
    let total = List.fold_left (fun acc (_, v) -> acc +. values.(v)) 0. support in
    Lp.add_row lp support (if Rng.int rng 6 = 0 then Lp.Eq else Lp.Le) (total -. 0.5);
    let cut = corpus_record "cut" (Lp.solve_b ?warm:basis lp) in
    [ cold_rec; fixed; cut ]
  | _ -> [ cold_rec ]

let corpus () = List.concat_map corpus_records (List.init corpus_size Fun.id)

(* Recorded at the commit before row-wise pricing, the flat eta file and
   single-copy results: any changed pivot, objective bit or value bit
   shows up here. *)
let test_corpus_pinned () =
  let recs = corpus () in
  let total f = List.fold_left (fun acc r -> acc + f (String.split_on_char ' ' r)) 0 recs in
  let field k l = int_of_string (List.nth l k) in
  let flag k l = if List.nth l k = "true" then 1 else 0 in
  check Alcotest.int "records" 600 (List.length recs);
  check Alcotest.int "primal pivots" 5656 (total (field 3));
  check Alcotest.int "dual pivots" 425 (total (field 4));
  check Alcotest.int "warm solves" 316 (total (flag 5));
  check Alcotest.int "fallbacks" 36 (total (flag 6));
  check Alcotest.string "digest" "7fcbda88b3cc5fd45ea440bcf2ff62e5"
    (Digest.to_hex (Digest.string (String.concat "\n" recs)))

(* The column-wise dot product the simplex priced with before row-wise
   pricing: each column's entries in row order. *)
let row_dot (c : Simplex.col) v =
  let acc = ref 0. in
  Array.iteri (fun p i -> acc := !acc +. (v.(i) *. c.Simplex.v.(p))) c.Simplex.idx;
  !acc

(* Random sparse columns and vectors over values that make exact
   cancellations, with explicit zeros and negative zeros in both. *)
let price_prop =
  QCheck.Test.make ~name:"row-wise pricing = row_dot, bit for bit" ~count:1000 QCheck.int
    (fun seed ->
      let rng = Rng.create ~seed:(abs seed) in
      let m = 1 + Rng.int rng 10 in
      let n = 1 + Rng.int rng 12 in
      let values = [| 1.; -1.; 2.; -2.; 0.5; 0.; -0.; 3.; 1e-300; -1e-300 |] in
      let pick () = values.(Rng.int rng (Array.length values)) in
      let cols =
        Array.init n (fun _ ->
            let idx = Array.of_list (List.filter (fun _ -> Rng.int rng 2 = 0) (List.init m Fun.id)) in
            { Simplex.idx; v = Array.map (fun _ -> pick ()) idx })
      in
      let v = Array.init m (fun _ -> if Rng.int rng 3 = 0 then 0. else pick ()) in
      let priced = Simplex.price_all (Simplex.model { Simplex.m; n; cols; b = Array.make m 0. }) v in
      let bits = Int64.bits_of_float in
      Array.length priced = n
      && Array.for_all2 (fun c a -> bits a = bits (row_dot c v)) cols priced)

(* Every malformed input raises [Invalid_argument], on a second solve of
   the same problem too: structure is checked once per model, bounds on
   every solve. *)
let test_solve_validation () =
  let good = { Simplex.idx = [| 0; 1 |]; v = [| 1.; 1. |] } in
  let problem cols = { Simplex.m = 2; n = Array.length cols; cols; b = [| 1.; 1. |] } in
  let raises what f =
    for _ = 1 to 2 do
      match f () with
      | _ -> Alcotest.failf "%s: no exception" what
      | exception Invalid_argument _ -> ()
    done
  in
  let solve ?(lower = [| 0.; 0. |]) ?(upper = [| 1.; 1. |]) ?(c = [| 1.; 1. |]) md =
    Simplex.solve md ~lower ~upper ~c
  in
  raises "ragged column" (fun () ->
      Simplex.model (problem [| good; { Simplex.idx = [| 0; 1 |]; v = [| 1. |] } |]));
  raises "row index out of range" (fun () ->
      Simplex.model (problem [| good; { Simplex.idx = [| 0; 2 |]; v = [| 1.; 1. |] } |]));
  raises "row index negative" (fun () ->
      Simplex.model (problem [| good; { Simplex.idx = [| -1 |]; v = [| 1. |] } |]));
  raises "column count" (fun () -> Simplex.model { (problem [| good; good |]) with n = 3 });
  let md = Simplex.model (problem [| good; { Simplex.idx = [| 1 |]; v = [| 1. |] } |]) in
  raises "infinite lower bound" (fun () -> solve ~lower:[| neg_infinity; 0. |] md);
  raises "crossed bounds" (fun () -> solve ~lower:[| 0.; 2. |] md);
  raises "dimension mismatch" (fun () -> solve ~c:[| 1. |] md);
  raises "bounds length" (fun () -> solve ~upper:[| 1.; 1.; 1. |] md);
  (* the same model still solves *)
  match solve md with
  | Simplex.Optimal { objective; _ }, _, _ -> check feps "objective" 1. objective
  | _ -> Alcotest.fail "well-formed model did not solve"

let () =
  let qt = QCheck_alcotest.to_alcotest in
  (* exact-value assertions require the fault-free pipeline *)
  Mf_util.Chaos.neutralise ();
  Alcotest.run "mf_lp"
    [
      ( "simplex",
        [
          Alcotest.test_case "basic max" `Quick test_basic_max;
          Alcotest.test_case "equality and >=" `Quick test_equality_and_ge;
          Alcotest.test_case "infeasible bound" `Quick test_infeasible;
          Alcotest.test_case "infeasible rows" `Quick test_infeasible_rows;
          Alcotest.test_case "unbounded" `Quick test_unbounded;
          Alcotest.test_case "upper bounds" `Quick test_variable_bounds;
          Alcotest.test_case "lower bounds" `Quick test_lower_bounds;
          Alcotest.test_case "per-solve fixing" `Quick test_fixing;
          Alcotest.test_case "degenerate" `Quick test_degenerate;
          Alcotest.test_case "duplicate terms" `Quick test_duplicate_terms;
          Alcotest.test_case "set_obj" `Quick test_set_obj;
          Alcotest.test_case "bad inputs" `Quick test_bad_inputs;
          Alcotest.test_case "factorize cases" `Quick test_factorize_cases;
          Alcotest.test_case "solve validation" `Quick test_solve_validation;
          Alcotest.test_case "LP corpus pinned" `Quick test_corpus_pinned;
          qt random_lp_prop;
          qt warm_cold_prop;
          qt factorize_prop;
          qt price_prop;
        ] );
    ]
