type var = int

type relation = Le | Ge | Eq

type row = { terms : (float * var) list; rel : relation; rhs : float }

(* The builder compiled to the simplex computational form: structural
   columns 0..nv-1 followed by one logical (slack/surplus) column per
   inequality row, in row order.  Rows and variables are append-only, so a
   later compilation of the same builder extends this one column layout —
   the property the warm-basis extension below relies on. *)
type compiled = {
  k_nv : int; (* structural variables *)
  k_m : int; (* rows *)
  k_n : int; (* columns: nv + logicals *)
  k_rels : relation array; (* per row, for basis extension *)
  k_terms : (float * var) list array; (* per row, merged: what [row] serves *)
  k_rhs : float array;
  k_model : Simplex.model; (* reports the [k_nv] structural values *)
  k_lower : float array; (* base bounds; copied before per-solve fixing *)
  k_upper : float array;
  k_c : float array;
}

type t = {
  mutable lower : float list; (* reversed *)
  mutable upper : float list;
  mutable obj : float list;
  mutable nv : int;
  mutable rows : row list; (* reversed *)
  mutable nr : int;
  mutable compiled : compiled option; (* invalidated by every mutation *)
}

type result =
  | Optimal of { objective : float; values : float array }
  | Feasible of { objective : float; values : float array }
  | Iter_limit
  | Infeasible
  | Unbounded
  | Numerical of string

type basis = { b_nv : int; b_sx : Simplex.basis }

type info = Simplex.info = {
  primal_pivots : int;
  dual_pivots : int;
  warm : bool;
  fell_back : bool;
}

let create () =
  { lower = []; upper = []; obj = []; nv = 0; rows = []; nr = 0; compiled = None }

let add_var ?(lower = 0.) ?(upper = infinity) ?(obj = 0.) t =
  let id = t.nv in
  t.lower <- lower :: t.lower;
  t.upper <- upper :: t.upper;
  t.obj <- obj :: t.obj;
  t.nv <- t.nv + 1;
  t.compiled <- None;
  id

let n_vars t = t.nv

let set_obj t v coeff =
  if v < 0 || v >= t.nv then invalid_arg "Lp.set_obj: bad variable";
  t.obj <- List.mapi (fun i c -> if i = t.nv - 1 - v then coeff else c) t.obj;
  t.compiled <- None

let add_row t terms rel rhs =
  List.iter
    (fun (_, v) -> if v < 0 || v >= t.nv then invalid_arg "Lp.add_row: bad variable")
    terms;
  t.rows <- { terms; rel; rhs } :: t.rows;
  t.nr <- t.nr + 1;
  t.compiled <- None

let n_rows t = t.nr

(* Merge duplicate variables of a term list, sorted by variable — the
   normalisation [compile] applies, shared by the presolve pass. *)
let merge_terms terms =
  let sorted = List.stable_sort (fun (_, a) (_, b) -> compare (a : int) b) terms in
  let out = ref [] in
  List.iter
    (fun (coef, v) ->
      match !out with
      | (c0, v0) :: rest when v0 = v -> out := (c0 +. coef, v0) :: rest
      | _ -> out := (coef, v) :: !out)
    sorted;
  List.rev !out

let compile t =
  match t.compiled with
  | Some k -> k
  | None ->
    let nv = t.nv in
    let rows = Array.of_list (List.rev t.rows) in
    let m = Array.length rows in
    let n_logical = Array.fold_left (fun k r -> if r.rel = Eq then k else k + 1) 0 rows in
    let n = nv + n_logical in
    let lower = Array.make n 0. in
    let upper = Array.make n infinity in
    let c = Array.make n 0. in
    List.iteri (fun i v -> lower.(nv - 1 - i) <- v) t.lower;
    List.iteri (fun i v -> upper.(nv - 1 - i) <- v) t.upper;
    List.iteri (fun i v -> c.(nv - 1 - i) <- v) t.obj;
    (* per-row term lists with duplicate variables merged, sorted by
       variable — the stable sort keeps the summation order deterministic *)
    let merged = Array.map (fun r -> merge_terms r.terms) rows in
    (* gather structural columns row-major so indices come out ascending *)
    let counts = Array.make nv 0 in
    Array.iter (List.iter (fun (_, v) -> counts.(v) <- counts.(v) + 1)) merged;
    let cols = Array.make n { Simplex.idx = [||]; v = [||] } in
    for j = 0 to nv - 1 do
      cols.(j) <- { Simplex.idx = Array.make counts.(j) 0; v = Array.make counts.(j) 0. }
    done;
    let fill = Array.make nv 0 in
    Array.iteri
      (fun i terms ->
        List.iter
          (fun (coef, v) ->
            let p = fill.(v) in
            cols.(v).Simplex.idx.(p) <- i;
            cols.(v).Simplex.v.(p) <- coef;
            fill.(v) <- p + 1)
          terms)
      merged;
    let b = Array.make m 0. in
    let rels = Array.make m Eq in
    let q = ref nv in
    Array.iteri
      (fun i r ->
        b.(i) <- r.rhs;
        rels.(i) <- r.rel;
        match r.rel with
        | Eq -> ()
        | Le ->
          cols.(!q) <- { Simplex.idx = [| i |]; v = [| 1. |] };
          incr q
        | Ge ->
          cols.(!q) <- { Simplex.idx = [| i |]; v = [| -1. |] };
          incr q)
      rows;
    let k =
      {
        k_nv = nv;
        k_m = m;
        k_n = n;
        k_rels = rels;
        k_terms = merged;
        k_rhs = b;
        k_model = Simplex.model ~n_values:nv { Simplex.m; n; cols; b };
        k_lower = lower;
        k_upper = upper;
        k_c = c;
      }
    in
    t.compiled <- Some k;
    k

(* Served from the compiled model, so a pass over every row costs one
   compilation, not a list walk and a merge per row. *)
let row t i =
  if i < 0 || i >= t.nr then invalid_arg "Lp.row: bad index";
  let k = compile t in
  (k.k_terms.(i), k.k_rels.(i), k.k_rhs.(i))

(* Lift a basis captured on an earlier compilation of this builder onto the
   current one.  Rows are append-only and logicals follow row order, so the
   old columns are a prefix of the new layout; each appended inequality row
   extends the basis block-triangularly with its own logical basic (its dual
   value is 0, leaving every old reduced cost unchanged — the parent basis
   stays dual-feasible).  Returns [None] when the basis cannot be lifted:
   different structural count, rows removed, an appended equality row (no
   logical to make basic), or a stale layout. *)
let extend_basis (wb : basis) (k : compiled) : Simplex.basis option =
  let m_old = Array.length wb.b_sx.Simplex.basic in
  let n_old = Array.length wb.b_sx.Simplex.vstat in
  if wb.b_nv <> k.k_nv || m_old > k.k_m then None
  else begin
    let prefix_logicals = ref 0 in
    for i = 0 to m_old - 1 do
      if k.k_rels.(i) <> Eq then incr prefix_logicals
    done;
    if n_old <> k.k_nv + !prefix_logicals then None
    else begin
      let appended_eq = ref false in
      for i = m_old to k.k_m - 1 do
        if k.k_rels.(i) = Eq then appended_eq := true
      done;
      if !appended_eq then None
      else if m_old = k.k_m then Some wb.b_sx
      else begin
        let vstat = Array.make k.k_n Simplex.Basic in
        Array.blit wb.b_sx.Simplex.vstat 0 vstat 0 n_old;
        let basic = Array.make k.k_m 0 in
        Array.blit wb.b_sx.Simplex.basic 0 basic 0 m_old;
        let next_logical = ref n_old in
        for i = m_old to k.k_m - 1 do
          basic.(i) <- !next_logical;
          incr next_logical
        done;
        Some { Simplex.basic; vstat }
      end
    end
  end

let no_info = { primal_pivots = 0; dual_pivots = 0; warm = false; fell_back = false }

(* Per-domain bound arrays for {!solve_b}, checked out for the length of
   one solve (threads sharing a domain never share them; a solve that finds
   the slot empty allocates its own). *)
type bounds = { mutable lo : float array; mutable hi : float array }

let bounds_slot : bounds option Atomic.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Atomic.make None)

let solve_b ?max_iters ?budget ?(fix = []) ?warm t =
  let k = compile t in
  List.iter
    (fun (v, _) -> if v < 0 || v >= k.k_nv then invalid_arg "Lp.solve_b: bad fixed variable")
    fix;
  let slot = Domain.DLS.get bounds_slot in
  let bd =
    match Atomic.exchange slot None with
    | Some bd -> bd
    | None -> { lo = [||]; hi = [||] }
  in
  if Array.length bd.lo <> k.k_n then begin
    bd.lo <- Array.make k.k_n 0.;
    bd.hi <- Array.make k.k_n 0.
  end;
  let lower = bd.lo and upper = bd.hi in
  Array.blit k.k_lower 0 lower 0 k.k_n;
  Array.blit k.k_upper 0 upper 0 k.k_n;
  (* the first fixing of a variable wins: apply the list back to front *)
  let rec apply = function
    | [] -> ()
    | (v, x) :: rest ->
      apply rest;
      lower.(v) <- x;
      upper.(v) <- x
  in
  apply fix;
  let sx_warm = Option.bind warm (fun wb -> extend_basis wb k) in
  let solved =
    match Simplex.solve ?max_iters ?budget ?warm:sx_warm k.k_model ~lower ~upper ~c:k.k_c with
    | r -> Ok r
    | exception e -> Error e
  in
  Atomic.set slot (Some bd);
  match solved with
  | Error (Failure msg) -> (Numerical msg, None, { no_info with fell_back = warm <> None })
  | Error e -> raise e
  | Ok (sx_result, sx_basis, sx_info) ->
    let result =
      match sx_result with
      | Simplex.Infeasible -> Infeasible
      | Simplex.Unbounded -> Unbounded
      | Simplex.Iter_limit -> Iter_limit
      | Simplex.Optimal { objective; values } -> Optimal { objective; values }
      | Simplex.Feasible { objective; values } -> Feasible { objective; values }
    in
    let basis = Option.map (fun sb -> { b_nv = k.k_nv; b_sx = sb }) sx_basis in
    (* a warm basis refused at the extension stage never reached the
       simplex; report it as a fallback all the same *)
    let info =
      if warm <> None && sx_warm = None then { sx_info with fell_back = true }
      else sx_info
    in
    (result, basis, info)

let solve ?max_iters ?budget ?fix t =
  let result, _, _ = solve_b ?max_iters ?budget ?fix t in
  result

(* ------------------------------------------------------------------ *)
(* Presolve: bound tightening and coefficient reduction on the builder.

   Every deduction is globally valid — implied by the existing rows and
   bounds — so it survives any later per-solve [?fix] (branch-and-bound
   fixings land inside the tightened box or make the subproblem
   infeasible, which the simplex reports).  Rows are modified in place and
   never deleted: the append-only row layout that {!extend_basis} relies
   on is preserved. *)

type presolve_stats = {
  ps_rounds : int;
  ps_fixed : int;
  ps_tightened : int;
  ps_coeffs : int;
  ps_infeasible : bool;
}

let presolve ?(integer = fun _ -> false) t =
  let nv = t.nv in
  let lower = Array.make (max 1 nv) 0. and upper = Array.make (max 1 nv) 0. in
  List.iteri (fun i v -> lower.(nv - 1 - i) <- v) t.lower;
  List.iteri (fun i v -> upper.(nv - 1 - i) <- v) t.upper;
  let width0 = Array.init nv (fun v -> upper.(v) -. lower.(v)) in
  let rows = Array.of_list (List.rev t.rows) in
  let m = Array.length rows in
  let terms = Array.map (fun r -> Array.of_list (merge_terms r.terms)) rows in
  let rhs = Array.map (fun r -> r.rhs) rows in
  let eps = 1e-7 in
  let tightened = ref 0 and coeffs = ref 0 in
  let infeasible = ref false in
  let changed = ref false in
  (* integral bounds round to the nearest contained integer *)
  let round_int v =
    if integer v then begin
      let l = ceil (lower.(v) -. 1e-6) and u = floor (upper.(v) +. 1e-6) in
      if l > lower.(v) +. eps then begin
        lower.(v) <- l;
        incr tightened;
        changed := true
      end;
      if u < upper.(v) -. eps then begin
        upper.(v) <- u;
        incr tightened;
        changed := true
      end;
      if lower.(v) > upper.(v) +. eps then infeasible := true
    end
  in
  for v = 0 to nv - 1 do
    round_int v
  done;
  (* one <=-form row: activity-bound tightening.  The minimum activity is
     evaluated once per row; bounds improved mid-row only increase it, so
     the stale value stays a valid underestimate and the next round picks
     up the slack. *)
  let tighten_le a b =
    let minact = ref 0. and n_inf = ref 0 in
    Array.iter
      (fun (c, v) ->
        let contrib = if c > 0. then c *. lower.(v) else c *. upper.(v) in
        if Float.is_finite contrib then minact := !minact +. contrib else incr n_inf)
      a;
    if !n_inf = 0 && !minact > b +. eps then infeasible := true
    else
      Array.iter
        (fun (c, v) ->
          if c <> 0. then begin
            let contrib = if c > 0. then c *. lower.(v) else c *. upper.(v) in
            let contrib_finite = Float.is_finite contrib in
            (* the rest of the row needs a finite minimum activity *)
            if !n_inf = 0 || ((not contrib_finite) && !n_inf = 1) then begin
              let rest = if contrib_finite then !minact -. contrib else !minact in
              let nb = (b -. rest) /. c in
              if c > 0. then begin
                let nb = if integer v then floor (nb +. 1e-6) else nb in
                if nb < upper.(v) -. eps then begin
                  upper.(v) <- nb;
                  incr tightened;
                  changed := true;
                  if nb < lower.(v) -. eps then infeasible := true
                end
              end
              else begin
                let nb = if integer v then ceil (nb -. 1e-6) else nb in
                if nb > lower.(v) +. eps then begin
                  lower.(v) <- nb;
                  incr tightened;
                  changed := true;
                  if nb > upper.(v) +. eps then infeasible := true
                end
              end
            end
          end)
        a
  in
  (* Coefficient reduction (<=-form, binary variable j, finite maximum
     activity M): if M - a_j < b < M then a_j' = M - b, b' = M - a_j keeps
     the same 0-1 solution set with a tighter relaxation; the mirrored rule
     for a_j < 0 shrinks it to b - M at unchanged rhs. *)
  let reduce_le a b_ref =
    let maxact = ref 0. and finite = ref true in
    Array.iter
      (fun (c, v) ->
        let contrib = if c > 0. then c *. upper.(v) else c *. lower.(v) in
        if Float.is_finite contrib then maxact := !maxact +. contrib else finite := false)
      a;
    if !finite then
      Array.iteri
        (fun j (c, v) ->
          if integer v && lower.(v) = 0. && upper.(v) = 1. then
            if c > eps then begin
              if !maxact -. c < !b_ref -. eps && !b_ref < !maxact -. eps then begin
                let c' = !maxact -. !b_ref in
                let b' = !maxact -. c in
                a.(j) <- (c', v);
                b_ref := b';
                maxact := b' +. c';
                incr coeffs;
                changed := true
              end
            end
            else if c < -.eps then begin
              (* maximum activity is unchanged: this term contributes 0 at
                 its lower bound under both the old and the new coefficient *)
              if !b_ref > !maxact +. c +. eps && !b_ref < !maxact -. eps then begin
                a.(j) <- (!b_ref -. !maxact, v);
                incr coeffs;
                changed := true
              end
            end)
        a
  in
  let negated a = Array.map (fun (c, v) -> (-.c, v)) a in
  let rounds = ref 0 in
  let continue_ = ref true in
  while !continue_ && !rounds < 10 && not !infeasible do
    changed := false;
    incr rounds;
    for i = 0 to m - 1 do
      if not !infeasible then begin
        (match rows.(i).rel with
         | Le -> tighten_le terms.(i) rhs.(i)
         | Ge -> tighten_le (negated terms.(i)) (-.rhs.(i))
         | Eq ->
           tighten_le terms.(i) rhs.(i);
           tighten_le (negated terms.(i)) (-.rhs.(i)));
        (match rows.(i).rel with
         | Le ->
           let b = ref rhs.(i) in
           reduce_le terms.(i) b;
           rhs.(i) <- !b
         | Ge ->
           let a = negated terms.(i) in
           let b = ref (-.rhs.(i)) in
           reduce_le a b;
           terms.(i) <- negated a;
           rhs.(i) <- -. !b
         | Eq -> ())
      end
    done;
    if not !changed then continue_ := false
  done;
  let fixed = ref 0 in
  if not !infeasible then begin
    for v = 0 to nv - 1 do
      if width0.(v) > eps && upper.(v) -. lower.(v) <= eps then incr fixed
    done;
    if !tightened > 0 || !coeffs > 0 then begin
      t.lower <- List.rev (Array.to_list (Array.sub lower 0 nv));
      t.upper <- List.rev (Array.to_list (Array.sub upper 0 nv));
      t.rows <-
        List.rev
          (Array.to_list
             (Array.mapi
                (fun i r -> { r with terms = Array.to_list terms.(i); rhs = rhs.(i) })
                rows));
      t.compiled <- None
    end
  end;
  {
    ps_rounds = !rounds;
    ps_fixed = !fixed;
    ps_tightened = !tightened;
    ps_coeffs = !coeffs;
    ps_infeasible = !infeasible;
  }
