module Csc = Sparselin.Csc
module Lu = Sparselin.Lu
module Eta = Sparselin.Eta

let log_src = Logs.Src.create "lp.simplex" ~doc:"Revised simplex"

module Log = (val Logs.src_log log_src : Logs.LOG)

(* Pivot budget across every phase of a solve, the one terminal bound. *)
let max_iterations = 200_000

(* Reduced-cost optimality tolerance. *)
let dual_tolerance = 1e-7

(* Bound and row violation tolerance. *)
let feasibility_tolerance = 1e-7

(* Smallest acceptable pivot magnitude. *)
let pivot_tolerance = 1e-8

(* Eta updates between refactorizations. *)
let refactor_frequency = 32

(* Consecutive degenerate pivots before a fresh cost-perturbation round
   (primal) or giving up (dual). *)
let degenerate_switch = 300

type vstat = Basic | At_lower | At_upper | At_zero_free

type state = {
  sf : Standard_form.t;
  m : int;  (* rows *)
  tot : int;  (* structural + slack columns *)
  nall : int;  (* tot + m artificials *)
  art_sign : float array;
  lb : float array;  (* nall; artificial bounds mutated at phase switch *)
  ub : float array;
  cost : float array;  (* current (possibly perturbed) phase cost *)
  cost_orig : float array;  (* the phase cost without perturbation *)
  devex : float array;  (* reference-framework pricing weights *)
  d : float array;  (* reduced costs, maintained incrementally *)
  status : vstat array;
  basis : int array;  (* m: variable basic at each row position *)
  x : float array;  (* nall *)
  (* Per-pivot vectors, allocated once per solve: the FTRAN'd entering
     column (m), row r of the basis inverse (m) and the pivot row over
     every column (nall), each zero outside its nonzero pattern. The
     patterns of alpha and rho list every nonzero once, in ascending
     order; each vector is cleared through its pattern before reuse. *)
  alpha : float array;
  alpha_pat : int array;
  mutable alpha_nnz : int;
  rho : float array;
  rho_pat : int array;
  mutable rho_nnz : int;
  beta : float array;
  (* The pivot row's pattern: [pattern.(0 .. row_nnz - 1)] lists every
     column whose entry of [beta] may be nonzero, each once, the
     structurals reached by [rho] first ([row_nstruct] of them, in the
     order first reached), then the artificials of the nonzero [rho_i].
     [stamp] (tot) marks the structurals listed under [mark], which
     [pivot_row] advances, so it is never cleared; the solves stamp rows
     in it the same way. *)
  pattern : int array;
  mutable row_nnz : int;
  mutable row_nstruct : int;
  stamp : int array;
  mutable mark : int;
  (* Every row, listed for the dense right-hand sides. *)
  all_rows : int array;
  (* The rows whose basic value may violate a bound: every violating row
     is listed in [infeas.(0 .. n_infeas - 1)] (with [listed] set) from
     [recompute_basics] on; dual pricing drops the rows it finds
     feasible, and a dual pivot re-checks the rows whose value moved. *)
  infeas : int array;
  listed : bool array;
  mutable n_infeas : int;
  mutable lu : Lu.t;
  (* Eta file in application (oldest-first) order: FTRAN walks it forward,
     BTRAN backward. A growable array keeps the hot loops allocation-free
     (a list would need reversing on every FTRAN). *)
  mutable etas : Eta.t array;
  mutable n_etas : int;
  mutable iterations : int;
  mutable degenerate_run : int;
  mutable perturbed : bool;
  mutable perturb_rounds : int;
  (* Solve-effort telemetry (never reset between phases; see
     Status.stats). *)
  mutable phase1_pivots : int;
  mutable dual_pivots : int;
  mutable refactorizations : int;
  mutable eta_peak : int;
  mutable bound_flips : int;
  mutable total_perturbations : int;
  mutable path : Status.solve_path;
  rng : Prelude.Rng.t;
      (* Seeded per solve: randomized entering choices during stalls are
         deterministic across runs. *)
}

(* Column of the working matrix [A | artificials]. *)
let iter_column st j f =
  if j < st.tot then Csc.iter_col st.sf.Standard_form.a j f
  else f (j - st.tot) st.art_sign.(j - st.tot)

(* Dot product of column [j] with a dense vector, avoiding closure
   dispatch. *)
let dot_column st j v =
  if j < st.tot then Csc.dot_col st.sf.Standard_form.a j v
  else st.art_sign.(j - st.tot) *. v.(j - st.tot)

(* A fresh mark with [pattern.(0 .. nz - 1)] stamped under it. *)
let stamp_pattern st pattern nz =
  st.mark <- st.mark + 1;
  for k = 0 to nz - 1 do
    Array.unsafe_set st.stamp (Array.unsafe_get pattern k) st.mark
  done;
  st.mark

(* Profiling probes on the solver kernels fire per call, so they use the
   raw begin/end pair (one atomic load each when [--spans] is off) rather
   than [Span.with_]'s closure. Nothing in these bodies raises.

   [ftran st v pattern nz] is [v] := B^-1 v and [btran] [v] := B^-T v,
   for a [v] zero outside [pattern.(0 .. nz - 1)]; both return the
   result's pattern count. A dense right-hand side lists every row and
   takes the LU's dense sweep. *)
let ftran st v pattern nz =
  let sp = Obs.Span.begin_ "lp.ftran" in
  let nz = Lu.ftran st.lu v pattern nz in
  let nz =
    if st.n_etas = 0 then nz
    else begin
      let mark = stamp_pattern st pattern nz in
      let nz = ref nz in
      for k = 0 to st.n_etas - 1 do
        nz :=
          Eta.apply_ftran (Array.unsafe_get st.etas k) v ~stamp:st.stamp
            ~mark pattern !nz
      done;
      !nz
    end
  in
  Obs.Span.end_ sp;
  nz

let btran st v pattern nz =
  let sp = Obs.Span.begin_ "lp.btran" in
  let nz =
    if st.n_etas = 0 then nz
    else begin
      let mark = stamp_pattern st pattern nz in
      let nz = ref nz in
      for k = st.n_etas - 1 downto 0 do
        nz :=
          Eta.apply_btran (Array.unsafe_get st.etas k) v ~stamp:st.stamp
            ~mark pattern !nz
      done;
      !nz
    end
  in
  let nz = Lu.btran st.lu v pattern nz in
  Obs.Span.end_ sp;
  nz

(* Put [pattern.(0 .. nz - 1)] in ascending order, the order a scan of
   every index visits it. A pattern too long to insertion-sort cheaply is
   rebuilt by that scan over [v] instead, which drops entries that
   cancelled to zero. Returns the count. *)
let sort_pattern v pattern nz =
  let m = Array.length v in
  if nz * nz > 4 * m then begin
    let k = ref 0 in
    for i = 0 to m - 1 do
      if v.(i) <> 0. then begin
        pattern.(!k) <- i;
        incr k
      end
    done;
    !k
  end
  else begin
    for a = 1 to nz - 1 do
      let x = pattern.(a) in
      let b = ref (a - 1) in
      while !b >= 0 && pattern.(!b) > x do
        pattern.(!b + 1) <- pattern.(!b);
        decr b
      done;
      pattern.(!b + 1) <- x
    done;
    nz
  end

(* The entering column through the basis inverse: [st.alpha] := B^-1 A_j,
   with its pattern ascending. *)
let ftran_column st j =
  let alpha = st.alpha and pat = st.alpha_pat in
  for k = 0 to st.alpha_nnz - 1 do
    alpha.(pat.(k)) <- 0.
  done;
  let nz =
    if j < st.tot then Csc.scatter_col st.sf.Standard_form.a j alpha pat
    else begin
      alpha.(j - st.tot) <- st.art_sign.(j - st.tot);
      pat.(0) <- j - st.tot;
      1
    end
  in
  st.alpha_nnz <- sort_pattern alpha pat (ftran st alpha pat nz)

(* Row [r] of the basis inverse: [st.rho] := B^-T e_r, with its pattern
   ascending. *)
let btran_unit st r =
  let rho = st.rho and pat = st.rho_pat in
  for k = 0 to st.rho_nnz - 1 do
    rho.(pat.(k)) <- 0.
  done;
  rho.(r) <- 1.;
  pat.(0) <- r;
  st.rho_nnz <- sort_pattern rho pat (btran st rho pat 1)

(* The pivot row [st.beta.(j)] := rho . A_j for every column j of
   [A | artificials], from [st.rho], with its pattern. The previous row
   is cleared through its pattern. The row-wise copy of A scatters each
   nonzero rho_i, walking rho's pattern in ascending row order. For
   every column these are the
   nonzero terms of [dot_column], added in the same order: the terms
   skipped are products with an exact zero, so each entry is
   bit-identical to the per-column dot product. A column outside the
   pattern reads 0, which is what its dot product sums to. *)
let pivot_row st =
  let rho = st.rho and beta = st.beta and pattern = st.pattern in
  for k = 0 to st.row_nnz - 1 do
    Array.unsafe_set beta (Array.unsafe_get pattern k) 0.
  done;
  st.mark <- st.mark + 1;
  let n_struct =
    Csc.matvec_add_sparse st.sf.Standard_form.rows rho st.rho_pat st.rho_nnz
      beta ~stamp:st.stamp ~mark:st.mark pattern
  in
  let n = ref n_struct in
  for k = 0 to st.rho_nnz - 1 do
    let i = st.rho_pat.(k) in
    let r = rho.(i) in
    if r <> 0. then begin
      let j = st.tot + i in
      beta.(j) <- st.art_sign.(i) *. r;
      pattern.(!n) <- j;
      incr n
    end
  done;
  st.row_nstruct <- n_struct;
  st.row_nnz <- !n

let push_eta st e =
  let cap = Array.length st.etas in
  if st.n_etas = cap then begin
    let grown = Array.make (max 16 (2 * cap)) e in
    Array.blit st.etas 0 grown 0 st.n_etas;
    st.etas <- grown
  end;
  st.etas.(st.n_etas) <- e;
  st.n_etas <- st.n_etas + 1;
  if st.n_etas > st.eta_peak then st.eta_peak <- st.n_etas

exception Numerical_failure

let factorize st =
  let sp = Obs.Span.begin_ "lp.refactorize" in
  (* Entries stream straight into the factorization's scratch vectors; no
     per-column intermediate. *)
  match
    Lu.factorize_iter ~dim:st.m (fun k f -> iter_column st st.basis.(k) f)
  with
  | Ok lu ->
      st.lu <- lu;
      st.n_etas <- 0;
      st.refactorizations <- st.refactorizations + 1;
      Obs.Span.end_ sp
  | Error (Lu.Singular _) ->
      Obs.Span.end_ sp;
      raise Numerical_failure

let all_rows st =
  let p = st.all_rows in
  for i = 0 to st.m - 1 do
    p.(i) <- i
  done;
  p

(* How far row [i]'s basic value lies outside its bounds beyond the
   feasibility tolerance; 0. inside. *)
let[@inline] infeasibility st i =
  let bv = st.basis.(i) in
  let xv = st.x.(bv) in
  if xv < st.lb.(bv) -. feasibility_tolerance then st.lb.(bv) -. xv
  else if xv > st.ub.(bv) +. feasibility_tolerance then xv -. st.ub.(bv)
  else 0.

(* List row [i] if its basic value violates a bound. *)
let note_infeasible st i =
  if (not st.listed.(i)) && infeasibility st i > 0. then begin
    st.listed.(i) <- true;
    st.infeas.(st.n_infeas) <- i;
    st.n_infeas <- st.n_infeas + 1
  end

(* Recompute the values of basic variables from the nonbasic assignment:
   x_B = B^-1 (b - A_N x_N), and list the rows that violate a bound. *)
let recompute_basics st =
  let rhs = Array.copy st.sf.Standard_form.b in
  for j = 0 to st.nall - 1 do
    (match st.status.(j) with
     | Basic -> ()
     | At_lower | At_upper | At_zero_free ->
         let xj = st.x.(j) in
         if xj <> 0. then iter_column st j (fun i v -> rhs.(i) <- rhs.(i) -. (v *. xj)))
  done;
  ignore (ftran st rhs (all_rows st) st.m);
  for i = 0 to st.m - 1 do
    st.x.(st.basis.(i)) <- rhs.(i)
  done;
  Array.fill st.listed 0 st.m false;
  st.n_infeas <- 0;
  for i = 0 to st.m - 1 do
    note_infeasible st i
  done

let basic_cost_multipliers st =
  let y = Array.make st.m 0. in
  for i = 0 to st.m - 1 do
    y.(i) <- st.cost.(st.basis.(i))
  done;
  ignore (btran st y (all_rows st) st.m);
  y

let reduced_cost st y j = st.cost.(j) -. dot_column st j y

(* Rebuild every reduced cost from the multipliers; called at phase starts,
   after cost perturbation/restoration, and periodically to wash out the
   drift of incremental updates. *)
let refresh_reduced_costs st =
  let y = basic_cost_multipliers st in
  for j = 0 to st.nall - 1 do
    st.d.(j) <- (if st.status.(j) = Basic then 0. else reduced_cost st y j)
  done

(* Entering-variable eligibility given its reduced cost. *)
let eligible st j d =
  match st.status.(j) with
  | Basic -> false
  | At_lower -> st.lb.(j) < st.ub.(j) && d < -.dual_tolerance
  | At_upper -> st.lb.(j) < st.ub.(j) && d > dual_tolerance
  | At_zero_free -> abs_float d > dual_tolerance

type pricing_result = Entering of int * float | Optimal_reached

(* Pricing is a scan of the maintained reduced costs by Devex score
   (reduced cost squared over reference weight). *)
let price_scan st =
  (* During long degenerate runs, randomize among near-best candidates:
     deterministic tie-breaking is what lets stalls persist. *)
  let randomize = st.degenerate_run > degenerate_switch / 2 in
  let best = ref (-1) and best_score = ref 0. and best_d = ref 0. in
  let seen = ref 0 in
  for j = 0 to st.nall - 1 do
    if st.status.(j) <> Basic then begin
      let d = st.d.(j) in
      if eligible st j d then begin
        let score = d *. d /. st.devex.(j) in
        let take =
          if score > !best_score then true
          else if randomize && score > 0.2 *. !best_score then begin
            (* Reservoir-style: replace with decreasing probability. *)
            incr seen;
            Prelude.Rng.int st.rng (!seen + 2) = 0
          end
          else false
        in
        if take then begin
          best := j;
          best_score := max !best_score score;
          best_d := d
        end
      end
    end
  done;
  if !best < 0 then Optimal_reached else Entering (!best, !best_d)

let price st =
  let sp = Obs.Span.begin_ "lp.pricing" in
  let r = price_scan st in
  Obs.Span.end_ sp;
  r

(* Combined post-pivot update of Devex weights and reduced costs. The
   entering column q pivots at row r with tableau element alpha_r; for
   every nonbasic j, the pivot-row entry beta_j = (B^-T e_r) . A_j drives
   both the reference-weight update and the reduced-cost update
   d_j -= (d_q / alpha_r) beta_j. Each column's update is independent of
   the others, so walking the pattern in any order does exactly what a
   scan of every column does. Runs before the basis arrays change. *)
let pivot_update st ~enter ~r ~alpha_r =
  let gamma_q = st.devex.(enter) in
  let d_q = st.d.(enter) in
  btran_unit st r;
  pivot_row st;
  let step = d_q /. alpha_r in
  let too_big = ref false in
  for k = 0 to st.row_nnz - 1 do
    let j = st.pattern.(k) in
    if st.status.(j) <> Basic && j <> enter then begin
      let beta = st.beta.(j) in
      if beta <> 0. then begin
        st.d.(j) <- st.d.(j) -. (step *. beta);
        let ratio = beta /. alpha_r in
        let candidate = ratio *. ratio *. gamma_q in
        if candidate > st.devex.(j) then st.devex.(j) <- candidate;
        if st.devex.(j) > 1e8 then too_big := true
      end
    end
  done;
  (* The leaving variable becomes nonbasic. *)
  let leaving = st.basis.(r) in
  st.d.(leaving) <- -.step;
  st.d.(enter) <- 0.;
  let leaving_weight = max (gamma_q /. (alpha_r *. alpha_r)) 1. in
  st.devex.(leaving) <- leaving_weight;
  if leaving_weight > 1e8 then too_big := true;
  if !too_big then Array.fill st.devex 0 st.nall 1.

(* Deterministic tiny cost perturbation: breaks massive dual degeneracy
   that would otherwise stall the iteration. The true costs are restored
   (and optimality re-verified) before a phase can conclude. *)
let perturb_costs st =
  st.perturbed <- true;
  st.perturb_rounds <- st.perturb_rounds + 1;
  st.total_perturbations <- st.total_perturbations + 1;
  let noise j =
    (* Map the index through a Weyl sequence for a stable pseudo-random
       fraction in (0.5, 1.5); the round number shifts the sequence so each
       escalation explores a different trajectory. *)
    let golden = 0.6180339887498949 in
    let silver = 0.4142135623730951 in
    let f =
      Float.rem
        ((float_of_int (j + 1) *. golden)
         +. (float_of_int st.perturb_rounds *. silver))
        1.
    in
    0.5 +. f
  in
  for j = 0 to st.nall - 1 do
    if st.lb.(j) < st.ub.(j) then begin
      (* Well above the dual tolerance so that the perturbation actually
         changes pricing decisions; scaled down on successive rounds'
         survivors by the noise factor only. *)
      let scale = 1e-5 *. (1. +. abs_float st.cost_orig.(j)) in
      st.cost.(j) <- st.cost_orig.(j) +. (scale *. noise j)
    end
  done;
  refresh_reduced_costs st

let restore_costs st =
  st.perturbed <- false;
  Array.blit st.cost_orig 0 st.cost 0 st.nall;
  refresh_reduced_costs st

type ratio_result =
  | Hit_basic of int * float  (* leaving basis position, step length *)
  | Bound_flip of float
  | Ratio_unbounded

(* Exact limit that basic row [i] puts on a step in direction [dir];
   infinity when none. Inlined, so its float result is never boxed. *)
let[@inline] row_limit st ~alpha ~dir ~slack i =
  let delta = dir *. alpha.(i) in
  let bvar = st.basis.(i) in
  if delta > pivot_tolerance then begin
    let l = st.lb.(bvar) in
    if l > neg_infinity then (st.x.(bvar) -. l +. slack) /. delta
    else infinity
  end
  else if delta < -.pivot_tolerance then begin
    let u = st.ub.(bvar) in
    if u < infinity then (u -. st.x.(bvar) +. slack) /. (-.delta)
    else infinity
  end
  else infinity

(* Two-pass ratio test over the FTRAN'd entering column [st.alpha]. [dir]
   is +1. when the entering variable increases, -1. when it decreases.
   Both passes walk alpha's ascending pattern: a row outside it has no
   limit, so they pick what a scan of every row picks. *)
let ratio_scan st ~dir ~enter =
  let alpha = st.alpha and pat = st.alpha_pat in
  let t_bound =
    if st.lb.(enter) > neg_infinity && st.ub.(enter) < infinity then
      st.ub.(enter) -. st.lb.(enter)
    else infinity
  in
  (* Pass 1: relaxed maximum step. *)
  let t_max = ref t_bound in
  for k = 0 to st.alpha_nnz - 1 do
    let i = pat.(k) in
    let l = row_limit st ~alpha ~dir ~slack:feasibility_tolerance i in
    if l < !t_max then t_max := l
  done;
  if !t_max = infinity then Ratio_unbounded
  else begin
    (* Pass 2: among rows whose exact limit is within the relaxed step,
       prefer the largest pivot magnitude (numerical stability). *)
    let choice = ref (-1) and choice_limit = ref infinity and choice_abs = ref 0. in
    for k = 0 to st.alpha_nnz - 1 do
      let i = pat.(k) in
      let l = row_limit st ~alpha ~dir ~slack:0. i in
      if l <= !t_max then begin
        let a = abs_float alpha.(i) in
        if !choice < 0 || a > !choice_abs then begin
          choice := i;
          choice_limit := l;
          choice_abs := a
        end
      end
    done;
    if !choice < 0 then
      (* Every row limit exceeded the relaxed bound: the entering variable
         flips to its opposite bound. *)
      if t_bound < infinity then Bound_flip t_bound else Ratio_unbounded
    else begin
      let t = max 0. !choice_limit in
      if t_bound <= t then Bound_flip t_bound else Hit_basic (!choice, t)
    end
  end

let ratio_test st ~dir ~enter =
  let sp = Obs.Span.begin_ "lp.ratio_test" in
  let r = ratio_scan st ~dir ~enter in
  Obs.Span.end_ sp;
  r

(* Apply a step of length [t] (in the entering direction [dir]); updates
   every basic value alpha reaches and the entering variable's value. *)
let apply_step st ~dir ~enter ~t =
  if t <> 0. then begin
    for k = 0 to st.alpha_nnz - 1 do
      let i = st.alpha_pat.(k) in
      let delta = dir *. st.alpha.(i) in
      if delta <> 0. then begin
        let bvar = st.basis.(i) in
        st.x.(bvar) <- st.x.(bvar) -. (delta *. t)
      end
    done;
    st.x.(enter) <- st.x.(enter) +. (dir *. t)
  end

(* Response to long degenerate (or micro-step) runs: a fresh round of
   cost perturbation, each round on a different trajectory; the pivot
   budget is the one terminal bound. Steps below the feasibility
   tolerance make no meaningful progress and count as degenerate. *)
let note_degeneracy st t =
  if t <= feasibility_tolerance then begin
    st.degenerate_run <- st.degenerate_run + 1;
    if st.degenerate_run > degenerate_switch then begin
      st.degenerate_run <- 0;
      Log.debug (fun m ->
          m "stall at iteration %d: perturbing costs (round %d)"
            st.iterations (st.perturb_rounds + 1));
      perturb_costs st;
      (* A fresh reference framework keeps Devex meaningful on the new
         cost vector. *)
      Array.fill st.devex 0 st.nall 1.
    end
  end
  else st.degenerate_run <- 0

type phase_result = Phase_optimal | Phase_unbounded | Phase_iteration_limit

let run_phase st =
  let result = ref Phase_optimal in
  refresh_reduced_costs st;
  (try
     while true do
       if st.iterations >= max_iterations then begin
         result := Phase_iteration_limit;
         raise Exit
       end;
       if st.iterations mod 5000 = 4999 then
         Log.debug (fun m ->
             let obj = ref 0. in
             for j = 0 to st.nall - 1 do
               obj := !obj +. (st.cost_orig.(j) *. st.x.(j))
             done;
             m "iteration %d: objective %.6f%s" st.iterations !obj
               (if st.perturbed then " (perturbed)" else ""));
       match price st with
       | Optimal_reached ->
           if st.perturbed then begin
             (* Optimal for the perturbed costs: restore the real ones and
                keep iterating (few cleanup pivots, if any). *)
             restore_costs st;
             st.degenerate_run <- 0
           end
           else raise Exit
       | Entering (enter, d) ->
           st.iterations <- st.iterations + 1;
           ftran_column st enter;
           let alpha = st.alpha in
           let dir =
             match st.status.(enter) with
             | At_lower -> 1.
             | At_upper -> -1.
             | At_zero_free -> if d < 0. then 1. else -1.
             | Basic -> assert false
           in
           (match ratio_test st ~dir ~enter with
            | Ratio_unbounded ->
                if st.perturbed then begin
                  restore_costs st;
                  st.degenerate_run <- 0
                end
                else begin
                  result := Phase_unbounded;
                  raise Exit
                end
            | Bound_flip t ->
                apply_step st ~dir ~enter ~t;
                st.bound_flips <- st.bound_flips + 1;
                (match st.status.(enter) with
                 | At_lower ->
                     st.status.(enter) <- At_upper;
                     st.x.(enter) <- st.ub.(enter)
                 | At_upper ->
                     st.status.(enter) <- At_lower;
                     st.x.(enter) <- st.lb.(enter)
                 | At_zero_free | Basic -> assert false);
                note_degeneracy st t
            | Hit_basic (r, t) ->
                apply_step st ~dir ~enter ~t;
                pivot_update st ~enter ~r ~alpha_r:alpha.(r);
                let leaving = st.basis.(r) in
                let delta_r = dir *. alpha.(r) in
                if delta_r > 0. then begin
                  st.status.(leaving) <- At_lower;
                  st.x.(leaving) <- st.lb.(leaving)
                end
                else begin
                  st.status.(leaving) <- At_upper;
                  st.x.(leaving) <- st.ub.(leaving)
                end;
                st.basis.(r) <- enter;
                st.status.(enter) <- Basic;
                (match Eta.of_pattern ~pos:r ~alpha st.alpha_pat st.alpha_nnz with
                 | eta -> push_eta st eta
                 | exception Invalid_argument _ ->
                     (* Pivot too small for a stable eta update: rebuild the
                        factorization from the new basis instead. *)
                     factorize st;
                     recompute_basics st;
                     refresh_reduced_costs st);
                if st.n_etas >= refactor_frequency then begin
                  factorize st;
                  recompute_basics st;
                  (* Wash out incremental drift in the reduced costs. *)
                  refresh_reduced_costs st
                end;
                note_degeneracy st t)
     done
   with Exit -> ());
  !result

(* The starting state. Structurals are parked at a finite bound, or at
   zero when free. With [slack] the basis is the identity of the logical
   columns, and the artificials sit nonbasic at zero; otherwise it is the
   artificial diagonal, signed so that every artificial starts
   non-negative. Either way the initial factorization is of a diagonal. *)
let initialize ~slack sf =
  let m = sf.Standard_form.n_rows in
  let n = sf.Standard_form.n_struct in
  let tot = Standard_form.total_vars sf in
  let nall = tot + m in
  let lb = Array.make nall 0. and ub = Array.make nall 0. in
  Array.blit sf.Standard_form.lb 0 lb 0 tot;
  Array.blit sf.Standard_form.ub 0 ub 0 tot;
  let status = Array.make nall At_lower in
  let x = Array.make nall 0. in
  for j = 0 to tot - 1 do
    if lb.(j) > neg_infinity then begin
      status.(j) <- At_lower;
      x.(j) <- lb.(j)
    end
    else if ub.(j) < infinity then begin
      status.(j) <- At_upper;
      x.(j) <- ub.(j)
    end
    else begin
      status.(j) <- At_zero_free;
      x.(j) <- 0.
    end
  done;
  let art_sign = Array.make m 1. in
  let basis = Array.init m (fun i -> if slack then n + i else tot + i) in
  for i = 0 to m - 1 do
    let art = tot + i in
    lb.(art) <- 0.;
    ub.(art) <- infinity;
    if slack then status.(n + i) <- Basic else status.(art) <- Basic
  done;
  if not slack then begin
    (* Residuals determine the artificial signs so that artificial values
       start non-negative. *)
    let resid = Array.copy sf.Standard_form.b in
    for j = 0 to tot - 1 do
      let xj = x.(j) in
      if xj <> 0. then
        Csc.iter_col sf.Standard_form.a j (fun i v ->
            resid.(i) <- resid.(i) -. (v *. xj))
    done;
    for i = 0 to m - 1 do
      if resid.(i) < 0. then art_sign.(i) <- -1.;
      x.(tot + i) <- abs_float resid.(i)
    done
  end;
  let lu0 = Lu.diagonal (if slack then Array.make m 1. else art_sign) in
  { sf; m; tot; nall; art_sign; lb; ub;
    cost = Array.make nall 0.;
    cost_orig = Array.make nall 0.;
    devex = Array.make nall 1.;
    d = Array.make nall 0.;
    status; basis; x;
    alpha = Array.make m 0.;
    alpha_pat = Array.make m 0;
    alpha_nnz = 0;
    rho = Array.make m 0.;
    rho_pat = Array.make m 0;
    rho_nnz = 0;
    beta = Array.make nall 0.;
    pattern = Array.make nall 0;
    row_nnz = 0;
    row_nstruct = 0;
    stamp = Array.make tot 0;
    mark = 0;
    all_rows = Array.make m 0;
    infeas = Array.make m 0;
    listed = Array.make m false;
    n_infeas = 0;
    lu = lu0;
    etas = [||];
    n_etas = 0;
    iterations = 0;
    degenerate_run = 0;
    perturbed = false;
    perturb_rounds = 0;
    phase1_pivots = 0;
    dual_pivots = 0;
    refactorizations = 0;
    eta_peak = 0;
    bound_flips = 0;
    total_perturbations = 0;
    path = (if slack then Status.Dual else Status.Two_phase);
    rng = Prelude.Rng.of_int (0x5ca1ab1e + m + tot) }

let phase1_needed st =
  let needs = ref false in
  for i = 0 to st.m - 1 do
    if st.x.(st.tot + i) > feasibility_tolerance then needs := true
  done;
  !needs

let reset_phase_controls st =
  Array.fill st.devex 0 st.nall 1.;
  st.degenerate_run <- 0;
  st.perturbed <- false;
  st.perturb_rounds <- 0

let setup_phase1 st =
  Array.fill st.cost 0 st.nall 0.;
  for i = 0 to st.m - 1 do
    st.cost.(st.tot + i) <- 1.
  done;
  Array.blit st.cost 0 st.cost_orig 0 st.nall;
  reset_phase_controls st

let phase1_infeasibility st =
  let acc = ref 0. in
  for i = 0 to st.m - 1 do
    let a = st.tot + i in
    acc := !acc +. (match st.status.(a) with
                    | Basic -> max 0. st.x.(a)
                    | At_lower | At_upper | At_zero_free -> st.x.(a))
  done;
  !acc

let setup_phase2 st =
  Array.fill st.cost 0 st.nall 0.;
  Array.blit st.sf.Standard_form.cost 0 st.cost 0 st.tot;
  Array.blit st.cost 0 st.cost_orig 0 st.nall;
  (* Artificials are frozen at zero from now on. *)
  for i = 0 to st.m - 1 do
    let a = st.tot + i in
    st.lb.(a) <- 0.;
    st.ub.(a) <- 0.;
    if st.status.(a) <> Basic then begin
      st.status.(a) <- At_lower;
      st.x.(a) <- 0.
    end
  done;
  reset_phase_controls st

let solve_stats st =
  { Status.phase1_pivots = st.phase1_pivots;
    phase2_pivots = st.iterations - st.phase1_pivots - st.dual_pivots;
    dual_pivots = st.dual_pivots;
    refactorizations = st.refactorizations;
    eta_peak = st.eta_peak;
    bound_flips = st.bound_flips;
    perturbations = st.total_perturbations;
    path = st.path }

let extract_solution st =
  let sf = st.sf in
  let n = sf.Standard_form.n_struct in
  let primal = Array.sub st.x 0 n in
  let y = basic_cost_multipliers st in
  let flip v = if sf.Standard_form.flip_objective then -.v else v in
  let dual = Array.map flip y in
  let reduced = Array.init n (fun j -> flip (reduced_cost st y j)) in
  let obj_sf = ref 0. in
  for j = 0 to st.tot - 1 do
    obj_sf := !obj_sf +. (sf.Standard_form.cost.(j) *. st.x.(j))
  done;
  { Status.objective = Standard_form.model_objective sf !obj_sf;
    primal; dual; reduced_costs = reduced;
    iterations = st.iterations;
    stats = solve_stats st }

(* ------------------------------------------------------------------ *)
(* Dual-first solve from the slack basis.

   Every row of the standard form has a logical column with coefficient
   1, so the all-logical basis is B = I. Its cost multipliers are zero
   and every reduced cost is the column's own cost. The structurals stay
   parked where [initialize] put them: at a finite bound, or at zero when
   free. Postcard's costs are non-negative over finite lower bounds, so
   that start is already dual feasible. The dual simplex then restores
   primal feasibility with no phase 1: each pivot picks the most
   infeasible basic variable to leave (dual Devex row weights), and a
   bounded-variable two-pass ratio test over the pivot row picks the
   entering column that keeps the reduced-cost signs intact. When no
   column can enter, the leaving row is a Farkas candidate, checked
   independently by [certifies_infeasibility].

   A nonbasic column whose reduced cost has the wrong sign, at the start
   or after drift, is flipped to its other bound when that bound is
   finite; otherwise its entry of [st.cost] is shifted by -d_j so that
   d_j = 0 (cost shifting, as in A. Koberstein, "The dual simplex method,
   techniques for a fast and stable implementation", 2005). [cost_orig]
   keeps the true costs; they come back before the closing primal
   phase 2, which pivots out whatever a shift hid.

   The machinery is shared with the primal: the LU/eta file,
   [apply_step], the reduced-cost update (the same rank-one formula as
   [pivot_update], against the stored pivot row instead of a second
   BTRAN), and the refactorization schedule. Cost perturbation is *not*
   used, as it would destroy the dual feasibility the method lives on,
   so persistent dual degeneracy trips a stall counter. Anything the dual
   path cannot finish is solved again by the two-phase primal. *)

(* The flip-or-shift rule over every nonbasic column. Returns true when a
   column flipped, so the caller recomputes the basic values. *)
let restore_dual_feasibility st =
  let dtol = dual_tolerance in
  let flipped = ref false and shifted = ref 0 in
  let shift j =
    st.cost.(j) <- st.cost.(j) -. st.d.(j);
    st.d.(j) <- 0.;
    incr shifted
  in
  for j = 0 to st.nall - 1 do
    if st.lb.(j) < st.ub.(j) then
      match st.status.(j) with
      | At_lower when st.d.(j) < -.dtol ->
          if st.ub.(j) < infinity then begin
            st.status.(j) <- At_upper;
            st.x.(j) <- st.ub.(j);
            flipped := true
          end
          else shift j
      | At_upper when st.d.(j) > dtol ->
          if st.lb.(j) > neg_infinity then begin
            st.status.(j) <- At_lower;
            st.x.(j) <- st.lb.(j);
            flipped := true
          end
          else shift j
      | At_zero_free when abs_float st.d.(j) > dtol -> shift j
      | At_lower | At_upper | At_zero_free | Basic -> ()
  done;
  if !shifted > 0 then
    Log.debug (fun m -> m "dual simplex: shifted %d cost(s)" !shifted);
  !flipped

(* Install the slack basis over a state [initialize ~slack:true] built:
   phase-2 costs (artificials frozen at [0,0], so none can enter), basic
   values, reduced costs, and the flip-or-shift rule. *)
let install_slack_basis st =
  setup_phase2 st;
  recompute_basics st;
  refresh_reduced_costs st;
  if restore_dual_feasibility st then recompute_basics st

type dual_result =
  | Dual_optimal  (** Primal feasibility restored; polish and extract. *)
  | Dual_blocked_row
      (** Pass 1 of the ratio test found no entering column: [st.rho]
          holds row r of the basis inverse, a Farkas candidate. *)
  | Dual_gave_up of string
      (** Pass 2 came up empty twice without a pivot between, a stall,
          or the iteration limit; the string names which, for the debug
          log. *)

(* One dual pivot: column [enter] replaces the basic variable of row [r],
   which leaves at its violated bound (the upper one when [above]).
   [st.beta] holds the pivot row; [dw] are the dual Devex row weights.
   Returns the dual step d_enter / alpha_r. *)
let dual_pivot st dw ~r ~enter ~above =
  st.iterations <- st.iterations + 1;
  st.dual_pivots <- st.dual_pivots + 1;
  let leaving = st.basis.(r) in
  (* Entering column through the basis inverse: needed for the eta
     update, the primal step and the row-weight update. *)
  ftran_column st enter;
  let alpha = st.alpha and pat = st.alpha_pat in
  let alpha_r = alpha.(r) in
  if abs_float alpha_r <= pivot_tolerance then raise Numerical_failure;
  (* Reduced costs: the same rank-one update as a primal pivot, against
     the stored pivot row. The frozen artificials are skipped here as in
     the ratio test; the closing phase 2 rebuilds their reduced costs. *)
  let step = st.d.(enter) /. alpha_r in
  for k = 0 to st.row_nstruct - 1 do
    let j = st.pattern.(k) in
    if st.status.(j) <> Basic && j <> enter then begin
      let b = st.beta.(j) in
      if b <> 0. then st.d.(j) <- st.d.(j) -. (step *. b)
    end
  done;
  st.d.(leaving) <- -.step;
  st.d.(enter) <- 0.;
  (* Primal step: the leaving variable travels exactly to its violated
     bound; every other basic value follows. *)
  let bound = if above then st.ub.(leaving) else st.lb.(leaving) in
  let t = (st.x.(leaving) -. bound) /. alpha_r in
  apply_step st ~dir:1. ~enter ~t;
  st.status.(leaving) <- (if above then At_upper else At_lower);
  st.x.(leaving) <- bound;
  st.basis.(r) <- enter;
  st.status.(enter) <- Basic;
  (* Dual Devex row weights, reference-framework style. *)
  let wr = dw.(r) in
  let too_big = ref false in
  for k = 0 to st.alpha_nnz - 1 do
    let i = pat.(k) in
    if i <> r && alpha.(i) <> 0. then begin
      let q = alpha.(i) /. alpha_r in
      let cand = q *. q *. wr in
      if cand > dw.(i) then dw.(i) <- cand;
      if dw.(i) > 1e8 then too_big := true
    end
  done;
  dw.(r) <- max (wr /. (alpha_r *. alpha_r)) 1.;
  if dw.(r) > 1e8 then too_big := true;
  if !too_big then Array.fill dw 0 st.m 1.;
  (* Only the rows alpha reaches moved, row r among them. *)
  for k = 0 to st.alpha_nnz - 1 do
    note_infeasible st pat.(k)
  done;
  (match Eta.of_pattern ~pos:r ~alpha pat st.alpha_nnz with
   | eta -> push_eta st eta
   | exception Invalid_argument _ ->
       factorize st;
       recompute_basics st;
       refresh_reduced_costs st);
  if st.n_etas >= refactor_frequency then begin
    factorize st;
    recompute_basics st;
    refresh_reduced_costs st
  end;
  step

(* Pass 2's choice over the pivot row's pattern, which lists columns in
   the order they were first reached: column [j] with pivot magnitude
   [aa] displaces the current choice [best] (magnitude [best_abs]) when
   it is larger, or as large and of a smaller index. In any order that
   ends on the column an ascending scan keeping the first strict
   maximum ends on. *)
let[@inline] pass2_prefers ~aa ~j ~best_abs ~best =
  aa > best_abs || (aa = best_abs && j < best)

(* Dual pricing's choice over the listed rows, which come in no
   particular order: row [i] with score [score] displaces the current
   choice [best] (score [best_score]) when its score is larger, or as
   large and of a smaller row. The pick is that of a scan of every row
   keeping the first strict maximum. *)
let[@inline] pricing_prefers ~score ~i ~best_score ~best =
  score > best_score || (score = best_score && i < best)

(* Dual Devex pricing: the listed row with the largest weight-scaled
   bound violation leaves; -1 when none violates a bound. Rows found
   feasible are dropped from the list. *)
let price_rows st dw =
  let r = ref (-1) and best_score = ref 0. and kept = ref 0 in
  for k = 0 to st.n_infeas - 1 do
    let i = st.infeas.(k) in
    let infeas = infeasibility st i in
    if infeas > 0. then begin
      st.infeas.(!kept) <- i;
      incr kept;
      let score = infeas *. infeas /. dw.(i) in
      if pricing_prefers ~score ~i ~best_score:!best_score ~best:!r then begin
        best_score := score;
        r := i
      end
    end
    else st.listed.(i) <- false
  done;
  st.n_infeas <- !kept;
  !r

(* The dual iteration over a state [install_slack_basis] prepared. Raises
   [Numerical_failure] like the primal loop; the caller falls back. *)
let run_dual st =
  let piv_tol = pivot_tolerance in
  let dtol = dual_tolerance in
  let dw = Array.make st.m 1. in
  let beta = st.beta in
  let stall = ref 0 in
  (* Pass 2 came up empty since the last pivot, and drift was repaired. *)
  let repaired = ref false in
  let result = ref Dual_optimal in
  (try
     while true do
       if st.iterations >= max_iterations then begin
         result := Dual_gave_up "iteration limit";
         raise Exit
       end;
       (* Dual Devex pricing: the basic variable with the largest
          weight-scaled bound violation leaves. *)
       let price_sp = Obs.Span.begin_ "lp.pricing" in
       let r = price_rows st dw in
       Obs.Span.end_ price_sp;
       if r < 0 then begin
         result := Dual_optimal;
         raise Exit
       end;
       let leaving = st.basis.(r) in
       let above = st.x.(leaving) > st.ub.(leaving) in
       (* Sign convention: with s = +1 when the leaving value sits above
          its upper bound and -1 below its lower one, the signed pivot-row
          entry a_j = s * beta_j admits exactly the columns whose entry
          lets the leaving variable travel back toward its bound without
          breaking any reduced-cost sign. *)
       let s = if above then 1. else -1. in
       (* Pivot row r of the tableau: rho = B^-T e_r, beta_j = rho . A_j —
          the same quantity the primal [pivot_update] computes, kept in
          [beta] because both the ratio test and the reduced-cost update
          need it. Only the columns the ratio test considers keep their
          entry; the rest read zero. *)
       btran_unit st r;
       (* Pass 1 (Harris-style): relaxed bound on the dual step, letting
          each reduced cost overshoot by the dual tolerance. Both passes
          walk the structural part of the pattern, since a column outside
          it has a zero entry and never qualifies; they skip the
          artificials, frozen at [0,0] on this path. Pass 1 takes a
          minimum, the same in any order. *)
       let ratio_sp = Obs.Span.begin_ "lp.ratio_test" in
       pivot_row st;
       let pattern = st.pattern and n_struct = st.row_nstruct in
       let theta_max = ref infinity in
       for k = 0 to n_struct - 1 do
         let j = pattern.(k) in
         if st.status.(j) <> Basic && st.lb.(j) < st.ub.(j) then begin
           let b = beta.(j) in
           let a = s *. b in
           match st.status.(j) with
           | At_lower ->
               if a > piv_tol then begin
                 let t = (st.d.(j) +. dtol) /. a in
                 if t < !theta_max then theta_max := t
               end
           | At_upper ->
               if a < -.piv_tol then begin
                 let t = (st.d.(j) -. dtol) /. a in
                 if t < !theta_max then theta_max := t
               end
           | At_zero_free ->
               if abs_float a > piv_tol then begin
                 let t = (abs_float st.d.(j) +. dtol) /. abs_float a in
                 if t < !theta_max then theta_max := t
               end
           | Basic -> ()
         end
         else beta.(j) <- 0.
       done;
       if !theta_max = infinity then begin
         Obs.Span.end_ ratio_sp;
         result := Dual_blocked_row;
         raise Exit
       end;
       (* Pass 2: among columns whose exact ratio fits under the relaxed
          step, the largest pivot magnitude wins (numerical stability),
          ties to the smallest index. *)
       let enter = ref (-1) and enter_abs = ref 0. in
       for k = 0 to n_struct - 1 do
         let j = pattern.(k) in
         if st.status.(j) <> Basic && st.lb.(j) < st.ub.(j) then begin
           let a = s *. beta.(j) in
           let ratio =
             match st.status.(j) with
             | At_lower ->
                 if a > piv_tol then max 0. (st.d.(j) /. a) else infinity
             | At_upper ->
                 if a < -.piv_tol then max 0. (st.d.(j) /. a) else infinity
             | At_zero_free ->
                 if abs_float a > piv_tol then
                   abs_float st.d.(j) /. abs_float a
                 else infinity
             | Basic -> infinity
           in
           if ratio <= !theta_max then begin
             let aa = abs_float a in
             if pass2_prefers ~aa ~j ~best_abs:!enter_abs ~best:!enter
             then begin
               enter_abs := aa;
               enter := j
             end
           end
         end
       done;
       Obs.Span.end_ ratio_sp;
       if !enter >= 0 then begin
         repaired := false;
         (* A tiny dual step is a degenerate pivot; without perturbation
            to lean on, a long run of them means giving up. *)
         let step = dual_pivot st dw ~r ~enter:!enter ~above in
         if abs_float step <= dtol then begin
           incr stall;
           if !stall > degenerate_switch then begin
             result := Dual_gave_up "persistent dual degeneracy";
             raise Exit
           end
         end
         else stall := 0
       end
       else if !repaired then begin
         result := Dual_gave_up "pass 2 found no entering column twice";
         raise Exit
       end
       else begin
         (* Only a reduced cost drifted past the dual tolerance can make
            pass 2 come up empty after pass 1 bounded the step. Rebuild
            the reduced costs, re-apply the flip-or-shift rule and price
            again; a second empty pass before the next pivot gives up. *)
         Log.debug (fun m ->
             m "dual simplex: pass 2 found no entering column; repairing drift");
         repaired := true;
         refresh_reduced_costs st;
         if restore_dual_feasibility st then recompute_basics st
       end
     done
   with Exit -> ());
  !result

(* Independent check of a Farkas candidate [rho] (one multiplier per
   row). Every x with A x = b satisfies rho . b = (A^T rho) . x, so if
   rho . b lies outside the range (A^T rho) . x takes over the bound box,
   no x does: the program is infeasible. A^T rho, b and the bounds are
   read from the standard form, never from the solver's mutated copies,
   so a drifted basis can cost a two-phase re-solve but not a wrong
   verdict. Artificial columns are absent: a feasible point has none. The
   tolerance matches phase 1's 1e-6 verdict, since a gap g forces
   ||A x - b||_1 >= g / max|rho_i| at every x in the box; its second
   term absorbs the rounding of the sums.

   The argument holds for any rho, so the check first zeroes every
   multiplier within 1e-12 max|rho_i| of zero. Those are BTRAN roundoff
   in the row of B^-1: on an infinite bound, the single product of one
   such multiplier with a coefficient would make the range infinite and
   reject an otherwise sound row. *)
let certifies_infeasibility (sf : Standard_form.t) rho =
  let rho_max = Array.fold_left (fun acc r -> max acc (abs_float r)) 0. rho in
  let rho =
    Array.map (fun r -> if abs_float r <= 1e-12 *. rho_max then 0. else r) rho
  in
  let rho_b = ref 0. and mag = ref 0. in
  Array.iteri
    (fun i r ->
      let t = r *. sf.b.(i) in
      rho_b := !rho_b +. t;
      mag := !mag +. abs_float t)
    rho;
  let lo = ref 0. and hi = ref 0. in
  Array.iteri
    (fun j a ->
      if a <> 0. then begin
        let at_lb = a *. sf.lb.(j) and at_ub = a *. sf.ub.(j) in
        let low = min at_lb at_ub and high = max at_lb at_ub in
        lo := !lo +. low;
        hi := !hi +. high;
        if Float.is_finite low then mag := !mag +. abs_float low;
        if Float.is_finite high then mag := !mag +. abs_float high
      end)
    (Csc.matvec sf.rows rho);
  let tol = (1e-6 *. rho_max) +. (1e-9 *. !mag) in
  !rho_b > !hi +. tol || !rho_b < !lo -. tol

(* Dual-first driver over a state [install_slack_basis] prepared.
   Returns [Error reason] to request the two-phase fallback. On
   [Dual_optimal] the state is primal feasible and dual feasible for the
   shifted costs; the closing primal phase 2 runs on the true costs. It
   typically prices out at once: it exists to wash out incremental drift
   and to pivot out any cost shift as ordinary phase-2 pivots. *)
let drive_dual st =
  match Obs.Span.with_ "lp.dual" (fun () -> run_dual st) with
  | Dual_gave_up why -> Error why
  | Dual_blocked_row ->
      if certifies_infeasibility st.sf st.rho then Ok Status.Infeasible
      else Error "blocked row failed the infeasibility certificate"
  | Dual_optimal -> (
      Array.blit st.cost_orig 0 st.cost 0 st.nall;
      reset_phase_controls st;
      match Obs.Span.with_ "lp.phase2" (fun () -> run_phase st) with
      | Phase_optimal -> Ok (Status.Optimal (extract_solution st))
      | Phase_unbounded -> Ok Status.Unbounded
      | Phase_iteration_limit -> Ok Status.Iteration_limit)

(* Two-phase driver over a state [initialize ~slack:false] built. Raises
   [Numerical_failure] when the factorization engine gives up. *)
let drive st =
  let phase1_result =
    if phase1_needed st then
      Obs.Span.with_ "lp.phase1" (fun () ->
          setup_phase1 st;
          run_phase st)
    else Phase_optimal
  in
  st.phase1_pivots <- st.iterations;
  Log.debug (fun m -> m "phase 1 done after %d iterations" st.iterations);
  match phase1_result with
  | Phase_iteration_limit -> Status.Iteration_limit
  | Phase_unbounded ->
      (* Phase 1 minimizes a sum of non-negative variables and is
         bounded below by zero; an unbounded ray indicates numerical
         trouble. *)
      Status.Iteration_limit
  | Phase_optimal ->
      if phase1_infeasibility st > 1e-6 then Status.Infeasible
      else begin
        match
          Obs.Span.with_ "lp.phase2" (fun () ->
              setup_phase2 st;
              run_phase st)
        with
        | Phase_optimal -> Status.Optimal (extract_solution st)
        | Phase_unbounded -> Status.Unbounded
        | Phase_iteration_limit -> Status.Iteration_limit
      end

(* ------------------------------------------------------------------ *)
(* Telemetry. Metric updates are O(1) no-ops while the registry is
   disabled; the trace event fires once per solve (never per pivot) and
   only when a sink is installed. *)

let m_solves = Obs.Metrics.counter "simplex.solves"
let m_pivots = Obs.Metrics.counter "simplex.pivots"
let m_refactorizations = Obs.Metrics.counter "simplex.refactorizations"
let m_bound_flips = Obs.Metrics.counter "simplex.bound_flips"
let m_dual_pivots = Obs.Metrics.counter "simplex.dual_pivots"
let m_warm_fell_back = Obs.Metrics.counter "simplex.warm_fell_back"
let h_pivots = Obs.Metrics.histogram "simplex.pivots_per_solve"

let outcome_name = function
  | Status.Optimal _ -> "optimal"
  | Status.Infeasible -> "infeasible"
  | Status.Unbounded -> "unbounded"
  | Status.Iteration_limit -> "iteration_limit"

let record_solve ~ms ~model st outcome =
  Obs.Metrics.incr m_solves;
  Obs.Metrics.add m_pivots st.iterations;
  Obs.Metrics.add m_refactorizations st.refactorizations;
  Obs.Metrics.add m_bound_flips st.bound_flips;
  Obs.Metrics.add m_dual_pivots st.dual_pivots;
  Obs.Metrics.observe h_pivots (float_of_int st.iterations);
  if Obs.Trace.enabled () then begin
    let s = solve_stats st in
    Obs.Trace.point "lp.solve"
      [ ("outcome", Obs.Trace.Str (outcome_name outcome));
        ("model", Obs.Trace.Str (Model.name model));
        ("cols", Obs.Trace.Int st.sf.Standard_form.n_struct);
        ("rows", Obs.Trace.Int st.m);
        ("iterations", Obs.Trace.Int st.iterations);
        ("phase1_pivots", Obs.Trace.Int s.Status.phase1_pivots);
        ("phase2_pivots", Obs.Trace.Int s.Status.phase2_pivots);
        ("dual_pivots", Obs.Trace.Int s.Status.dual_pivots);
        ("refactorizations", Obs.Trace.Int s.Status.refactorizations);
        ("eta_peak", Obs.Trace.Int s.Status.eta_peak);
        ("bound_flips", Obs.Trace.Int s.Status.bound_flips);
        ("perturbations", Obs.Trace.Int s.Status.perturbations);
        ("path", Obs.Trace.Str (Status.solve_path_name st.path));
        ("ms", Obs.Trace.Float ms) ]
  end

(* The two-phase primal from the artificial basis. *)
let two_phase sf =
  let st = initialize ~slack:false sf in
  match drive st with
  | outcome -> (outcome, st)
  | exception Numerical_failure -> (Status.Iteration_limit, st)

(* The dual simplex from the slack basis. Whatever it cannot finish (an
   uncertified blocked row, two empty ratio-test passes in a row, a
   stall, the iteration limit, a numerical failure) is solved again by
   the two-phase primal on a fresh state, so the returned state is the
   one that produced the outcome. *)
let dual_first sf =
  let fall_back why =
    Log.debug (fun m -> m "dual simplex: %s; solving two-phase" why);
    Obs.Metrics.incr m_warm_fell_back;
    two_phase sf
  in
  let st = initialize ~slack:true sf in
  match
    install_slack_basis st;
    drive_dual st
  with
  | Ok outcome -> (outcome, st)
  | Error why -> fall_back why
  | exception Numerical_failure -> fall_back "numerical failure"

let run_solve solver model =
  let solve_sp = Obs.Span.begin_ "lp.solve" in
  let t0 = Obs.Trace.now_ms () in
  let sf = Standard_form.of_model model in
  (* Trivial bound inconsistencies mean infeasible, not an exception. *)
  let inconsistent = ref false in
  Array.iteri
    (fun j l -> if l > sf.Standard_form.ub.(j) then inconsistent := true)
    sf.Standard_form.lb;
  if !inconsistent then begin
    Obs.Span.end_ solve_sp;
    Status.Infeasible
  end
  else begin
    let outcome, st = solver sf in
    record_solve ~ms:(Obs.Trace.now_ms () -. t0) ~model st outcome;
    Obs.Span.end_ solve_sp;
    outcome
  end

let solve model = run_solve dual_first model

let solve_two_phase model = run_solve two_phase model
