module Model = Lp.Model
module Status = Lp.Status

let solve = Lp.Simplex.solve

let get_opt outcome =
  match outcome with
  | Status.Optimal s -> s
  | other ->
      Alcotest.failf "expected optimal, got %a" Status.pp_outcome other

let check_obj name expected outcome =
  let s = get_opt outcome in
  Alcotest.(check (float 1e-6)) name expected s.Status.objective

(* Classic textbook LP: max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18. *)
let test_textbook_max () =
  let m = Model.create Model.Maximize in
  let x = Model.add_var m ~obj:3. () in
  let y = Model.add_var m ~obj:5. () in
  ignore (Model.add_constraint m [ (x, 1.) ] Model.Le 4.);
  ignore (Model.add_constraint m [ (y, 2.) ] Model.Le 12.);
  ignore (Model.add_constraint m [ (x, 3.); (y, 2.) ] Model.Le 18.);
  let s = get_opt (solve m) in
  Alcotest.(check (float 1e-6)) "objective" 36. s.Status.objective;
  Alcotest.(check (float 1e-6)) "x" 2. s.Status.primal.(0);
  Alcotest.(check (float 1e-6)) "y" 6. s.Status.primal.(1)

let test_min_with_ge () =
  (* min 2x + 3y s.t. x + y >= 4, x + 2y >= 6: optimum at (2, 2) -> 10. *)
  let m = Model.create Model.Minimize in
  let x = Model.add_var m ~obj:2. () in
  let y = Model.add_var m ~obj:3. () in
  ignore (Model.add_constraint m [ (x, 1.); (y, 1.) ] Model.Ge 4.);
  ignore (Model.add_constraint m [ (x, 1.); (y, 2.) ] Model.Ge 6.);
  let s = get_opt (solve m) in
  Alcotest.(check (float 1e-6)) "objective" 10. s.Status.objective;
  Alcotest.(check (float 1e-6)) "x" 2. s.Status.primal.(0);
  Alcotest.(check (float 1e-6)) "y" 2. s.Status.primal.(1)

let test_equality () =
  (* min x + y s.t. x + y = 5, x - y = 1 -> unique point (3, 2). *)
  let m = Model.create Model.Minimize in
  let x = Model.add_var m ~obj:1. () in
  let y = Model.add_var m ~obj:1. () in
  ignore (Model.add_constraint m [ (x, 1.); (y, 1.) ] Model.Eq 5.);
  ignore (Model.add_constraint m [ (x, 1.); (y, -1.) ] Model.Eq 1.);
  let s = get_opt (solve m) in
  Alcotest.(check (float 1e-6)) "x" 3. s.Status.primal.(0);
  Alcotest.(check (float 1e-6)) "y" 2. s.Status.primal.(1)

let test_infeasible () =
  let m = Model.create Model.Minimize in
  let x = Model.add_var m ~obj:1. () in
  ignore (Model.add_constraint m [ (x, 1.) ] Model.Ge 5.);
  ignore (Model.add_constraint m [ (x, 1.) ] Model.Le 3.);
  Alcotest.(check bool) "infeasible" true (solve m = Status.Infeasible)

let test_infeasible_bounds () =
  let m = Model.create Model.Minimize in
  let x = Model.add_var m ~lb:0. ~ub:1. () in
  let y = Model.add_var m ~lb:0. ~ub:1. () in
  ignore (Model.add_constraint m [ (x, 1.); (y, 1.) ] Model.Ge 3.);
  Alcotest.(check bool) "infeasible" true (solve m = Status.Infeasible)

let test_unbounded () =
  let m = Model.create Model.Maximize in
  let x = Model.add_var m ~obj:1. () in
  let y = Model.add_var m ~obj:0. () in
  ignore (Model.add_constraint m [ (x, 1.); (y, -1.) ] Model.Le 1.);
  Alcotest.(check bool) "unbounded" true (solve m = Status.Unbounded)

let test_unbounded_free_var () =
  let m = Model.create Model.Minimize in
  let x = Model.add_var m ~lb:neg_infinity ~obj:1. () in
  ignore (Model.add_constraint m [ (x, 1.) ] Model.Le 10.);
  Alcotest.(check bool) "unbounded below" true (solve m = Status.Unbounded)

let test_free_variable () =
  (* min |shape|: free variable pinned by equalities. *)
  let m = Model.create Model.Minimize in
  let x = Model.add_var m ~lb:neg_infinity ~obj:1. () in
  let y = Model.add_var m ~obj:2. () in
  ignore (Model.add_constraint m [ (x, 1.); (y, 1.) ] Model.Eq 2.);
  ignore (Model.add_constraint m [ (y, 1.) ] Model.Le 5.);
  (* x = 2 - y; objective x + 2y = 2 + y minimized at y = 0 -> 2. *)
  check_obj "objective" 2. (solve m)

let test_negative_lower_bound () =
  (* min x subject to x >= -3. *)
  let m = Model.create Model.Minimize in
  let x = Model.add_var m ~lb:(-3.) ~ub:7. ~obj:1. () in
  ignore (Model.add_constraint m [ (x, 1.) ] Model.Le 100.);
  let s = get_opt (solve m) in
  Alcotest.(check (float 1e-6)) "at lower bound" (-3.) s.Status.primal.(0)

let test_upper_bounds_respected () =
  (* max x + y with x <= 2, y <= 3 as bounds (not rows). *)
  let m = Model.create Model.Maximize in
  let x = Model.add_var m ~ub:2. ~obj:1. () in
  let y = Model.add_var m ~ub:3. ~obj:1. () in
  ignore (Model.add_constraint m [ (x, 1.); (y, 1.) ] Model.Le 100.);
  check_obj "objective" 5. (solve m)

let test_bound_flip_path () =
  (* Optimum requires a nonbasic variable to flip from lower to upper
     bound: max x + y, x + y <= 10, 0 <= x <= 4, 0 <= y <= 4. *)
  let m = Model.create Model.Maximize in
  let x = Model.add_var m ~ub:4. ~obj:1. () in
  let y = Model.add_var m ~ub:4. ~obj:1. () in
  ignore (Model.add_constraint m [ (x, 1.); (y, 1.) ] Model.Le 10.);
  check_obj "objective" 8. (solve m)

let test_fixed_variable () =
  let m = Model.create Model.Minimize in
  let x = Model.add_var m ~lb:2. ~ub:2. ~obj:5. () in
  let y = Model.add_var m ~obj:1. () in
  ignore (Model.add_constraint m [ (x, 1.); (y, 1.) ] Model.Ge 6.);
  let s = get_opt (solve m) in
  Alcotest.(check (float 1e-6)) "fixed" 2. s.Status.primal.(0);
  Alcotest.(check (float 1e-6)) "objective" 14. s.Status.objective

let test_degenerate () =
  (* A highly degenerate LP (many constraints active at the optimum). *)
  let m = Model.create Model.Maximize in
  let x = Model.add_var m ~obj:1. () in
  let y = Model.add_var m ~obj:1. () in
  ignore (Model.add_constraint m [ (x, 1.) ] Model.Le 1.);
  ignore (Model.add_constraint m [ (y, 1.) ] Model.Le 1.);
  ignore (Model.add_constraint m [ (x, 1.); (y, 1.) ] Model.Le 2.);
  ignore (Model.add_constraint m [ (x, 1.); (y, 2.) ] Model.Le 3.);
  ignore (Model.add_constraint m [ (x, 2.); (y, 1.) ] Model.Le 3.);
  check_obj "objective" 2. (solve m)

let test_no_constraints () =
  let m = Model.create Model.Minimize in
  let _x = Model.add_var m ~lb:1. ~ub:3. ~obj:2. () in
  check_obj "bounds only" 2. (solve m)

let test_zero_objective () =
  (* Any feasible point is optimal; checks phase 1 alone. *)
  let m = Model.create Model.Minimize in
  let x = Model.add_var m () in
  let y = Model.add_var m () in
  ignore (Model.add_constraint m [ (x, 1.); (y, 1.) ] Model.Eq 4.);
  let s = get_opt (solve m) in
  Alcotest.(check (float 1e-6)) "feasible sum" 4.
    (s.Status.primal.(0) +. s.Status.primal.(1));
  Alcotest.(check (float 1e-6)) "objective" 0. s.Status.objective

let test_duals_textbook () =
  (* For max 3x + 5y above, the optimal duals are (0, 3/2, 1). *)
  let m = Model.create Model.Maximize in
  let x = Model.add_var m ~obj:3. () in
  let y = Model.add_var m ~obj:5. () in
  ignore (Model.add_constraint m [ (x, 1.) ] Model.Le 4.);
  ignore (Model.add_constraint m [ (y, 2.) ] Model.Le 12.);
  ignore (Model.add_constraint m [ (x, 3.); (y, 2.) ] Model.Le 18.);
  let s = get_opt (solve m) in
  Alcotest.(check (float 1e-6)) "dual 1" 0. s.Status.dual.(0);
  Alcotest.(check (float 1e-6)) "dual 2" 1.5 s.Status.dual.(1);
  Alcotest.(check (float 1e-6)) "dual 3" 1. s.Status.dual.(2);
  (* Strong duality for this all-Le maximization: b'y = objective. *)
  let by = (4. *. 0.) +. (12. *. 1.5) +. (18. *. 1.) in
  Alcotest.(check (float 1e-6)) "strong duality" s.Status.objective by

let test_primal_feasibility_reported () =
  let m = Model.create Model.Minimize in
  let x = Model.add_var m ~obj:1. () in
  let y = Model.add_var m ~obj:2. () in
  let z = Model.add_var m ~obj:(-1.) ~ub:4. () in
  ignore (Model.add_constraint m [ (x, 1.); (y, 1.); (z, 1.) ] Model.Ge 3.);
  ignore (Model.add_constraint m [ (x, 2.); (y, -1.) ] Model.Le 4.);
  ignore (Model.add_constraint m [ (y, 1.); (z, 2.) ] Model.Eq 6.);
  let s = get_opt (solve m) in
  Alcotest.(check (float 1e-6)) "feasible" 0.
    (Model.constraint_violation m s.Status.primal)

(* Transportation problem with known optimum: 2 supplies, 3 demands. *)
let test_transportation () =
  let supply = [| 20.; 30. |] and demand = [| 10.; 25.; 15. |] in
  let cost = [| [| 2.; 3.; 1. |]; [| 5.; 4.; 8. |] |] in
  let m = Model.create Model.Minimize in
  let x = Array.init 2 (fun i ->
      Array.init 3 (fun j -> Model.add_var m ~obj:cost.(i).(j) ()))
  in
  for i = 0 to 1 do
    ignore
      (Model.add_constraint m
         (List.init 3 (fun j -> (x.(i).(j), 1.)))
         Model.Le supply.(i))
  done;
  for j = 0 to 2 do
    ignore
      (Model.add_constraint m
         (List.init 2 (fun i -> (x.(i).(j), 1.)))
         Model.Eq demand.(j))
  done;
  (* Optimal: ship d3 (15) and part of d1/d2 from s1 (cheap), rest from s2.
     s1: d1=5? Let's verify: s1 capacity 20; costs favour s1 everywhere.
     Send d3=15 (cost 1) and d1=5? d1 from s1 costs 2 vs 5 from s2; d2 from
     s1 costs 3 vs 4. Use s1 for d3 (15) then 5 left: best marginal saving
     is d1 (3/unit) -> d1 = 5 from s1, d1 = 5 from s2, d2 = 25 from s2.
     Cost = 15*1 + 5*2 + 5*5 + 25*4 = 150. *)
  check_obj "objective" 150. (solve m)

(* The pivot row rho^T A is formed by scattering the nonzero rho_i, in
   ascending row order, over the row-wise copy of A. Per column that must
   reproduce Csc.dot_col bit for bit: the terms it skips are products with
   an exact zero (of either sign), and the rest are added in the same
   order. The scatter the simplex uses walks rho's nonzero pattern in
   ascending row order; it must equal the plain one bit for bit, and
   list exactly the columns some nonzero rho_i reaches, each once, those
   whose sum cancels to 0 included; [stamp] is shared across calls, as
   in the solver, so a stale mark would show. *)
let check_pivot_row ~stamp ~mark what a rho =
  let module Csc = Sparselin.Csc in
  let n = Csc.ncols a in
  let rows = Csc.transpose a in
  let beta = Array.make n 0. in
  Csc.matvec_add rows rho beta;
  Array.iteri
    (fun j b ->
      let dot = Csc.dot_col a j rho in
      if Int64.bits_of_float b <> Int64.bits_of_float dot then
        Alcotest.failf "%s: column %d: row-wise %h, dot_col %h" what j b dot)
    beta;
  let listed = Array.make n 0. and pattern = Array.make n (-1) in
  let m = Array.length rho in
  let rho_pat = Array.make m 0 and nx = ref 0 in
  Array.iteri
    (fun i r ->
      if r <> 0. then begin
        rho_pat.(!nx) <- i;
        incr nx
      end)
    rho;
  let k =
    Csc.matvec_add_sparse rows rho rho_pat !nx listed ~stamp ~mark pattern
  in
  Array.iteri
    (fun j b ->
      if Int64.bits_of_float b <> Int64.bits_of_float listed.(j) then
        Alcotest.failf "%s: column %d: pattern scatter %h, matvec_add %h" what
          j listed.(j) b)
    beta;
  let reached =
    List.filter
      (fun j ->
        Csc.fold_col a j ~init:false ~f:(fun acc i _ -> acc || rho.(i) <> 0.))
      (List.init n Fun.id)
  in
  Alcotest.(check (list int)) (what ^ ": pattern = columns reached") reached
    (List.sort_uniq compare (Array.to_list (Array.sub pattern 0 k)));
  Alcotest.(check int) (what ^ ": each column listed once") (List.length reached) k

let random_rho rng m =
  Array.init m (fun _ ->
      match Prelude.Rng.int rng 5 with
      | 0 -> Prelude.Rng.float_range rng (-3.) 3.
      | 1 -> ldexp (Prelude.Rng.float_range rng 0.5 1.) (Prelude.Rng.int rng 60 - 30)
      | 2 -> -0.
      | _ -> 0.)

let test_pivot_row_bit_identical () =
  let module Csc = Sparselin.Csc in
  let rng = Prelude.Rng.of_int 4242 in
  for trial = 1 to 40 do
    let m = 1 + Prelude.Rng.int rng 30 and n = 1 + Prelude.Rng.int rng 50 in
    let b = Csc.builder ~nrows:m ~ncols:n in
    for _ = 1 to m * n / 6 do
      (* Small integers cancel exactly; the rest exercise rounding. *)
      let v =
        if Prelude.Rng.bool rng then float_of_int (Prelude.Rng.int rng 5 - 2)
        else Prelude.Rng.float_range rng (-10.) 10.
      in
      Csc.add b ~row:(Prelude.Rng.int rng m) ~col:(Prelude.Rng.int rng n) v
    done;
    let a = Csc.finalize b in
    let stamp = Array.make n 0 in
    check_pivot_row ~stamp ~mark:1 (Printf.sprintf "random %d" trial) a
      (random_rho rng m);
    check_pivot_row ~stamp ~mark:2
      (Printf.sprintf "random %d, second call" trial)
      a (random_rho rng m)
  done;
  (* The standard form's own row-wise copy, slack columns included. *)
  let model = Model.create Model.Minimize in
  let x = Array.init 6 (fun j -> Model.add_var model ~obj:(float_of_int j) ()) in
  for i = 0 to 3 do
    ignore
      (Model.add_constraint model
         (List.init 3 (fun k -> (x.((i + k) mod 6), float_of_int (k + 1))))
         (if i mod 2 = 0 then Model.Le else Model.Ge)
         10.)
  done;
  let sf = Lp.Standard_form.of_model model in
  let a = sf.Lp.Standard_form.a and rows = sf.Lp.Standard_form.rows in
  Alcotest.(check bool) "rows is the transpose of a" true
    (Csc.to_dense rows = Oracle.Dense.transpose (Csc.to_dense a));
  let stamp = Array.make (Csc.ncols a) 0 in
  for trial = 1 to 20 do
    check_pivot_row ~stamp ~mark:trial
      (Printf.sprintf "standard form %d" trial)
      a
      (random_rho rng sf.Lp.Standard_form.n_rows)
  done

(* Pass 2 of the dual ratio test walks the pivot row's pattern in the
   order its columns were first reached. With magnitudes drawn from a
   handful of values, ties are the rule; the choice must be the column an
   ascending scan with a strict [>] keeps, whatever the order. *)
let prop_pass2_tie_rule =
  QCheck2.Test.make ~name:"dual pass 2 picks what an ascending scan picks"
    ~count:300
    QCheck2.Gen.(
      let* n = int_range 1 40 in
      let* mags = array_size (return n) (oneofl [ 0.5; 1.; 2.; 4. ]) in
      let* keys = array_size (return n) (int_bound 1_000_000) in
      return (mags, keys))
    (fun (mags, keys) ->
      let n = Array.length mags in
      let order = Array.init n Fun.id in
      Array.stable_sort (fun a b -> compare keys.(a) keys.(b)) order;
      let best = ref (-1) and best_abs = ref 0. in
      Array.iter
        (fun j ->
          let aa = mags.(j) in
          if Lp.Simplex.pass2_prefers ~aa ~j ~best_abs:!best_abs ~best:!best
          then begin
            best := j;
            best_abs := aa
          end)
        order;
      let scan = ref (-1) and scan_abs = ref 0. in
      Array.iteri
        (fun j aa ->
          if aa > !scan_abs then begin
            scan := j;
            scan_abs := aa
          end)
        mags;
      !best = !scan)

(* Dual pricing walks its list of violating rows in whatever order the
   list holds them. With scores drawn from a handful of values, ties are
   the rule; the pick must be the row a scan of every row keeps with a
   strict [>], rows of score 0 (feasible) never chosen. *)
let prop_pricing_tie_rule =
  QCheck2.Test.make ~name:"dual pricing picks what a scan of every row picks"
    ~count:300
    QCheck2.Gen.(
      let* m = int_range 1 40 in
      let* scores = array_size (return m) (oneofl [ 0.; 0.5; 1.; 2.; 4. ]) in
      let* keys = array_size (return m) (int_bound 1_000_000) in
      return (scores, keys))
    (fun (scores, keys) ->
      let m = Array.length scores in
      let listed =
        List.filter (fun i -> scores.(i) > 0.) (List.init m Fun.id)
        |> List.sort (fun a b -> compare keys.(a) keys.(b))
      in
      let best = ref (-1) and best_score = ref 0. in
      List.iter
        (fun i ->
          let score = scores.(i) in
          if Lp.Simplex.pricing_prefers ~score ~i ~best_score:!best_score
               ~best:!best
          then begin
            best := i;
            best_score := score
          end)
        listed;
      let scan = ref (-1) and scan_score = ref 0. in
      Array.iteri
        (fun i score ->
          if score > !scan_score then begin
            scan := i;
            scan_score := score
          end)
        scores;
      !best = !scan)

(* The eta file's builder reads alpha through its sorted pattern. The
   dense scan it replaced stays here as the oracle, with the dense
   applications: an eta built from the pattern must apply bit for bit as
   the scanned one does, in both directions. *)
type dense_eta = { pos : int; diag : float; idx : int array; vals : float array }

let scan_eta ~pos ~alpha =
  let idx =
    List.filter
      (fun i -> i <> pos && alpha.(i) <> 0.)
      (List.init (Array.length alpha) Fun.id)
  in
  { pos; diag = alpha.(pos); idx = Array.of_list idx;
    vals = Array.of_list (List.map (fun i -> alpha.(i)) idx) }

let scan_ftran e x =
  let xp = x.(e.pos) /. e.diag in
  x.(e.pos) <- xp;
  if xp <> 0. then
    Array.iteri (fun k i -> x.(i) <- x.(i) -. (e.vals.(k) *. xp)) e.idx

let scan_btran e y =
  let acc = ref y.(e.pos) in
  Array.iteri (fun k i -> acc := !acc -. (e.vals.(k) *. y.(i))) e.idx;
  y.(e.pos) <- !acc /. e.diag

let test_eta_from_sorted_pattern () =
  let module Eta = Sparselin.Eta in
  let rng = Prelude.Rng.of_int 5150 in
  let bits = Int64.bits_of_float in
  for trial = 1 to 200 do
    let m = 2 + Prelude.Rng.int rng 60 in
    let pos = Prelude.Rng.int rng m in
    let alpha = Array.make m 0. in
    let listed = ref [ pos ] in
    for _ = 1 to Prelude.Rng.int rng (m + 1) do
      let i = Prelude.Rng.int rng m in
      (* Some listed entries cancelled to zero, of either sign. *)
      alpha.(i) <-
        (match Prelude.Rng.int rng 6 with
         | 0 -> 0.
         | 1 -> -0.
         | _ -> Prelude.Rng.float_range rng (-3.) 3.);
      listed := i :: !listed
    done;
    alpha.(pos) <- Prelude.Rng.float_range rng 0.5 2. *. (if Prelude.Rng.bool rng then 1. else -1.);
    let sorted = Array.of_list (List.sort_uniq compare !listed) in
    let eta = Eta.of_pattern ~pos ~alpha sorted (Array.length sorted) in
    let oracle = scan_eta ~pos ~alpha in
    Alcotest.(check int) "nnz" (Array.length oracle.idx + 1) (Eta.nnz eta);
    let full = Array.init m Fun.id and stamp = Array.make m 1 in
    for _ = 1 to 3 do
      let v = Array.init m (fun _ ->
          if Prelude.Rng.bool rng then 0. else Prelude.Rng.float_range rng (-5.) 5.)
      in
      let a = Array.copy v and b = Array.copy v in
      ignore (Eta.apply_ftran eta a ~stamp ~mark:1 (Array.copy full) m);
      scan_ftran oracle b;
      Array.iteri
        (fun i x ->
          if bits x <> bits b.(i) then
            Alcotest.failf "trial %d ftran entry %d: %h vs scan %h" trial i x b.(i))
        a;
      let a = Array.copy v and b = Array.copy v in
      ignore (Eta.apply_btran eta a ~stamp ~mark:1 (Array.copy full) m);
      scan_btran oracle b;
      Array.iteri
        (fun i x ->
          if bits x <> bits b.(i) then
            Alcotest.failf "trial %d btran entry %d: %h vs scan %h" trial i x b.(i))
        a
    done
  done

let suite =
  [ Alcotest.test_case "textbook max" `Quick test_textbook_max;
    Alcotest.test_case "min with ge" `Quick test_min_with_ge;
    Alcotest.test_case "equality" `Quick test_equality;
    Alcotest.test_case "infeasible" `Quick test_infeasible;
    Alcotest.test_case "infeasible bounds" `Quick test_infeasible_bounds;
    Alcotest.test_case "unbounded" `Quick test_unbounded;
    Alcotest.test_case "unbounded free var" `Quick test_unbounded_free_var;
    Alcotest.test_case "free variable" `Quick test_free_variable;
    Alcotest.test_case "negative lower bound" `Quick test_negative_lower_bound;
    Alcotest.test_case "upper bounds respected" `Quick test_upper_bounds_respected;
    Alcotest.test_case "bound flip path" `Quick test_bound_flip_path;
    Alcotest.test_case "fixed variable" `Quick test_fixed_variable;
    Alcotest.test_case "degenerate" `Quick test_degenerate;
    Alcotest.test_case "no constraints" `Quick test_no_constraints;
    Alcotest.test_case "zero objective" `Quick test_zero_objective;
    Alcotest.test_case "duals textbook" `Quick test_duals_textbook;
    Alcotest.test_case "primal feasibility" `Quick test_primal_feasibility_reported;
    Alcotest.test_case "transportation" `Quick test_transportation;
    Alcotest.test_case "pivot row bit-identical" `Quick
      test_pivot_row_bit_identical;
    QCheck_alcotest.to_alcotest prop_pass2_tie_rule;
    QCheck_alcotest.to_alcotest prop_pricing_tie_rule;
    Alcotest.test_case "eta from the sorted pattern applies as the scan's"
      `Quick test_eta_from_sorted_pattern ]
