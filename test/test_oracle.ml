(* Cross-validation of the revised simplex against the independent dense
   tableau implementation, on both hand-written and random programs. *)

module Model = Lp.Model
module Status = Lp.Status

let both_solve m = (Lp.Simplex.solve m, Oracle.Dense_simplex.solve m)

let check_agree name m =
  match both_solve m with
  | Status.Optimal a, Status.Optimal b ->
      Alcotest.(check (float 1e-5)) (name ^ ": objectives agree")
        a.Status.objective b.Status.objective;
      Alcotest.(check (float 1e-5)) (name ^ ": revised primal feasible") 0.
        (Model.constraint_violation m a.Status.primal);
      Alcotest.(check (float 1e-5)) (name ^ ": oracle primal feasible") 0.
        (Model.constraint_violation m b.Status.primal)
  | Status.Infeasible, Status.Infeasible -> ()
  | Status.Unbounded, Status.Unbounded -> ()
  | a, b ->
      Alcotest.failf "%s: outcomes disagree (revised %a, oracle %a)" name
        Status.pp_outcome a Status.pp_outcome b

let test_oracle_textbook () =
  let m = Model.create Model.Maximize in
  let x = Model.add_var m ~obj:3. () in
  let y = Model.add_var m ~obj:5. () in
  ignore (Model.add_constraint m [ (x, 1.) ] Model.Le 4.);
  ignore (Model.add_constraint m [ (y, 2.) ] Model.Le 12.);
  ignore (Model.add_constraint m [ (x, 3.); (y, 2.) ] Model.Le 18.);
  (match Oracle.Dense_simplex.solve m with
   | Status.Optimal s ->
       Alcotest.(check (float 1e-6)) "oracle objective" 36. s.Status.objective
   | other -> Alcotest.failf "oracle failed: %a" Status.pp_outcome other);
  check_agree "textbook" m

let test_oracle_bounds () =
  let m = Model.create Model.Minimize in
  let x = Model.add_var m ~lb:(-2.) ~ub:3. ~obj:1. () in
  let y = Model.add_var m ~lb:neg_infinity ~ub:4. ~obj:(-1.) () in
  ignore (Model.add_constraint m [ (x, 1.); (y, 1.) ] Model.Ge 0.);
  check_agree "bounds" m

let test_oracle_infeasible () =
  let m = Model.create Model.Minimize in
  let x = Model.add_var m ~ub:1. ~obj:1. () in
  ignore (Model.add_constraint m [ (x, 1.) ] Model.Ge 2.);
  check_agree "infeasible" m

(* Random LP generator: moderate sizes, mixed senses, mixed bound types. *)
let random_model rng =
  let n = 1 + Prelude.Rng.int rng 6 in
  let rows = 1 + Prelude.Rng.int rng 6 in
  let m = Model.create
      (if Prelude.Rng.bool rng then Model.Minimize else Model.Maximize)
  in
  let vars =
    Array.init n (fun _ ->
        let obj = Prelude.Rng.float_range rng (-5.) 5. in
        match Prelude.Rng.int rng 4 with
        | 0 -> Model.add_var m ~obj ()
        | 1 -> Model.add_var m ~obj ~ub:(Prelude.Rng.float_range rng 0.5 10.) ()
        | 2 ->
            Model.add_var m ~obj ~lb:(Prelude.Rng.float_range rng (-5.) 0.)
              ~ub:(Prelude.Rng.float_range rng 0.5 10.) ()
        | _ ->
            (* Free variables make unboundedness common; keep them bounded
               often enough to exercise optimal paths too. *)
            Model.add_var m ~obj ~lb:neg_infinity ())
  in
  for _ = 1 to rows do
    let terms =
      Array.to_list vars
      |> List.filter_map (fun v ->
             if Prelude.Rng.int rng 3 = 0 then None
             else Some (v, Prelude.Rng.float_range rng (-4.) 4.))
    in
    if terms <> [] then begin
      let sense =
        match Prelude.Rng.int rng 3 with
        | 0 -> Model.Le
        | 1 -> Model.Ge
        | _ -> Model.Eq
      in
      ignore
        (Model.add_constraint m terms sense (Prelude.Rng.float_range rng (-8.) 8.))
    end
  done;
  m

let test_random_agreement () =
  let rng = Prelude.Rng.of_int 777 in
  for trial = 1 to 300 do
    let m = random_model rng in
    (match both_solve m with
     | Status.Optimal a, Status.Optimal b ->
         if abs_float (a.Status.objective -. b.Status.objective) > 1e-4 then
           Alcotest.failf "trial %d: objective mismatch %.9g vs %.9g" trial
             a.Status.objective b.Status.objective;
         let viol = Model.constraint_violation m a.Status.primal in
         if viol > 1e-5 then
           Alcotest.failf "trial %d: revised solution infeasible (%g)" trial viol
     | Status.Infeasible, Status.Infeasible -> ()
     | Status.Unbounded, Status.Unbounded -> ()
     | Status.Iteration_limit, _ | _, Status.Iteration_limit ->
         Alcotest.failf "trial %d: iteration limit on a tiny LP" trial
     | a, b ->
         Alcotest.failf "trial %d: outcomes disagree (revised %a, oracle %a)"
           trial Status.pp_outcome a Status.pp_outcome b)
  done

(* Dual feasibility / complementary slackness of the revised simplex,
   checked directly against the model (the oracle does not report duals). *)
let check_kkt m (s : Status.solution) =
  let tol = 1e-5 in
  let minimize = Model.objective_sense m = Model.Minimize in
  let sign v = if minimize then v else -.v in
  (* Reduced costs at bounds. *)
  Array.iteri
    (fun j d ->
      let v = Model.var_of_index m j in
      let x = s.Status.primal.(j) in
      let lb = Model.lower_bound m v and ub = Model.upper_bound m v in
      let d = sign d in
      if x > lb +. 1e-6 && x < ub -. 1e-6 && abs_float d > tol then
        Alcotest.failf "interior variable %d has nonzero reduced cost %g" j d;
      if abs_float (x -. lb) <= 1e-6 && ub > lb +. 1e-6 && d < -.tol then
        Alcotest.failf "variable %d at lower bound has reduced cost %g" j d;
      if abs_float (x -. ub) <= 1e-6 && ub > lb +. 1e-6 && d > tol then
        Alcotest.failf "variable %d at upper bound has reduced cost %g" j d)
    s.Status.reduced_costs;
  (* Row dual signs and complementary slackness. *)
  Model.iter_rows m (fun r terms sense rhs ->
      let y = sign s.Status.dual.((r :> int)) in
      let lhs =
        List.fold_left
          (fun acc ((v : Model.var), c) -> acc +. (c *. s.Status.primal.((v :> int))))
          0. terms
      in
      match sense with
      | Model.Le ->
          if y > tol then Alcotest.failf "Le row %d has positive dual %g" (r :> int) y;
          if abs_float y > tol && rhs -. lhs > 1e-5 then
            Alcotest.failf "slack Le row %d has nonzero dual" (r :> int)
      | Model.Ge ->
          if y < -.tol then Alcotest.failf "Ge row %d has negative dual %g" (r :> int) y;
          if abs_float y > tol && lhs -. rhs > 1e-5 then
            Alcotest.failf "slack Ge row %d has nonzero dual" (r :> int)
      | Model.Eq -> ())

let test_random_kkt () =
  let rng = Prelude.Rng.of_int 31337 in
  let checked = ref 0 in
  for _ = 1 to 200 do
    let m = random_model rng in
    match Lp.Simplex.solve m with
    | Status.Optimal s ->
        incr checked;
        check_kkt m s
    | Status.Infeasible | Status.Unbounded | Status.Iteration_limit -> ()
  done;
  Alcotest.(check bool) "exercised enough optimal instances" true (!checked > 30)

let suite =
  [ Alcotest.test_case "oracle textbook" `Quick test_oracle_textbook;
    Alcotest.test_case "oracle bounds" `Quick test_oracle_bounds;
    Alcotest.test_case "oracle infeasible" `Quick test_oracle_infeasible;
    Alcotest.test_case "random agreement x300" `Quick test_random_agreement;
    Alcotest.test_case "random KKT x200" `Quick test_random_kkt ]
