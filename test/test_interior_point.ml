(* The interior-point solver must agree with the simplex on feasible,
   bounded programs — the same cross-check role fmincon played for the
   paper's authors. *)

module Model = Lp.Model
module Status = Lp.Status

let get_opt name = function
  | Status.Optimal s -> s
  | other -> Alcotest.failf "%s: expected optimal, got %a" name Status.pp_outcome other

let test_textbook () =
  let m = Model.create Model.Maximize in
  let x = Model.add_var m ~obj:3. () in
  let y = Model.add_var m ~obj:5. () in
  ignore (Model.add_constraint m [ (x, 1.) ] Model.Le 4.);
  ignore (Model.add_constraint m [ (y, 2.) ] Model.Le 12.);
  ignore (Model.add_constraint m [ (x, 3.); (y, 2.) ] Model.Le 18.);
  let s = get_opt "ipm" (Oracle.Interior_point.solve m) in
  Alcotest.(check (float 1e-5)) "objective" 36. s.Status.objective;
  Alcotest.(check (float 1e-4)) "x" 2. s.Status.primal.(0);
  Alcotest.(check (float 1e-4)) "y" 6. s.Status.primal.(1)

let test_equality_and_bounds () =
  let m = Model.create Model.Minimize in
  let x = Model.add_var m ~lb:(-1.) ~ub:4. ~obj:2. () in
  let y = Model.add_var m ~obj:3. () in
  ignore (Model.add_constraint m [ (x, 1.); (y, 1.) ] Model.Eq 3.);
  let simplex = get_opt "simplex" (Lp.Simplex.solve m) in
  let ipm = get_opt "ipm" (Oracle.Interior_point.solve m) in
  Alcotest.(check (float 1e-5)) "objectives agree" simplex.Status.objective
    ipm.Status.objective

let test_degenerate () =
  let m = Model.create Model.Maximize in
  let x = Model.add_var m ~obj:1. () in
  let y = Model.add_var m ~obj:1. () in
  ignore (Model.add_constraint m [ (x, 1.) ] Model.Le 1.);
  ignore (Model.add_constraint m [ (y, 1.) ] Model.Le 1.);
  ignore (Model.add_constraint m [ (x, 1.); (y, 1.) ] Model.Le 2.);
  let s = get_opt "ipm" (Oracle.Interior_point.solve m) in
  Alcotest.(check (float 1e-5)) "objective" 2. s.Status.objective

let test_duals_match () =
  let m = Model.create Model.Maximize in
  let x = Model.add_var m ~obj:3. () in
  let y = Model.add_var m ~obj:5. () in
  ignore (Model.add_constraint m [ (x, 1.) ] Model.Le 4.);
  ignore (Model.add_constraint m [ (y, 2.) ] Model.Le 12.);
  ignore (Model.add_constraint m [ (x, 3.); (y, 2.) ] Model.Le 18.);
  let s = get_opt "ipm" (Oracle.Interior_point.solve m) in
  Alcotest.(check (float 1e-4)) "dual 2" 1.5 s.Status.dual.(1);
  Alcotest.(check (float 1e-4)) "dual 3" 1. s.Status.dual.(2)

let feasible_random rng =
  (* Feasible and bounded by construction: box variables, rows stated
     around a known interior point. *)
  let n = 1 + Prelude.Rng.int rng 5 in
  let m = Model.create
      (if Prelude.Rng.bool rng then Model.Minimize else Model.Maximize)
  in
  let point = Array.init n (fun _ -> Prelude.Rng.float_range rng 0.5 3.) in
  let vars =
    Array.init n (fun _ ->
        Model.add_var m
          ~obj:(Prelude.Rng.float_range rng (-4.) 4.)
          ~lb:0. ~ub:5. ())
  in
  for _ = 1 to 1 + Prelude.Rng.int rng 4 do
    let terms = ref [] and lhs = ref 0. in
    Array.iteri
      (fun i v ->
        if Prelude.Rng.int rng 2 = 0 then begin
          let coeff = Prelude.Rng.float_range rng (-3.) 3. in
          terms := (v, coeff) :: !terms;
          lhs := !lhs +. (coeff *. point.(i))
        end)
      vars;
    if !terms <> [] then begin
      (* Slack keeps the interior point strictly feasible. *)
      let slack = Prelude.Rng.float_range rng 0.5 2. in
      if Prelude.Rng.bool rng then
        ignore (Model.add_constraint m !terms Model.Le (!lhs +. slack))
      else ignore (Model.add_constraint m !terms Model.Ge (!lhs -. slack))
    end
  done;
  m

let test_random_agreement () =
  let rng = Prelude.Rng.of_int 90210 in
  let compared = ref 0 in
  for trial = 1 to 100 do
    let m = feasible_random rng in
    match (Lp.Simplex.solve m, Oracle.Interior_point.solve m) with
    | Status.Optimal a, Status.Optimal b ->
        incr compared;
        if
          abs_float (a.Status.objective -. b.Status.objective)
          > 1e-4 *. (1. +. abs_float a.Status.objective)
        then
          Alcotest.failf "trial %d: simplex %.9g vs ipm %.9g" trial
            a.Status.objective b.Status.objective
    | Status.Optimal _, other ->
        Alcotest.failf "trial %d: ipm failed on a feasible bounded LP (%a)"
          trial Status.pp_outcome other
    | _, _ -> () (* simplex says infeasible/unbounded: not IPM's scope *)
  done;
  Alcotest.(check bool) "compared enough" true (!compared > 80)

let suite =
  [ Alcotest.test_case "textbook" `Quick test_textbook;
    Alcotest.test_case "equality and bounds" `Quick test_equality_and_bounds;
    Alcotest.test_case "degenerate" `Quick test_degenerate;
    Alcotest.test_case "duals match" `Quick test_duals_match;
    Alcotest.test_case "random agreement x100" `Quick test_random_agreement ]
