module Model = Lp.Model

let test_defaults () =
  let m = Model.create Model.Minimize in
  let x = Model.add_var m () in
  Alcotest.(check (float 0.)) "lb" 0. (Model.lower_bound m x);
  Alcotest.(check bool) "ub" true (Model.upper_bound m x = infinity);
  Alcotest.(check (float 0.)) "obj" 0. (Model.obj_coeff m x)

let test_names () =
  let m = Model.create ~name:"test" Model.Maximize in
  let x = Model.add_var m ~name:"flow" () in
  let r = Model.add_constraint m ~name:"cap" [ (x, 1.) ] Model.Le 5. in
  Alcotest.(check string) "model name" "test" (Model.name m);
  Alcotest.(check string) "var name" "flow" (Model.var_name m x);
  Alcotest.(check string) "row name" "cap" (Model.row_name m r)

let test_synthesized_names () =
  (* Names are lazy: omitting [name] stores nothing and the accessors
     synthesize positional names on demand. *)
  let m = Model.create Model.Minimize in
  let x = Model.add_var m () in
  let y = Model.add_var m ~name:"real" () in
  let z = Model.add_var m () in
  let r0 = Model.add_constraint m [ (x, 1.) ] Model.Le 1. in
  let r1 = Model.add_constraint m ~name:"cap" [ (y, 1.) ] Model.Le 1. in
  Alcotest.(check string) "x0" "x0" (Model.var_name m x);
  Alcotest.(check string) "named kept" "real" (Model.var_name m y);
  Alcotest.(check string) "x2" "x2" (Model.var_name m z);
  Alcotest.(check string) "r0" "r0" (Model.row_name m r0);
  Alcotest.(check string) "named row kept" "cap" (Model.row_name m r1)

let test_bad_bounds () =
  let m = Model.create Model.Minimize in
  Alcotest.check_raises "lb > ub" (Invalid_argument "Model.add_var: lb > ub")
    (fun () -> ignore (Model.add_var m ~lb:2. ~ub:1. ()))

let test_dedup_terms () =
  let m = Model.create Model.Minimize in
  let x = Model.add_var m () in
  let y = Model.add_var m () in
  let r = Model.add_constraint m [ (x, 1.); (y, 2.); (x, 3.) ] Model.Eq 5. in
  Alcotest.(check int) "merged terms" 2 (List.length (Model.row_terms m r));
  let cx = List.assoc x (Model.row_terms m r) in
  Alcotest.(check (float 0.)) "summed coefficient" 4. cx

let test_cancelling_terms_dropped () =
  let m = Model.create Model.Minimize in
  let x = Model.add_var m () in
  let y = Model.add_var m () in
  let r = Model.add_constraint m [ (x, 1.); (x, -1.); (y, 1.) ] Model.Le 1. in
  Alcotest.(check int) "zero coefficient dropped" 1
    (List.length (Model.row_terms m r))

let test_objective_value () =
  let m = Model.create Model.Minimize in
  let x = Model.add_var m ~obj:2. () in
  let _y = Model.add_var m ~obj:(-1.) () in
  Model.add_obj m x 0.5;
  Alcotest.(check (float 1e-12)) "objective" (2.5 *. 3. -. 4.)
    (Model.objective_value m [| 3.; 4. |])

let test_constraint_violation () =
  let m = Model.create Model.Minimize in
  let x = Model.add_var m ~lb:0. ~ub:10. () in
  let y = Model.add_var m () in
  ignore (Model.add_constraint m [ (x, 1.); (y, 1.) ] Model.Le 5.);
  ignore (Model.add_constraint m [ (x, 1.) ] Model.Ge 1.);
  Alcotest.(check (float 1e-12)) "feasible" 0.
    (Model.constraint_violation m [| 2.; 3. |]);
  Alcotest.(check (float 1e-12)) "Le violated by 1" 1.
    (Model.constraint_violation m [| 3.; 3. |]);
  Alcotest.(check (float 1e-12)) "Ge violated" 1.
    (Model.constraint_violation m [| 0.; 0. |]);
  Alcotest.(check (float 1e-12)) "bound violated" 7.
    (Model.constraint_violation m [| 12.; -7. |])

let test_add_vars_bulk () =
  let m = Model.create Model.Minimize in
  let xs = Model.add_vars m 5 ~lb:1. ~ub:2. () in
  Alcotest.(check int) "count" 5 (Model.num_vars m);
  Array.iter
    (fun x -> Alcotest.(check (float 0.)) "bulk lb" 1. (Model.lower_bound m x))
    xs

let test_standard_form () =
  let m = Model.create Model.Maximize in
  let x = Model.add_var m ~obj:3. () in
  let y = Model.add_var m ~obj:5. ~lb:1. ~ub:6. () in
  ignore (Model.add_constraint m [ (x, 1.); (y, 2.) ] Model.Le 10.);
  ignore (Model.add_constraint m [ (x, 1.) ] Model.Ge 2.);
  ignore (Model.add_constraint m [ (y, 1.) ] Model.Eq 3.);
  let sf = Lp.Standard_form.of_model m in
  Alcotest.(check int) "struct vars" 2 sf.Lp.Standard_form.n_struct;
  Alcotest.(check int) "rows" 3 sf.Lp.Standard_form.n_rows;
  Alcotest.(check int) "total" 5 (Lp.Standard_form.total_vars sf);
  (* Maximize flips costs. *)
  Alcotest.(check (float 0.)) "flipped cost" (-3.) sf.Lp.Standard_form.cost.(0);
  (* Slack bounds encode senses. *)
  Alcotest.(check (float 0.)) "Le slack lb" 0. sf.Lp.Standard_form.lb.(2);
  Alcotest.(check bool) "Le slack ub" true (sf.Lp.Standard_form.ub.(2) = infinity);
  Alcotest.(check bool) "Ge slack lb" true
    (sf.Lp.Standard_form.lb.(3) = neg_infinity);
  Alcotest.(check (float 0.)) "Ge slack ub" 0. sf.Lp.Standard_form.ub.(3);
  Alcotest.(check (float 0.)) "Eq slack fixed lb" 0. sf.Lp.Standard_form.lb.(4);
  Alcotest.(check (float 0.)) "Eq slack fixed ub" 0. sf.Lp.Standard_form.ub.(4)

(* [Standard_form.of_model] fills the row-wise copy straight from the
   model's rows and transposes it into [a]. The oracle is the path it
   replaced: a triplet builder over the rows and their logicals,
   [Csc.finalize] (which sorts and merges each column) and a transpose.
   Both must give the same matrices, pattern and value bits alike. *)
let builder_oracle model =
  let module Csc = Sparselin.Csc in
  let n = Model.num_vars model and m = Model.num_rows model in
  let b = Csc.builder ~nrows:m ~ncols:(n + m) in
  Model.iter_rows model (fun r terms _ _ ->
      let r = (r :> int) in
      List.iter
        (fun ((v : Model.var), c) -> Csc.add b ~row:r ~col:(v :> int) c)
        terms;
      Csc.add b ~row:r ~col:(n + r) 1.);
  let a = Csc.finalize b in
  (a, Csc.transpose a)

let check_same_csc what x y =
  let module Csc = Sparselin.Csc in
  Alcotest.(check (pair int int)) (what ^ ": dimensions")
    (Csc.nrows x, Csc.ncols x) (Csc.nrows y, Csc.ncols y);
  Alcotest.(check int) (what ^ ": nnz") (Csc.nnz x) (Csc.nnz y);
  let bits col =
    Array.map (fun (i, v) -> (i, Int64.bits_of_float v)) col |> Array.to_list
  in
  for j = 0 to Csc.ncols x - 1 do
    if bits (Csc.column x j) <> bits (Csc.column y j) then
      Alcotest.failf "%s: column %d differs" what j
  done

let check_against_oracle what model =
  let sf = Lp.Standard_form.of_model model in
  let a, rows = builder_oracle model in
  check_same_csc (what ^ ": a") a sf.Lp.Standard_form.a;
  check_same_csc (what ^ ": rows") rows sf.Lp.Standard_form.rows

let test_standard_form_matches_builder () =
  let m = Model.create Model.Maximize in
  let x = Model.add_var m ~obj:3. () in
  let y = Model.add_var m ~obj:(-1.) ~lb:1. ~ub:6. () in
  let z = Model.add_var m ~lb:neg_infinity () in
  ignore (Model.add_constraint m [ (z, 0.5); (x, 1.); (y, 2.) ] Model.Le 10.);
  ignore (Model.add_constraint m [] Model.Le 1.);
  ignore (Model.add_constraint m [ (x, 1.); (y, 2.); (x, 3.) ] Model.Ge 2.);
  ignore (Model.add_constraint m [ (y, 0.); (z, 1e-300) ] Model.Eq 3.);
  ignore (Model.add_constraint m [ (z, 2.); (z, -2.); (x, 0.1) ] Model.Ge 0.);
  ignore (Model.add_constraint m [ (y, 1.); (y, -1.) ] Model.Eq 0.);
  check_against_oracle "fixed" m;
  let rng = Prelude.Rng.of_int 77 in
  for trial = 1 to 60 do
    let m =
      Model.create (if trial mod 2 = 0 then Model.Minimize else Model.Maximize)
    in
    let n = 1 + Prelude.Rng.int rng 12 in
    let vars = Model.add_vars m n () in
    for _ = 0 to Prelude.Rng.int rng 10 do
      let terms =
        List.init (Prelude.Rng.int rng 8) (fun _ ->
            let c =
              match Prelude.Rng.int rng 4 with
              | 0 -> 0.
              | 1 -> float_of_int (Prelude.Rng.int rng 5 - 2)
              | _ -> Prelude.Rng.float_range rng (-10.) 10.
            in
            (vars.(Prelude.Rng.int rng n), c))
      in
      let sense =
        match Prelude.Rng.int rng 3 with
        | 0 -> Model.Le
        | 1 -> Model.Ge
        | _ -> Model.Eq
      in
      ignore (Model.add_constraint m terms sense 1.)
    done;
    check_against_oracle (Printf.sprintf "random %d" trial) m
  done

let suite =
  [ Alcotest.test_case "defaults" `Quick test_defaults;
    Alcotest.test_case "names" `Quick test_names;
    Alcotest.test_case "synthesized lazy names" `Quick test_synthesized_names;
    Alcotest.test_case "bad bounds" `Quick test_bad_bounds;
    Alcotest.test_case "dedup terms" `Quick test_dedup_terms;
    Alcotest.test_case "cancelling terms dropped" `Quick test_cancelling_terms_dropped;
    Alcotest.test_case "objective value" `Quick test_objective_value;
    Alcotest.test_case "constraint violation" `Quick test_constraint_violation;
    Alcotest.test_case "add_vars bulk" `Quick test_add_vars_bulk;
    Alcotest.test_case "standard form" `Quick test_standard_form;
    Alcotest.test_case "standard form: direct fill = builder oracle" `Quick
      test_standard_form_matches_builder ]
