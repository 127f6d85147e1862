type t = {
  a : Sparselin.Csc.t;
  rows : Sparselin.Csc.t;
  b : float array;
  cost : float array;
  lb : float array;
  ub : float array;
  n_struct : int;
  n_rows : int;
  flip_objective : bool;
}

let of_model model =
  let n = Model.num_vars model and m = Model.num_rows model in
  let total = n + m in
  let flip = match Model.objective_sense model with
    | Model.Minimize -> false
    | Model.Maximize -> true
  in
  let cost = Array.make total 0. in
  let lb = Array.make total 0. and ub = Array.make total 0. in
  for v = 0 to n - 1 do
    let var = Model.var_of_index model v in
    let c = Model.obj_coeff model var in
    cost.(v) <- (if flip then -.c else c);
    lb.(v) <- Model.lower_bound model var;
    ub.(v) <- Model.upper_bound model var
  done;
  let b = Array.make m 0. in
  let builder = Sparselin.Csc.builder ~nrows:m ~ncols:total in
  Model.iter_rows model (fun r terms sense rhs ->
      let r = (r :> int) in
      List.iter
        (fun ((v : Model.var), c) ->
          Sparselin.Csc.add builder ~row:r ~col:(v :> int) c)
        terms;
      b.(r) <- rhs;
      let slack = n + r in
      Sparselin.Csc.add builder ~row:r ~col:slack 1.;
      match sense with
      | Model.Le ->
          lb.(slack) <- 0.;
          ub.(slack) <- infinity
      | Model.Ge ->
          lb.(slack) <- neg_infinity;
          ub.(slack) <- 0.
      | Model.Eq ->
          lb.(slack) <- 0.;
          ub.(slack) <- 0.);
  let a = Sparselin.Csc.finalize builder in
  { a;
    rows = Sparselin.Csc.transpose a;
    b; cost; lb; ub;
    n_struct = n;
    n_rows = m;
    flip_objective = flip }

let total_vars t = t.n_struct + t.n_rows

let model_objective t v = if t.flip_objective then -.v else v
