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
  (* Model rows are deduplicated, ascending by variable and free of
     zeros, and row r's logical column n + r sorts after every
     structural: the row-wise copy is filled in CSC order directly, with
     no builder and no per-column sort, and [a] is its transpose. *)
  let colptr = Array.make (m + 1) 0 in
  Model.iter_rows model (fun r terms _ _ ->
      let r = (r :> int) in
      colptr.(r + 1) <- colptr.(r) + List.length terms + 1);
  let rowind = Array.make colptr.(m) 0 and values = Array.make colptr.(m) 0. in
  let b = Array.make m 0. in
  Model.iter_rows model (fun r terms sense rhs ->
      let r = (r :> int) in
      let k =
        List.fold_left
          (fun k ((v : Model.var), c) ->
            rowind.(k) <- (v :> int);
            values.(k) <- c;
            k + 1)
          colptr.(r) terms
      in
      let slack = n + r in
      rowind.(k) <- slack;
      values.(k) <- 1.;
      b.(r) <- rhs;
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
  let rows =
    Sparselin.Csc.of_sorted_columns ~nrows:total ~ncols:m ~colptr ~rowind
      ~values
  in
  { a = Sparselin.Csc.transpose rows;
    rows;
    b; cost; lb; ub;
    n_struct = n;
    n_rows = m;
    flip_objective = flip }

let total_vars t = t.n_struct + t.n_rows

let model_objective t v = if t.flip_objective then -.v else v
