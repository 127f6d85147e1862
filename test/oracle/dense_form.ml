module Model = Lp.Model

type var_map =
  | Shifted of int * float  (* x = offset + z *)
  | Negated of int * float  (* x = offset - z *)
  | Split of int * int  (* x = z+ - z- *)

type t = {
  a : Dense.mat;
  b : float array;
  c : float array;
  n_original_rows : int;
  flip_objective : bool;
  cost_constant : float;
  mapping : var_map array;
}

let of_model model =
  let n = Model.num_vars model in
  let mapping = Array.make n (Shifted (0, 0.)) in
  let n_z = ref 0 in
  let upper_rows = ref [] in
  let fresh () =
    let z = !n_z in
    incr n_z;
    z
  in
  for v = 0 to n - 1 do
    let var = Model.var_of_index model v in
    let l = Model.lower_bound model var and u = Model.upper_bound model var in
    if l > neg_infinity then begin
      let z = fresh () in
      mapping.(v) <- Shifted (z, l);
      if u < infinity then upper_rows := (z, u -. l) :: !upper_rows
    end
    else if u < infinity then mapping.(v) <- Negated (fresh (), u)
    else begin
      let zp = fresh () in
      let zm = fresh () in
      mapping.(v) <- Split (zp, zm)
    end
  done;
  let upper_rows = List.rev !upper_rows in
  let flip = Model.objective_sense model = Model.Maximize in
  let n_rows = Model.num_rows model in
  let n_upper = List.length upper_rows in
  (* Slack layout: one per model row with sense Le/Ge, one per upper-bound
     row. Count them first. *)
  let n_slack = ref n_upper in
  Model.iter_rows model (fun _ _ sense _ ->
      match sense with
      | Model.Le | Model.Ge -> incr n_slack
      | Model.Eq -> ());
  let width = !n_z + !n_slack in
  let m = n_rows + n_upper in
  let a = Dense.make m width in
  let b = Array.make m 0. in
  let c = Array.make width 0. in
  let cost_constant = ref 0. in
  for v = 0 to n - 1 do
    let var = Model.var_of_index model v in
    let c0 = Model.obj_coeff model var in
    let coeff = if flip then -.c0 else c0 in
    if coeff <> 0. then
      match mapping.(v) with
      | Shifted (z, off) ->
          c.(z) <- c.(z) +. coeff;
          cost_constant := !cost_constant +. (coeff *. off)
      | Negated (z, off) ->
          c.(z) <- c.(z) -. coeff;
          cost_constant := !cost_constant +. (coeff *. off)
      | Split (zp, zm) ->
          c.(zp) <- c.(zp) +. coeff;
          c.(zm) <- c.(zm) -. coeff
  done;
  let slack_at = ref !n_z in
  Model.iter_rows model (fun r terms sense rhs ->
      let r = (r :> int) in
      let rhs = ref rhs in
      List.iter
        (fun ((v : Model.var), coeff) ->
          match mapping.((v :> int)) with
          | Shifted (z, off) ->
              a.(r).(z) <- a.(r).(z) +. coeff;
              rhs := !rhs -. (coeff *. off)
          | Negated (z, off) ->
              a.(r).(z) <- a.(r).(z) -. coeff;
              rhs := !rhs -. (coeff *. off)
          | Split (zp, zm) ->
              a.(r).(zp) <- a.(r).(zp) +. coeff;
              a.(r).(zm) <- a.(r).(zm) -. coeff)
        terms;
      b.(r) <- !rhs;
      match sense with
      | Model.Le ->
          a.(r).(!slack_at) <- 1.;
          incr slack_at
      | Model.Ge ->
          a.(r).(!slack_at) <- -1.;
          incr slack_at
      | Model.Eq -> ());
  List.iteri
    (fun i (z, cap) ->
      let row = n_rows + i in
      a.(row).(z) <- 1.;
      a.(row).(!slack_at) <- 1.;
      incr slack_at;
      b.(row) <- cap)
    upper_rows;
  { a; b; c;
    n_original_rows = n_rows;
    flip_objective = flip;
    cost_constant = !cost_constant;
    mapping }

let a t = t.a
let b t = t.b
let c t = t.c
let n_original_rows t = t.n_original_rows
let flip_objective t = t.flip_objective

let restore_primal t z =
  Array.map
    (function
      | Shifted (zi, off) -> off +. z.(zi)
      | Negated (zi, off) -> off -. z.(zi)
      | Split (zp, zm) -> z.(zp) -. z.(zm))
    t.mapping

let model_objective t v =
  let with_const = v +. t.cost_constant in
  if t.flip_objective then -.with_const else with_const
