let feas_tol = 1e-9

type reduction = {
  objective_offset : float;
  kept_vars : int array;
  kept_rows : int array;
  (* For every original variable: either its fixed value or its index in
     the reduced model. *)
  var_disposition : [ `Fixed of float | `Kept of int ] array;
}

let objective_offset r = r.objective_offset
let kept_vars r = r.kept_vars
let kept_rows r = r.kept_rows

let restore_primal r reduced =
  Array.map
    (function `Fixed v -> v | `Kept idx -> reduced.(idx))
    r.var_disposition

(* Working bounds are mutated by the reduction loop; rows are rebuilt with
   fixed variables substituted away each pass (simple, and the passes are
   few). *)
exception Infeasible_detected

let presolve model =
  let n = Model.num_vars model in
  let lb = Array.init n (fun v -> Model.lower_bound model (Model.var_of_index model v)) in
  let ub = Array.init n (fun v -> Model.upper_bound model (Model.var_of_index model v)) in
  let fixed = Array.make n false in
  let row_dropped = Array.make (Model.num_rows model) false in
  let check_var v =
    if lb.(v) > ub.(v) +. feas_tol then raise Infeasible_detected;
    if not fixed.(v) && ub.(v) -. lb.(v) <= feas_tol && lb.(v) > neg_infinity
    then fixed.(v) <- true
  in
  try
    for v = 0 to n - 1 do
      check_var v
    done;
    let changed = ref true in
    while !changed do
      changed := false;
      Model.iter_rows model (fun r terms sense rhs ->
          let r = (r :> int) in
          if not row_dropped.(r) then begin
            (* Substitute fixed variables. *)
            let live = ref [] and rhs' = ref rhs in
            List.iter
              (fun ((v : Model.var), c) ->
                let v = (v :> int) in
                if fixed.(v) then rhs' := !rhs' -. (c *. lb.(v))
                else live := (v, c) :: !live)
              terms;
            match !live with
            | [] ->
                let ok =
                  match sense with
                  | Model.Le -> 0. <= !rhs' +. feas_tol
                  | Model.Ge -> 0. >= !rhs' -. feas_tol
                  | Model.Eq -> abs_float !rhs' <= feas_tol
                in
                if not ok then raise Infeasible_detected;
                row_dropped.(r) <- true;
                changed := true
            | [ (v, c) ] ->
                (* Singleton row: tighten the variable's bounds. *)
                let bound = !rhs' /. c in
                (match sense with
                 | Model.Eq ->
                     if bound < lb.(v) -. feas_tol || bound > ub.(v) +. feas_tol
                     then raise Infeasible_detected;
                     (* Pin exactly to avoid tolerance drift. *)
                     lb.(v) <- bound;
                     ub.(v) <- bound
                 | Model.Le ->
                     if c > 0. then begin
                       if bound < ub.(v) then ub.(v) <- bound
                     end
                     else if bound > lb.(v) then lb.(v) <- bound
                 | Model.Ge ->
                     if c > 0. then begin
                       if bound > lb.(v) then lb.(v) <- bound
                     end
                     else if bound < ub.(v) then ub.(v) <- bound);
                check_var v;
                row_dropped.(r) <- true;
                changed := true
            | _ :: _ :: _ -> ()
          end)
    done;
    (* Assemble the reduced model. *)
    let var_disposition =
      Array.init n (fun v -> if fixed.(v) then `Fixed lb.(v) else `Kept 0)
    in
    let kept_vars =
      Array.of_list
        (List.filter (fun v -> not fixed.(v)) (List.init n (fun v -> v)))
    in
    Array.iteri (fun idx v -> var_disposition.(v) <- `Kept idx) kept_vars;
    let objective_offset = ref 0. in
    for v = 0 to n - 1 do
      if fixed.(v) then
        objective_offset :=
          !objective_offset
          +. (Model.obj_coeff model (Model.var_of_index model v) *. lb.(v))
    done;
    let reduced = Model.create ~name:(Model.name model ^ "-presolved")
        (Model.objective_sense model)
    in
    let new_vars =
      Array.map
        (fun v ->
          Model.add_var reduced
            ~name:(Model.var_name model (Model.var_of_index model v))
            ~lb:lb.(v) ~ub:ub.(v)
            ~obj:(Model.obj_coeff model (Model.var_of_index model v))
            ())
        kept_vars
    in
    let var_map = Hashtbl.create 64 in
    Array.iteri (fun idx v -> Hashtbl.replace var_map v new_vars.(idx)) kept_vars;
    let kept_rows = ref [] in
    Model.iter_rows model (fun r terms sense rhs ->
        let r = (r :> int) in
        if not row_dropped.(r) then begin
          let rhs' = ref rhs and live = ref [] in
          List.iter
            (fun ((v : Model.var), c) ->
              let v = (v :> int) in
              if fixed.(v) then rhs' := !rhs' -. (c *. lb.(v))
              else live := (Hashtbl.find var_map v, c) :: !live)
            terms;
          ignore
            (Model.add_constraint reduced
               ~name:(Model.row_name model (Model.row_of_index model r))
               !live sense !rhs');
          kept_rows := r :: !kept_rows
        end);
    `Reduced
      ( reduced,
        { objective_offset = !objective_offset;
          kept_vars;
          kept_rows = Array.of_list (List.rev !kept_rows);
          var_disposition } )
  with Infeasible_detected -> `Infeasible

let solve ?params model =
  match presolve model with
  | `Infeasible -> Status.Infeasible
  | `Reduced (reduced, r) -> (
      match Simplex.solve ?params reduced with
      | Status.Optimal s ->
          let primal = restore_primal r s.Status.primal in
          let dual = Array.make (Model.num_rows model) 0. in
          Array.iteri
            (fun idx row -> dual.(row) <- s.Status.dual.(idx))
            r.kept_rows;
          let reduced_costs = Array.make (Model.num_vars model) 0. in
          Array.iteri
            (fun idx v -> reduced_costs.(v) <- s.Status.reduced_costs.(idx))
            r.kept_vars;
          Status.Optimal
            { Status.objective = s.Status.objective +. r.objective_offset;
              primal;
              dual;
              reduced_costs;
              iterations = s.Status.iterations;
              stats = s.Status.stats }
      | (Status.Infeasible | Status.Unbounded | Status.Iteration_limit) as o -> o)
