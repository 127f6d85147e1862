module Model = Lp.Model
module Status = Lp.Status

(* Compilation scheme: every model variable is rewritten in terms of
   non-negative variables, producing [min c.z, A z (sense) b, z >= 0]:

   - finite lower bound l:        x = l + z
     (a finite upper bound u adds the row  z <= u - l)
   - only finite upper bound u:   x = u - z
   - free:                        x = z+ - z-

   Senses are then normalized with slack/surplus columns, rows are flipped
   to make b >= 0, and a full artificial basis starts phase 1. *)

type var_map =
  | Shifted of int * float  (* z index, offset: x = offset + z *)
  | Negated of int * float  (* z index, offset: x = offset - z *)
  | Split of int * int  (* x = z+ - z- *)

let solve ?(max_iterations = 100_000) model =
  let n = Model.num_vars model in
  let mapping = Array.make n (Shifted (0, 0.)) in
  let n_z = ref 0 in
  let extra_upper_rows = ref [] in
  (* objective constant accumulated from substitutions *)
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
      if u < infinity then extra_upper_rows := (z, u -. l) :: !extra_upper_rows
    end
    else if u < infinity then mapping.(v) <- Negated (fresh (), u)
    else begin
      let zp = fresh () in
      let zm = fresh () in
      mapping.(v) <- Split (zp, zm)
    end
  done;
  let n_z = !n_z in
  let flip = match Model.objective_sense model with
    | Model.Minimize -> false
    | Model.Maximize -> true
  in
  (* Cost over z and the constant term. *)
  let cost = Array.make n_z 0. in
  let cost_const = ref 0. in
  for v = 0 to n - 1 do
    let var = Model.var_of_index model v in
    let c0 = Model.obj_coeff model var in
    let c = if flip then -.c0 else c0 in
    if c <> 0. then
      match mapping.(v) with
      | Shifted (z, off) ->
          cost.(z) <- cost.(z) +. c;
          cost_const := !cost_const +. (c *. off)
      | Negated (z, off) ->
          cost.(z) <- cost.(z) -. c;
          cost_const := !cost_const +. (c *. off)
      | Split (zp, zm) ->
          cost.(zp) <- cost.(zp) +. c;
          cost.(zm) <- cost.(zm) -. c
  done;
  (* Rows over z. *)
  let rows = ref [] in
  Model.iter_rows model (fun _ terms sense rhs ->
      let coeffs = Array.make n_z 0. in
      let rhs = ref rhs in
      List.iter
        (fun ((v : Model.var), c) ->
          match mapping.((v :> int)) with
          | Shifted (z, off) ->
              coeffs.(z) <- coeffs.(z) +. c;
              rhs := !rhs -. (c *. off)
          | Negated (z, off) ->
              coeffs.(z) <- coeffs.(z) -. c;
              rhs := !rhs -. (c *. off)
          | Split (zp, zm) ->
              coeffs.(zp) <- coeffs.(zp) +. c;
              coeffs.(zm) <- coeffs.(zm) -. c)
        terms;
      rows := (coeffs, sense, !rhs) :: !rows);
  List.iter
    (fun (z, cap) ->
      let coeffs = Array.make n_z 0. in
      coeffs.(z) <- 1.;
      rows := (coeffs, Model.Le, cap) :: !rows)
    !extra_upper_rows;
  let rows = Array.of_list (List.rev !rows) in
  let m = Array.length rows in
  (* Count slack columns. *)
  let n_slack =
    Array.fold_left
      (fun acc (_, sense, _) ->
        match sense with Model.Le | Model.Ge -> acc + 1 | Model.Eq -> acc)
      0 rows
  in
  let width = n_z + n_slack + m in
  (* Tableau: m rows of [width] coefficients plus rhs column. *)
  let tab = Array.make_matrix m (width + 1) 0. in
  let slack_at = ref n_z in
  for i = 0 to m - 1 do
    let coeffs, sense, rhs = rows.(i) in
    Array.blit coeffs 0 tab.(i) 0 n_z;
    (match sense with
     | Model.Le ->
         tab.(i).(!slack_at) <- 1.;
         incr slack_at
     | Model.Ge ->
         tab.(i).(!slack_at) <- -1.;
         incr slack_at
     | Model.Eq -> ());
    tab.(i).(width) <- rhs;
    if tab.(i).(width) < 0. then
      for j = 0 to width do
        tab.(i).(j) <- -.tab.(i).(j)
      done;
    (* Artificial column. *)
    tab.(i).(n_z + n_slack + i) <- 1.
  done;
  let is_artificial j = j >= n_z + n_slack in
  let basis = Array.init m (fun i -> n_z + n_slack + i) in
  (* Reduced-cost row maintained explicitly; rebuilt at each phase. *)
  let cost_row = Array.make (width + 1) 0. in
  let build_cost_row phase_cost =
    Array.fill cost_row 0 (width + 1) 0.;
    Array.blit phase_cost 0 cost_row 0 (Array.length phase_cost);
    (* Price out the basic columns. *)
    for i = 0 to m - 1 do
      let cb =
        if basis.(i) < Array.length phase_cost then phase_cost.(basis.(i))
        else 0.
      in
      if cb <> 0. then
        for j = 0 to width do
          cost_row.(j) <- cost_row.(j) -. (cb *. tab.(i).(j))
        done
    done
  in
  let pivot ~row ~col =
    let p = tab.(row).(col) in
    for j = 0 to width do
      tab.(row).(j) <- tab.(row).(j) /. p
    done;
    for i = 0 to m - 1 do
      if i <> row && tab.(i).(col) <> 0. then begin
        let f = tab.(i).(col) in
        for j = 0 to width do
          tab.(i).(j) <- tab.(i).(j) -. (f *. tab.(row).(j))
        done
      end
    done;
    if cost_row.(col) <> 0. then begin
      let f = cost_row.(col) in
      for j = 0 to width do
        cost_row.(j) <- cost_row.(j) -. (f *. tab.(row).(j))
      done
    end;
    basis.(row) <- col
  in
  let iterations = ref 0 in
  let exception Unbounded_lp in
  let exception Out_of_iterations in
  (* Bland's rule iteration over allowed columns. *)
  let run allowed =
    let continue = ref true in
    while !continue do
      if !iterations >= max_iterations then raise Out_of_iterations;
      (* Entering: smallest-index column with negative reduced cost. *)
      let enter = ref (-1) in
      (try
         for j = 0 to width - 1 do
           if allowed j && cost_row.(j) < -1e-9 then begin
             enter := j;
             raise Exit
           end
         done
       with Exit -> ());
      if !enter < 0 then continue := false
      else begin
        incr iterations;
        let col = !enter in
        (* Leaving: minimum ratio, ties by smallest basic variable index. *)
        let best = ref (-1) and best_ratio = ref infinity in
        for i = 0 to m - 1 do
          if tab.(i).(col) > 1e-9 then begin
            let r = tab.(i).(width) /. tab.(i).(col) in
            if
              r < !best_ratio -. 1e-12
              || (abs_float (r -. !best_ratio) <= 1e-12
                  && !best >= 0
                  && basis.(i) < basis.(!best))
            then begin
              best := i;
              best_ratio := r
            end
          end
        done;
        if !best < 0 then raise Unbounded_lp;
        pivot ~row:!best ~col
      end
    done
  in
  try
    (* Phase 1: minimize the sum of artificials. The reduced-cost row
       starts as the phase-1 cost with basic (artificial) rows priced
       out. *)
    Array.fill cost_row 0 (width + 1) 0.;
    for j = n_z + n_slack to width - 1 do
      cost_row.(j) <- 1.
    done;
    for i = 0 to m - 1 do
      (* price out the basic artificials *)
      for j = 0 to width do
        cost_row.(j) <- cost_row.(j) -. tab.(i).(j)
      done
    done;
    run (fun _ -> true);
    (* -cost_row.(width) is the phase-1 objective. *)
    if -.cost_row.(width) > 1e-6 then Status.Infeasible
    else begin
      (* Drive basic artificials out of the basis where possible; redundant
         rows keep their artificial pinned at zero and artificial columns are
         excluded from phase 2. *)
      for i = 0 to m - 1 do
        if is_artificial basis.(i) then begin
          let found = ref (-1) in
          (try
             for j = 0 to n_z + n_slack - 1 do
               if abs_float tab.(i).(j) > 1e-9 then begin
                 found := j;
                 raise Exit
               end
             done
           with Exit -> ());
          if !found >= 0 then pivot ~row:i ~col:!found
        end
      done;
      build_cost_row cost;
      run (fun j -> not (is_artificial j));
      (* Primal in z space. *)
      let z = Array.make width 0. in
      for i = 0 to m - 1 do
        z.(basis.(i)) <- tab.(i).(width)
      done;
      let primal = Array.make n 0. in
      for v = 0 to n - 1 do
        primal.(v) <-
          (match mapping.(v) with
           | Shifted (zi, off) -> off +. z.(zi)
           | Negated (zi, off) -> off -. z.(zi)
           | Split (zp, zm) -> z.(zp) -. z.(zm))
      done;
      let obj_z = -.cost_row.(width) +. !cost_const in
      let objective = if flip then -.obj_z else obj_z in
      Status.Optimal
        { Status.objective;
          primal;
          dual = Array.make (Model.num_rows model) 0.;
          reduced_costs = Array.make n 0.;
          iterations = !iterations;
          stats = Status.no_stats }
    end
  with
  | Unbounded_lp -> Status.Unbounded
  | Out_of_iterations -> Status.Iteration_limit
