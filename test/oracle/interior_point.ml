module Model = Lp.Model
module Status = Lp.Status

let dot a b =
  let acc = ref 0. in
  for i = 0 to Array.length a - 1 do
    acc := !acc +. (a.(i) *. b.(i))
  done;
  !acc

let norm a = sqrt (dot a a)

(* Solve A diag(d) A^T dy = rhs by dense Cholesky, with a tiny diagonal
   regularization for rank-deficient A. *)
let normal_solve a d rhs =
  let m = Array.length a in
  let n = if m = 0 then 0 else Array.length a.(0) in
  let s = Dense.make m m in
  for i = 0 to m - 1 do
    for j = i to m - 1 do
      let acc = ref 0. in
      for k = 0 to n - 1 do
        acc := !acc +. (a.(i).(k) *. d.(k) *. a.(j).(k))
      done;
      s.(i).(j) <- !acc;
      s.(j).(i) <- !acc
    done;
    s.(i).(i) <- s.(i).(i) +. 1e-10
  done;
  Dense.cholesky_solve s rhs

let solve ?(max_iterations = 100) ?(tolerance = 1e-8) model =
  let form = Dense_form.of_model model in
  let a = Dense_form.a form in
  let b = Dense_form.b form in
  let c = Dense_form.c form in
  let m = Array.length b in
  let n = Array.length c in
  if n = 0 then
    (* No variables: the objective is the constant. *)
    Status.Optimal
      { Status.objective = Dense_form.model_objective form 0.;
        primal = Array.make (Model.num_vars model) 0.;
        dual = Array.make (Model.num_rows model) 0.;
        reduced_costs = Array.make (Model.num_vars model) 0.;
        iterations = 0;
        stats = Status.no_stats }
  else begin
    let at = Dense.transpose a in
    (* Starting point: positive x and s at a data-driven scale. *)
    let scale =
      1. +. max (norm b /. float_of_int (max m 1)) (norm c /. float_of_int n)
    in
    let x = Array.make n scale in
    let s = Array.make n scale in
    let y = Array.make m 0. in
    let result = ref Status.Iteration_limit in
    let iterations = ref 0 in
    (try
       while !iterations < max_iterations do
         incr iterations;
         (* Residuals. *)
         let ax = Dense.matvec a x in
         let r_b = Array.init m (fun i -> ax.(i) -. b.(i)) in
         let aty = Dense.matvec at y in
         let r_c = Array.init n (fun j -> aty.(j) +. s.(j) -. c.(j)) in
         let mu = dot x s /. float_of_int n in
         let rel_b = norm r_b /. (1. +. norm b) in
         let rel_c = norm r_c /. (1. +. norm c) in
         if rel_b < tolerance && rel_c < tolerance && mu < tolerance then begin
           result :=
             Status.Optimal
               { Status.objective = Dense_form.model_objective form (dot c x);
                 primal = Dense_form.restore_primal form x;
                 dual =
                   (let flip v = if Dense_form.flip_objective form then -.v else v in
                    Array.init (Model.num_rows model) (fun i -> flip y.(i)));
                 reduced_costs =
                   (let flip v = if Dense_form.flip_objective form then -.v else v in
                    let z = Array.map flip s in
                    (* Dual slacks of shifted variables approximate the
                       model's reduced costs; exact enough for the
                       cross-check role. *)
                    Array.init (Model.num_vars model) (fun v ->
                        if v < Array.length z then z.(v) else 0.));
                 iterations = !iterations;
                 stats = Status.no_stats };
           raise Exit
         end;
         (* Divergence guard. *)
         if Float.is_nan mu || mu > 1e16 then raise Exit;
         let d = Array.init n (fun j -> x.(j) /. s.(j)) in
         (* Newton system for targets (r_b, r_c, XSe -> sigma mu e):
              A dx = -r_b
              A^T dy + ds = -r_c
              S dx + X ds = -XSe + sigma mu e
            Eliminate: ds = -r_c - A^T dy;
              dx = (sigma mu e - XSe - X ds) / S
                 = d .* (A^T dy + r_c) + (sigma mu e - X S e)/S
            A dx = -r_b gives
              A D A^T dy = -r_b - A (d .* r_c + (sigma mu e - XSe)/S). *)
         let solve_direction sigma_mu =
           let t =
             Array.init n (fun j ->
                 (d.(j) *. r_c.(j)) +. ((sigma_mu -. (x.(j) *. s.(j))) /. s.(j)))
           in
           let att = Dense.matvec a t in
           let rhs = Array.init m (fun i -> -.r_b.(i) -. att.(i)) in
           match normal_solve a d rhs with
           | None -> None
           | Some dy ->
               let atdy = Dense.matvec at dy in
               let ds = Array.init n (fun j -> -.r_c.(j) -. atdy.(j)) in
               let dx =
                 Array.init n (fun j ->
                     ((sigma_mu -. (x.(j) *. s.(j))) -. (x.(j) *. ds.(j)))
                     /. s.(j))
               in
               Some (dx, dy, ds)
         in
         let step_bound v dv =
           let alpha = ref 1. in
           for j = 0 to Array.length v - 1 do
             if dv.(j) < 0. then begin
               let limit = -.v.(j) /. dv.(j) in
               if limit < !alpha then alpha := limit
             end
           done;
           !alpha
         in
         (match solve_direction 0. with
          | None -> raise Exit
          | Some (dx_aff, _, ds_aff) ->
              let alpha_p = step_bound x dx_aff in
              let alpha_d = step_bound s ds_aff in
              let mu_aff =
                let acc = ref 0. in
                for j = 0 to n - 1 do
                  acc :=
                    !acc
                    +. ((x.(j) +. (alpha_p *. dx_aff.(j)))
                        *. (s.(j) +. (alpha_d *. ds_aff.(j))))
                done;
                !acc /. float_of_int n
              in
              let sigma =
                let r = mu_aff /. mu in
                r *. r *. r
              in
              (match solve_direction (sigma *. mu) with
               | None -> raise Exit
               | Some (dx, dy, ds) ->
                   let eta = 0.9995 in
                   let alpha_p = min 1. (eta *. step_bound x dx) in
                   let alpha_d = min 1. (eta *. step_bound s ds) in
                   for j = 0 to n - 1 do
                     x.(j) <- x.(j) +. (alpha_p *. dx.(j));
                     s.(j) <- s.(j) +. (alpha_d *. ds.(j))
                   done;
                   for i = 0 to m - 1 do
                     y.(i) <- y.(i) +. (alpha_d *. dy.(i))
                   done))
       done
     with Exit -> ());
    !result
  end
