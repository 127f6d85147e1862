module Model = Lp.Model

type result = {
  plan : Plan.t;
  delivered : float array;
  total_delivered : float;
}

let solve ~base ~charged ~capacity ~occupied ~files ~epoch ~paid_only () =
  if Array.length charged <> Netgraph.Graph.num_arcs base then
    Error "Bulk.solve: charged size mismatch"
  else begin
    let usable ~link ~layer =
      let residual = capacity ~link ~layer in
      if paid_only then
        (* Only the headroom below the charged volume is free. *)
        min residual (max 0. (charged.(link) -. occupied ~link ~layer))
      else residual
    in
    let model = Model.create ~name:"bulk" Model.Maximize in
    let supplies =
      Array.of_list
        (List.map
           (fun f ->
             Model.add_var model
               ~name:(Printf.sprintf "v_%d" f.File.id)
               ~lb:0. ~ub:f.File.size ~obj:1. ())
           files)
    in
    let program =
      Texp_lp.build ~model ~base ~capacity:usable ~files ~epoch
        ~flow_obj:(fun ~cost -> -1e-4 *. cost)
        ~supply:(`Elastic supplies)
    in
    match Lp.Simplex.solve model with
    | Lp.Status.Optimal s ->
        let primal = s.Lp.Status.primal in
        let plan = Texp_lp.extract_plan program ~primal in
        let delivered = Texp_lp.extract_supplies program ~primal supplies in
        Ok
          { plan;
            delivered;
            total_delivered = Array.fold_left ( +. ) 0. delivered }
    | Lp.Status.Infeasible ->
        (* Zero supply is always feasible; infeasibility is numerical. *)
        Error "Bulk.solve: unexpectedly infeasible"
    | Lp.Status.Unbounded -> Error "Bulk.solve: unbounded"
    | Lp.Status.Iteration_limit -> Error "Bulk.solve: iteration limit"
  end
