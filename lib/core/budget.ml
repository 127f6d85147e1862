module Graph = Netgraph.Graph
module Model = Lp.Model

type result = {
  plan : Plan.t;
  delivered : float array;
  total_delivered : float;
  cost : float;
  charged : float array;
}

let solve ~base ~charged ~capacity ~files ~epoch ~budget () =
  if Array.length charged <> Graph.num_arcs base then
    Error "Budget.solve: charged size mismatch"
  else if budget < 0. || Float.is_nan budget then
    Error "Budget.solve: negative budget"
  else begin
    let model = Model.create ~name:"budget" Model.Maximize in
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
      Texp_lp.build ~model ~base ~capacity ~files ~epoch
        ~flow_obj:(fun ~cost -> -1e-4 *. cost)
        ~supply:(`Elastic supplies)
    in
    (* The X variables get a tiny negative reward so that, among schedules
       delivering the maximum volume, the solver reports the cheapest one
       (and X is pinned to the actual peak usage rather than floating up to
       the budget). *)
    let x_vars =
      Texp_lp.add_charge_coupling ~model program ~charged
        ~x_obj:(fun ~cost -> -1e-4 *. cost)
    in
    let budget_terms =
      Graph.fold_arcs base ~init:[] ~f:(fun acc a ->
          (x_vars.(a.Graph.id), a.Graph.cost) :: acc)
    in
    ignore (Model.add_constraint model ~name:"budget" budget_terms Model.Le budget);
    match Lp.Simplex.solve model with
    | Lp.Status.Optimal s ->
        let primal = s.Lp.Status.primal in
        let plan = Texp_lp.extract_plan program ~primal in
        let delivered = Texp_lp.extract_supplies program ~primal supplies in
        let charged' =
          Array.map (fun (v : Model.var) -> primal.((v :> int))) x_vars
        in
        let cost = ref 0. in
        Graph.iter_arcs base (fun a ->
            cost := !cost +. (a.Graph.cost *. charged'.(a.Graph.id)));
        Ok
          { plan;
            delivered;
            total_delivered = Array.fold_left ( +. ) 0. delivered;
            cost = !cost;
            charged = charged' }
    | Lp.Status.Infeasible ->
        Error "Budget.solve: budget below the cost of committed traffic"
    | Lp.Status.Unbounded -> Error "Budget.solve: unbounded"
    | Lp.Status.Iteration_limit -> Error "Budget.solve: iteration limit"
  end
