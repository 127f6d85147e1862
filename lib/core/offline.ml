module Graph = Netgraph.Graph
module Model = Lp.Model

type result = {
  plan : Plan.t;
  objective : float;
  charged : float array;
}

let solve ~base ~files ?(tie_break = 1e-4) () =
  if files = [] then
    Ok
      { plan = Plan.empty;
        objective = 0.;
        charged = Array.make (Graph.num_arcs base) 0. }
  else begin
    match List.find_opt (fun f -> not (Texp_lp.deliverable ~base f)) files with
    | Some f ->
        Error
          (Printf.sprintf
             "Offline.solve: file %d cannot reach its destination within \
              its deadline"
             f.File.id)
    | None ->
    let epoch =
      List.fold_left (fun acc f -> min acc f.File.release) max_int files
    in
    let capacity ~link ~layer =
      ignore layer;
      (Graph.arc base link).Graph.capacity
    in
    let model = Model.create ~name:"postcard-offline" Model.Minimize in
    let program =
      Texp_lp.build ~model ~base ~capacity ~files ~epoch
        ~flow_obj:(fun ~cost -> tie_break *. cost)
        ~supply:`Full
    in
    let x_vars =
      Texp_lp.add_charge_coupling ~model program
        ~charged:(Array.make (Graph.num_arcs base) 0.)
        ~x_obj:(fun ~cost -> cost)
    in
    match Lp.Simplex.solve model with
    | Lp.Status.Optimal s ->
        let primal = s.Lp.Status.primal in
        let plan = Texp_lp.extract_plan program ~primal in
        let charged =
          Array.map (fun (v : Model.var) -> primal.((v :> int))) x_vars
        in
        let objective = ref 0. in
        Graph.iter_arcs base (fun a ->
            objective := !objective +. (a.Graph.cost *. charged.(a.Graph.id)));
        Ok { plan; objective = !objective; charged }
    | Lp.Status.Infeasible ->
        Error "Offline.solve: some file cannot meet its deadline"
    | Lp.Status.Unbounded -> Error "Offline.solve: unbounded"
    | Lp.Status.Iteration_limit -> Error "Offline.solve: iteration limit"
  end

let price_of_myopia ~base ~online_cost ~offline =
  ignore base;
  if offline.objective <= 0. then 1. else online_cost /. offline.objective
