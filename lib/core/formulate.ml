module Graph = Netgraph.Graph
module Model = Lp.Model

type t = {
  base : Graph.t;
  model : Model.t;
  program : Texp_lp.t;
  x_vars : Model.var array;
}

let create ~base ~charged ~capacity ~files ~epoch ?(tie_break = 1e-4) () =
  if Array.length charged <> Graph.num_arcs base then
    invalid_arg "Formulate.create: charged size mismatch";
  Obs.Span.with_ "core.formulate" (fun () ->
      let model = Model.create ~name:"postcard" Model.Minimize in
      let program =
        Texp_lp.build ~model ~base ~capacity ~files ~epoch
          ~flow_obj:(fun ~cost -> tie_break *. cost)
          ~supply:`Full
      in
      let x_vars =
        Texp_lp.add_charge_coupling ~model program ~charged
          ~x_obj:(fun ~cost -> cost)
      in
      { base; model; program; x_vars })

let model t = t.model

let horizon t = Texp_lp.horizon t.program

type result =
  | Scheduled of {
      plan : Plan.t;
      objective : float;
      charged : float array;
    }
  | Infeasible
  | Solver_failure of string

type solve_info = {
  iterations : int;
  stats : Lp.Status.stats;
}

let interpret t outcome =
  let no_info = { iterations = 0; stats = Lp.Status.no_stats } in
  match outcome with
  | Lp.Status.Infeasible -> (Infeasible, no_info)
  | Lp.Status.Unbounded ->
      (Solver_failure "unbounded Postcard program", no_info)
  | Lp.Status.Iteration_limit ->
      (Solver_failure "iteration limit reached", no_info)
  | Lp.Status.Optimal s ->
      Obs.Span.with_ "core.extract" (fun () ->
          let primal = s.Lp.Status.primal in
          let plan = Texp_lp.extract_plan t.program ~primal in
          let charged =
            Array.map (fun (v : Model.var) -> primal.((v :> int))) t.x_vars
          in
          (* Report the pure paper objective (without the tie-break term). *)
          let objective = ref 0. in
          Graph.iter_arcs t.base (fun a ->
              objective := !objective +. (a.Graph.cost *. charged.(a.Graph.id)));
          (Scheduled { plan; objective = !objective; charged },
           { iterations = s.Lp.Status.iterations; stats = s.Lp.Status.stats }))

let solve_with_info t =
  interpret t
    (Obs.Span.with_ "core.solve" (fun () -> Lp.Simplex.solve t.model))

let solve t = fst (solve_with_info t)
