module Graph = Netgraph.Graph
module Model = Lp.Model

type instance = {
  base : Graph.t;
  cap : float array;
  occ_peak : float array;
  charged : float array;
}

let instance_of_context (ctx : Scheduler.context) ~horizon =
  let m = Graph.num_arcs ctx.Scheduler.base in
  let cap = Array.make m infinity and occ_peak = Array.make m 0. in
  let links = ctx.Scheduler.links in
  for l = 0 to m - 1 do
    for layer = 0 to horizon - 1 do
      let slot = ctx.Scheduler.epoch + layer in
      cap.(l) <- min cap.(l) (Linkview.residual links ~link:l ~slot);
      occ_peak.(l) <- max occ_peak.(l) (Linkview.occupied links ~link:l ~slot)
    done
  done;
  { base = ctx.Scheduler.base;
    cap;
    occ_peak;
    charged = Array.copy ctx.Scheduler.charged }

type flows = {
  lambda : float;
  rates : float array array;
  estimated_cost : float;
}

let tie_break = 1e-4

(* Flow variables exist only on links with usable capacity: creating the
   zero-capacity rest would hand the simplex a swamp of degenerate
   columns (the early-epoch "free subgraph" is typically tiny). Variables
   are [vars.(k).(l) : Model.var option]. *)
let make_flow_vars model ~nfiles ~num_links ~usable ~obj_of =
  Array.init nfiles (fun k ->
      Array.init num_links (fun l ->
          if usable l then
            Some
              (Model.add_var model
                 ~name:(Printf.sprintf "f_%d_%d" k l)
                 ~obj:(obj_of l) ())
          else None))

(* Per-commodity conservation rows over the static graph. [supply k] gives
   the source injection for commodity [k] (a list of terms to add to the
   source/destination rows, or a constant). *)
let add_conservation model inst ~files ~vars ~supply_term ~supply_rhs =
  let n = Graph.num_nodes inst.base in
  List.iteri
    (fun k f ->
      for node = 0 to n - 1 do
        let terms = ref [] in
        let add sign id =
          match vars.(k).(id) with
          | Some v -> terms := (v, sign) :: !terms
          | None -> ()
        in
        List.iter (add 1.) (Graph.out_arcs inst.base node);
        List.iter (add (-1.)) (Graph.in_arcs inst.base node);
        let extra, rhs =
          if node = f.File.src then (supply_term k ~sign:(-1.), supply_rhs k ~sign:1.)
          else if node = f.File.dst then (supply_term k ~sign:1., supply_rhs k ~sign:(-1.))
          else ([], 0.)
        in
        let all_terms = extra @ !terms in
        if all_terms <> [] || rhs <> 0. then
          ignore
            (Model.add_constraint model
               ~name:(Printf.sprintf "cons_f%d_n%d" f.File.id node)
               all_terms Model.Eq rhs)
      done)
    files

(* Aggregate capacity rows over the usable links only. *)
let add_capacity_rows model ~num_links ~usable ~vars ~bound =
  for l = 0 to num_links - 1 do
    if usable l then begin
      let terms =
        Array.to_list vars
        |> List.filter_map (fun per_link ->
               Option.map (fun v -> (v, 1.)) per_link.(l))
      in
      if terms <> [] then
        ignore
          (Model.add_constraint model
             ~name:(Printf.sprintf "cap_%d" l)
             terms Model.Le (bound l))
    end
  done

(* Can every commodity reach its destination inside the subgraph of links
   satisfying [usable]? BFS per commodity; the LP is skipped when the
   answer is no (for stage 1 that pins lambda to 0). *)
let all_connected inst ~files ~usable =
  let n = Graph.num_nodes inst.base in
  List.for_all
    (fun f ->
      let visited = Array.make n false in
      let queue = Queue.create () in
      visited.(f.File.src) <- true;
      Queue.push f.File.src queue;
      let found = ref false in
      while not (Queue.is_empty queue || !found) do
        let u = Queue.pop queue in
        List.iter
          (fun id ->
            let a = Graph.arc inst.base id in
            if usable id && not visited.(a.Graph.dst) then begin
              visited.(a.Graph.dst) <- true;
              if a.Graph.dst = f.File.dst then found := true;
              Queue.push a.Graph.dst queue
            end)
          (Graph.out_arcs inst.base u)
      done;
      !found)
    files

let estimated_cost inst totals =
  let acc = ref 0. in
  Graph.iter_arcs inst.base (fun a ->
      let l = a.Graph.id in
      let volume = max inst.charged.(l) (inst.occ_peak.(l) +. totals.(l)) in
      acc := !acc +. (a.Graph.cost *. volume));
  !acc

let totals_of_rates inst rates =
  let m = Graph.num_arcs inst.base in
  let totals = Array.make m 0. in
  Array.iter
    (fun per_link ->
      Array.iteri (fun l r -> totals.(l) <- totals.(l) +. r) per_link)
    rates;
  ignore inst;
  totals

let eps_rate = 1e-9

(* Extract rates.(k).(l) from a solution given the variable layout. *)
let extract_rates primal ~files ~vars =
  List.mapi
    (fun k _ ->
      Array.map
        (function
          | Some (v : Model.var) ->
              let x = primal.((v :> int)) in
              if x > eps_rate then x else 0.
          | None -> 0.)
        vars.(k))
    files
  |> Array.of_list

let zero_rates inst ~files =
  Array.of_list
    (List.map (fun _ -> Array.make (Graph.num_arcs inst.base) 0.) files)

(* Free headroom below the already-charged volume. *)
let free_headroom inst l =
  min inst.cap.(l) (max 0. (inst.charged.(l) -. inst.occ_peak.(l)))

let solve_stage1 inst ~files =
  let m = Graph.num_arcs inst.base in
  let nfiles = List.length files in
  let usable l = free_headroom inst l > eps_rate in
  (* Short-circuit: with any commodity cut off from free capacity, the
     maximum concurrent fraction is zero and there is nothing to route
     (this is the common case early in a charging period, and the LP it
     avoids is pathologically degenerate). *)
  if not (all_connected inst ~files ~usable) then
    Some (0., zero_rates inst ~files)
  else begin
    let model = Model.create ~name:"flow-stage1" Model.Maximize in
    let lambda = Model.add_var model ~name:"lambda" ~lb:0. ~ub:1. ~obj:1. () in
    let vars =
      make_flow_vars model ~nfiles ~num_links:m ~usable ~obj_of:(fun _ -> 0.)
    in
    let rates = List.map File.rate files in
    let rate k = List.nth rates k in
    add_conservation model inst ~files ~vars
      ~supply_term:(fun k ~sign -> [ (lambda, sign *. rate k) ])
      ~supply_rhs:(fun _ ~sign:_ -> 0.);
    add_capacity_rows model ~num_links:m ~usable ~vars
      ~bound:(free_headroom inst);
    match Lp.Simplex.solve model with
    | Lp.Status.Optimal s ->
        let lambda_star = min 1. (max 0. s.Lp.Status.primal.((lambda :> int))) in
        if lambda_star < eps_rate then Some (0., zero_rates inst ~files)
        else begin
          (* Polish: among maximum-concurrent routings, pick the cheapest
             and least-travelled one. *)
          let model2 = Model.create ~name:"flow-stage1-polish" Model.Minimize in
          let vars2 =
            make_flow_vars model2 ~nfiles ~num_links:m ~usable
              ~obj_of:(fun l -> (Graph.arc inst.base l).Graph.cost *. tie_break)
          in
          add_conservation model2 inst ~files ~vars:vars2
            ~supply_term:(fun _ ~sign:_ -> [])
            ~supply_rhs:(fun k ~sign -> sign *. lambda_star *. rate k);
          add_capacity_rows model2 ~num_links:m ~usable ~vars:vars2
            ~bound:(free_headroom inst);
          match Lp.Simplex.solve model2 with
          | Lp.Status.Optimal s2 ->
              Some
                (lambda_star, extract_rates s2.Lp.Status.primal ~files ~vars:vars2)
          | Lp.Status.Infeasible | Lp.Status.Unbounded
          | Lp.Status.Iteration_limit ->
              (* Fall back to the unpolished stage-1 flows. *)
              Some (lambda_star, extract_rates s.Lp.Status.primal ~files ~vars)
        end
    | Lp.Status.Infeasible | Lp.Status.Unbounded | Lp.Status.Iteration_limit ->
        None
  end

(* Stage 2 in two flavours.

   [`Literal] is the paper's wording: a plain minimum-cost multicommodity
   flow for the residual demand — each unit of flow on a link costs the
   link price, regardless of charge headroom left over by stage 1.

   [`Excess] is the natural strengthening: only volume pushing a link's
   total above the already-charged level costs anything, so stage 2 keeps
   free-riding whatever headroom stage 1 left unused. *)
let solve_stage2 inst ~files ~lambda ~stage1_rates ~mode =
  let m = Graph.num_arcs inst.base in
  let nfiles = List.length files in
  let stage1_totals = totals_of_rates inst stage1_rates in
  let residual_cap l = inst.cap.(l) -. stage1_totals.(l) in
  let usable l = residual_cap l > eps_rate in
  if not (all_connected inst ~files ~usable) then None
  else begin
    let model = Model.create ~name:"flow-stage2" Model.Minimize in
    let flow_cost cost =
      match mode with
      | `Literal -> cost
      | `Excess -> cost *. tie_break
    in
    let vars =
      make_flow_vars model ~nfiles ~num_links:m ~usable
        ~obj_of:(fun l -> flow_cost (Graph.arc inst.base l).Graph.cost)
    in
    let rates = List.map File.rate files in
    let rate k = List.nth rates k in
    add_conservation model inst ~files ~vars
      ~supply_term:(fun _ ~sign:_ -> [])
      ~supply_rhs:(fun k ~sign -> sign *. (1. -. lambda) *. rate k);
    (match mode with
     | `Literal -> ()
     | `Excess ->
         for l = 0 to m - 1 do
           if usable l then begin
             (* Charged excess: e_l >= occ + stage1 + stage2 - charged. *)
             let a = Graph.arc inst.base l in
             let excess =
               Model.add_var model ~name:(Printf.sprintf "e_%d" l)
                 ~obj:a.Graph.cost ()
             in
             let terms =
               Array.to_list vars
               |> List.filter_map (fun per_link ->
                      Option.map (fun v -> (v, 1.)) per_link.(l))
             in
             ignore
               (Model.add_constraint model ~name:(Printf.sprintf "exc_%d" l)
                  ((excess, -1.) :: terms)
                  Model.Le
                  (inst.charged.(l) -. inst.occ_peak.(l) -. stage1_totals.(l)))
           end
         done);
    add_capacity_rows model ~num_links:m
      ~usable:(fun l -> usable l && inst.cap.(l) < infinity)
      ~vars ~bound:residual_cap;
    match Lp.Simplex.solve model with
    | Lp.Status.Optimal s -> Some (extract_rates s.Lp.Status.primal ~files ~vars)
    | Lp.Status.Infeasible | Lp.Status.Unbounded | Lp.Status.Iteration_limit ->
        None
  end

let combine_rates a b =
  Array.mapi (fun k row -> Array.mapi (fun l r -> r +. b.(k).(l)) row) a

let solve_two_stage_mode inst ~files ~mode =
  if files = [] then
    Some
      { lambda = 1.;
        rates = [||];
        estimated_cost = estimated_cost inst (totals_of_rates inst [||]) }
  else
    match solve_stage1 inst ~files with
    | None -> None
    | Some (lambda, stage1_rates) -> (
        match solve_stage2 inst ~files ~lambda ~stage1_rates ~mode with
        | None -> None
        | Some stage2_rates ->
            let rates = combine_rates stage1_rates stage2_rates in
            let totals = totals_of_rates inst rates in
            Some { lambda; rates; estimated_cost = estimated_cost inst totals })

let solve_two_stage inst ~files =
  solve_two_stage_mode inst ~files ~mode:`Literal

let solve_two_stage_excess inst ~files =
  solve_two_stage_mode inst ~files ~mode:`Excess

let solve_joint inst ~files =
  let m = Graph.num_arcs inst.base in
  let nfiles = List.length files in
  if nfiles = 0 then
    Some
      { lambda = 1.;
        rates = [||];
        estimated_cost = estimated_cost inst (Array.make m 0.) }
  else begin
    let usable l = inst.cap.(l) > eps_rate in
    if not (all_connected inst ~files ~usable) then None
    else begin
      let model = Model.create ~name:"flow-joint" Model.Minimize in
      let vars =
        make_flow_vars model ~nfiles ~num_links:m ~usable
          ~obj_of:(fun l -> (Graph.arc inst.base l).Graph.cost *. tie_break)
      in
      let rates = List.map File.rate files in
      let rate k = List.nth rates k in
      add_conservation model inst ~files ~vars
        ~supply_term:(fun _ ~sign:_ -> [])
        ~supply_rhs:(fun k ~sign -> sign *. rate k);
      for l = 0 to m - 1 do
        if usable l then begin
          let a = Graph.arc inst.base l in
          let excess =
            Model.add_var model ~name:(Printf.sprintf "e_%d" l)
              ~obj:a.Graph.cost ()
          in
          let terms =
            Array.to_list vars
            |> List.filter_map (fun per_link ->
                   Option.map (fun v -> (v, 1.)) per_link.(l))
          in
          ignore
            (Model.add_constraint model ~name:(Printf.sprintf "exc_%d" l)
               ((excess, -1.) :: terms)
               Model.Le
               (inst.charged.(l) -. inst.occ_peak.(l)))
        end
      done;
      add_capacity_rows model ~num_links:m
        ~usable:(fun l -> usable l && inst.cap.(l) < infinity)
        ~vars
        ~bound:(fun l -> inst.cap.(l));
      match Lp.Simplex.solve model with
      | Lp.Status.Optimal s ->
          let rates = extract_rates s.Lp.Status.primal ~files ~vars in
          let totals = totals_of_rates inst rates in
          Some
            { lambda = 1.; rates; estimated_cost = estimated_cost inst totals }
      | Lp.Status.Infeasible | Lp.Status.Unbounded | Lp.Status.Iteration_limit
        ->
          None
    end
  end

let plan_of_flows ~files ~epoch flows =
  let txs = ref [] in
  List.iteri
    (fun k f ->
      if k < Array.length flows.rates then
        Array.iteri
          (fun l r ->
            if r > eps_rate then
              for i = 0 to f.File.deadline - 1 do
                txs :=
                  { Plan.file = f.File.id; link = l; slot = epoch + i; volume = r }
                  :: !txs
              done)
          flows.rates.(k))
    files;
  { Plan.transmissions = !txs; holdovers = [] }

let make ?(variant = `Two_stage) () =
  let solve =
    match variant with
    | `Two_stage -> solve_two_stage
    | `Two_stage_excess -> solve_two_stage_excess
    | `Joint -> solve_joint
  in
  let name =
    match variant with
    | `Two_stage -> "flow-based"
    | `Two_stage_excess -> "flow-excess"
    | `Joint -> "flow-joint"
  in
  let schedule (ctx : Scheduler.context) files =
    if files = [] then
      { Scheduler.plan = Plan.empty; accepted = []; rejected = [] }
    else begin
      let horizon =
        List.fold_left (fun acc f -> max acc f.File.deadline) 1 files
      in
      let inst = instance_of_context ctx ~horizon in
      let try_solve subset =
        match solve inst ~files:subset with
        | Some flows -> Some flows
        | None -> None
      in
      match Scheduler.admit_greedy ~files ~try_solve with
      | Some (flows, accepted, rejected) ->
          { Scheduler.plan =
              plan_of_flows ~files:accepted ~epoch:ctx.Scheduler.epoch flows;
            accepted;
            rejected }
      | None ->
          { Scheduler.plan = Plan.empty; accepted = []; rejected = files }
    end
  in
  Scheduler.observe (Scheduler.stateless ~name ~fluid:true schedule)

let () =
  Scheduler.register ~name:"flow-based" ~aliases:[ "flow" ]
    ~doc:
      "The paper's Sec. II-B fluid baseline: per-epoch two-stage LP \
       (min-rate then min-cost) over the static graph."
    (fun () -> make ());
  Scheduler.register ~name:"flow-excess"
    ~doc:
      "flow-based ablation: stage two minimizes only the charge excess \
       over the running peak."
    (fun () -> make ~variant:`Two_stage_excess ());
  Scheduler.register ~name:"flow-joint"
    ~doc:
      "flow-based ablation: a single joint LP instead of the paper's \
       two-stage decomposition."
    (fun () -> make ~variant:`Joint ())
