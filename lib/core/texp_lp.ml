module Graph = Netgraph.Graph
module Texp = Timexp.Time_expanded
module Model = Lp.Model

type t = {
  base : Graph.t;
  files : File.t array;
  epoch : int;
  horizon : int;
  texp : Texp.t;
  (* m_vars.(fi).(id): file fi's variable on expanded arc id, as a raw
     column index, or -1 where the file has none. *)
  m_vars : int array array;
}

let texp t = t.texp
let horizon t = t.horizon

(* [terms] with [(v, c)] in front when [v] is the variable a file's arc
   map [vars] holds on expanded arc [id]. *)
let add_term model vars id c terms =
  let v = vars.(id) in
  if v < 0 then terms else (Model.var_of_index model v, c) :: terms

(* Hop distances from [src] used to prune variables the file can never
   use. *)
let hop_distances g ~src =
  let n = Graph.num_nodes g in
  let dist = Array.make n max_int in
  let queue = Queue.create () in
  dist.(src) <- 0;
  Queue.push src queue;
  while not (Queue.is_empty queue) do
    let u = Queue.pop queue in
    List.iter
      (fun id ->
        let a = Graph.arc g id in
        if dist.(a.Graph.dst) = max_int then begin
          dist.(a.Graph.dst) <- dist.(u) + 1;
          Queue.push a.Graph.dst queue
        end)
      (Graph.out_arcs g u)
  done;
  dist

let deliverable ~base f =
  let dist = hop_distances base ~src:f.File.src in
  dist.(f.File.dst) <= f.File.deadline

let build ~model ~base ~capacity ~files ~epoch ~flow_obj ~supply =
  List.iter
    (fun f ->
      if f.File.release < epoch then
        invalid_arg "Texp_lp.build: file released before epoch";
      if f.File.src >= Graph.num_nodes base || f.File.dst >= Graph.num_nodes base
      then invalid_arg "Texp_lp.build: file endpoint outside graph")
    files;
  (match supply with
   | `Full -> ()
   | `Elastic v ->
       if Array.length v <> List.length files then
         invalid_arg "Texp_lp.build: elastic supply size mismatch");
  let files = Array.of_list files in
  (* Each file's transmission window in epoch-relative layers. *)
  let window_lo f = f.File.release - epoch in
  let window_hi f = window_lo f + f.File.deadline in
  let horizon =
    Array.fold_left (fun acc f -> max acc (window_hi f)) 1 files
  in
  let texp = Texp.build ~base ~horizon ~capacity in
  let n_base = Graph.num_nodes base in
  let from_src = Array.map (fun f -> hop_distances base ~src:f.File.src) files in
  let rev = Graph.reverse base in
  let to_dst = Array.map (fun f -> hop_distances rev ~src:f.File.dst) files in
  let node_usable fi node layer =
    let f = files.(fi) in
    let lo = window_lo f and hi = window_hi f in
    layer >= lo && layer <= hi
    && from_src.(fi).(node) <= layer - lo
    && to_dst.(fi).(node) <= hi - layer
  in
  let n_arcs = Graph.num_arcs (Texp.graph texp) in
  let m_vars = Array.map (fun _ -> Array.make n_arcs (-1)) files in
  Array.iteri
    (fun fi f ->
      let lo = window_lo f and hi = window_hi f in
      Texp.iter_arcs texp (fun a kind ->
          let layer, obj =
            match kind with
            | Texp.Transmission { layer; _ } -> (layer, flow_obj ~cost:a.Graph.cost)
            | Texp.Storage { layer; _ } -> (layer, 0.)
          in
          (* Arcs with no usable capacity would only add degenerate
             zero-forced columns. *)
          if layer >= lo && layer < hi && a.Graph.capacity > 1e-9 then begin
            let src_node, src_layer = Texp.node_of texp a.Graph.src in
            let dst_node, dst_layer = Texp.node_of texp a.Graph.dst in
            if node_usable fi src_node src_layer
               && node_usable fi dst_node dst_layer
            then begin
              let v = Model.add_var model ~lb:0. ~ub:f.File.size ~obj () in
              m_vars.(fi).(a.Graph.id) <- (v :> int)
            end
          end))
    files;
  (* Per-file conservation at every usable node copy. With elastic supply,
     the injected amount is the supply variable rather than F_k. *)
  Array.iteri
    (fun fi f ->
      let lo = window_lo f and hi = window_hi f in
      for layer = lo to hi do
        for node = 0 to n_base - 1 do
          if node_usable fi node layer then begin
            let expanded = Texp.node_at texp ~node ~layer in
            let terms = ref [] in
            if layer < hi then
              List.iter
                (fun id -> terms := add_term model m_vars.(fi) id 1. !terms)
                (Graph.out_arcs (Texp.graph texp) expanded);
            if layer > lo then
              List.iter
                (fun id -> terms := add_term model m_vars.(fi) id (-1.) !terms)
                (Graph.in_arcs (Texp.graph texp) expanded);
            let is_source = node = f.File.src && layer = lo in
            let is_sink = node = f.File.dst && layer = hi in
            let terms, rhs =
              match supply with
              | `Full ->
                  ( !terms,
                    if is_source then f.File.size
                    else if is_sink then -.f.File.size
                    else 0. )
              | `Elastic v ->
                  let extra =
                    if is_source then [ (v.(fi), -1.) ]
                    else if is_sink then [ (v.(fi), 1.) ]
                    else []
                  in
                  (extra @ !terms, 0.)
            in
            if terms <> [] || rhs <> 0. then
              ignore (Model.add_constraint model terms Model.Eq rhs)
          end
        done
      done)
    files;
  (* Aggregate capacity rows per (link, layer) carrying variables. *)
  for layer = 0 to horizon - 1 do
    Graph.iter_arcs base (fun a ->
        let expanded_id = Texp.transmission_arc texp ~link:a.Graph.id ~layer in
        let terms = ref [] in
        Array.iter
          (fun vars -> terms := add_term model vars expanded_id 1. !terms)
          m_vars;
        if !terms <> [] then begin
          let cap = capacity ~link:a.Graph.id ~layer in
          if cap < infinity then
            ignore (Model.add_constraint model !terms Model.Le cap)
        end)
  done;
  { base; files; epoch; horizon; texp; m_vars }

let add_charge_coupling ~model t ~charged ~x_obj =
  if Array.length charged <> Graph.num_arcs t.base then
    invalid_arg "Texp_lp.add_charge_coupling: charged size mismatch";
  let x_vars =
    Array.init (Graph.num_arcs t.base) (fun l ->
        let a = Graph.arc t.base l in
        Model.add_var model ~lb:charged.(l) ~obj:(x_obj ~cost:a.Graph.cost) ())
  in
  for layer = 0 to t.horizon - 1 do
    Graph.iter_arcs t.base (fun a ->
        let expanded_id = Texp.transmission_arc t.texp ~link:a.Graph.id ~layer in
        let terms = ref [] in
        Array.iter
          (fun vars -> terms := add_term model vars expanded_id 1. !terms)
          t.m_vars;
        if !terms <> [] then
          ignore
            (Model.add_constraint model
               ((x_vars.(a.Graph.id), -1.) :: !terms)
               Model.Le 0.))
  done;
  x_vars

let eps_volume = 1e-7

(* Files and arcs are walked from the last to the first, so the
   prepended plan lists come out in (file, expanded arc id) order. *)
let extract_plan t ~primal =
  let transmissions = ref [] and holdovers = ref [] in
  for fi = Array.length t.files - 1 downto 0 do
    let f = t.files.(fi) and vars = t.m_vars.(fi) in
    for arc_id = Array.length vars - 1 downto 0 do
      let v = vars.(arc_id) in
      if v >= 0 then begin
        let value = primal.(v) in
        if value > eps_volume then
          match Texp.kind t.texp arc_id with
          | Texp.Transmission { link; layer } ->
              transmissions :=
                { Plan.file = f.File.id;
                  link;
                  slot = t.epoch + layer;
                  volume = value }
                :: !transmissions
          | Texp.Storage { node; layer } ->
              holdovers :=
                { Plan.h_file = f.File.id;
                  h_node = node;
                  h_slot = t.epoch + layer;
                  h_volume = value }
                :: !holdovers
      end
    done
  done;
  { Plan.transmissions = !transmissions; holdovers = !holdovers }

let extract_supplies t ~primal vars =
  ignore t;
  Array.map (fun (v : Model.var) -> primal.((v :> int))) vars
