module Graph = Netgraph.Graph
module Formulate = Postcard.Formulate
module Basis_map = Postcard.Basis_map

type slot_stat = {
  slot : int;
  files : int;
  cols : int;
  rows : int;
  cold_iterations : int;
  warm_iterations : int;
  cold_ms : float;
  warm_ms : float;
  objective_gap : float;
  hit_rate : float;
  cold_stats : Lp.Status.stats;
  warm_stats : Lp.Status.stats;
}

type summary = {
  nodes : int;
  slots : int;
  seed : int;
  per_slot : slot_stat list;
  cold_iterations : int;  (* totals over slots >= 1, where a basis exists *)
  warm_iterations : int;
  cold_ms : float;
  warm_ms : float;
  max_objective_gap : float;
  warm_fell_back : int;  (* warm-start outcome tallies over slots >= 1 *)
  dual_reopts : int;
  dual_pivots : int;  (* dual pivots over warm solves of slots >= 1 *)
  warm_phase1_pivots : int;  (* primal phase-1 pivots, same population *)
}

(* The aggregate tallies and the per-slot warm_start fields are two
   renderings of the same data; classify a slot exactly once so they
   cannot drift apart. *)
let classify (o : Lp.Status.warm_start_outcome) =
  match o with
  | Lp.Status.No_warm_start -> `Cold
  | Lp.Status.Dual_reopt -> `Dual
  | Lp.Status.Warm_fell_back -> `Fell_back

(* Recompute every outcome tally from the per-slot records and compare
   with the aggregate fields; [bench] fails loudly on a mismatch, so the
   two views shown to the user always reconcile. *)
let reconcile s =
  let warmed = List.filter (fun st -> st.slot >= 1) s.per_slot in
  let count f = List.length (List.filter f warmed) in
  let fell_back =
    count (fun st -> classify st.warm_stats.Lp.Status.warm_start = `Fell_back)
  and dual =
    count (fun st -> classify st.warm_stats.Lp.Status.warm_start = `Dual)
  in
  let checks =
    [ ("warm_fell_back", s.warm_fell_back, fell_back);
      ("dual_reopts", s.dual_reopts, dual);
      ( "outcome total",
        s.warm_fell_back + s.dual_reopts,
        List.length warmed ) ]
  in
  let bad =
    List.filter_map
      (fun (name, agg, per_slot) ->
        if agg = per_slot then None
        else
          Some
            (Printf.sprintf "%s: aggregate %d vs per-slot %d" name agg
               per_slot))
      checks
  in
  match bad with
  | [] -> Ok ()
  | msgs -> Error (String.concat "; " msgs)

let iteration_ratio s =
  if s.warm_iterations = 0 then infinity
  else float_of_int s.cold_iterations /. float_of_int s.warm_iterations

(* One Sec. VII-style online run. Each slot's program is solved twice from
   scratch — once cold, once crashed from the previous slot's basis — and
   the cold plan is the one committed, so both solvers always face the
   identical sequence of programs. With a pool of size >= 2 the two
   trials of a slot run on separate domains (each on its own program
   built from identical inputs, so nothing is shared but the read-only
   ledger); slots stay sequential because the carried basis and the
   committed plan chain them. *)
let run ?(nodes = 6) ?(slots = 12) ?(seed = 1) ?pool () =
  let rng = Prelude.Rng.of_int (seed * 7919) in
  let base =
    Netgraph.Topology.complete ~n:nodes ~rng ~cost_lo:1. ~cost_hi:10.
      ~capacity:50.
  in
  let spec =
    { (Workload.paper_spec ~nodes ~files_max:4 ~max_deadline:4) with
      Workload.size_min = 5.;
      size_max = 25.;
      deadlines = Workload.Uniform_deadline (2, 4) }
  in
  let workload = Workload.create spec (Prelude.Rng.of_int seed) in
  let ledger = Ledger.create ~base in
  let carried : Basis_map.t option ref = ref None in
  let stats = ref [] in
  for slot = 0 to slots - 1 do
    let files = Workload.arrivals workload ~slot in
    if files <> [] then begin
      let capacity ~link ~layer =
        Ledger.residual ledger ~link ~slot:(slot + layer)
      in
      let make_program () =
        Formulate.create ~base ~charged:(Ledger.charged_all ledger) ~capacity
          ~files ~epoch:slot ()
      in
      let cold_program = make_program () in
      let warm_program = make_program () in
      let model = Formulate.model cold_program in
      let timed f =
        let t0 = Unix.gettimeofday () in
        let r = f () in
        (r, 1000. *. (Unix.gettimeofday () -. t0))
      in
      let solve_cold () = timed (fun () -> Formulate.solve_with_info cold_program) in
      let solve_warm () =
        timed (fun () -> Formulate.solve_with_info ?warm_start:!carried warm_program)
      in
      let ((cold, cold_info), cold_ms), ((warm, warm_info), warm_ms) =
        match pool with
        | Some pool when Exec.Pool.size pool > 1 -> (
            match
              Exec.Pool.map pool ~f:(fun _ trial -> trial ())
                [| solve_cold; solve_warm |]
            with
            | [| c; w |] -> (c, w)
            | _ -> assert false)
        | _ ->
            let c = solve_cold () in
            let w = solve_warm () in
            (c, w)
      in
      let objective = function
        | Formulate.Scheduled { objective; _ } -> objective
        | Formulate.Infeasible | Formulate.Solver_failure _ -> nan
      in
      let gap =
        match (cold, warm) with
        | Formulate.Scheduled _, Formulate.Scheduled _ ->
            abs_float (objective cold -. objective warm)
        | Formulate.Infeasible, Formulate.Infeasible -> 0.
        | _ -> nan
      in
      let hit_rate =
        match !carried with
        | None -> 0.
        | Some b -> Basis_map.hit_rate b (Formulate.keymap warm_program)
      in
      stats :=
        { slot;
          files = List.length files;
          cols = Lp.Model.num_vars model;
          rows = Lp.Model.num_rows model;
          cold_iterations = cold_info.Formulate.iterations;
          warm_iterations = warm_info.Formulate.iterations;
          cold_ms;
          warm_ms;
          objective_gap = gap;
          hit_rate;
          cold_stats = cold_info.Formulate.stats;
          warm_stats = warm_info.Formulate.stats }
        :: !stats;
      carried := warm_info.Formulate.basis;
      match cold with
      | Formulate.Scheduled { plan; _ } -> Ledger.commit_plan ledger plan
      | Formulate.Infeasible | Formulate.Solver_failure _ ->
          (* Sized so this cannot happen; skip the slot if it does. *)
          ()
    end
  done;
  let per_slot = List.rev !stats in
  let warmed = List.filter (fun s -> s.slot >= 1) per_slot in
  let sum f = List.fold_left (fun acc s -> acc +. f s) 0. warmed in
  { nodes;
    slots;
    seed;
    per_slot;
    cold_iterations =
      List.fold_left (fun acc (s : slot_stat) -> acc + s.cold_iterations) 0
        warmed;
    warm_iterations =
      List.fold_left (fun acc (s : slot_stat) -> acc + s.warm_iterations) 0
        warmed;
    cold_ms = sum (fun s -> s.cold_ms);
    warm_ms = sum (fun s -> s.warm_ms);
    max_objective_gap =
      List.fold_left (fun acc s -> max acc s.objective_gap) 0. per_slot;
    warm_fell_back =
      List.length
        (List.filter
           (fun s -> classify s.warm_stats.Lp.Status.warm_start = `Fell_back)
           warmed);
    dual_reopts =
      List.length
        (List.filter
           (fun s -> classify s.warm_stats.Lp.Status.warm_start = `Dual)
           warmed);
    dual_pivots =
      List.fold_left
        (fun acc (s : slot_stat) -> acc + s.warm_stats.Lp.Status.dual_pivots)
        0 warmed;
    warm_phase1_pivots =
      List.fold_left
        (fun acc (s : slot_stat) -> acc + s.warm_stats.Lp.Status.phase1_pivots)
        0 warmed }

let pp_summary ppf s =
  Format.fprintf ppf
    "  cold vs warm simplex on a %d-DC, %d-slot online run (seed %d)@."
    s.nodes s.slots s.seed;
  Format.fprintf ppf "  %-5s %6s %6s %6s %11s %11s %9s %9s %8s %6s %10s@."
    "slot" "files" "cols" "rows" "cold iters" "warm iters" "cold ms"
    "warm ms" "hit" "refac" "warm start";
  List.iter
    (fun st ->
      let warm_label =
        match st.warm_stats.Lp.Status.warm_start with
        | Lp.Status.No_warm_start -> "-"
        | Lp.Status.Dual_reopt -> "dual"
        | Lp.Status.Warm_fell_back -> "fell back"
      in
      Format.fprintf ppf
        "  %-5d %6d %6d %6d %11d %11d %9.2f %9.2f %7.0f%% %6d %10s@."
        st.slot st.files st.cols st.rows st.cold_iterations
        st.warm_iterations st.cold_ms st.warm_ms (100. *. st.hit_rate)
        st.warm_stats.Lp.Status.refactorizations warm_label)
    s.per_slot;
  Format.fprintf ppf
    "  totals over warm-started slots (>= 1): %d cold vs %d warm pivots \
     (%.2fx), %.1f vs %.1f ms@."
    s.cold_iterations s.warm_iterations (iteration_ratio s) s.cold_ms
    s.warm_ms;
  Format.fprintf ppf
    "  warm-start outcomes: %d dual re-opt, %d fell back@." s.dual_reopts
    s.warm_fell_back;
  Format.fprintf ppf
    "  re-opt effort: %d dual pivots, %d phase-1 pivots on warm solves@."
    s.dual_pivots s.warm_phase1_pivots;
  Format.fprintf ppf "  largest cold/warm objective gap: %.2e@."
    s.max_objective_gap

(* Hand-rolled JSON (no JSON library in the tree); numbers are printed
   with enough digits to round-trip. *)
let json_float f =
  if not (Float.is_finite f) then "null"
  else if Float.is_integer f && abs_float f < 1e15 then
    Printf.sprintf "%.1f" f
  else Printf.sprintf "%.17g" f

let to_json s =
  let b = Buffer.create 4096 in
  let field ?(last = false) name v =
    Buffer.add_string b (Printf.sprintf "  %S: %s%s\n" name v
                           (if last then "" else ","))
  in
  Buffer.add_string b "{\n";
  field "bench" "\"solver_warm_start\"";
  field "nodes" (string_of_int s.nodes);
  field "slots" (string_of_int s.slots);
  field "seed" (string_of_int s.seed);
  Buffer.add_string b "  \"per_slot\": [\n";
  let json_stats (st : Lp.Status.stats) =
    Printf.sprintf
      "{\"phase1_pivots\": %d, \"phase2_pivots\": %d, \"dual_pivots\": %d, \
       \"refactorizations\": %d, \"eta_peak\": %d, \"bound_flips\": %d, \
       \"warm_start\": %S}"
      st.Lp.Status.phase1_pivots st.Lp.Status.phase2_pivots
      st.Lp.Status.dual_pivots st.Lp.Status.refactorizations
      st.Lp.Status.eta_peak st.Lp.Status.bound_flips
      (Lp.Status.warm_start_outcome_name st.Lp.Status.warm_start)
  in
  let n = List.length s.per_slot in
  List.iteri
    (fun i st ->
      Buffer.add_string b
        (Printf.sprintf
           "    {\"slot\": %d, \"files\": %d, \"cols\": %d, \"rows\": %d, \
            \"cold_iterations\": %d, \"warm_iterations\": %d, \"cold_ms\": \
            %s, \"warm_ms\": %s, \"objective_gap\": %s, \"hit_rate\": %s, \
            \"cold\": %s, \"warm\": %s}%s\n"
           st.slot st.files st.cols st.rows st.cold_iterations
           st.warm_iterations (json_float st.cold_ms) (json_float st.warm_ms)
           (json_float st.objective_gap) (json_float st.hit_rate)
           (json_stats st.cold_stats) (json_stats st.warm_stats)
           (if i = n - 1 then "" else ",")))
    s.per_slot;
  Buffer.add_string b "  ],\n";
  field "cold_iterations" (string_of_int s.cold_iterations);
  field "warm_iterations" (string_of_int s.warm_iterations);
  field "iteration_ratio" (json_float (iteration_ratio s));
  field "cold_ms" (json_float s.cold_ms);
  field "warm_ms" (json_float s.warm_ms);
  field "warm_fell_back" (string_of_int s.warm_fell_back);
  field "dual_reopts" (string_of_int s.dual_reopts);
  field "dual_pivots" (string_of_int s.dual_pivots);
  field "warm_phase1_pivots" (string_of_int s.warm_phase1_pivots);
  field ~last:true "max_objective_gap" (json_float s.max_objective_gap);
  Buffer.add_string b "}\n";
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Scale sweep: per-size cold / dual-reopt curves, so every later
   performance change has a curve to move. Each point replays one online run and solves
   every re-opt slot's program twice — from scratch, and warm through the
   dual simplex — chained on a single carried basis. A wall-clock budget
   per point truncates the biggest instances rather than stalling the
   sweep; truncation is recorded, never silent. *)

type scale_point = {
  sp_nodes : int;
  sp_slots : int;  (* slots requested; fewer may run under the budget *)
  sp_cols : int;  (* largest LP of the run *)
  sp_rows : int;
  sp_reopt_slots : int;  (* slots (>= 1) actually timed both ways *)
  sp_cold_iterations : int;
  sp_dual_iterations : int;
  sp_cold_ms : float;
  sp_dual_ms : float;
  sp_dual_reopts : int;  (* dual-warm solves that ran the dual path *)
  sp_dual_phase1_pivots : int;  (* phase-1 pivots on dual-warm solves *)
  sp_cold_failures : int;  (* re-opt slots where the cold solve failed *)
  sp_dual_failures : int;  (* same, dual-warm solve *)
  sp_max_objective_gap : float;  (* worst cold/dual gap *)
  sp_truncated : bool;
}

type scale_summary = {
  sc_seed : int;
  sc_budget_ms : float;
  sc_points : scale_point list;
}

let default_scale_sizes = [ (6, 12); (12, 24); (20, 48); (32, 72); (50, 104) ]

let run_scale_point ~nodes ~slots ~seed ~budget_ms =
  let rng = Prelude.Rng.of_int (seed * 7919) in
  let base =
    Netgraph.Topology.complete ~n:nodes ~rng ~cost_lo:1. ~cost_hi:10.
      ~capacity:50.
  in
  let spec =
    { (Workload.paper_spec ~nodes ~files_max:4 ~max_deadline:4) with
      Workload.size_min = 5.;
      size_max = 25.;
      deadlines = Workload.Uniform_deadline (2, 4) }
  in
  let workload = Workload.create spec (Prelude.Rng.of_int seed) in
  let ledger = Ledger.create ~base in
  let carried : Basis_map.t option ref = ref None in
  let t_start = Unix.gettimeofday () in
  let cols = ref 0 and rows = ref 0 and reopt_slots = ref 0 in
  let cold_iters = ref 0 and dual_iters = ref 0 in
  let cold_ms = ref 0. and dual_ms = ref 0. in
  let dual_reopts = ref 0 and dual_phase1 = ref 0 in
  let cold_fail = ref 0 and dual_fail = ref 0 in
  let max_gap = ref 0. in
  let truncated = ref false in
  let slot = ref 0 in
  while !slot < slots && not !truncated do
    let elapsed = 1000. *. (Unix.gettimeofday () -. t_start) in
    (* Keep going until at least one re-opt slot has been timed, so every
       point contributes a curve sample even under a tight budget. *)
    if elapsed > budget_ms && !reopt_slots >= 1 then truncated := true
    else begin
      let files = Workload.arrivals workload ~slot:!slot in
      if files <> [] then begin
        let capacity ~link ~layer =
          Ledger.residual ledger ~link ~slot:(!slot + layer)
        in
        let make () =
          Formulate.create ~base ~charged:(Ledger.charged_all ledger)
            ~capacity ~files ~epoch:!slot ()
        in
        let timed f =
          let t0 = Unix.gettimeofday () in
          let r = f () in
          (r, 1000. *. (Unix.gettimeofday () -. t0))
        in
        let p_cold = make () in
        let model = Formulate.model p_cold in
        cols := max !cols (Lp.Model.num_vars model);
        rows := max !rows (Lp.Model.num_rows model);
        let (cold, cold_info), c_ms =
          timed (fun () -> Formulate.solve_with_info p_cold)
        in
        let objective = function
          | Formulate.Scheduled { objective; _ } -> objective
          | Formulate.Infeasible | Formulate.Solver_failure _ -> nan
        in
        (match !carried with
         | None ->
             (* No basis yet: nothing to re-optimize; the cold solve
                seeds the chain. *)
             carried := cold_info.Formulate.basis
         | Some _ ->
             let (dual, dual_info), d_ms =
               timed (fun () ->
                   Formulate.solve_with_info ?warm_start:!carried (make ()))
             in
             incr reopt_slots;
             cold_iters := !cold_iters + cold_info.Formulate.iterations;
             dual_iters := !dual_iters + dual_info.Formulate.iterations;
             cold_ms := !cold_ms +. c_ms;
             dual_ms := !dual_ms +. d_ms;
             let dstats = dual_info.Formulate.stats in
             if classify dstats.Lp.Status.warm_start = `Dual then
               incr dual_reopts;
             dual_phase1 := !dual_phase1 + dstats.Lp.Status.phase1_pivots;
             let failed = function
               | Formulate.Solver_failure _ -> 1
               | Formulate.Scheduled _ | Formulate.Infeasible -> 0
             in
             cold_fail := !cold_fail + failed cold;
             dual_fail := !dual_fail + failed dual;
             let gap =
               match (cold, dual) with
               | Formulate.Scheduled _, Formulate.Scheduled _ ->
                   abs_float (objective cold -. objective dual)
               | Formulate.Infeasible, Formulate.Infeasible -> 0.
               | Formulate.Solver_failure _, _ | _, Formulate.Solver_failure _
                 ->
                   (* No objective to compare — the failure counters carry
                      the record; don't poison the gap with nan. *)
                   0.
               | Formulate.Scheduled _, Formulate.Infeasible
               | Formulate.Infeasible, Formulate.Scheduled _ ->
                   (* Two solvers disagreeing on feasibility is a
                      correctness bug; make the gap impossible to miss. *)
                   infinity
             in
             max_gap := max !max_gap gap;
             (* The dual solve's basis carries the chain; the cold plan
                is the one committed, so both solvers face the same
                program sequence. *)
             carried := dual_info.Formulate.basis);
        match cold with
        | Formulate.Scheduled { plan; _ } -> Ledger.commit_plan ledger plan
        | Formulate.Infeasible | Formulate.Solver_failure _ -> ()
      end;
      incr slot
    end
  done;
  { sp_nodes = nodes;
    sp_slots = slots;
    sp_cols = !cols;
    sp_rows = !rows;
    sp_reopt_slots = !reopt_slots;
    sp_cold_iterations = !cold_iters;
    sp_dual_iterations = !dual_iters;
    sp_cold_ms = !cold_ms;
    sp_dual_ms = !dual_ms;
    sp_dual_reopts = !dual_reopts;
    sp_dual_phase1_pivots = !dual_phase1;
    sp_cold_failures = !cold_fail;
    sp_dual_failures = !dual_fail;
    sp_max_objective_gap = !max_gap;
    sp_truncated = !truncated }

let scale_sweep ?(sizes = default_scale_sizes) ?(seed = 1)
    ?(budget_ms = 20_000.) () =
  let points =
    List.map
      (fun (nodes, slots) -> run_scale_point ~nodes ~slots ~seed ~budget_ms)
      sizes
  in
  { sc_seed = seed; sc_budget_ms = budget_ms; sc_points = points }

let pp_scale ppf s =
  Format.fprintf ppf
    "  scale sweep: cold vs dual re-opt (seed %d, budget %.0f ms/point)@."
    s.sc_seed s.sc_budget_ms;
  Format.fprintf ppf "  %5s %5s %7s %6s %6s %9s %9s %6s %6s %6s %5s@." "DCs"
    "slots" "cols" "rows" "reopts" "cold ms" "dual ms" "dualok" "ph1" "fails"
    "trunc";
  List.iter
    (fun p ->
      Format.fprintf ppf "  %5d %5d %7d %6d %6d %9.1f %9.1f %6d %6d %6s %5s@."
        p.sp_nodes p.sp_slots p.sp_cols p.sp_rows p.sp_reopt_slots p.sp_cold_ms
        p.sp_dual_ms p.sp_dual_reopts p.sp_dual_phase1_pivots
        (Printf.sprintf "%d/%d" p.sp_cold_failures p.sp_dual_failures)
        (if p.sp_truncated then "yes" else "no"))
    s.sc_points;
  let worst =
    List.fold_left (fun acc p -> max acc p.sp_max_objective_gap) 0. s.sc_points
  in
  Format.fprintf ppf "  largest objective gap across solvers: %.2e@." worst

let scale_to_json s =
  let b = Buffer.create 2048 in
  Buffer.add_string b "{\n";
  Buffer.add_string b "  \"bench\": \"solver_scale\",\n";
  Buffer.add_string b (Printf.sprintf "  \"seed\": %d,\n" s.sc_seed);
  Buffer.add_string b
    (Printf.sprintf "  \"budget_ms\": %s,\n" (json_float s.sc_budget_ms));
  Buffer.add_string b
    (Printf.sprintf "  \"host_cores\": %d,\n"
       (Domain.recommended_domain_count ()));
  Buffer.add_string b "  \"points\": [\n";
  let n = List.length s.sc_points in
  List.iteri
    (fun i p ->
      Buffer.add_string b
        (Printf.sprintf
           "    {\"nodes\": %d, \"slots\": %d, \"cols\": %d, \"rows\": %d, \
            \"reopt_slots\": %d, \"cold_iterations\": %d, \
            \"dual_reopt_iterations\": %d, \"cold_ms\": %s, \
            \"dual_reopt_ms\": %s, \"dual_reopts\": %d, \
            \"dual_phase1_pivots\": %d, \"cold_failures\": %d, \
            \"dual_failures\": %d, \"max_objective_gap\": %s, \
            \"truncated\": %b}%s\n"
           p.sp_nodes p.sp_slots p.sp_cols p.sp_rows p.sp_reopt_slots
           p.sp_cold_iterations p.sp_dual_iterations (json_float p.sp_cold_ms)
           (json_float p.sp_dual_ms) p.sp_dual_reopts p.sp_dual_phase1_pivots
           p.sp_cold_failures p.sp_dual_failures
           (json_float p.sp_max_objective_gap) p.sp_truncated
           (if i = n - 1 then "" else ",")))
    s.sc_points;
  Buffer.add_string b "  ]\n}\n";
  Buffer.contents b
