module Graph = Netgraph.Graph
module Formulate = Postcard.Formulate

type slot_stat = {
  slot : int;
  files : int;
  cols : int;
  rows : int;
  referee_iterations : int;
  dual_iterations : int;
  referee_ms : float;
  dual_ms : float;
  objective_gap : float;
  referee_stats : Lp.Status.stats;
  dual_stats : Lp.Status.stats;
}

type summary = {
  nodes : int;
  slots : int;
  seed : int;
  per_slot : slot_stat list;
  referee_iterations : int;
  dual_iterations : int;
  referee_ms : float;
  dual_ms : float;
  max_objective_gap : float;
  dual_solves : int;
  fell_back : int;
  dual_pivots : int;
  dual_phase1_pivots : int;
}

(* Recompute every path tally from the per-slot records and compare with
   the aggregate fields; [bench] fails loudly on a mismatch, so the two
   views shown to the user always reconcile. *)
let reconcile s =
  let count path =
    List.length
      (List.filter (fun st -> st.dual_stats.Lp.Status.path = path) s.per_slot)
  in
  let checks =
    [ ("dual_solves", s.dual_solves, count Lp.Status.Dual);
      ("fell_back", s.fell_back, count Lp.Status.Two_phase);
      ("path total", s.dual_solves + s.fell_back, List.length s.per_slot) ]
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
  if s.dual_iterations = 0 then infinity
  else float_of_int s.referee_iterations /. float_of_int s.dual_iterations

(* The Sec. VII-style online run both benches replay. *)
let instance ~nodes ~seed =
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
  (base, Workload.create spec (Prelude.Rng.of_int seed))

(* The program of [slot] over the ledger's residual capacities. *)
let program ~base ~ledger ~files ~slot =
  let capacity ~link ~layer = Ledger.residual ledger ~link ~slot:(slot + layer) in
  Formulate.create ~base ~charged:(Ledger.charged_all ledger) ~capacity ~files
    ~epoch:slot ()

let timed f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, 1000. *. (Unix.gettimeofday () -. t0))

let solve_dual p = timed (fun () -> Formulate.solve_with_info p)

let solve_referee p =
  timed (fun () ->
      Formulate.interpret p
        (Lp.Simplex.solve_two_phase (Formulate.model p)))

(* The dual-first and referee results of one program compared: the
   absolute objective gap over comparable outcomes (both scheduled, or
   both infeasible). Two solvers disagreeing on feasibility is a
   correctness bug, so the gap becomes infinite; a solver failure has no
   objective to compare and is counted on its own. *)
let objective_gap referee dual =
  match (referee, dual) with
  | ( Formulate.Scheduled { objective = a; _ },
      Formulate.Scheduled { objective = b; _ } ) ->
      abs_float (a -. b)
  | Formulate.Infeasible, Formulate.Infeasible -> 0.
  | Formulate.Solver_failure _, _ | _, Formulate.Solver_failure _ -> 0.
  | Formulate.Scheduled _, Formulate.Infeasible
  | Formulate.Infeasible, Formulate.Scheduled _ ->
      infinity

let commit ledger = function
  | Formulate.Scheduled { plan; _ } -> Ledger.commit_plan ledger plan
  | Formulate.Infeasible | Formulate.Solver_failure _ ->
      (* Sized so this cannot happen; skip the slot if it does. *)
      ()

(* One online run. Each slot's program is solved by the two-phase referee
   and dual first, each on its own copy built from identical inputs, and
   the dual-first plan is committed, so both solvers face the same
   programs. With a pool of size >= 2 the two solves of a slot run on
   separate domains (nothing is shared but the read-only ledger); slots
   stay sequential because the committed plan chains them. *)
let run ?(nodes = 6) ?(slots = 12) ?(seed = 1) ?pool () =
  let base, workload = instance ~nodes ~seed in
  let ledger = Ledger.create ~base in
  let stats = ref [] in
  for slot = 0 to slots - 1 do
    let files = Workload.arrivals workload ~slot in
    if files <> [] then begin
      let referee_program = program ~base ~ledger ~files ~slot in
      let dual_program = program ~base ~ledger ~files ~slot in
      let model = Formulate.model dual_program in
      let trials =
        [| (fun () -> solve_referee referee_program);
           (fun () -> solve_dual dual_program) |]
      in
      let ((referee, referee_info), referee_ms), ((dual, dual_info), dual_ms) =
        let results =
          match pool with
          | Some pool when Exec.Pool.size pool > 1 ->
              Exec.Pool.map pool ~f:(fun _ trial -> trial ()) trials
          | _ -> Array.map (fun trial -> trial ()) trials
        in
        (results.(0), results.(1))
      in
      stats :=
        { slot;
          files = List.length files;
          cols = Lp.Model.num_vars model;
          rows = Lp.Model.num_rows model;
          referee_iterations = referee_info.Formulate.iterations;
          dual_iterations = dual_info.Formulate.iterations;
          referee_ms;
          dual_ms;
          objective_gap = objective_gap referee dual;
          referee_stats = referee_info.Formulate.stats;
          dual_stats = dual_info.Formulate.stats }
        :: !stats;
      commit ledger dual
    end
  done;
  let per_slot = List.rev !stats in
  let sum f = List.fold_left (fun acc s -> acc + f s) 0 per_slot in
  let sum_ms f = List.fold_left (fun acc s -> acc +. f s) 0. per_slot in
  let on_path path s = if s.dual_stats.Lp.Status.path = path then 1 else 0 in
  { nodes;
    slots;
    seed;
    per_slot;
    referee_iterations = sum (fun s -> s.referee_iterations);
    dual_iterations = sum (fun s -> s.dual_iterations);
    referee_ms = sum_ms (fun s -> s.referee_ms);
    dual_ms = sum_ms (fun s -> s.dual_ms);
    max_objective_gap =
      List.fold_left (fun acc s -> max acc s.objective_gap) 0. per_slot;
    dual_solves = sum (on_path Lp.Status.Dual);
    fell_back = sum (on_path Lp.Status.Two_phase);
    dual_pivots = sum (fun s -> s.dual_stats.Lp.Status.dual_pivots);
    dual_phase1_pivots = sum (fun s -> s.dual_stats.Lp.Status.phase1_pivots) }

let pp_summary ppf s =
  Format.fprintf ppf
    "  two-phase referee vs dual first on a %d-DC, %d-slot online run \
     (seed %d)@."
    s.nodes s.slots s.seed;
  Format.fprintf ppf "  %-5s %6s %6s %6s %11s %11s %9s %9s %6s %10s@." "slot"
    "files" "cols" "rows" "ref iters" "dual iters" "ref ms" "dual ms" "refac"
    "path";
  List.iter
    (fun st ->
      Format.fprintf ppf "  %-5d %6d %6d %6d %11d %11d %9.2f %9.2f %6d %10s@."
        st.slot st.files st.cols st.rows st.referee_iterations
        st.dual_iterations st.referee_ms st.dual_ms
        st.dual_stats.Lp.Status.refactorizations
        (Lp.Status.solve_path_name st.dual_stats.Lp.Status.path))
    s.per_slot;
  Format.fprintf ppf
    "  totals: %d referee vs %d dual-first pivots (%.2fx), %.1f vs %.1f ms@."
    s.referee_iterations s.dual_iterations (iteration_ratio s) s.referee_ms
    s.dual_ms;
  Format.fprintf ppf "  solve paths: %d dual, %d fell back to two-phase@."
    s.dual_solves s.fell_back;
  Format.fprintf ppf
    "  dual-first effort: %d dual pivots, %d phase-1 pivots@." s.dual_pivots
    s.dual_phase1_pivots;
  Format.fprintf ppf "  largest referee/dual objective gap: %.2e@."
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
  field "bench" "\"solver_dual_first\"";
  field "nodes" (string_of_int s.nodes);
  field "slots" (string_of_int s.slots);
  field "seed" (string_of_int s.seed);
  field "host_cores" (string_of_int (Domain.recommended_domain_count ()));
  Buffer.add_string b "  \"per_slot\": [\n";
  let json_stats (st : Lp.Status.stats) =
    Printf.sprintf
      "{\"phase1_pivots\": %d, \"phase2_pivots\": %d, \"dual_pivots\": %d, \
       \"refactorizations\": %d, \"eta_peak\": %d, \"bound_flips\": %d, \
       \"path\": %S}"
      st.Lp.Status.phase1_pivots st.Lp.Status.phase2_pivots
      st.Lp.Status.dual_pivots st.Lp.Status.refactorizations
      st.Lp.Status.eta_peak st.Lp.Status.bound_flips
      (Lp.Status.solve_path_name st.Lp.Status.path)
  in
  let n = List.length s.per_slot in
  List.iteri
    (fun i st ->
      Buffer.add_string b
        (Printf.sprintf
           "    {\"slot\": %d, \"files\": %d, \"cols\": %d, \"rows\": %d, \
            \"referee_iterations\": %d, \"dual_iterations\": %d, \
            \"referee_ms\": %s, \"dual_ms\": %s, \"objective_gap\": %s, \
            \"referee\": %s, \"dual\": %s}%s\n"
           st.slot st.files st.cols st.rows st.referee_iterations
           st.dual_iterations (json_float st.referee_ms)
           (json_float st.dual_ms) (json_float st.objective_gap)
           (json_stats st.referee_stats) (json_stats st.dual_stats)
           (if i = n - 1 then "" else ",")))
    s.per_slot;
  Buffer.add_string b "  ],\n";
  field "referee_iterations" (string_of_int s.referee_iterations);
  field "dual_iterations" (string_of_int s.dual_iterations);
  field "iteration_ratio" (json_float (iteration_ratio s));
  field "referee_ms" (json_float s.referee_ms);
  field "dual_ms" (json_float s.dual_ms);
  field "dual_solves" (string_of_int s.dual_solves);
  field "fell_back" (string_of_int s.fell_back);
  field "dual_pivots" (string_of_int s.dual_pivots);
  field "dual_phase1_pivots" (string_of_int s.dual_phase1_pivots);
  field ~last:true "max_objective_gap" (json_float s.max_objective_gap);
  Buffer.add_string b "}\n";
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Scale sweep: per-size referee / dual-first curves, so every later
   performance change has a curve to move. Each point replays one online
   run and solves every slot's program dual first, committing that plan;
   the two-phase referee solves the same program while its own budget
   lasts. Each curve's budget counts its own solve time only, so a slow
   referee cannot starve the dual-first curve. Truncation is recorded,
   never silent. *)

type scale_point = {
  sp_nodes : int;
  sp_slots : int;
  sp_cols : int;
  sp_rows : int;
  sp_dual_slots : int;
  sp_dual_iterations : int;
  sp_dual_ms : float;
  sp_dual_solves : int;
  sp_dual_phase1_pivots : int;
  sp_dual_failures : int;
  sp_truncated : bool;
  sp_referee_slots : int;
  sp_referee_iterations : int;
  sp_referee_ms : float;
  sp_referee_failures : int;
  sp_dual_iterations_refereed : int;
  sp_dual_ms_refereed : float;
  sp_max_objective_gap : float;
}

type scale_summary = {
  sc_seed : int;
  sc_budget_ms : float;
  sc_points : scale_point list;
}

let default_scale_sizes = [ (6, 12); (12, 24); (20, 48); (32, 72); (50, 104) ]

let failed = function
  | Formulate.Solver_failure _ -> 1
  | Formulate.Scheduled _ | Formulate.Infeasible -> 0

let run_scale_point ~nodes ~slots ~seed ~budget_ms =
  let base, workload = instance ~nodes ~seed in
  let ledger = Ledger.create ~base in
  let cols = ref 0 and rows = ref 0 in
  let dual_slots = ref 0 and dual_iters = ref 0 and dual_ms = ref 0. in
  let dual_solves = ref 0 and dual_phase1 = ref 0 and dual_fail = ref 0 in
  let referee_slots = ref 0 and referee_iters = ref 0 in
  let referee_ms = ref 0. and referee_fail = ref 0 in
  let dual_iters_refereed = ref 0 and dual_ms_refereed = ref 0. in
  let max_gap = ref 0. in
  let truncated = ref false in
  let slot = ref 0 in
  while !slot < slots && not !truncated do
    (* Keep going until at least one slot has been solved, so every point
       contributes a curve sample even under a tight budget. *)
    if !dual_ms > budget_ms && !dual_slots >= 1 then truncated := true
    else begin
      let files = Workload.arrivals workload ~slot:!slot in
      if files <> [] then begin
        let p = program ~base ~ledger ~files ~slot:!slot in
        let model = Formulate.model p in
        cols := max !cols (Lp.Model.num_vars model);
        rows := max !rows (Lp.Model.num_rows model);
        let (dual, info), ms = solve_dual p in
        incr dual_slots;
        dual_iters := !dual_iters + info.Formulate.iterations;
        dual_ms := !dual_ms +. ms;
        (match dual with
         | Formulate.Scheduled _
           when info.Formulate.stats.Lp.Status.path = Lp.Status.Dual ->
             incr dual_solves
         | Formulate.Scheduled _ | Formulate.Infeasible
         | Formulate.Solver_failure _ -> ());
        dual_phase1 :=
          !dual_phase1 + info.Formulate.stats.Lp.Status.phase1_pivots;
        dual_fail := !dual_fail + failed dual;
        if !referee_ms <= budget_ms then begin
          let (referee, referee_info), r_ms =
            solve_referee (program ~base ~ledger ~files ~slot:!slot)
          in
          incr referee_slots;
          referee_iters := !referee_iters + referee_info.Formulate.iterations;
          referee_ms := !referee_ms +. r_ms;
          referee_fail := !referee_fail + failed referee;
          dual_iters_refereed :=
            !dual_iters_refereed + info.Formulate.iterations;
          dual_ms_refereed := !dual_ms_refereed +. ms;
          max_gap := max !max_gap (objective_gap referee dual)
        end;
        commit ledger dual
      end;
      incr slot
    end
  done;
  { sp_nodes = nodes;
    sp_slots = slots;
    sp_cols = !cols;
    sp_rows = !rows;
    sp_dual_slots = !dual_slots;
    sp_dual_iterations = !dual_iters;
    sp_dual_ms = !dual_ms;
    sp_dual_solves = !dual_solves;
    sp_dual_phase1_pivots = !dual_phase1;
    sp_dual_failures = !dual_fail;
    sp_truncated = !truncated;
    sp_referee_slots = !referee_slots;
    sp_referee_iterations = !referee_iters;
    sp_referee_ms = !referee_ms;
    sp_referee_failures = !referee_fail;
    sp_dual_iterations_refereed = !dual_iters_refereed;
    sp_dual_ms_refereed = !dual_ms_refereed;
    sp_max_objective_gap = !max_gap }

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
    "  scale sweep: dual first vs two-phase referee (seed %d, budget %.0f \
     ms per curve and point)@."
    s.sc_seed s.sc_budget_ms;
  Format.fprintf ppf "  %5s %5s %7s %6s %6s %9s %6s %4s %6s %9s %9s %6s %5s@."
    "DCs" "slots" "cols" "rows" "solved" "dual ms" "dualok" "ph1" "refd"
    "ref ms" "same ms" "fails" "trunc";
  List.iter
    (fun p ->
      Format.fprintf ppf
        "  %5d %5d %7d %6d %6d %9.1f %6d %4d %6d %9.1f %9.1f %6s %5s@."
        p.sp_nodes p.sp_slots p.sp_cols p.sp_rows p.sp_dual_slots p.sp_dual_ms
        p.sp_dual_solves p.sp_dual_phase1_pivots p.sp_referee_slots
        p.sp_referee_ms p.sp_dual_ms_refereed
        (Printf.sprintf "%d/%d" p.sp_referee_failures p.sp_dual_failures)
        (if p.sp_truncated then "yes" else "no"))
    s.sc_points;
  let worst =
    List.fold_left (fun acc p -> max acc p.sp_max_objective_gap) 0. s.sc_points
  in
  Format.fprintf ppf
    "  (same ms: dual-first time on the refereed slots; fails: \
     referee/dual)@.";
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
            \"dual_slots\": %d, \"dual_iterations\": %d, \"dual_ms\": %s, \
            \"dual_solves\": %d, \"dual_phase1_pivots\": %d, \
            \"dual_failures\": %d, \"truncated\": %b, \
            \"referee_slots\": %d, \"referee_iterations\": %d, \
            \"referee_ms\": %s, \"referee_failures\": %d, \
            \"dual_iterations_refereed\": %d, \"dual_ms_refereed\": %s, \
            \"max_objective_gap\": %s}%s\n"
           p.sp_nodes p.sp_slots p.sp_cols p.sp_rows p.sp_dual_slots
           p.sp_dual_iterations (json_float p.sp_dual_ms) p.sp_dual_solves
           p.sp_dual_phase1_pivots p.sp_dual_failures p.sp_truncated
           p.sp_referee_slots p.sp_referee_iterations
           (json_float p.sp_referee_ms) p.sp_referee_failures
           p.sp_dual_iterations_refereed (json_float p.sp_dual_ms_refereed)
           (json_float p.sp_max_objective_gap)
           (if i = n - 1 then "" else ",")))
    s.sc_points;
  Buffer.add_string b "  ]\n}\n";
  Buffer.contents b
