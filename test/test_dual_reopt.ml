(* Dual-simplex re-optimization: when only the RHS or bounds move, the
   carried basis stays dual-feasible and the solver must reach the new
   optimum — or a certified infeasibility verdict — through the dual
   path with zero phase-1 pivots, while agreeing with a cold primal solve
   on the outcome class and (to 1e-6) on the objective. The property
   tests replay randomized online instances, including mid-run link
   outages and tight capacities that force admission-control verdicts;
   the engine test drives a real post-strand re-plan through a trace
   sink. *)

module Model = Lp.Model
module Status = Lp.Status
module Graph = Netgraph.Graph
module File = Postcard.File
module Formulate = Postcard.Formulate
module Trace = Obs.Trace
module Reader = Obs.Trace_reader
module Gen = QCheck2.Gen

let to_alcotest = QCheck_alcotest.to_alcotest

let get_opt = function
  | Status.Optimal s -> s
  | other ->
      Alcotest.failf "expected optimal, got %a" Status.pp_outcome other

let check_pivot_split (s : Status.solution) =
  let st = s.Status.stats in
  Alcotest.(check int) "phase1 + phase2 + dual = iterations"
    s.Status.iterations
    (st.Status.phase1_pivots + st.Status.phase2_pivots
    + st.Status.dual_pivots)

(* The sample model of the warm-start suite, with a movable Ge RHS and a
   movable upper bound: both perturbations leave the carried basis
   dual-feasible (costs untouched), so they are pure dual territory. *)
let model ~demand ~x_ub =
  let m = Model.create Model.Minimize in
  let x = Model.add_var m ~obj:2. ~ub:x_ub () in
  let y = Model.add_var m ~obj:3. () in
  let z = Model.add_var m ~obj:1. ~ub:4. () in
  ignore (Model.add_constraint m [ (x, 1.); (y, 1.); (z, 1.) ] Model.Ge demand);
  ignore (Model.add_constraint m [ (x, 1.); (y, -1.) ] Model.Eq 1.);
  ignore (Model.add_constraint m [ (y, 2.); (z, 1.) ] Model.Le 8.);
  m

let carried_basis () =
  let cold = get_opt (Lp.Simplex.solve (model ~demand:5. ~x_ub:6.)) in
  match cold.Status.basis with
  | Some b -> b
  | None -> Alcotest.fail "revised simplex returned no basis"

let test_rhs_perturbation_takes_dual_path () =
  let basis = carried_basis () in
  (* Raise the demand: the old optimum goes primal-infeasible but the
     reduced costs are untouched, so the dual simplex must finish it. *)
  let perturbed = model ~demand:9. ~x_ub:6. in
  let cold = get_opt (Lp.Simplex.solve perturbed) in
  let warm = get_opt (Lp.Simplex.solve ~warm_start:basis perturbed) in
  Alcotest.(check (float 1e-9))
    "same objective" cold.Status.objective warm.Status.objective;
  let st = warm.Status.stats in
  Alcotest.(check bool)
    (Format.asprintf "dual re-opt taken (got %a)" Status.pp_warm_start_outcome
       st.Status.warm_start)
    true
    (st.Status.warm_start = Status.Dual_reopt);
  Alcotest.(check int) "zero phase-1 pivots" 0 st.Status.phase1_pivots;
  check_pivot_split warm

let test_dual_pivots_fix_bound_violation () =
  (* min x + 2y, x + y >= d, x <= 4, y <= 4. At d = 2 the optimal basis
     has x basic at 2; raising d to 6 pushes x past its upper bound, so
     the dual simplex must pivot x out and y in — at least one genuine
     dual pivot, not just a recompute. *)
  let build d =
    let m = Model.create Model.Minimize in
    let x = Model.add_var m ~obj:1. ~ub:4. () in
    let y = Model.add_var m ~obj:2. ~ub:4. () in
    ignore (Model.add_constraint m [ (x, 1.); (y, 1.) ] Model.Ge d);
    m
  in
  let cold0 = get_opt (Lp.Simplex.solve (build 2.)) in
  let basis = Option.get cold0.Status.basis in
  let perturbed = build 6. in
  let cold = get_opt (Lp.Simplex.solve perturbed) in
  let warm = get_opt (Lp.Simplex.solve ~warm_start:basis perturbed) in
  Alcotest.(check (float 1e-9))
    "same objective" cold.Status.objective warm.Status.objective;
  let st = warm.Status.stats in
  Alcotest.(check bool) "dual re-opt taken" true
    (st.Status.warm_start = Status.Dual_reopt);
  Alcotest.(check int) "zero phase-1 pivots" 0 st.Status.phase1_pivots;
  Alcotest.(check bool)
    (Printf.sprintf "dual pivots did the work (%d)" st.Status.dual_pivots)
    true
    (st.Status.dual_pivots > 0);
  check_pivot_split warm

let test_bound_tightening_takes_dual_path () =
  let basis = carried_basis () in
  (* Clamp x below its optimal value: a bound move, again dual work. *)
  let perturbed = model ~demand:5. ~x_ub:1.5 in
  let cold = get_opt (Lp.Simplex.solve perturbed) in
  let warm = get_opt (Lp.Simplex.solve ~warm_start:basis perturbed) in
  Alcotest.(check (float 1e-9))
    "same objective" cold.Status.objective warm.Status.objective;
  let st = warm.Status.stats in
  Alcotest.(check bool) "dual re-opt taken" true
    (st.Status.warm_start = Status.Dual_reopt);
  Alcotest.(check int) "zero phase-1 pivots" 0 st.Status.phase1_pivots;
  check_pivot_split warm

(* The ["lp.solve"] trace points [f ()] emits, in order. *)
let traced_solves f =
  let lines = ref [] in
  Trace.set_callback (fun line -> lines := line :: !lines);
  let result = Fun.protect ~finally:Trace.close f in
  let solves =
    List.rev !lines
    |> List.filter_map (fun line ->
           match Reader.of_line line with
           | Error msg -> Alcotest.failf "invalid trace line: %s" msg
           | Ok ev ->
               if ev.Reader.kind = Reader.Point && ev.Reader.name = "lp.solve"
               then Some ev
               else None)
  in
  (result, solves)

let test_infeasible_after_perturbation () =
  (* Tighten until the program is infeasible: the verdict must come from
     the dual path's certified Farkas row, not from a phase-1 rerun. *)
  let basis = carried_basis () in
  let impossible = model ~demand:50. ~x_ub:6. in
  let outcome, solves =
    traced_solves (fun () -> Lp.Simplex.solve ~warm_start:basis impossible)
  in
  Alcotest.(check bool) "still infeasible from a carried basis" true
    (outcome = Status.Infeasible);
  match solves with
  | [ ev ] ->
      Alcotest.(check (option string)) "traced outcome" (Some "infeasible")
        (Reader.str_field ev "outcome");
      Alcotest.(check (option string)) "verdict from the dual path"
        (Some "dual_reopt") (Reader.str_field ev "warm");
      Alcotest.(check (option int)) "no phase-1 pivots" (Some 0)
        (Reader.int_field ev "phase1_pivots")
  | evs -> Alcotest.failf "expected one lp.solve point, got %d" (List.length evs)

let test_uncertified_row_falls_back_to_cold () =
  (* 1e-9 x >= 1 holds at x = 1e9, but the entry is below the pivot
     tolerance, so from a basis with the row's slack basic the dual ratio
     test finds no entering column. The blocked row is no certificate (x
     is unbounded above), so the dual path must hand the solve to a cold
     run and report whatever that concludes. *)
  let m = Model.create Model.Minimize in
  let x = Model.add_var m ~obj:1. () in
  ignore (Model.add_constraint m [ (x, 1e-9) ] Model.Ge 1.);
  let basis =
    Status.Basis.make ~cols:[| Status.Basis.At_lower |]
      ~rows:[| Status.Basis.Basic |]
  in
  let outcome, solves =
    traced_solves (fun () -> Lp.Simplex.solve ~warm_start:basis m)
  in
  Alcotest.(check bool) "same outcome as a cold solve" true
    (outcome = Lp.Simplex.solve m);
  match solves with
  | [ ev ] ->
      Alcotest.(check (option string)) "solved cold instead"
        (Some "fell_back") (Reader.str_field ev "warm")
  | evs -> Alcotest.failf "expected one lp.solve point, got %d" (List.length evs)

(* ------------------------------------------------------------------ *)
(* Property: on randomized multi-slot online instances the dual-warm
   pipeline agrees with the cold one everywhere, and every solve that
   reports [Dual_reopt] spent zero phase-1 pivots. *)

(* [outage] kills one link's residual capacity from slot [cut] on — the
   mid-run RHS shock the dual path exists for. [tight] links fit few
   batches: like the scheduler's admission control, a batch both solvers
   find infeasible is re-solved one file fewer until it fits, each solve
   warm-started from the last optimal basis, so the dual path's certified
   infeasibility verdicts are checked against cold ones. *)
let replay_instance ?(tight = false) ~seed ~nodes ~slots ~files_max ~outage
    () =
  let rng = Prelude.Rng.of_int (seed + 1) in
  let base =
    Netgraph.Topology.complete ~n:nodes ~rng ~cost_lo:1. ~cost_hi:10.
      ~capacity:(if tight then 8. else 30.)
  in
  let dead_link, cut =
    match outage with
    | Some cut -> (Prelude.Rng.int rng (Graph.num_arcs base), cut)
    | None -> (-1, max_int)
  in
  let spec =
    let size_min, size_max, deadlines =
      if tight then (5., 25., Sim.Workload.Uniform_deadline (1, 2))
      else (2., 15., Sim.Workload.Uniform_deadline (2, 3))
    in
    { (Sim.Workload.paper_spec ~nodes ~files_max ~max_deadline:3) with
      Sim.Workload.size_min;
      size_max;
      deadlines }
  in
  let workload = Sim.Workload.create spec (Prelude.Rng.of_int seed) in
  let ledger = Sim.Ledger.create ~base in
  let carried = ref None in
  let ok = ref true in
  for slot = 0 to slots - 1 do
    let capacity ~link ~layer =
      if link = dead_link && slot + layer >= cut then 0.
      else Sim.Ledger.residual ledger ~link ~slot:(slot + layer)
    in
    let rec admit files =
      if files <> [] && !ok then begin
        let make () =
          Formulate.create ~base
            ~charged:(Sim.Ledger.charged_all ledger)
            ~capacity ~files ~epoch:slot ()
        in
        let cold, _ = Formulate.solve_with_info (make ()) in
        let warm, warm_info =
          Formulate.solve_with_info ?warm_start:!carried (make ())
        in
        let st = warm_info.Formulate.stats in
        if
          st.Status.warm_start = Status.Dual_reopt
          && st.Status.phase1_pivots > 0
        then ok := false;
        if
          warm_info.Formulate.iterations
          <> st.Status.phase1_pivots + st.Status.phase2_pivots
             + st.Status.dual_pivots
        then ok := false;
        match (cold, warm) with
        | ( Formulate.Scheduled { objective = co; plan; _ },
            Formulate.Scheduled { objective = wo; _ } ) ->
            if abs_float (co -. wo) > 1e-6 then ok := false;
            Sim.Ledger.commit_plan ledger plan;
            carried := warm_info.Formulate.basis
        | Formulate.Infeasible, Formulate.Infeasible -> admit (List.tl files)
        | _ -> ok := false
      end
    in
    admit (Sim.Workload.arrivals workload ~slot)
  done;
  !ok

let gen_instance =
  Gen.(
    let* seed = int_range 0 9999 in
    let* nodes = int_range 3 5 in
    let* slots = int_range 2 4 in
    let* files_max = int_range 1 3 in
    return (seed, nodes, slots, files_max))

let prop_dual_equals_cold =
  QCheck2.Test.make ~name:"dual re-opt objective = cold objective per epoch"
    ~count:40 gen_instance (fun (seed, nodes, slots, files_max) ->
      replay_instance ~seed ~nodes ~slots ~files_max ~outage:None ())

let prop_dual_equals_cold_under_outage =
  QCheck2.Test.make
    ~name:"dual re-opt survives a mid-run link outage" ~count:40 gen_instance
    (fun (seed, nodes, slots, files_max) ->
      replay_instance ~seed ~nodes ~slots ~files_max
        ~outage:(Some (max 1 (slots / 2))) ())

let prop_tight_verdicts_match_cold =
  QCheck2.Test.make ~name:"tight links: warm verdicts match cold" ~count:40
    gen_instance (fun (seed, nodes, slots, files_max) ->
      replay_instance ~tight:true ~seed ~nodes ~slots ~files_max ~outage:None
        ())

let prop_tight_verdicts_match_cold_under_outage =
  QCheck2.Test.make
    ~name:"outage on tight links: verdicts match cold" ~count:40 gen_instance
    (fun (seed, nodes, slots, files_max) ->
      replay_instance ~tight:true ~seed ~nodes ~slots ~files_max
        ~outage:(Some (max 1 (slots / 2))) ())

let test_tight_verdicts_are_certified () =
  (* The properties above hold vacuously if every verdict fell back to
     cold; on these fixed seeds the dual path must certify some. *)
  let ok, solves =
    traced_solves (fun () ->
        List.for_all
          (fun seed ->
            replay_instance ~tight:true ~seed ~nodes:4 ~slots:3 ~files_max:3
              ~outage:None ())
          [ 0; 1; 2; 3 ])
  in
  Alcotest.(check bool) "warm and cold agree" true ok;
  let certified =
    List.filter
      (fun ev ->
        Reader.str_field ev "outcome" = Some "infeasible"
        && Reader.str_field ev "warm" = Some "dual_reopt"
        && Reader.int_field ev "phase1_pivots" = Some 0)
      solves
  in
  Alcotest.(check bool)
    (Printf.sprintf "certified verdicts on the dual path (%d)"
       (List.length certified))
    true
    (List.length certified > 0)

(* ------------------------------------------------------------------ *)
(* The messages [f ()] logs from the simplex's [Logs] source at debug
   level; the reporter and level are restored afterwards. *)
let simplex_debug_log f =
  let src =
    List.find (fun s -> Logs.Src.name s = "lp.simplex") (Logs.Src.list ())
  in
  let msgs = ref [] in
  let report s _level ~over k msgf =
    msgf (fun ?header:_ ?tags:_ fmt ->
        Format.kasprintf
          (fun msg ->
            if s == src then msgs := msg :: !msgs;
            over ();
            k ())
          fmt)
  in
  let old_reporter = Logs.reporter () and old_level = Logs.Src.level src in
  Logs.set_reporter { Logs.report };
  Logs.Src.set_level src (Some Logs.Debug);
  let result =
    Fun.protect
      ~finally:(fun () ->
        Logs.set_reporter old_reporter;
        Logs.Src.set_level src old_level)
      f
  in
  (result, List.rev !msgs)

(* Pass 2 of the dual ratio test comes up empty only when a reduced cost
   drifted past the dual tolerance; the row goes unchecked and the solve
   must fall back to cold. These Fig. 6-style instances (5 DCs, 30 GB
   links, urgent deadlines, Postcard admission control) hit that case;
   should a solver change move it elsewhere, scanning other instance
   seeds with the same debug-log check finds new ones. *)
let fig6_instance ~iseed =
  let nodes = 5 in
  let base =
    Netgraph.Topology.complete ~n:nodes
      ~rng:(Prelude.Rng.of_int (iseed * 7919))
      ~cost_lo:1. ~cost_hi:10. ~capacity:30.
  in
  let spec =
    { (Sim.Workload.paper_spec ~nodes ~files_max:8 ~max_deadline:3) with
      Sim.Workload.urgent_size_cap = Some 30. }
  in
  let workload =
    Sim.Workload.create spec (Prelude.Rng.of_int (iseed * 104729))
  in
  Sim.Engine.make ~base ~scheduler:(Postcard.Postcard_scheduler.make ())
    ~workload ~slots:3 ()

let test_pass2_empty_falls_back_to_cold () =
  let (_, solves), log =
    simplex_debug_log (fun () ->
        traced_solves (fun () ->
            List.iter
              (fun iseed -> ignore (Sim.Engine.run (fig6_instance ~iseed)))
              [ 24; 25; 45 ]))
  in
  let fallbacks = List.filter (String.starts_with ~prefix:"dual re-opt: ") log in
  let pass2 =
    List.filter
      (String.equal "dual re-opt: pass 2 found no entering column; solving cold")
      fallbacks
  in
  Alcotest.(check bool)
    (Printf.sprintf "pass 2 came up empty (%d times)" (List.length pass2))
    true
    (List.length pass2 > 0);
  Alcotest.(check (list string)) "no other fallback on these instances" pass2
    fallbacks;
  Alcotest.(check int) "each fallback traced as fell_back"
    (List.length fallbacks)
    (List.length
       (List.filter (fun ev -> Reader.str_field ev "warm" = Some "fell_back")
          solves));
  List.iter
    (fun ev ->
      if Reader.str_field ev "warm" = Some "fell_back" then
        Alcotest.(check bool) "the cold rerun settles the solve" true
          (match Reader.str_field ev "outcome" with
           | Some ("optimal" | "infeasible") -> true
           | _ -> false))
    solves

(* ------------------------------------------------------------------ *)
(* Post-strand re-plan through the real engine: a revealed outage
   strands bytes mid-run, the engine re-offers them, and the scheduler's
   re-solve must keep the carried basis dual-feasible. Verified from the
   trace, the same channel the trace-summary reads. *)

let test_post_strand_replan_keeps_dual_basis () =
  (* A 12 GB file over the cheap capacity-5 direct link needs three of
     the four slots, so an outage covering slots 1..3 strands bytes no
     matter how the optimal plan placed them; the expensive relay
     0 -> 2 -> 1 keeps the re-offer feasible. *)
  let g = Graph.create ~n:3 in
  ignore (Graph.add_arc g ~src:0 ~dst:1 ~capacity:5. ~cost:1. ());
  ignore (Graph.add_arc g ~src:0 ~dst:2 ~capacity:10. ~cost:3. ());
  ignore (Graph.add_arc g ~src:2 ~dst:1 ~capacity:10. ~cost:3. ());
  let faults =
    match Sim.Faults.parse "link:0-1@1..3" with
    | Ok sc -> sc
    | Error msg -> Alcotest.failf "bad fault spec: %s" msg
  in
  let workload =
    Sim.Workload.scripted
      [ File.make ~id:0 ~src:0 ~dst:1 ~size:12. ~deadline:4 ~release:0 ]
  in
  let outcome, solves =
    traced_solves (fun () ->
        Sim.Engine.(
          run
            (make ~base:g
               ~scheduler:(Postcard.Postcard_scheduler.make ())
               ~workload ~slots:4 ~faults ())))
  in
  Alcotest.(check bool) "the outage stranded and re-planned a file" true
    (outcome.Sim.Engine.replanned_files >= 1);
  Alcotest.(check int) "two solves: admission, then the re-plan" 2
    (List.length solves);
  let replan = List.nth solves 1 in
  Alcotest.(check (option string)) "re-plan re-optimized via the dual simplex"
    (Some "dual_reopt")
    (Reader.str_field replan "warm");
  Alcotest.(check (option int)) "zero phase-1 pivots on the re-plan" (Some 0)
    (Reader.int_field replan "phase1_pivots");
  Alcotest.(check (option string)) "the re-offer fits" (Some "optimal")
    (Reader.str_field replan "outcome")

(* ------------------------------------------------------------------ *)
(* The bench aggregates are recomputed from per-slot records; tampering
   with either side must be caught. *)

let test_bench_reconcile_detects_tampering () =
  let summary = Sim.Solver_bench.run ~nodes:4 ~slots:4 ~seed:7 () in
  (match Sim.Solver_bench.reconcile summary with
   | Ok () -> ()
   | Error msg -> Alcotest.failf "honest summary failed to reconcile: %s" msg);
  let tampered =
    { summary with
      Sim.Solver_bench.warm_fell_back =
        summary.Sim.Solver_bench.warm_fell_back + 1 }
  in
  Alcotest.(check bool) "inflated warm_fell_back is caught" true
    (Result.is_error (Sim.Solver_bench.reconcile tampered));
  let zeroed = { summary with Sim.Solver_bench.dual_reopts = 0 } in
  Alcotest.(check bool) "zeroed dual_reopts is caught" true
    (summary.Sim.Solver_bench.dual_reopts = 0
    || Result.is_error (Sim.Solver_bench.reconcile zeroed))

let suite =
  [ Alcotest.test_case "RHS perturbation takes the dual path" `Quick
      test_rhs_perturbation_takes_dual_path;
    Alcotest.test_case "bound tightening takes the dual path" `Quick
      test_bound_tightening_takes_dual_path;
    Alcotest.test_case "dual pivots fix a bound violation" `Quick
      test_dual_pivots_fix_bound_violation;
    Alcotest.test_case "infeasible verdict survives the dual path" `Quick
      test_infeasible_after_perturbation;
    Alcotest.test_case "uncertified blocked row falls back to cold" `Quick
      test_uncertified_row_falls_back_to_cold;
    Alcotest.test_case "post-strand re-plan keeps a dual-feasible basis"
      `Quick test_post_strand_replan_keeps_dual_basis;
    Alcotest.test_case "bench reconcile detects tampering" `Quick
      test_bench_reconcile_detects_tampering;
    Alcotest.test_case "tight links: verdicts are certified" `Quick
      test_tight_verdicts_are_certified;
    Alcotest.test_case "empty ratio-test pass 2 falls back to cold" `Quick
      test_pass2_empty_falls_back_to_cold;
    to_alcotest prop_dual_equals_cold;
    to_alcotest prop_dual_equals_cold_under_outage;
    to_alcotest prop_tight_verdicts_match_cold;
    to_alcotest prop_tight_verdicts_match_cold_under_outage ]
