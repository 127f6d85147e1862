(* The reproduction harness: regenerates every figure of the paper's
   evaluation (Sec. VII) plus the two worked examples, then runs Bechamel
   micro-benchmarks of the solver kernels.

   Figures are reproduced at bench scale by default (see EXPERIMENTS.md for
   the calibration; `bin/postcard_sim --scale paper` runs the paper's exact
   20-datacenter setting). Output is plain text, one section per figure. *)

module Graph = Netgraph.Graph
module File = Postcard.File

let section title =
  Format.printf "@.%s@.%s@." title (String.make (String.length title) '=')

(* Every macro-benchmark draws its schedulers from the registry; the
   names here are canonical, so a lookup failure is a build bug. *)
let factory_exn name =
  match Postcard.Scheduler.factory name with
  | Some f -> f
  | None -> invalid_arg ("bench: no registered scheduler " ^ name)

let factories names = List.map factory_exn names

(* ------------------------------------------------------------------ *)
(* Worked examples (Fig. 1 and Fig. 3): exact optima. *)

let fig1 () =
  section "Fig. 1 — motivating example (3 DCs, one 6 MB file, 3 intervals)";
  let base = Graph.create ~n:3 in
  ignore (Graph.add_arc base ~src:1 ~dst:2 ~capacity:1000. ~cost:10. ());
  ignore (Graph.add_arc base ~src:1 ~dst:0 ~capacity:1000. ~cost:1. ());
  ignore (Graph.add_arc base ~src:0 ~dst:2 ~capacity:1000. ~cost:3. ());
  let file = File.make ~id:0 ~src:1 ~dst:2 ~size:6. ~deadline:3 ~release:0 in
  let program =
    Postcard.Formulate.create ~base
      ~charged:(Array.make 3 0.)
      ~capacity:(fun ~link:_ ~layer:_ -> 1000.)
      ~files:[ file ] ~epoch:0 ()
  in
  let postcard_cost =
    match Postcard.Formulate.solve program with
    | Postcard.Formulate.Scheduled { objective; _ } -> objective
    | Postcard.Formulate.Infeasible | Postcard.Formulate.Solver_failure _ ->
        nan
  in
  Format.printf "  %-28s %10s %10s@." "strategy" "paper" "measured";
  Format.printf "  %-28s %10.0f %10.0f@." "direct send" 20. (10. *. File.rate file);
  Format.printf "  %-28s %10.0f %10.2f@." "postcard (relay + schedule)" 12.
    postcard_cost

let fig3 () =
  section "Fig. 3 — Sec. V worked example (4 DCs, 2 files, capacity 5)";
  let costs =
    [| [| 0.; 1.; 5.; 6. |];
       [| 1.; 0.; 4.; 11. |];
       [| 5.; 4.; 0.; 6. |];
       [| 6.; 11.; 6.; 0. |] |]
  in
  let base = Netgraph.Topology.of_cost_matrix ~capacity:5. costs in
  let m = Graph.num_arcs base in
  let files =
    [ File.make ~id:1 ~src:1 ~dst:3 ~size:8. ~deadline:4 ~release:0;
      File.make ~id:2 ~src:0 ~dst:3 ~size:10. ~deadline:2 ~release:0 ]
  in
  let postcard_cost =
    let program =
      Postcard.Formulate.create ~base ~charged:(Array.make m 0.)
        ~capacity:(fun ~link:_ ~layer:_ -> 5.)
        ~files ~epoch:0 ()
    in
    match Postcard.Formulate.solve program with
    | Postcard.Formulate.Scheduled { objective; _ } -> objective
    | Postcard.Formulate.Infeasible | Postcard.Formulate.Solver_failure _ ->
        nan
  in
  let flow_cost =
    let inst =
      { Postcard.Flow_baseline.base;
        cap = Array.make m 5.;
        occ_peak = Array.make m 0.;
        charged = Array.make m 0. }
    in
    match Postcard.Flow_baseline.solve_two_stage inst ~files with
    | Some flows -> flows.Postcard.Flow_baseline.estimated_cost
    | None -> nan
  in
  Format.printf "  %-28s %10s %10s@." "strategy" "paper" "measured";
  Format.printf "  %-28s %10.0f %10.2f@." "direct send" 52. 52.;
  Format.printf "  %-28s %10.0f %10.2f@." "flow-based (Sec. II-B)" 50. flow_cost;
  Format.printf "  %-28s %10.2f %10.2f@." "postcard" 32.67 postcard_cost

(* ------------------------------------------------------------------ *)
(* Figs. 4-7: the randomized evaluation at bench scale. *)

let figure ~pool n =
  let setting = Sim.Experiment.scaled_figure n in
  section (Printf.sprintf "Fig. %d — %s" n setting.Sim.Experiment.label);
  let schedulers = factories [ "postcard"; "flow-based"; "direct" ] in
  let results = Sim.Experiment.run_setting ~pool setting ~schedulers in
  Format.printf "%a@." Sim.Report.print_summary results;
  Format.printf "%t"
    (fun ppf ->
      Sim.Report.print_comparison ppf ~baseline:"flow-based"
        ~contender:"postcard" results);
  results

let check_figure_shapes results4 results5 results6 results7 =
  section "Shape checks (paper claims vs measured)";
  let cost results name =
    (Sim.Experiment.find_summary_exn results name).Sim.Experiment.mean_cost
  in
  let verdict ok = if ok then "OK " else "MISS" in
  let p4 = cost results4 "postcard" and f4 = cost results4 "flow-based" in
  let p5 = cost results5 "postcard" and f5 = cost results5 "flow-based" in
  let p6 = cost results6 "postcard" and f6 = cost results6 "flow-based" in
  let p7 = cost results7 "postcard" and f7 = cost results7 "flow-based" in
  Format.printf "  [%s] fig4: flow-based wins with ample capacity (%.0f < %.0f)@."
    (verdict (f4 < p4)) f4 p4;
  Format.printf "  [%s] fig5: flow-based wins with ample capacity (%.0f < %.0f)@."
    (verdict (f5 < p5)) f5 p5;
  Format.printf
    "  [%s] fig6/7: postcard improves relative to flow when capacity throttles (%.2f -> %.2f)@."
    (verdict (p6 /. f6 < p4 /. f4 && p7 /. f7 < p5 /. f5))
    (p4 /. f4) (p6 /. f6);
  Format.printf
    "  [%s] postcard's cost falls with more delay tolerance (fig4 %.0f -> fig5 %.0f, fig6 %.0f -> fig7 %.0f)@."
    (verdict (p5 < p4 && p7 < p6))
    p4 p5 p6 p7;
  Format.printf
    "  [%s] throttled-capacity dominance (paper: postcard wins at c=30; measured ratios %.2f, %.2f — see EXPERIMENTS.md)@."
    (verdict (p6 < f6 && p7 < f7))
    (p6 /. f6) (p7 /. f7)

(* ------------------------------------------------------------------ *)
(* Ablations. *)

let ablation_flow_variants ~pool () =
  section "Ablation — flow-baseline variants (literal vs excess vs joint)";
  let setting =
    { (Sim.Experiment.scaled_figure 6) with Sim.Experiment.runs = 3 }
  in
  let schedulers = factories [ "flow-based"; "flow-excess"; "flow-joint" ] in
  let results = Sim.Experiment.run_setting ~pool setting ~schedulers in
  Format.printf "%a@." Sim.Report.print_summary results;
  Format.printf
    "  The literal Sec. II-B decomposition cannot beat the joint LP; the gap@.";
  Format.printf "  measures what the paper's decomposition gives away.@."

let ablation_greedy_vs_lp ~pool () =
  section "Ablation — exact LP vs combinatorial greedy (speed/quality)";
  let setting =
    { (Sim.Experiment.scaled_figure 6) with Sim.Experiment.runs = 3 }
  in
  let schedulers = factories [ "postcard"; "greedy-snf" ] in
  let t0 = Unix.gettimeofday () in
  let results = Sim.Experiment.run_setting ~pool setting ~schedulers in
  let elapsed = Unix.gettimeofday () -. t0 in
  Format.printf "%a@." Sim.Report.print_summary results;
  Format.printf "%t"
    (fun ppf ->
      Sim.Report.print_comparison ppf ~baseline:"postcard"
        ~contender:"greedy-snf" results);
  Format.printf "  (both schedulers, %d runs: %.1f s total)@."
    setting.Sim.Experiment.runs elapsed;
  Format.printf
    "  greedy-snf routes one min-cost flow per file instead of one LP per@.";
  Format.printf "  epoch; the ratio above is the price of that shortcut.@."

let ablation_price_of_myopia () =
  section "Ablation — price of myopia (online Postcard vs clairvoyant)";
  let nodes = 6 and slots = 15 in
  Format.printf "  %-6s %14s %14s %8s@." "seed" "online cost" "offline cost"
    "ratio";
  let ratios = ref [] in
  List.iter
    (fun seed ->
      let rng = Prelude.Rng.of_int (seed * 7919) in
      let base =
        Netgraph.Topology.complete ~n:nodes ~rng ~cost_lo:1. ~cost_hi:10.
          ~capacity:40.
      in
      let spec =
        { (Sim.Workload.paper_spec ~nodes ~files_max:3 ~max_deadline:4) with
          Sim.Workload.size_min = 5.;
          size_max = 25.;
          deadlines = Sim.Workload.Uniform_deadline (2, 4) }
      in
      let all_files = ref [] in
      let collector = Sim.Workload.create spec (Prelude.Rng.of_int seed) in
      for slot = 0 to slots - 1 do
        all_files := !all_files @ Sim.Workload.arrivals collector ~slot
      done;
      let outcome =
        Sim.Engine.(
          run
            (make ~base
               ~scheduler:(Postcard.Postcard_scheduler.make ())
               ~workload:(Sim.Workload.create spec (Prelude.Rng.of_int seed))
               ~slots ()))
      in
      let online = outcome.Sim.Engine.cost_series.(slots - 1) in
      match Postcard.Offline.solve ~base ~files:!all_files () with
      | Error msg -> Format.printf "  %-6d offline failed: %s@." seed msg
      | Ok r ->
          let ratio =
            Postcard.Offline.price_of_myopia ~base ~online_cost:online
              ~offline:r
          in
          ratios := ratio :: !ratios;
          Format.printf "  %-6d %14.1f %14.1f %8.3f@." seed online
            r.Postcard.Offline.objective ratio)
    [ 1; 2; 3 ];
  if !ratios <> [] then
    Format.printf
      "  The clairvoyant optimum lower-bounds every online policy; the mean@.\
      \  ratio (%.2f) is what the paper's online assumption itself costs.@."
      (Prelude.Stats.mean (Array.of_list !ratios))

let extension_percentile_billing () =
  section "Extension — 95th-percentile billing and burst-aware scheduling";
  let nodes = 6 and slots = 40 in
  let rng = Prelude.Rng.of_int 2027 in
  let base =
    Netgraph.Topology.complete ~n:nodes ~rng ~cost_lo:1. ~cost_hi:10.
      ~capacity:50.
  in
  let spec =
    { (Sim.Workload.paper_spec ~nodes ~files_max:3 ~max_deadline:4) with
      Sim.Workload.size_min = 5.;
      size_max = 30. }
  in
  Format.printf "  %-12s %14s %14s@." "scheduler" "bill (100th)" "bill (95th)";
  List.iter
    (fun scheduler ->
      let workload = Sim.Workload.create spec (Prelude.Rng.of_int 8888) in
      let outcome =
        Sim.Engine.(run (make ~base ~scheduler ~workload ~slots ()))
      in
      let bill q =
        Sim.Engine.evaluate_cost outcome ~scheme:(Postcard.Charging.scheme q)
          ~base
      in
      Format.printf "  %-12s %14.1f %14.1f@." (Postcard.Scheduler.name scheduler)
        (bill 100.) (bill 95.))
    [ Postcard.Greedy_scheduler.make ();
      Postcard.Greedy_scheduler.make_percentile () ];
  Format.printf
    "  Under 95th-percentile billing each link's top 5%% of slots are free;@.";
  Format.printf
    "  the burst-aware scheduler concentrates overflow into those slots.@."

let ablation_deadline_heterogeneity ~pool () =
  section "Ablation — deadline heterogeneity (the Figs. 6/7 mechanism)";
  let base_setting =
    { (Sim.Experiment.scaled_figure 6) with Sim.Experiment.runs = 3 }
  in
  let schedulers = factories [ "postcard"; "flow-based" ] in
  List.iter
    (fun (label, uniform) ->
      let setting =
        { base_setting with
          Sim.Experiment.label;
          uniform_deadlines = uniform }
      in
      let results = Sim.Experiment.run_setting ~pool setting ~schedulers in
      Format.printf "%a@." Sim.Report.print_summary results)
    [ ("deadlines uniform in [1, T] (urgent + tolerant mix)", true);
      ("all deadlines = T (no heterogeneity)", false) ];
  Format.printf
    "  Urgent (deadline-1) files are what slotted store-and-forward pays@.";
  Format.printf
    "  for: they burst whole transfers into single slots and reject under@.";
  Format.printf
    "  contention, while the fluid baseline absorbs them by occupying all@.";
  Format.printf
    "  hops simultaneously. With homogeneous deadlines the two models@.";
  Format.printf "  nearly tie (see EXPERIMENTS.md).@."

(* ------------------------------------------------------------------ *)
(* Solver macro-benchmark: the two-phase referee vs the dual-first
   simplex across an online run (see DESIGN.md, §4b). *)

let solver_bench ~pool ~json =
  section "Solver — two-phase referee vs dual first from the slack basis";
  let summary = Sim.Solver_bench.run ~nodes:6 ~slots:12 ~seed:1 ~pool () in
  Format.printf "%a" Sim.Solver_bench.pp_summary summary;
  (* The aggregate counters are recomputed from the per-slot records; a
     mismatch means the summary lies about what the solver did, so fail
     loudly rather than publish it. *)
  (match Sim.Solver_bench.reconcile summary with
   | Ok () -> ()
   | Error msg ->
       Format.eprintf
         "  BENCH FAILURE: aggregate/per-slot counters disagree: %s@." msg;
       exit 1);
  (match json with
   | None -> ()
   | Some path -> (
       match open_out path with
       | oc ->
           output_string oc (Sim.Solver_bench.to_json summary);
           close_out oc;
           Format.printf "  wrote %s@." path
       | exception Sys_error msg ->
           Format.eprintf "  cannot write JSON summary: %s@." msg;
           exit 1));
  summary

(* ------------------------------------------------------------------ *)
(* Scale sweep: referee / dual-first iteration and wall-time curves as the
   topology and horizon grow (see EXPERIMENTS.md). *)

let solver_scale_bench ~sizes ~budget_ms ~json =
  section "Solver scale sweep — two-phase referee vs dual first";
  let summary =
    Sim.Solver_bench.scale_sweep ?sizes ~seed:1 ?budget_ms ()
  in
  Format.printf "%a" Sim.Solver_bench.pp_scale summary;
  let total_dual_solves =
    List.fold_left
      (fun acc p -> acc + p.Sim.Solver_bench.sp_dual_solves)
      0 summary.Sim.Solver_bench.sc_points
  in
  if total_dual_solves = 0 then begin
    Format.eprintf "  BENCH FAILURE: no slot was solved on the dual path@.";
    exit 1
  end;
  let total_dual_failures =
    List.fold_left
      (fun acc p -> acc + p.Sim.Solver_bench.sp_dual_failures)
      0 summary.Sim.Solver_bench.sc_points
  in
  if total_dual_failures > 0 then begin
    Format.eprintf "  BENCH FAILURE: %d dual-first solve(s) failed@."
      total_dual_failures;
    exit 1
  end;
  let worst_gap =
    List.fold_left
      (fun acc p -> max acc p.Sim.Solver_bench.sp_max_objective_gap)
      0. summary.Sim.Solver_bench.sc_points
  in
  if not (Float.is_finite worst_gap) then begin
    Format.eprintf
      "  BENCH FAILURE: solvers disagreed on feasibility (infinite \
       objective gap)@.";
    exit 1
  end;
  (match json with
   | None -> ()
   | Some path -> (
       match open_out path with
       | oc ->
           output_string oc (Sim.Solver_bench.scale_to_json summary);
           close_out oc;
           Format.printf "  wrote %s@." path
       | exception Sys_error msg ->
           Format.eprintf "  cannot write JSON summary: %s@." msg;
           exit 1))

(* ------------------------------------------------------------------ *)
(* Runner scale-out: the (run, scheduler) sweep spread over a domain
   pool vs the serial runner, on the scaled figure 4 setting. Besides
   the wall-clock ratio this checks the headline determinism contract:
   summaries must be identical for every pool size. *)

let summaries_identical a b =
  let open Sim.Experiment in
  List.length a.summaries = List.length b.summaries
  && List.for_all2
       (fun (x : scheduler_summary) (y : scheduler_summary) ->
         x.scheduler = y.scheduler
         && x.mean_cost = y.mean_cost
         && x.ci95 = y.ci95
         && x.run_costs = y.run_costs
         && x.mean_series = y.mean_series
         && x.rejected = y.rejected)
       a.summaries b.summaries

let runner_scaleout_bench ~pool ~json =
  section "Runner scale-out — serial vs domain-parallel experiment sweep";
  let setting = Sim.Experiment.scaled_figure 4 in
  let schedulers = factories [ "postcard"; "flow-based"; "direct" ] in
  let cells = Sim.Experiment.cells setting ~schedulers in
  let domains = Exec.Pool.size pool in
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let serial, serial_s =
    time (fun () -> Sim.Experiment.run_setting setting ~schedulers)
  in
  let par, parallel_s =
    time (fun () -> Sim.Experiment.run_setting ~pool setting ~schedulers)
  in
  let identical = summaries_identical serial par in
  let speedup = if parallel_s > 0. then serial_s /. parallel_s else nan in
  let host_cores = Domain.recommended_domain_count () in
  Format.printf
    "  %d cells over %d domain(s) (host reports %d core(s))@." cells domains
    host_cores;
  Format.printf "  serial %.2f s, parallel %.2f s — speedup %.2fx@." serial_s
    parallel_s speedup;
  Format.printf "  summaries bit-identical: %s@."
    (if identical then "yes" else "NO — determinism contract broken");
  (match json with
   | None -> ()
   | Some path ->
       let oc = open_out path in
       Printf.fprintf oc
         "{\n\
         \  \"bench\": \"runner_scaleout\",\n\
         \  \"setting\": %S,\n\
         \  \"cells\": %d,\n\
         \  \"domains\": %d,\n\
         \  \"host_cores\": %d,\n\
         \  \"serial_s\": %.6f,\n\
         \  \"parallel_s\": %.6f,\n\
         \  \"speedup\": %.4f,\n\
         \  \"identical\": %b\n\
          }\n"
         setting.Sim.Experiment.label cells domains host_cores serial_s
         parallel_s speedup identical;
       close_out oc;
       Format.printf "  wrote %s@." path);
  if not identical then exit 1

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks of the solver kernels. *)

let bechamel_benches () =
  section "Solver micro-benchmarks (Bechamel)";
  let open Bechamel in
  let lu_bench =
    (* Factorize + solve a sparse near-triangular 200x200 system. *)
    let n = 200 in
    let rng = Prelude.Rng.of_int 9 in
    let d =
      Array.init n (fun i -> Array.init n (fun j -> if i = j then 1. else 0.))
    in
    for _ = 1 to 3 * n do
      let i = Prelude.Rng.int rng n and j = Prelude.Rng.int rng n in
      if i <> j then d.(i).(j) <- Prelude.Rng.float_range rng (-0.5) 0.5
    done;
    let col j =
      let acc = ref [] in
      for i = n - 1 downto 0 do
        if d.(i).(j) <> 0. then acc := (i, d.(i).(j)) :: !acc
      done;
      Array.of_list !acc
    in
    let b = Array.init n (fun i -> float_of_int (i mod 5)) in
    let rows = Array.init n Fun.id in
    Test.make ~name:"sparse LU 200x200"
      (Staged.stage (fun () ->
           match Sparselin.Lu.factorize ~dim:n col with
           | Ok f ->
               let x = Array.copy b in
               ignore (Sparselin.Lu.ftran f x (Array.copy rows) n);
               ignore (Sys.opaque_identity x)
           | Error _ -> assert false))
  in
  let simplex_bench =
    let model =
      let m = Lp.Model.create Lp.Model.Minimize in
      let rng = Prelude.Rng.of_int 4 in
      let vars =
        Array.init 60 (fun _ ->
            Lp.Model.add_var m ~obj:(Prelude.Rng.float_range rng 1. 10.) ())
      in
      for _ = 1 to 40 do
        let terms =
          Array.to_list vars
          |> List.filteri (fun i _ -> i mod 3 = 0)
          |> List.map (fun v -> (v, Prelude.Rng.float_range rng 0.1 2.))
        in
        ignore
          (Lp.Model.add_constraint m terms Lp.Model.Ge
             (Prelude.Rng.float_range rng 1. 20.))
      done;
      m
    in
    Test.make ~name:"simplex 60 vars x 40 rows"
      (Staged.stage (fun () ->
           ignore (Sys.opaque_identity (Lp.Simplex.solve model))))
  in
  let postcard_bench =
    let costs =
      [| [| 0.; 1.; 5.; 6. |];
         [| 1.; 0.; 4.; 11. |];
         [| 5.; 4.; 0.; 6. |];
         [| 6.; 11.; 6.; 0. |] |]
    in
    let base = Netgraph.Topology.of_cost_matrix ~capacity:5. costs in
    let files =
      [ File.make ~id:1 ~src:1 ~dst:3 ~size:8. ~deadline:4 ~release:0;
        File.make ~id:2 ~src:0 ~dst:3 ~size:10. ~deadline:2 ~release:0 ]
    in
    Test.make ~name:"postcard fig3 solve"
      (Staged.stage (fun () ->
           let program =
             Postcard.Formulate.create ~base
               ~charged:(Array.make (Graph.num_arcs base) 0.)
               ~capacity:(fun ~link:_ ~layer:_ -> 5.)
               ~files ~epoch:0 ()
           in
           ignore (Sys.opaque_identity (Postcard.Formulate.solve program))))
  in
  let mcf_bench =
    let rng = Prelude.Rng.of_int 17 in
    let g =
      Netgraph.Topology.complete ~n:12 ~rng ~cost_lo:1. ~cost_hi:10.
        ~capacity:10.
    in
    Test.make ~name:"min-cost flow 12-DC complete"
      (Staged.stage (fun () ->
           ignore
             (Sys.opaque_identity
                (Netgraph.Mincostflow.min_cost_flow g ~src:0 ~dst:11
                   ~amount:25.))))
  in
  let benchmark test =
    let instances = [ Toolkit.Instance.monotonic_clock ] in
    let cfg = Benchmark.cfg ~limit:300 ~quota:(Time.second 1.0) ~kde:None () in
    let raw = Benchmark.all cfg instances test in
    let results =
      Analyze.all
        (Analyze.ols ~bootstrap:0 ~r_square:false
           ~predictors:[| Measure.run |])
        Toolkit.Instance.monotonic_clock raw
    in
    Hashtbl.iter
      (fun name result ->
        match Analyze.OLS.estimates result with
        | Some [ est ] -> Format.printf "  %-32s %12.1f ns/run@." name est
        | Some _ | None -> Format.printf "  %-32s (no estimate)@." name)
      results
  in
  List.iter benchmark [ lu_bench; simplex_bench; postcard_bench; mcf_bench ]

(* Verify the "telemetry off costs nothing" contract: with the metrics
   registry disabled and no trace sink installed, a burst of guarded
   instrumentation calls — the exact pattern sitting on the simplex pivot
   path — must allocate nothing on the minor heap. *)
let obs_noop_bench () =
  section "Telemetry overhead — disabled instrumentation";
  let open Bechamel in
  assert (not (Obs.Metrics.enabled ()));
  assert (not (Obs.Trace.enabled ()));
  let c = Obs.Metrics.counter "bench.noop_counter" in
  let h = Obs.Metrics.histogram "bench.noop_hist" in
  let test =
    Test.make ~name:"1000 guarded metric+trace updates"
      (Staged.stage (fun () ->
           for i = 0 to 999 do
             Obs.Metrics.incr c;
             Obs.Metrics.add c i;
             Obs.Metrics.observe h 1.5;
             if Obs.Trace.enabled () then
               Obs.Trace.point "bench.noop" [ ("i", Obs.Trace.Int i) ]
           done))
  in
  let instances = [ Toolkit.Instance.minor_allocated ] in
  let cfg = Benchmark.cfg ~limit:300 ~quota:(Time.second 0.5) ~kde:None () in
  let raw = Benchmark.all cfg instances test in
  let results =
    Analyze.all
      (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |])
      Toolkit.Instance.minor_allocated raw
  in
  Hashtbl.iter
    (fun name result ->
      match Analyze.OLS.estimates result with
      | Some [ est ] ->
          Format.printf "  %-40s %8.2f minor words/run %s@." name est
            (if est < 1. then "(allocation-free: OK)" else "(ALLOCATES)")
      | Some _ | None -> Format.printf "  %-40s (no estimate)@." name)
    results

(* ------------------------------------------------------------------ *)
(* Span-instrumentation overhead: the cost of a disabled Span.begin_/end_
   pair (must stay at a few ns and zero allocation — it sits on the
   simplex pivot path), the cost of an enabled pair into a sink, and the
   end-to-end slowdown of a fully traced engine run. *)

let obs_overhead_bench ~json () =
  section "Telemetry overhead — span instrumentation (begin_/end_ pairs)";
  assert (not (Obs.Span.enabled ()));
  assert (not (Obs.Trace.enabled ()));
  let spin n =
    for _ = 1 to n do
      let s = Obs.Span.begin_ "bench.span" in
      Obs.Span.end_ s
    done
  in
  (* Disabled: the no-op path. *)
  let disabled_calls = 5_000_000 in
  spin 100_000;
  let w0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  spin disabled_calls;
  let disabled_s = Unix.gettimeofday () -. t0 in
  let minor_words = Gc.minor_words () -. w0 in
  let disabled_ns = disabled_s /. float_of_int disabled_calls *. 1e9 in
  Format.printf
    "  disabled span pair: %6.2f ns/call, %.2f minor words over %d calls %s@."
    disabled_ns minor_words disabled_calls
    (* [Gc.minor_words] itself boxes its float result, so a few words of
       slack separate "allocation-free" from a real per-call leak. *)
    (if minor_words < 64. then "(allocation-free: OK)" else "(ALLOCATES)");
  (* Enabled: every pair emits two JSONL lines into a counting sink. *)
  let enabled_calls = 200_000 in
  let lines = ref 0 in
  Obs.Trace.set_callback (fun _ -> incr lines);
  Obs.Span.set_enabled true;
  spin 1_000;
  let t0 = Unix.gettimeofday () in
  spin enabled_calls;
  let enabled_s = Unix.gettimeofday () -. t0 in
  Obs.Span.set_enabled false;
  Obs.Trace.close ();
  let enabled_ns = enabled_s /. float_of_int enabled_calls *. 1e9 in
  Format.printf "  enabled span pair:  %6.0f ns/call (%dx the disabled cost)@."
    enabled_ns
    (int_of_float (Float.round (enabled_ns /. Float.max 1e-9 disabled_ns)));
  (* End to end: one engine run, untraced vs fully traced with spans. *)
  let run_once () =
    let rng = Prelude.Rng.of_int 7919 in
    let base =
      Netgraph.Topology.complete ~n:6 ~rng ~cost_lo:1. ~cost_hi:10.
        ~capacity:35.
    in
    let spec = Sim.Workload.paper_spec ~nodes:6 ~files_max:3 ~max_deadline:4 in
    let workload = Sim.Workload.create spec (Prelude.Rng.of_int 1) in
    ignore
      (Sys.opaque_identity
         (Sim.Engine.(
            run
              (make ~base
                 ~scheduler:(Postcard.Postcard_scheduler.make ())
                 ~workload ~slots:12 ()))))
  in
  run_once ();
  let t0 = Unix.gettimeofday () in
  run_once ();
  let untraced_s = Unix.gettimeofday () -. t0 in
  let trace_events = ref 0 in
  Obs.Trace.set_callback (fun _ -> incr trace_events);
  Obs.Span.set_enabled true;
  let t0 = Unix.gettimeofday () in
  run_once ();
  let traced_s = Unix.gettimeofday () -. t0 in
  Obs.Span.set_enabled false;
  Obs.Trace.close ();
  let slowdown = if untraced_s > 0. then traced_s /. untraced_s else nan in
  Format.printf
    "  engine run (6 DCs, 12 slots): untraced %.4f s, traced %.4f s — \
     slowdown %.2fx, %d events@."
    untraced_s traced_s slowdown !trace_events;
  match json with
  | None -> ()
  | Some path -> (
      match open_out path with
      | exception Sys_error msg ->
          Format.eprintf "  cannot write JSON summary: %s@." msg;
          exit 1
      | oc ->
          Printf.fprintf oc
            "{\n\
            \  \"bench\": \"obs_overhead\",\n\
            \  \"disabled_span_ns\": %.4f,\n\
            \  \"enabled_span_ns\": %.1f,\n\
            \  \"minor_words\": %.1f,\n\
            \  \"disabled_calls\": %d,\n\
            \  \"enabled_calls\": %d,\n\
            \  \"untraced_s\": %.6f,\n\
            \  \"traced_s\": %.6f,\n\
            \  \"slowdown\": %.4f,\n\
            \  \"trace_events\": %d\n\
             }\n"
            disabled_ns enabled_ns minor_words disabled_calls enabled_calls
            untraced_s traced_s slowdown !trace_events;
          close_out oc;
          Format.printf "  wrote %s@." path)

(* ------------------------------------------------------------------ *)
(* Tiered admission: the ledger fast tier against the per-epoch LP —
   admission split, per-admission latency, cost gap (see DESIGN.md
   Sec. 4i and EXPERIMENTS.md). *)

let tier_bench ?nodes ?slots ?seed ~json () =
  section "Tiered admission — combinatorial ledger vs per-epoch LP";
  let summary = Sim.Tier_bench.run ?nodes ?slots ?seed () in
  Format.printf "%a" Sim.Tier_bench.pp_summary summary;
  (match Sim.Tier_bench.check summary with
   | Ok () -> Format.printf "  all tier targets met@."
   | Error errs ->
       List.iter
         (fun msg -> Format.eprintf "  BENCH FAILURE: %s@." msg)
         errs;
       exit 1);
  match json with
  | None -> ()
  | Some path -> (
      match open_out path with
      | oc ->
          output_string oc (Sim.Tier_bench.to_json summary);
          close_out oc;
          Format.printf "  wrote %s@." path
      | exception Sys_error msg ->
          Format.eprintf "  cannot write JSON summary: %s@." msg;
          exit 1)

let usage =
  "main.exe [--solver-only] [--scale] [--scale-only] [--tier] [--obs-overhead] \
   [-j N] [--json PATH] [--json-runner PATH] [--json-scale PATH] \
   [--json-tier PATH] [--json-obs PATH] [--scale-sizes LIST] \
   [--scale-budget-ms MS] [--log-level LEVEL]"

(* "6x12,20x48" -> [(6, 12); (20, 48)] *)
let parse_scale_sizes s =
  String.split_on_char ',' s
  |> List.map (fun item ->
         match String.split_on_char 'x' (String.trim item) with
         | [ n; t ] -> (
             match (int_of_string_opt n, int_of_string_opt t) with
             | Some n, Some t when n >= 2 && t >= 2 -> (n, t)
             | _ ->
                 raise
                   (Arg.Bad
                      (Printf.sprintf "bad scale size %S (want NODESxSLOTS)"
                         item)))
         | _ ->
             raise
               (Arg.Bad
                  (Printf.sprintf "bad scale size %S (want NODESxSLOTS)" item)))

let () =
  let json = ref None and solver_only = ref false in
  let json_runner = ref None in
  let jobs = ref None in
  let scale = ref false and scale_only = ref false in
  let obs_overhead = ref false in
  let tier = ref false in
  let json_tier = ref None in
  let tier_nodes = ref None and tier_slots = ref None and tier_seed = ref None in
  let json_obs = ref None in
  let json_scale = ref None in
  let scale_sizes = ref None in
  let scale_budget_ms = ref None in
  let log_level = ref (Some Logs.Warning) in
  let spec =
    [ ("--json",
       Arg.String (fun p -> json := Some p),
       "PATH  write the solver benchmark summary as JSON");
      ("--json-runner",
       Arg.String (fun p -> json_runner := Some p),
       "PATH  write the runner scale-out summary as JSON");
      ("--scale",
       Arg.Set scale,
       "  also run the solver scale sweep (referee vs dual first)");
      ("--scale-only",
       Arg.Set scale_only,
       "  run only the solver scale sweep (skip everything else)");
      ("--json-scale",
       Arg.String (fun p -> json_scale := Some p),
       "PATH  write the scale-sweep summary as JSON");
      ("--obs-overhead",
       Arg.Set obs_overhead,
       "  run only the span-instrumentation overhead bench");
      ("--tier",
       Arg.Set tier,
       "  run only the tiered-admission benchmark (ledger vs LP)");
      ("--json-tier",
       Arg.String (fun p -> json_tier := Some p),
       "PATH  write the tiered-admission summary as JSON");
      ("--tier-nodes",
       Arg.Int (fun n -> tier_nodes := Some n),
       "N  datacenters for the tiered-admission benchmark (default 8)");
      ("--tier-slots",
       Arg.Int (fun n -> tier_slots := Some n),
       "N  slots for the tiered-admission benchmark (default 40)");
      ("--tier-seed",
       Arg.Int (fun n -> tier_seed := Some n),
       "N  seed for the tiered-admission benchmark (default 1)");
      ("--json-obs",
       Arg.String (fun p -> json_obs := Some p),
       "PATH  write the span-overhead summary as JSON");
      ("--scale-sizes",
       Arg.String (fun s -> scale_sizes := Some (parse_scale_sizes s)),
       "LIST  comma-separated NODESxSLOTS points (default 6x12,12x24,20x48,\
        32x72,50x104)");
      ("--scale-budget-ms",
       Arg.Float (fun b -> scale_budget_ms := Some b),
       "MS  wall-clock budget per scale point (default 20000)");
      ("-j",
       Arg.Int (fun n -> jobs := Some n),
       "N  worker domains for the experiment sweeps (default: the host's \
        recommended domain count)");
      ("--solver-only",
       Arg.Set solver_only,
       "  run only the solver benchmark (skip the figures)");
      ("--log-level",
       Arg.String
         (fun s ->
           match Obs.Logging.parse_level s with
           | Ok l -> log_level := l
           | Error msg -> raise (Arg.Bad msg)),
       "LEVEL  log verbosity: quiet, app, error, warning, info or debug") ]
  in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  Obs.Logging.setup ~level:!log_level ();
  let domains =
    match !jobs with
    | Some n when n < 1 ->
        prerr_endline "bench: -j must be >= 1";
        exit 2
    | Some n -> n
    | None -> Domain.recommended_domain_count ()
  in
  Format.printf "Postcard reproduction bench (see EXPERIMENTS.md)@.";
  if !obs_overhead then begin
    obs_overhead_bench ~json:!json_obs ();
    Format.printf "@.done.@."
  end
  else if !tier then begin
    tier_bench ?nodes:!tier_nodes ?slots:!tier_slots ?seed:!tier_seed
      ~json:!json_tier ();
    Format.printf "@.done.@."
  end
  else if !scale_only then begin
    solver_scale_bench ~sizes:!scale_sizes ~budget_ms:!scale_budget_ms
      ~json:!json_scale;
    Format.printf "@.done.@."
  end
  else begin
    let pool = Exec.Pool.create ~domains () in
    Fun.protect ~finally:(fun () -> Exec.Pool.shutdown pool) @@ fun () ->
    if not !solver_only then begin
      fig1 ();
      fig3 ();
      let r4 = figure ~pool 4 in
      let r5 = figure ~pool 5 in
      let r6 = figure ~pool 6 in
      let r7 = figure ~pool 7 in
      check_figure_shapes r4 r5 r6 r7;
      ablation_flow_variants ~pool ();
      ablation_greedy_vs_lp ~pool ();
      ablation_deadline_heterogeneity ~pool ();
      ablation_price_of_myopia ();
      extension_percentile_billing ()
    end;
    ignore (solver_bench ~pool ~json:!json);
    if not !solver_only then
      tier_bench ?nodes:!tier_nodes ?slots:!tier_slots ?seed:!tier_seed
        ~json:!json_tier ();
    if !scale then
      solver_scale_bench ~sizes:!scale_sizes ~budget_ms:!scale_budget_ms
        ~json:!json_scale;
    runner_scaleout_bench ~pool ~json:!json_runner;
    obs_noop_bench ();
    if not !solver_only then bechamel_benches ();
    Format.printf "@.done.@."
  end
