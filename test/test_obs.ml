(* The telemetry layer: metrics registry semantics, the JSON codec, trace
   emission + schema validation, trace determinism across same-seed runs,
   and exact reconciliation of the per-slot trace series against the
   engine's final report. All trace tests route the sink to an in-memory
   callback, so nothing touches the filesystem. *)

module Metrics = Obs.Metrics
module Trace = Obs.Trace
module Json = Obs.Json
module Reader = Obs.Trace_reader

(* ------------------------------------------------------------------ *)
(* Metrics registry. *)

let test_metrics_basics () =
  Metrics.reset ();
  Metrics.set_enabled true;
  let c = Metrics.counter "test.counter" in
  let g = Metrics.gauge "test.gauge" in
  let h = Metrics.histogram ~buckets:[| 1.; 10. |] "test.hist" in
  Metrics.incr c;
  Metrics.add c 4;
  Metrics.set g 2.5;
  Metrics.observe h 0.5;
  Metrics.observe h 5.;
  Metrics.observe h 100.;
  Alcotest.(check int) "counter" 5 (Metrics.counter_value c);
  Alcotest.(check (float 0.)) "gauge" 2.5 (Metrics.gauge_value g);
  Alcotest.(check int) "histogram count" 3 (Metrics.histogram_count h);
  Alcotest.(check (float 0.)) "histogram sum" 105.5 (Metrics.histogram_sum h);
  (match Metrics.histogram_buckets h with
   | [| (1., 1); (10., 1); (b, 1) |] ->
       Alcotest.(check bool) "overflow bound" true (b = infinity)
   | _ -> Alcotest.fail "unexpected bucket layout");
  (* Same name returns the same metric; a kind clash is an error. *)
  Metrics.incr (Metrics.counter "test.counter");
  Alcotest.(check int) "shared handle" 6 (Metrics.counter_value c);
  Alcotest.check_raises "kind clash"
    (Invalid_argument
       "Obs.Metrics: test.counter already registered as a different kind")
    (fun () -> ignore (Metrics.gauge "test.counter"));
  Metrics.set_enabled false;
  Metrics.reset ()

let test_metrics_disabled_noop () =
  Metrics.reset ();
  Metrics.set_enabled false;
  let c = Metrics.counter "test.off_counter" in
  let h = Metrics.histogram "test.off_hist" in
  Metrics.incr c;
  Metrics.add c 100;
  Metrics.observe h 1.;
  Alcotest.(check int) "counter untouched" 0 (Metrics.counter_value c);
  Alcotest.(check int) "histogram untouched" 0 (Metrics.histogram_count h)

(* ------------------------------------------------------------------ *)
(* JSON codec. *)

let test_json_roundtrip () =
  let v =
    Json.Obj
      [ ("s", Json.Str "a\"b\\c\nd\te\x01f");
        ("i", Json.Int (-42));
        ("f", Json.Float 1.25);
        ("big", Json.Float 1.2345678901234567e100);
        ("t", Json.Bool true);
        ("n", Json.Null);
        ("l", Json.List [ Json.Int 1; Json.Float 2.5; Json.Str "x" ]) ]
  in
  match Json.parse (Json.to_string v) with
  | Error msg -> Alcotest.failf "reparse failed: %s" msg
  | Ok v' ->
      Alcotest.(check bool) "roundtrip" true (v = v')

let test_json_errors () =
  let bad s =
    match Json.parse s with
    | Ok _ -> Alcotest.failf "accepted %S" s
    | Error _ -> ()
  in
  bad "";
  bad "{";
  bad "[1,]";
  bad "{\"a\":}";
  bad "{\"a\":1} trailing";
  bad "\"unterminated";
  bad "nul";
  (* NaN serializes as null (JSON has no NaN). *)
  Alcotest.(check string) "nan" "null" (Json.to_string (Json.Float nan))

(* ------------------------------------------------------------------ *)
(* Trace emission and validation. *)

let collect_lines f =
  let lines = ref [] in
  Trace.set_callback (fun line -> lines := line :: !lines);
  Fun.protect ~finally:Trace.close f;
  List.rev !lines

let test_trace_emit_and_validate () =
  let lines =
    collect_lines (fun () ->
        Trace.point "alpha" [ ("k", Trace.Int 1); ("s", Trace.Str "v") ];
        let sp = Trace.begin_span "work" [ ("size", Trace.Int 3) ] in
        Trace.point "beta" [ ("xs", Trace.Floats [| 1.; 2.5 |]) ];
        Trace.end_span sp [ ("ok", Trace.Bool true) ])
  in
  Alcotest.(check int) "meta + 4 events" 5 (List.length lines);
  let events =
    List.map
      (fun line ->
        match Reader.of_line line with
        | Ok ev -> ev
        | Error msg -> Alcotest.failf "invalid line %S: %s" line msg)
      lines
  in
  List.iteri
    (fun i ev -> Alcotest.(check int) "consecutive seq" (i + 1) ev.Reader.seq)
    events;
  (match events with
   | [ meta; alpha; bwork; beta; ework ] ->
       Alcotest.(check bool) "meta first" true (meta.Reader.kind = Reader.Meta);
       Alcotest.(check string) "point name" "alpha" alpha.Reader.name;
       Alcotest.(check (option int)) "payload int" (Some 1)
         (Reader.int_field alpha "k");
       Alcotest.(check bool) "begin kind" true (bwork.Reader.kind = Reader.Begin);
       Alcotest.(check bool) "end kind" true (ework.Reader.kind = Reader.End);
       Alcotest.(check (option int)) "span ids match" bwork.Reader.span
         ework.Reader.span;
       Alcotest.(check bool) "end has duration" true
         (ework.Reader.dur_ms <> None);
       Alcotest.(check bool) "float array payload" true
         (Reader.field beta "xs"
          = Some (Json.List [ Json.Float 1.; Json.Float 2.5 ]))
   | _ -> Alcotest.fail "unexpected event shapes");
  (* Timestamps never go backwards. *)
  ignore
    (List.fold_left
       (fun prev ev ->
         Alcotest.(check bool) "monotone ts" true (ev.Reader.ts >= prev);
         ev.Reader.ts)
       0. events)

let test_trace_reserved_field () =
  ignore
    (collect_lines (fun () ->
         Alcotest.check_raises "reserved key"
           (Invalid_argument "Obs.Trace: reserved field name seq")
           (fun () -> Trace.point "x" [ ("seq", Trace.Int 1) ]);
         Alcotest.check_raises "reserved key dom"
           (Invalid_argument "Obs.Trace: reserved field name dom")
           (fun () -> Trace.point "x" [ ("dom", Trace.Int 1) ])))

let test_trace_disabled_noop () =
  Alcotest.(check bool) "off by default" false (Trace.enabled ());
  (* Emission while off is harmless and produces nothing. *)
  Trace.point "nope" [ ("k", Trace.Int 1) ];
  Trace.end_span Trace.null_span [];
  Alcotest.(check (float 0.)) "clock off" 0. (Trace.now_ms ())

let test_reader_rejects_bad_lines () =
  let bad line =
    match Reader.of_line line with
    | Ok _ -> Alcotest.failf "accepted %S" line
    | Error _ -> ()
  in
  bad "not json";
  bad "[1]";
  bad {|{"seq":1,"dom":0,"ts":0,"ev":"point","name":"x"}|};  (* no version *)
  bad {|{"v":999,"seq":1,"dom":0,"ts":0,"ev":"point","name":"x"}|};
  bad {|{"v":2,"seq":1,"dom":0,"ts":0,"ev":"point","name":"x"}|};  (* old schema *)
  bad {|{"v":3,"seq":1,"ts":0,"ev":"point","name":"x"}|};  (* no dom *)
  bad {|{"v":3,"seq":1,"dom":0,"ts":0,"ev":"point"}|};  (* no name *)
  bad {|{"v":3,"seq":1,"dom":0,"ts":0,"ev":"wat","name":"x"}|};
  bad {|{"v":3,"seq":1,"dom":0,"ts":0,"ev":"begin","name":"x"}|};  (* no span *)
  bad {|{"v":3,"seq":1,"dom":0,"ts":0,"ev":"end","name":"x","span":1}|};  (* no dur *)
  bad {|{"v":3,"seq":1,"dom":0,"ts":0,"ev":"point","name":"x","parent":1}|}  (* parent on a point *)

(* ------------------------------------------------------------------ *)
(* Engine traces: determinism and reconciliation. *)

let feasible_spec ~nodes =
  { (Sim.Workload.paper_spec ~nodes ~files_max:2 ~max_deadline:3) with
    Sim.Workload.size_min = 4.;
    size_max = 10.;
    deadlines = Sim.Workload.Uniform_deadline (2, 3) }

let traced_run ~seed =
  let rng = Prelude.Rng.of_int 3 in
  let base =
    Netgraph.Topology.complete ~n:4 ~rng ~cost_lo:1. ~cost_hi:10. ~capacity:12.
  in
  let workload =
    Sim.Workload.create (feasible_spec ~nodes:4) (Prelude.Rng.of_int seed)
  in
  let scheduler = Postcard.Postcard_scheduler.make () in
  let outcome = ref None in
  let lines =
    collect_lines (fun () ->
        outcome :=
          Some (Sim.Engine.(run (make ~base ~scheduler ~workload ~slots:6 ()))))
  in
  (Option.get !outcome, lines)

(* Strip the wall-clock fields; everything else must be reproducible. *)
let normalize line =
  match Json.parse line with
  | Error msg -> Alcotest.failf "trace line is not JSON (%s): %s" msg line
  | Ok (Json.Obj fields) ->
      Json.to_string
        (Json.Obj
           (List.filter
              (fun (k, _) ->
                k <> "ts" && k <> "dur_ms" && k <> "ms" && k <> "sched_ms")
              fields))
  | Ok _ -> Alcotest.failf "trace line is not an object: %s" line

let test_trace_deterministic () =
  let _, lines1 = traced_run ~seed:11 in
  let _, lines2 = traced_run ~seed:11 in
  Alcotest.(check (list string))
    "same seed, same event sequence (timestamps aside)"
    (List.map normalize lines1) (List.map normalize lines2)

let test_trace_reconciles_with_report () =
  let outcome, lines = traced_run ~seed:11 in
  let events =
    List.map
      (fun line ->
        match Reader.of_line line with
        | Ok ev -> ev
        | Error msg -> Alcotest.failf "invalid line: %s" msg)
      lines
  in
  match Sim.Trace_summary.of_events events with
  | [ run ] ->
      (match Sim.Trace_summary.reconcile run with
       | Ok () -> ()
       | Error msg -> Alcotest.failf "reconciliation failed: %s" msg);
      Alcotest.(check int) "one row per slot" 6
        (List.length run.Sim.Trace_summary.rows);
      let last = List.nth run.Sim.Trace_summary.rows 5 in
      (* Zero tolerance: the trace carries the very numbers the engine
         reported. *)
      Alcotest.(check (float 0.))
        "last slot cost = final cost series entry"
        outcome.Sim.Engine.cost_series.(5)
        last.Sim.Trace_summary.cost;
      Alcotest.(check bool) "charged series matches final report" true
        (last.Sim.Trace_summary.charged = outcome.Sim.Engine.final_charged);
      Alcotest.(check (option int)) "totals carried"
        (Some outcome.Sim.Engine.total_files)
        run.Sim.Trace_summary.total_files;
      let tally =
        List.fold_left
          (fun acc (r : Sim.Trace_summary.slot_row) ->
            acc + r.Sim.Trace_summary.lp.Sim.Trace_summary.solves)
          0 run.Sim.Trace_summary.rows
      in
      Alcotest.(check bool) "lp solves attributed to slots" true (tally > 0)
  | runs -> Alcotest.failf "expected 1 run, got %d" (List.length runs)

(* ------------------------------------------------------------------ *)
(* Solver stats threaded through Status/Formulate. *)

let test_simplex_stats () =
  let m = Lp.Model.create Lp.Model.Minimize in
  let x = Lp.Model.add_var m ~obj:2. ~ub:6. () in
  let y = Lp.Model.add_var m ~obj:3. () in
  ignore (Lp.Model.add_constraint m [ (x, 1.); (y, 1.) ] Lp.Model.Ge 5.);
  ignore (Lp.Model.add_constraint m [ (x, 1.); (y, -1.) ] Lp.Model.Eq 1.);
  match Lp.Simplex.solve m with
  | Lp.Status.Optimal s ->
      let st = s.Lp.Status.stats in
      Alcotest.(check int) "phase split sums to iterations"
        s.Lp.Status.iterations
        (st.Lp.Status.phase1_pivots + st.Lp.Status.phase2_pivots
        + st.Lp.Status.dual_pivots);
      Alcotest.(check bool) "pivots left an eta trail" true
        (s.Lp.Status.iterations = 0 || st.Lp.Status.eta_peak >= 1);
      (* Non-negative costs over finite lower bounds: the dual path from
         the slack basis finishes the solve without touching phase 1. *)
      Alcotest.(check string) "solve reports the dual path" "dual"
        (Lp.Status.solve_path_name st.Lp.Status.path);
      Alcotest.(check int) "no phase-1 pivots" 0 st.Lp.Status.phase1_pivots;
      (match Lp.Simplex.solve_two_phase m with
       | Lp.Status.Optimal r ->
           let rst = r.Lp.Status.stats in
           Alcotest.(check string) "the referee reports two-phase"
             "two_phase"
             (Lp.Status.solve_path_name rst.Lp.Status.path);
           Alcotest.(check int) "the referee runs no dual pivots" 0
             rst.Lp.Status.dual_pivots;
           Alcotest.(check (float 1e-9)) "same objective"
             r.Lp.Status.objective s.Lp.Status.objective
       | other -> Alcotest.failf "referee: %a" Lp.Status.pp_outcome other)
  | other -> Alcotest.failf "expected optimal, got %a" Lp.Status.pp_outcome other

let suite =
  [ Alcotest.test_case "metrics: counters, gauges, histograms" `Quick
      test_metrics_basics;
    Alcotest.test_case "metrics: disabled updates are no-ops" `Quick
      test_metrics_disabled_noop;
    Alcotest.test_case "json: roundtrip through the codec" `Quick
      test_json_roundtrip;
    Alcotest.test_case "json: malformed documents rejected" `Quick
      test_json_errors;
    Alcotest.test_case "trace: events validate against the schema" `Quick
      test_trace_emit_and_validate;
    Alcotest.test_case "trace: reserved envelope keys refused" `Quick
      test_trace_reserved_field;
    Alcotest.test_case "trace: disabled sink is inert" `Quick
      test_trace_disabled_noop;
    Alcotest.test_case "trace: reader rejects malformed lines" `Quick
      test_reader_rejects_bad_lines;
    Alcotest.test_case "trace: same seed, identical event sequence" `Quick
      test_trace_deterministic;
    Alcotest.test_case "trace: slot series reconciles with the report" `Quick
      test_trace_reconciles_with_report;
    Alcotest.test_case "stats: solver telemetry threaded through" `Quick
      test_simplex_stats ]
