(* The domain pool and the contracts the parallel experiment runner
   builds on it: submission-order results, exception propagation without
   deadlock, bit-identical serial/parallel sweeps, and domain-safe
   telemetry (metric totals and a reconciling merged trace) under
   -j 4. *)

module Pool = Exec.Pool
module Trace = Obs.Trace
module Metrics = Obs.Metrics
module Reader = Obs.Trace_reader

let with_pool ~domains f =
  let pool = Pool.create ~domains () in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) (fun () -> f pool)

(* ------------------------------------------------------------------ *)
(* Pool semantics. *)

let test_map_preserves_order () =
  with_pool ~domains:4 @@ fun pool ->
  let items = Array.init 100 (fun i -> 10 * i) in
  (* Alcotest is not domain-safe: workers only record what they saw, and
     the calling domain asserts on it. *)
  let seen = Array.make (Array.length items) (-1) in
  let out =
    Pool.map pool
      ~f:(fun idx x ->
        seen.(idx) <- x;
        x + 1)
      items
  in
  Array.iteri
    (fun idx x ->
      Alcotest.(check int) "f sees the item's index" x (10 * idx))
    seen;
  Alcotest.(check (array int)) "results in submission order"
    (Array.map (fun x -> x + 1) items)
    out

exception Boom of int

let test_exception_propagates_no_deadlock () =
  with_pool ~domains:4 @@ fun pool ->
  (match
     Pool.map pool
       ~f:(fun i () -> if i mod 3 = 1 then raise (Boom i) else i)
       (Array.make 50 ())
   with
   | _ -> Alcotest.fail "expected the item exception to re-raise"
   | exception Boom i ->
       Alcotest.(check int) "smallest failing index wins" 1 i);
  (* A failed batch must not wedge the workers. *)
  let out = Pool.map pool ~f:(fun i x -> i + x) (Array.init 10 (fun i -> i)) in
  Alcotest.(check (array int)) "pool usable after a failure"
    (Array.init 10 (fun i -> 2 * i))
    out

let test_map_reduce_ordered () =
  with_pool ~domains:4 @@ fun pool ->
  (* String concatenation is non-commutative, so any out-of-order or
     racy reduce scrambles the result. *)
  let s =
    Pool.map_reduce pool
      ~f:(fun i () -> string_of_int i ^ ".")
      ~init:"" ~reduce:( ^ ) (Array.make 12 ())
  in
  Alcotest.(check string) "ordered non-commutative reduce"
    "0.1.2.3.4.5.6.7.8.9.10.11." s

(* ------------------------------------------------------------------ *)
(* The scheduler registry (what lets each cell build its own value). *)

let factory name =
  match Postcard.Scheduler.factory name with
  | Some f -> f
  | None -> Alcotest.failf "scheduler %s not registered" name

let test_registry () =
  let names = Postcard.Scheduler.registered () in
  List.iter
    (fun n ->
      Alcotest.(check bool) (n ^ " registered") true (List.mem n names))
    [ "postcard"; "flow-based"; "flow-excess"; "flow-joint"; "direct";
      "greedy-snf"; "burst-95"; "ledger"; "postcard-tiered" ];
  (* Aliases resolve to the canonical strategy... *)
  (match Postcard.Scheduler.make "flow" with
   | Some s ->
       Alcotest.(check string) "alias resolves" "flow-based"
         (Postcard.Scheduler.name s)
   | None -> Alcotest.fail "alias flow not resolved");
  (* ...and every make call returns a distinct value. *)
  let a = Postcard.Scheduler.make_exn "postcard" in
  let b = Postcard.Scheduler.make_exn "postcard" in
  Alcotest.(check bool) "fresh instance per make" false (a == b);
  Alcotest.(check bool) "unknown name" true
    (Postcard.Scheduler.make "nope" = None);
  Alcotest.(check bool) "make_exn names the unknown scheduler" true
    (match Postcard.Scheduler.make_exn "nope" with
     | exception Invalid_argument msg ->
         let has sub =
           let rec go i =
             i + String.length sub <= String.length msg
             && (String.sub msg i (String.length sub) = sub || go (i + 1))
           in
           go 0
         in
         has "nope" && has "postcard"
     | _ -> false);
  match Postcard.Scheduler.make_all () with
  | Error errs ->
      Alcotest.failf "make_all reported broken factories: %s"
        (String.concat "; " errs)
  | Ok instances ->
      Alcotest.(check int) "make_all covers the registry"
        (List.length names) (List.length instances)

(* ------------------------------------------------------------------ *)
(* The parallel sweep: bit-identical results and domain-safe telemetry. *)

let setting =
  Sim.Experiment.with_overrides ~label:"exec-test" ~nodes:5 ~capacity:20.
    ~files_max:2 ~slots:6 ~runs:3 ~seed:7
    Sim.Experiment.custom_default

let schedulers = [ factory "postcard"; factory "direct" ]

let test_parallel_bit_identical () =
  let serial = Sim.Experiment.run_setting setting ~schedulers in
  let par =
    with_pool ~domains:4 @@ fun pool ->
    Sim.Experiment.run_setting ~pool setting ~schedulers
  in
  (* Structural equality covers every float bit in costs, CIs and the
     averaged series; only the wall-clock decision latency is exempt. *)
  let strip (s : Sim.Experiment.scheduler_summary) =
    { s with Sim.Experiment.mean_decision_ms = 0. }
  in
  Alcotest.(check bool) "-j 1 and -j 4 summaries bit-identical" true
    (List.map strip serial.Sim.Experiment.summaries
    = List.map strip par.Sim.Experiment.summaries)

let test_metrics_totals_parallel () =
  let counters () =
    ( Metrics.counter_value (Metrics.counter "sim.runs"),
      Metrics.counter_value (Metrics.counter "sim.slots"),
      Metrics.counter_value (Metrics.counter "sched.decisions"),
      Metrics.counter_value (Metrics.counter "sched.files_offered") )
  in
  let measure run =
    Metrics.reset ();
    Metrics.set_enabled true;
    Fun.protect ~finally:(fun () ->
        Metrics.set_enabled false;
        Metrics.reset ())
      (fun () ->
        ignore (run ());
        counters ())
  in
  let serial =
    measure (fun () -> Sim.Experiment.run_setting setting ~schedulers)
  in
  let par =
    measure (fun () ->
        with_pool ~domains:4 @@ fun pool ->
        Sim.Experiment.run_setting ~pool setting ~schedulers)
  in
  let runs, slots, decisions, _ = serial in
  Alcotest.(check int) "sim.runs counts every cell"
    (Sim.Experiment.cells setting ~schedulers)
    runs;
  Alcotest.(check int) "sim.slots counts every slot"
    (runs * setting.Sim.Experiment.slots)
    slots;
  Alcotest.(check bool) "decisions recorded" true (decisions > 0);
  Alcotest.(check bool) "parallel totals match serial" true (serial = par)

let collect_lines f =
  let lines = ref [] in
  Trace.set_callback (fun line -> lines := line :: !lines);
  Fun.protect ~finally:Trace.close f;
  List.rev !lines

let test_trace_reconciles_parallel () =
  let lines =
    collect_lines (fun () ->
        with_pool ~domains:4 @@ fun pool ->
        ignore (Sim.Experiment.run_setting ~pool setting ~schedulers))
  in
  let events =
    List.map
      (fun line ->
        match Reader.of_line line with
        | Ok ev -> ev
        | Error msg -> Alcotest.failf "invalid merged line (%s): %s" msg line)
      lines
  in
  (* The merged stream must satisfy everything the strict reader checks:
     consecutive seq from 1. Timestamps are only monotone within an
     emission context (a [dom] lane) — cells run concurrently, so merged
     wall-clock stamps legitimately interleave across lanes. *)
  List.iteri
    (fun i ev -> Alcotest.(check int) "consecutive seq" (i + 1) ev.Reader.seq)
    events;
  let lane_last = Hashtbl.create 8 in
  List.iter
    (fun ev ->
      let prev =
        Option.value ~default:0. (Hashtbl.find_opt lane_last ev.Reader.dom)
      in
      Alcotest.(check bool) "monotone ts within a lane" true
        (ev.Reader.ts >= prev);
      Hashtbl.replace lane_last ev.Reader.dom ev.Reader.ts)
    events;
  let runs = Sim.Trace_summary.of_events events in
  Alcotest.(check int) "one traced run per cell"
    (Sim.Experiment.cells setting ~schedulers)
    (List.length runs);
  List.iter
    (fun run ->
      match Sim.Trace_summary.reconcile run with
      | Ok () -> ()
      | Error msg ->
          Alcotest.failf "run %s failed reconciliation: %s"
            run.Sim.Trace_summary.scheduler msg)
    runs

let suite =
  [ Alcotest.test_case "pool: map preserves submission order" `Quick
      test_map_preserves_order;
    Alcotest.test_case "pool: item exception re-raises, no deadlock" `Quick
      test_exception_propagates_no_deadlock;
    Alcotest.test_case "pool: map_reduce folds in order" `Quick
      test_map_reduce_ordered;
    Alcotest.test_case "registry: built-ins, aliases, fresh instances" `Quick
      test_registry;
    Alcotest.test_case "runner: -j 1 and -j 4 bit-identical" `Quick
      test_parallel_bit_identical;
    Alcotest.test_case "runner: metric totals survive -j 4" `Quick
      test_metrics_totals_parallel;
    Alcotest.test_case "runner: merged -j 4 trace reconciles" `Quick
      test_trace_reconciles_parallel ]
