(* Warm-started simplex: a carried basis may only save pivots, never
   change the answer. The unit tests feed the basis install odd inputs
   (garbage bases, wrong shapes, singular crashes, deleted columns); the
   property test replays randomized multi-slot online instances and
   demands bit-level agreement of the outcome class and 1e-6 agreement
   of the objective. *)

module Model = Lp.Model
module Status = Lp.Status
module Basis = Lp.Status.Basis
module Graph = Netgraph.Graph
module File = Postcard.File
module Formulate = Postcard.Formulate
module Basis_map = Postcard.Basis_map
module Gen = QCheck2.Gen

let to_alcotest = QCheck_alcotest.to_alcotest

let get_opt = function
  | Status.Optimal s -> s
  | other ->
      Alcotest.failf "expected optimal, got %a" Status.pp_outcome other

(* A small non-trivial LP with equalities, ranged rows and bounds. *)
let sample_model () =
  let m = Model.create Model.Minimize in
  let x = Model.add_var m ~obj:2. ~ub:6. () in
  let y = Model.add_var m ~obj:3. () in
  let z = Model.add_var m ~obj:1. ~ub:4. () in
  ignore (Model.add_constraint m [ (x, 1.); (y, 1.); (z, 1.) ] Model.Ge 5.);
  ignore (Model.add_constraint m [ (x, 1.); (y, -1.) ] Model.Eq 1.);
  ignore (Model.add_constraint m [ (y, 2.); (z, 1.) ] Model.Le 8.);
  m

let test_warm_restart_same_model () =
  let m = sample_model () in
  let cold = get_opt (Lp.Simplex.solve m) in
  let basis =
    match cold.Status.basis with
    | Some b -> b
    | None -> Alcotest.fail "revised simplex returned no basis"
  in
  let warm = get_opt (Lp.Simplex.solve ~warm_start:basis m) in
  Alcotest.(check (float 1e-9))
    "same objective" cold.Status.objective warm.Status.objective;
  (* Restarting from the optimal basis must not pivot at all: phase 1 is
     skipped and phase 2 starts optimal. *)
  Alcotest.(check bool)
    (Printf.sprintf "no pivots from the optimal basis (%d)"
       warm.Status.iterations)
    true
    (warm.Status.iterations = 0)

let test_garbage_all_basic () =
  (* Every column and every slack marked basic: far too many basics, and
     x/y columns are dependent with the Eq row's fixed slack. The crash
     must prune to a nonsingular basis and the solve still reach the cold
     optimum. *)
  let m = sample_model () in
  let cold = get_opt (Lp.Simplex.solve m) in
  let garbage =
    Basis.make
      ~cols:(Array.make (Model.num_vars m) Basis.Basic)
      ~rows:(Array.make (Model.num_rows m) Basis.Basic)
  in
  let warm = get_opt (Lp.Simplex.solve ~warm_start:garbage m) in
  Alcotest.(check (float 1e-9))
    "same objective" cold.Status.objective warm.Status.objective

let test_wrong_shape_falls_back () =
  (* A basis for a completely different model: dimensions disagree, so
     the solver must silently fall back to the cold start. *)
  let m = sample_model () in
  let cold = get_opt (Lp.Simplex.solve m) in
  let alien = Basis.make ~cols:[| Basis.Basic |] ~rows:[| Basis.At_lower |] in
  let warm = get_opt (Lp.Simplex.solve ~warm_start:alien m) in
  Alcotest.(check (float 1e-9))
    "same objective" cold.Status.objective warm.Status.objective;
  Alcotest.(check int) "identical pivot count (cold path taken)"
    cold.Status.iterations warm.Status.iterations

let test_zero_column_basic () =
  (* A variable appearing in no row marked Basic: its column is zero, so
     the crash must reject it and cover the rows otherwise. *)
  let m = Model.create Model.Minimize in
  let x = Model.add_var m ~obj:1. () in
  let lonely = Model.add_var m ~obj:1. ~ub:3. () in
  ignore (Model.add_constraint m [ (x, 1.) ] Model.Ge 2.);
  ignore lonely;
  let cold = get_opt (Lp.Simplex.solve m) in
  let bad =
    Basis.make
      ~cols:[| Basis.At_lower; Basis.Basic |]
      ~rows:[| Basis.At_lower |]
  in
  let warm = get_opt (Lp.Simplex.solve ~warm_start:bad m) in
  Alcotest.(check (float 1e-9))
    "same objective" cold.Status.objective warm.Status.objective

let test_all_nonbasic () =
  (* No basics at all: the crash installs one artificial/slack per row
     (exactly the cold basis, possibly at other bounds). *)
  let m = sample_model () in
  let cold = get_opt (Lp.Simplex.solve m) in
  let empty =
    Basis.make
      ~cols:(Array.make (Model.num_vars m) Basis.At_upper)
      ~rows:(Array.make (Model.num_rows m) Basis.At_lower)
  in
  let warm = get_opt (Lp.Simplex.solve ~warm_start:empty m) in
  Alcotest.(check (float 1e-9))
    "same objective" cold.Status.objective warm.Status.objective

let test_outcome_class_preserved () =
  (* Warm starts must not change infeasible/unbounded verdicts either. *)
  let inf = Model.create Model.Minimize in
  let x = Model.add_var inf ~obj:1. () in
  ignore (Model.add_constraint inf [ (x, 1.) ] Model.Ge 5.);
  ignore (Model.add_constraint inf [ (x, 1.) ] Model.Le 3.);
  let b1 = Basis.make ~cols:[| Basis.Basic |] ~rows:(Array.make 2 Basis.Basic) in
  Alcotest.(check bool) "still infeasible" true
    (Lp.Simplex.solve ~warm_start:b1 inf = Status.Infeasible);
  let unb = Model.create Model.Maximize in
  let u = Model.add_var unb ~obj:1. () in
  let v = Model.add_var unb ~obj:0. () in
  ignore (Model.add_constraint unb [ (u, 1.); (v, -1.) ] Model.Le 1.);
  let b2 =
    Basis.make ~cols:[| Basis.Basic; Basis.Basic |] ~rows:[| Basis.Basic |]
  in
  Alcotest.(check bool) "still unbounded" true
    (Lp.Simplex.solve ~warm_start:b2 unb = Status.Unbounded)

(* ------------------------------------------------------------------ *)
(* Basis translation across epochs (Formulate + Basis_map). *)

let two_epoch_instance () =
  let base = Graph.create ~n:3 in
  ignore (Graph.add_arc base ~src:0 ~dst:1 ~capacity:10. ~cost:2. ());
  ignore (Graph.add_arc base ~src:1 ~dst:2 ~capacity:10. ~cost:3. ());
  ignore (Graph.add_arc base ~src:0 ~dst:2 ~capacity:10. ~cost:7. ());
  base

let solve_epoch ?warm_start ~base ~charged ~files ~epoch () =
  let program =
    Formulate.create ~base ~charged
      ~capacity:(fun ~link:_ ~layer:_ -> 10.)
      ~files ~epoch ()
  in
  match Formulate.solve_with_info ?warm_start program with
  | Formulate.Scheduled { objective; charged; _ }, info ->
      (objective, charged, info)
  | (Formulate.Infeasible | Formulate.Solver_failure _), _ ->
      Alcotest.fail "epoch unexpectedly unsolvable"

let test_stale_basis_across_epochs () =
  (* Epoch 0's basis mentions file 0's columns (deleted at epoch 1) and
     misses file 1's (created at epoch 1): translation must survive both
     directions and leave the objective untouched. *)
  let base = two_epoch_instance () in
  let m = Graph.num_arcs base in
  let f0 = File.make ~id:0 ~src:0 ~dst:2 ~size:8. ~deadline:3 ~release:0 in
  let f1 = File.make ~id:1 ~src:0 ~dst:2 ~size:6. ~deadline:2 ~release:1 in
  let _, charged0, info0 =
    solve_epoch ~base ~charged:(Array.make m 0.) ~files:[ f0 ] ~epoch:0 ()
  in
  let carried =
    match info0.Formulate.basis with
    | Some b -> b
    | None -> Alcotest.fail "no basis captured at epoch 0"
  in
  let cold_obj, _, cold_info =
    solve_epoch ~base ~charged:charged0 ~files:[ f1 ] ~epoch:1 ()
  in
  let warm_obj, _, warm_info =
    solve_epoch ~warm_start:carried ~base ~charged:charged0 ~files:[ f1 ]
      ~epoch:1 ()
  in
  Alcotest.(check (float 1e-6)) "same objective" cold_obj warm_obj;
  Alcotest.(check bool)
    (Printf.sprintf "warm start no slower (%d cold vs %d warm)"
       cold_info.Formulate.iterations warm_info.Formulate.iterations)
    true
    (warm_info.Formulate.iterations <= cold_info.Formulate.iterations)

let test_hit_rate_bounds () =
  let base = two_epoch_instance () in
  let m = Graph.num_arcs base in
  let f0 = File.make ~id:0 ~src:0 ~dst:2 ~size:8. ~deadline:3 ~release:0 in
  let program =
    Formulate.create ~base ~charged:(Array.make m 0.)
      ~capacity:(fun ~link:_ ~layer:_ -> 10.)
      ~files:[ f0 ] ~epoch:0 ()
  in
  let _, info = Formulate.solve_with_info program in
  match info.Formulate.basis with
  | None -> Alcotest.fail "no basis captured"
  | Some b ->
      let rate = Basis_map.hit_rate b (Formulate.keymap program) in
      Alcotest.(check (float 1e-9)) "same epoch hits fully" 1. rate

(* ------------------------------------------------------------------ *)
(* Property: on randomized multi-slot instances the warm pipeline agrees
   with the cold one everywhere. *)

let gen_instance =
  Gen.(
    let* seed = int_range 0 9999 in
    let* nodes = int_range 3 5 in
    let* slots = int_range 2 4 in
    let* files_max = int_range 1 3 in
    return (seed, nodes, slots, files_max))

let prop_warm_equals_cold =
  QCheck2.Test.make ~name:"warm objective = cold objective per epoch"
    ~count:40 gen_instance (fun (seed, nodes, slots, files_max) ->
      let rng = Prelude.Rng.of_int (seed + 1) in
      let base =
        Netgraph.Topology.complete ~n:nodes ~rng ~cost_lo:1. ~cost_hi:10.
          ~capacity:30.
      in
      let spec =
        { (Sim.Workload.paper_spec ~nodes ~files_max ~max_deadline:3) with
          Sim.Workload.size_min = 2.;
          size_max = 15.;
          deadlines = Sim.Workload.Uniform_deadline (2, 3) }
      in
      let workload = Sim.Workload.create spec (Prelude.Rng.of_int seed) in
      let ledger = Sim.Ledger.create ~base in
      let carried = ref None in
      let ok = ref true in
      for slot = 0 to slots - 1 do
        let files = Sim.Workload.arrivals workload ~slot in
        if files <> [] then begin
          let capacity ~link ~layer =
            Sim.Ledger.residual ledger ~link ~slot:(slot + layer)
          in
          let program =
            Formulate.create ~base
              ~charged:(Sim.Ledger.charged_all ledger)
              ~capacity ~files ~epoch:slot ()
          in
          let cold, _ = Formulate.solve_with_info program in
          let warm, warm_info =
            Formulate.solve_with_info ?warm_start:!carried program
          in
          (match (cold, warm) with
           | ( Formulate.Scheduled { objective = co; plan; _ },
               Formulate.Scheduled { objective = wo; _ } ) ->
               if abs_float (co -. wo) > 1e-6 then ok := false;
               Sim.Ledger.commit_plan ledger plan
           | Formulate.Infeasible, Formulate.Infeasible -> ()
           | _ -> ok := false);
          carried := warm_info.Formulate.basis
        end
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* The JSON emitter of the benchmark must produce valid JSON. A minimal
   recursive-descent parser (the tree carries no JSON library). *)

let json_valid (s : string) : bool =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let skip_ws () =
    while
      !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      incr pos
    done
  in
  let fail () = raise Exit in
  let expect c = if !pos < n && s.[!pos] = c then incr pos else fail () in
  let parse_string () =
    expect '"';
    let rec go () =
      if !pos >= n then fail ();
      match s.[!pos] with
      | '"' -> incr pos
      | '\\' ->
          pos := !pos + 2;
          go ()
      | _ ->
          incr pos;
          go ()
    in
    go ()
  in
  let parse_number () =
    let start = !pos in
    if peek () = Some '-' then incr pos;
    while
      !pos < n
      && (match s.[!pos] with
          | '0' .. '9' | '.' | 'e' | 'E' | '+' | '-' -> true
          | _ -> false)
    do
      incr pos
    done;
    if !pos = start then fail ();
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some _ -> ()
    | None -> fail ()
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '"' -> parse_string ()
    | Some '{' ->
        incr pos;
        skip_ws ();
        if peek () = Some '}' then incr pos
        else begin
          let rec members () =
            skip_ws ();
            parse_string ();
            skip_ws ();
            expect ':';
            parse_value ();
            skip_ws ();
            match peek () with
            | Some ',' ->
                incr pos;
                members ()
            | Some '}' -> incr pos
            | _ -> fail ()
          in
          members ()
        end
    | Some '[' ->
        incr pos;
        skip_ws ();
        if peek () = Some ']' then incr pos
        else begin
          let rec elements () =
            parse_value ();
            skip_ws ();
            match peek () with
            | Some ',' ->
                incr pos;
                elements ()
            | Some ']' -> incr pos
            | _ -> fail ()
          in
          elements ()
        end
    | Some 't' -> String.iter expect "true"
    | Some 'f' -> String.iter expect "false"
    | Some 'n' -> String.iter expect "null"
    | Some ('-' | '0' .. '9') -> parse_number ()
    | _ -> fail ()
  in
  try
    parse_value ();
    skip_ws ();
    !pos = n
  with Exit -> false

let test_bench_json_valid () =
  let summary = Sim.Solver_bench.run ~nodes:4 ~slots:3 ~seed:7 () in
  let json = Sim.Solver_bench.to_json summary in
  Alcotest.(check bool) "emitter output parses as JSON" true (json_valid json);
  (* Sanity-check the parser itself rejects garbage. *)
  Alcotest.(check bool) "parser rejects garbage" false
    (json_valid "{\"a\": [1, }");
  Alcotest.(check (float 1e-9)) "cold and warm agree in the bench" 0.
    summary.Sim.Solver_bench.max_objective_gap

let suite =
  [ Alcotest.test_case "warm restart of the same model" `Quick
      test_warm_restart_same_model;
    Alcotest.test_case "garbage all-basic basis is repaired" `Quick
      test_garbage_all_basic;
    Alcotest.test_case "wrong-shape basis falls back to cold" `Quick
      test_wrong_shape_falls_back;
    Alcotest.test_case "zero column marked basic is rejected" `Quick
      test_zero_column_basic;
    Alcotest.test_case "all-nonbasic basis" `Quick test_all_nonbasic;
    Alcotest.test_case "outcome class preserved" `Quick
      test_outcome_class_preserved;
    Alcotest.test_case "stale basis across epochs" `Quick
      test_stale_basis_across_epochs;
    Alcotest.test_case "same-epoch hit rate is 1" `Quick test_hit_rate_bounds;
    Alcotest.test_case "bench JSON emitter is valid" `Quick
      test_bench_json_valid;
    to_alcotest prop_warm_equals_cold ]
