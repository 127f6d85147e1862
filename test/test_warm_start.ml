(* The start basis, outcome classes and the solver bench's JSON. The
   dual-first solve must reach the two-phase referee's optimum from the
   all-nonbasic basis and give its verdict on infeasible and unbounded
   programs, and the bench emitter must produce valid JSON. *)

module Model = Lp.Model
module Status = Lp.Status

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

let test_all_nonbasic () =
  (* Every solve starts from the all-nonbasic basis: no structural column
     basic, each row's logical column basic. The Ge and Eq rows leave it
     primal infeasible, so the dual pivots must repair it without a
     phase 1 and land on the referee's and the dense oracle's optimum. *)
  let m = sample_model () in
  let dual = get_opt (Lp.Simplex.solve m) in
  let referee = get_opt (Lp.Simplex.solve_two_phase m) in
  let oracle = get_opt (Oracle.Dense_simplex.solve m) in
  let st = dual.Status.stats in
  Alcotest.(check bool) "dual path" true (st.Status.path = Status.Dual);
  Alcotest.(check int) "no phase-1 pivots" 0 st.Status.phase1_pivots;
  Alcotest.(check bool) "dual pivots ran" true (st.Status.dual_pivots > 0);
  Alcotest.(check (float 1e-9))
    "referee objective" referee.Status.objective dual.Status.objective;
  Alcotest.(check (float 1e-6))
    "oracle objective" oracle.Status.objective dual.Status.objective;
  Alcotest.(check bool) "primal feasible" true
    (Model.constraint_violation m dual.Status.primal <= 1e-9)

let test_outcome_class_preserved () =
  (* Dual first must not change infeasible/unbounded verdicts. *)
  let inf = Model.create Model.Minimize in
  let x = Model.add_var inf ~obj:1. () in
  ignore (Model.add_constraint inf [ (x, 1.) ] Model.Ge 5.);
  ignore (Model.add_constraint inf [ (x, 1.) ] Model.Le 3.);
  Alcotest.(check bool) "infeasible" true
    (Lp.Simplex.solve inf = Status.Infeasible
    && Lp.Simplex.solve_two_phase inf = Status.Infeasible);
  let unb = Model.create Model.Maximize in
  let u = Model.add_var unb ~obj:1. () in
  let v = Model.add_var unb ~obj:0. () in
  ignore (Model.add_constraint unb [ (u, 1.); (v, -1.) ] Model.Le 1.);
  Alcotest.(check bool) "unbounded" true
    (Lp.Simplex.solve unb = Status.Unbounded
    && Lp.Simplex.solve_two_phase unb = Status.Unbounded)

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
  Alcotest.(check (float 1e-9)) "referee and dual first agree in the bench" 0.
    summary.Sim.Solver_bench.max_objective_gap

let suite =
  [ Alcotest.test_case "all-nonbasic basis" `Quick test_all_nonbasic;
    Alcotest.test_case "outcome class preserved" `Quick
      test_outcome_class_preserved;
    Alcotest.test_case "bench JSON emitter is valid" `Quick
      test_bench_json_valid ]
