module Reader = Obs.Trace_reader
module Json = Obs.Json

type solve_tally = {
  solves : int;
  pivots : int;
  phase1_pivots : int;
  phase2_pivots : int;
  dual_pivots : int;
  refactorizations : int;
  solve_ms : float;
  dual_solves : int;
  fell_back : int;
}

let empty_tally =
  { solves = 0;
    pivots = 0;
    phase1_pivots = 0;
    phase2_pivots = 0;
    dual_pivots = 0;
    refactorizations = 0;
    solve_ms = 0.;
    dual_solves = 0;
    fell_back = 0 }

let add_tally a b =
  { solves = a.solves + b.solves;
    pivots = a.pivots + b.pivots;
    phase1_pivots = a.phase1_pivots + b.phase1_pivots;
    phase2_pivots = a.phase2_pivots + b.phase2_pivots;
    dual_pivots = a.dual_pivots + b.dual_pivots;
    refactorizations = a.refactorizations + b.refactorizations;
    solve_ms = a.solve_ms +. b.solve_ms;
    dual_solves = a.dual_solves + b.dual_solves;
    fell_back = a.fell_back + b.fell_back }

type slot_row = {
  slot : int;
  arrivals : int;
  admitted : int;
  rejected : int;
  admitted_bytes : float;
  stored_bytes : float;
  replans : int;
  stranded_bytes : float;
  lost_bytes : float;
  cost : float;
  cost_delta : float;
  charged : float array;
  charged_delta : float array;
  sched_ms : float;
  lp : solve_tally;
}

type run = {
  scheduler : string;
  slots : int;
  rows : slot_row list;
  final_cost : float option;
  final_charged : float array option;
  total_files : int option;
  rejected_files : int option;
  offered_volume : float option;
  delivered_volume : float option;
  rejected_volume : float option;
  stranded_volume : float option;
  recovered_volume : float option;
  lost_volume : float option;
  lost_files : int option;
  replanned_files : int option;
  fault_reveals : int;
  fault_strands : int;
  fault_losses : int;
}

let floats_field ev name =
  match Reader.field ev name with
  | None -> None
  | Some j -> (
      match Json.to_list j with
      | None -> None
      | Some items ->
          let arr = Array.make (List.length items) 0. in
          let ok = ref true in
          List.iteri
            (fun i item ->
              match Json.to_float item with
              | Some f -> arr.(i) <- f
              | None -> ok := false)
            items;
          if !ok then Some arr else None)

let int0 ev name = Option.value ~default:0 (Reader.int_field ev name)
let float0 ev name = Option.value ~default:0. (Reader.float_field ev name)

let tally_of_solve ev =
  let path = Reader.str_field ev "path" in
  { solves = 1;
    pivots = int0 ev "iterations";
    phase1_pivots = int0 ev "phase1_pivots";
    phase2_pivots = int0 ev "phase2_pivots";
    dual_pivots = int0 ev "dual_pivots";
    refactorizations = int0 ev "refactorizations";
    solve_ms = float0 ev "ms";
    dual_solves = (if path = Some "dual" then 1 else 0);
    fell_back = (if path = Some "two_phase" then 1 else 0) }

(* The engine emits strictly nested spans from a single thread, so a pair
   of "currently open" cells replaces a full span stack. *)
let of_events events =
  let runs = ref [] in
  let cur_run = ref None in
  let cur_slot = ref None in
  let cur_tally = ref empty_tally in
  let reveals = ref 0 and strands = ref 0 and losses = ref 0 in
  List.iter
    (fun ev ->
      match (ev.Reader.kind, ev.Reader.name) with
      | Reader.Begin, "sim.run" ->
          reveals := 0;
          strands := 0;
          losses := 0;
          cur_run :=
            Some
              ( Option.value ~default:"?" (Reader.str_field ev "scheduler"),
                int0 ev "slots",
                ref [] )
      | Reader.End, "sim.run" -> (
          match !cur_run with
          | None -> ()
          | Some (scheduler, slots, rows) ->
              runs :=
                { scheduler;
                  slots;
                  rows = List.rev !rows;
                  final_cost = Reader.float_field ev "final_cost";
                  final_charged = floats_field ev "final_charged";
                  total_files = Reader.int_field ev "total_files";
                  rejected_files = Reader.int_field ev "rejected_files";
                  offered_volume = Reader.float_field ev "offered_volume";
                  delivered_volume = Reader.float_field ev "delivered_volume";
                  rejected_volume = Reader.float_field ev "rejected_volume";
                  stranded_volume = Reader.float_field ev "stranded_volume";
                  recovered_volume = Reader.float_field ev "recovered_volume";
                  lost_volume = Reader.float_field ev "lost_volume";
                  lost_files = Reader.int_field ev "lost_files";
                  replanned_files = Reader.int_field ev "replanned_files";
                  fault_reveals = !reveals;
                  fault_strands = !strands;
                  fault_losses = !losses }
                :: !runs;
              cur_run := None)
      | Reader.Begin, "sim.slot" ->
          cur_slot := Some (int0 ev "slot");
          cur_tally := empty_tally
      | Reader.End, "sim.slot" -> (
          match (!cur_run, !cur_slot) with
          | Some (_, _, rows), Some slot ->
              rows :=
                { slot;
                  arrivals = int0 ev "arrivals";
                  admitted = int0 ev "admitted";
                  rejected = int0 ev "rejected";
                  admitted_bytes = float0 ev "admitted_bytes";
                  stored_bytes = float0 ev "stored_bytes";
                  replans = int0 ev "replans";
                  stranded_bytes = float0 ev "stranded_bytes";
                  lost_bytes = float0 ev "lost_bytes";
                  cost = float0 ev "cost";
                  cost_delta = float0 ev "cost_delta";
                  charged =
                    Option.value ~default:[||] (floats_field ev "charged");
                  charged_delta =
                    Option.value ~default:[||] (floats_field ev "charged_delta");
                  sched_ms = float0 ev "sched_ms";
                  lp = !cur_tally }
                :: !rows;
              cur_slot := None
          | _ -> cur_slot := None)
      | Reader.Point, "lp.solve" ->
          if !cur_slot <> None then
            cur_tally := add_tally !cur_tally (tally_of_solve ev)
      | Reader.Point, "fault.reveal" -> if !cur_run <> None then incr reveals
      | Reader.Point, "fault.strand" -> if !cur_run <> None then incr strands
      | Reader.Point, "fault.lost" -> if !cur_run <> None then incr losses
      | _ -> ())
    events;
  List.rev !runs

let reconcile run =
  let fail fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let check_deltas () =
    (* Each slot's deltas must be exactly the difference of the adjacent
       cumulative readings — the same subtraction the engine performed. *)
    let rec go prev_cost prev_charged = function
      | [] -> Ok ()
      | row :: rest ->
          if row.cost_delta <> row.cost -. prev_cost then
            fail "slot %d: cost_delta %.17g <> cost %.17g - previous %.17g"
              row.slot row.cost_delta row.cost prev_cost
          else begin
            let bad = ref None in
            Array.iteri
              (fun l d ->
                let prev =
                  if Array.length prev_charged > l then prev_charged.(l) else 0.
                in
                if !bad = None && d <> row.charged.(l) -. prev then
                  bad := Some l)
              row.charged_delta;
            match !bad with
            | Some l ->
                fail "slot %d: charged_delta on link %d does not telescope"
                  row.slot l
            | None -> go row.cost row.charged rest
          end
    in
    go 0. [||] run.rows
  in
  let check_finals () =
    (* [nth_opt _ (-1)] raises, so a zero-slot run (a serving session shut
       down before any traffic) needs an explicit last-element walk. *)
    let rec last_row = function
      | [] -> None
      | [ row ] -> Some row
      | _ :: rest -> last_row rest
    in
    let last = last_row run.rows in
    match (last, run.final_cost, run.final_charged) with
    | None, _, _ | _, None, None -> Ok ()
    | Some row, fc, fch -> (
        match fc with
        | Some c when c <> row.cost ->
            fail "final cost %.17g does not match last slot's %.17g" c
              row.cost
        | _ -> (
            match fch with
            | Some arr
              when Array.length arr <> Array.length row.charged ->
                fail "final charged has %d links, last slot has %d"
                  (Array.length arr)
                  (Array.length row.charged)
            | Some arr ->
                let bad = ref None in
                Array.iteri
                  (fun l v ->
                    if !bad = None && v <> row.charged.(l) then bad := Some l)
                  arr;
                (match !bad with
                 | Some l ->
                     fail
                       "final charged volume on link %d does not match the \
                        slot series"
                       l
                 | None -> Ok ())
            | None -> Ok ()))
  in
  (* Byte accounting: the engine's per-file decomposition must close
     (delivered + lost + rejected = offered), and the per-slot fault
     series must sum to the run totals. Accumulation order differs
     between the engine's running totals and the analyzer's fold, so this
     check uses a relative tolerance instead of bit equality. *)
  let check_bytes () =
    match (run.offered_volume, run.delivered_volume) with
    | Some offered, Some delivered ->
        let rejected = Option.value ~default:0. run.rejected_volume in
        let lost = Option.value ~default:0. run.lost_volume in
        let stranded = Option.value ~default:0. run.stranded_volume in
        let tol = 1e-6 *. Float.max 1. offered in
        let slot_sum f = List.fold_left (fun acc r -> acc +. f r) 0. run.rows in
        if Float.abs (offered -. (delivered +. lost +. rejected)) > tol then
          fail
            "byte accounting: offered %.17g <> delivered %.17g + lost %.17g \
             + rejected %.17g"
            offered delivered lost rejected
        else if Float.abs (slot_sum (fun r -> r.stranded_bytes) -. stranded)
                > tol
        then
          fail "per-slot stranded bytes do not sum to the run total %.17g"
            stranded
        else if Float.abs (slot_sum (fun r -> r.lost_bytes) -. lost) > tol then
          fail "per-slot lost bytes do not sum to the run total %.17g" lost
        else Ok ()
    | _ -> Ok ()
  in
  match check_deltas () with
  | Error _ as e -> e
  | Ok () -> (
      match check_finals () with
      | Error _ as e -> e
      | Ok () -> check_bytes ())

let run_tally run =
  List.fold_left (fun acc row -> add_tally acc row.lp) empty_tally run.rows

let pp_run ppf run =
  Format.fprintf ppf "@[<v>run: scheduler %s, %d slots@," run.scheduler
    run.slots;
  let max_cost =
    List.fold_left (fun acc r -> max acc r.cost) 0. run.rows
  in
  Format.fprintf ppf
    "  %-5s %6s %6s %4s %11s %10s %8s %7s %7s %6s %9s %9s  %s@," "slot"
    "arriv" "admit" "rej" "cost" "Δcost" "stored" "solves" "pivots" "p1"
    "solve ms" "sched ms" "cost bar";
  List.iter
    (fun r ->
      let bar_len =
        if max_cost <= 0. then 0
        else int_of_float (Float.round (20. *. r.cost /. max_cost))
      in
      Format.fprintf ppf
        "  %-5d %6d %6d %4d %11.3f %10.3f %8.1f %7d %7d %6d %9.2f %9.2f  %s@,"
        r.slot r.arrivals r.admitted r.rejected r.cost r.cost_delta
        r.stored_bytes r.lp.solves r.lp.pivots r.lp.phase1_pivots
        r.lp.solve_ms r.sched_ms
        (String.concat "" (List.init bar_len (fun _ -> "#"))))
    run.rows;
  let t = run_tally run in
  Format.fprintf ppf
    "  totals: %d solves, %d pivots (%d phase 1), %d refactorizations, \
     %.2f ms solving, %.2f ms scheduling@,"
    t.solves t.pivots t.phase1_pivots t.refactorizations t.solve_ms
    (List.fold_left (fun acc r -> acc +. r.sched_ms) 0. run.rows);
  Format.fprintf ppf "  solver: %d phase-1 + %d phase-2 + %d dual pivots@,"
    t.phase1_pivots t.phase2_pivots t.dual_pivots;
  Format.fprintf ppf
    "  solve paths: %d dual, %d fell back to two-phase@," t.dual_solves
    t.fell_back;
  (match (run.total_files, run.rejected_files) with
   | Some total, Some rej ->
       Format.fprintf ppf "  files: %d offered, %d rejected@," total rej
   | _ -> ());
  if run.fault_reveals > 0 || run.fault_strands > 0 || run.fault_losses > 0
  then
    Format.fprintf ppf
      "  faults: %d event%s revealed, %d stranding%s (%d replanned), %d \
       loss%s@,"
      run.fault_reveals
      (if run.fault_reveals = 1 then "" else "s")
      run.fault_strands
      (if run.fault_strands = 1 then "" else "s")
      (Option.value ~default:0 run.replanned_files)
      run.fault_losses
      (if run.fault_losses = 1 then "" else "es");
  (match (run.offered_volume, run.delivered_volume) with
   | Some offered, Some delivered ->
       Format.fprintf ppf
         "  bytes: %.1f offered = %.1f delivered + %.1f rejected + %.1f \
          lost (%.1f stranded, %.1f recovered)@,"
         offered delivered
         (Option.value ~default:0. run.rejected_volume)
         (Option.value ~default:0. run.lost_volume)
         (Option.value ~default:0. run.stranded_volume)
         (Option.value ~default:0. run.recovered_volume)
   | _ -> ());
  (match reconcile run with
   | Ok () ->
       let note =
         match run.final_cost with
         | Some c -> Printf.sprintf " (final cost %g)" c
         | None -> ""
       in
       Format.fprintf ppf
         "  reconciliation: OK — slot series matches final totals exactly%s@,"
         note
   | Error msg -> Format.fprintf ppf "  reconciliation: FAILED — %s@," msg);
  Format.fprintf ppf "@]"

let pp ppf runs =
  match runs with
  | [] -> Format.fprintf ppf "no sim.run spans in this trace@."
  | _ ->
      Format.fprintf ppf "%d run%s traced@." (List.length runs)
        (if List.length runs = 1 then "" else "s");
      List.iter (fun r -> Format.fprintf ppf "%a@." pp_run r) runs

(* --- machine-readable output --- *)

let tally_to_json t =
  Json.Obj
    [ ("solves", Json.Int t.solves);
      ("pivots", Json.Int t.pivots);
      ("phase1_pivots", Json.Int t.phase1_pivots);
      ("phase2_pivots", Json.Int t.phase2_pivots);
      ("dual_pivots", Json.Int t.dual_pivots);
      ("refactorizations", Json.Int t.refactorizations);
      ("solve_ms", Json.Float t.solve_ms);
      ("dual_solves", Json.Int t.dual_solves);
      ("fell_back", Json.Int t.fell_back) ]

let opt f = function None -> Json.Null | Some v -> f v

let row_to_json r =
  Json.Obj
    [ ("slot", Json.Int r.slot);
      ("arrivals", Json.Int r.arrivals);
      ("admitted", Json.Int r.admitted);
      ("rejected", Json.Int r.rejected);
      ("admitted_bytes", Json.Float r.admitted_bytes);
      ("stored_bytes", Json.Float r.stored_bytes);
      ("replans", Json.Int r.replans);
      ("stranded_bytes", Json.Float r.stranded_bytes);
      ("lost_bytes", Json.Float r.lost_bytes);
      ("cost", Json.Float r.cost);
      ("cost_delta", Json.Float r.cost_delta);
      ("sched_ms", Json.Float r.sched_ms);
      ("lp", tally_to_json r.lp) ]

let run_to_json run =
  let t = run_tally run in
  Json.Obj
    [ ("scheduler", Json.Str run.scheduler);
      ("slots", Json.Int run.slots);
      ("final_cost", opt (fun c -> Json.Float c) run.final_cost);
      ("total_files", opt (fun n -> Json.Int n) run.total_files);
      ("rejected_files", opt (fun n -> Json.Int n) run.rejected_files);
      ("lost_files", opt (fun n -> Json.Int n) run.lost_files);
      ("replanned_files", opt (fun n -> Json.Int n) run.replanned_files);
      ("offered_volume", opt (fun v -> Json.Float v) run.offered_volume);
      ("delivered_volume", opt (fun v -> Json.Float v) run.delivered_volume);
      ("rejected_volume", opt (fun v -> Json.Float v) run.rejected_volume);
      ("stranded_volume", opt (fun v -> Json.Float v) run.stranded_volume);
      ("recovered_volume", opt (fun v -> Json.Float v) run.recovered_volume);
      ("lost_volume", opt (fun v -> Json.Float v) run.lost_volume);
      ("fault_reveals", Json.Int run.fault_reveals);
      ("fault_strands", Json.Int run.fault_strands);
      ("fault_losses", Json.Int run.fault_losses);
      ("sched_ms",
       Json.Float
         (List.fold_left (fun acc r -> acc +. r.sched_ms) 0. run.rows));
      ("totals", tally_to_json t);
      ("reconciliation",
       match reconcile run with
       | Ok () -> Json.Str "ok"
       | Error msg -> Json.Str msg);
      ("rows", Json.List (List.map row_to_json run.rows)) ]

let runs_to_json runs =
  Json.Obj [ ("runs", Json.List (List.map run_to_json runs)) ]

(* --- the trace-summary entry point --- *)

let write_chrome events path =
  let doc = Obs.Profile.chrome events in
  let s = Json.to_string doc in
  (* Self-check before writing: the export must itself be one valid JSON
     document, or chrome://tracing will reject it with no diagnostics. *)
  match Json.parse s with
  | Error msg ->
      Error (Printf.sprintf "chrome export failed its own parse: %s" msg)
  | Ok _ -> (
      match open_out path with
      | exception Sys_error msg -> Error msg
      | oc ->
          Fun.protect
            ~finally:(fun () -> close_out_noerr oc)
            (fun () ->
              output_string oc s;
              output_char oc '\n');
          Ok ())

let summarize_file ?(json = false) ?(profile = false) ?chrome ?(top = 20) path
    =
  match Reader.read_file path with
  | Error msg -> Error (Printf.sprintf "%s: %s" path msg)
  | Ok events ->
      let runs = of_events events in
      let prof = if profile then Some (Obs.Profile.of_events events) else None in
      (if json then begin
         let fields = [ ("runs", Json.List (List.map run_to_json runs)) ] in
         let fields =
           match prof with
           | Some p -> fields @ [ ("profile", Obs.Profile.to_json p) ]
           | None -> fields
         in
         print_endline (Json.to_string (Json.Obj fields))
       end
       else begin
         Format.printf "%a" pp runs;
         Option.iter (fun p -> Format.printf "%a" (Obs.Profile.pp ~top) p) prof
       end);
      (* Reconciliation failures are printed per run above; surface them
         in the exit status too, so CI smoke runs actually gate on them. *)
      let failures = ref [] in
      let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
      List.iter
        (fun r ->
          match reconcile r with
          | Ok () -> ()
          | Error msg -> fail "%s: reconciliation failed: %s" r.scheduler msg)
        runs;
      (match prof with
       | Some p -> (
           match Obs.Profile.balance p with
           | Ok () -> ()
           | Error msg -> fail "profile does not balance: %s" msg)
       | None -> ());
      (match chrome with
       | None -> ()
       | Some out -> (
           match write_chrome events out with
           | Ok () -> Format.printf "chrome trace written to %s@." out
           | Error msg -> fail "chrome export to %s failed: %s" out msg));
      match !failures with
      | [] -> Ok ()
      | fs ->
          Error
            (Printf.sprintf "%s: %s" path (String.concat "; " (List.rev fs)))
