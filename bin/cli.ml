(* Command-line plumbing shared by every postcard binary: the
   observability flags (--log-level / --metrics / --trace), scheduler
   selection against the registry, fault-scenario parsing, and the
   graceful-shutdown signal handlers that get the JSONL trace sink
   flushed on Ctrl-C. *)

open Cmdliner

(* --- signals --- *)

let signal_exit_code s = if s = Sys.sigterm then 143 else 130

let handle_signals f =
  (* Some environments reserve a signal; a handler we cannot install is
     not worth dying over. *)
  let install s =
    try Sys.set_signal s (Sys.Signal_handle f) with Invalid_argument _ -> ()
  in
  install Sys.sigint;
  install Sys.sigterm

let exit_on_signals () =
  (* [exit] (as opposed to dying on the default handler) runs the
     [at_exit] hooks, which is where Obs.Logging registered the trace
     sink's close — the JSONL file ends at a line boundary and stays
     parseable. *)
  handle_signals (fun s -> Stdlib.exit (signal_exit_code s))

(* --- observability flags --- *)

let log_level_conv =
  let parse s =
    match Obs.Logging.parse_level s with
    | Ok _ as ok -> ok
    | Error msg -> Error (`Msg msg)
  in
  Arg.conv
    (parse, fun ppf l -> Format.pp_print_string ppf (Obs.Logging.level_name l))

let log_level =
  Arg.(value & opt (some log_level_conv) None & info [ "log-level" ]
         ~docv:"LEVEL"
         ~doc:"Log verbosity: quiet, app, error, warning, info or debug \
               (overrides --verbose).")

let verbose =
  Arg.(value & flag & info [ "verbose"; "v" ]
         ~doc:"Progress and scheduler logs.")

let metrics =
  Arg.(value & flag & info [ "metrics" ]
         ~doc:"Enable the metrics registry and dump it when done.")

let trace =
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE"
         ~doc:"Write a JSONL run trace to FILE (analyze with 'postcard_sim \
               trace-summary').")

let spans =
  Arg.(value & flag & info [ "spans" ]
         ~doc:"Record timed phase spans (solver, factorization, scheduler, \
               engine) into the --trace file; profile with 'postcard_sim \
               trace-summary --profile'.")

let setup_obs ~verbose ~log_level ~metrics ~spans ~trace =
  let level =
    match log_level with
    | Some l -> l
    | None -> if verbose then Some Logs.Info else Some Logs.Warning
  in
  match Obs.Logging.init ~level ~metrics ~spans ?trace () with
  | Ok () -> ()
  | Error msg ->
      prerr_endline msg;
      exit 1

(* --- scheduler selection --- *)

let resolve_schedulers spec =
  let names = List.map String.trim (String.split_on_char ',' spec) in
  let rec build = function
    | [] -> Ok []
    | name :: rest -> (
        match Postcard.Scheduler.factory name with
        | None ->
            Error
              (Printf.sprintf "unknown scheduler %S (available: %s)" name
                 (String.concat ", " (Postcard.Scheduler.registered ())))
        | Some mk -> (
            match build rest with
            | Error _ as e -> e
            | Ok tail -> Ok (mk :: tail)))
  in
  build names

let resolve_scheduler name =
  match Postcard.Scheduler.make name with
  | Some s -> Ok s
  | None ->
      Error
        (Printf.sprintf "unknown scheduler %S (available: %s)" name
           (String.concat ", " (Postcard.Scheduler.registered ())))

let schedulers ?(default = "postcard,flow") () =
  Arg.(value & opt string default & info [ "schedulers" ] ~docv:"LIST"
         ~doc:"Comma-separated schedulers from the registry (see \
               --list-schedulers); aliases like 'flow' and 'greedy' are \
               accepted.")

let scheduler ?(default = "postcard") () =
  Arg.(value & opt string default & info [ "scheduler"; "s" ] ~docv:"NAME"
         ~doc:(Printf.sprintf
                 "Any scheduler from the registry (default: %s); see \
                  --list-schedulers. Aliases like 'flow' and 'greedy' are \
                  accepted."
                 default))

let list_schedulers =
  Arg.(value & flag & info [ "list-schedulers" ]
         ~doc:"Print the registered schedulers (name, aliases, description) \
               and exit; the exit status is non-zero if any registered \
               factory fails to construct.")

(* [--list-schedulers] doubles as a registry health check: a factory that
   raises at construction would otherwise only surface deep inside a run. *)
let print_registry_and_exit () =
  Format.printf "%a@." Postcard.Scheduler.pp_registry ();
  match Postcard.Scheduler.make_all () with
  | Ok _ -> exit 0
  | Error errs ->
      List.iter (fun e -> Format.eprintf "broken factory: %s@." e) errs;
      exit 1

(* --- fault scenarios --- *)

let faults_conv =
  let parse s =
    match Sim.Faults.parse s with
    | Ok _ as ok -> ok
    | Error msg -> Error (`Msg msg)
  in
  Arg.conv
    (parse, fun ppf sc -> Format.pp_print_string ppf (Sim.Faults.to_string sc))

let faults =
  Arg.(value & opt (some faults_conv) None & info [ "faults" ] ~docv:"SPEC"
         ~doc:"Inject a deterministic fault scenario: comma-separated \
               events, each link:SRC-DST@SLOTS (link outage), dc:N@SLOTS \
               (datacenter outage) or degrade:SRC-DST@SLOTS:FACTOR \
               (capacity degradation), with SLOTS a slot (4) or inclusive \
               range (2..6). Example: \
               'link:0-1@3..5,dc:2@4,degrade:1-3@2..6:0.5'.")
