(** Offline analyzer for JSONL run traces (the [--trace] output).

    Reconstructs each simulation run recorded in a trace — the
    ["sim.run"]/["sim.slot"] spans with the ["lp.solve"] and
    ["sched.decision"] points nested inside them — and renders an ASCII
    report: the cost-vs-slot series, the per-slot pivot and wall-time
    breakdown, a solver section (phase-1/phase-2/dual pivot split and
    solve paths per run), and a
    reconciliation check of the per-slot series against the run's
    recorded final totals. *)

type solve_tally = {
  solves : int;
  pivots : int;  (** All pivots (phases 1+2 and dual) over the slot. *)
  phase1_pivots : int;
  phase2_pivots : int;
  dual_pivots : int;  (** Dual-simplex pivots. *)
  refactorizations : int;
  solve_ms : float;
  dual_solves : int;  (** Solves the dual simplex finished. *)
  fell_back : int;
      (** Solves the two-phase primal re-ran after the dual path gave
          up. *)
}

type slot_row = {
  slot : int;
  arrivals : int;
  admitted : int;
  rejected : int;
  admitted_bytes : float;
  stored_bytes : float;
  replans : int;  (** Stranded files re-offered this slot (0 pre-fault traces). *)
  stranded_bytes : float;  (** Bytes stranded by reveals this slot. *)
  lost_bytes : float;  (** Bytes lost (deadline or re-offer rejection). *)
  cost : float;  (** Cumulative charged cost after this slot. *)
  cost_delta : float;
  charged : float array;  (** Cumulative per-link charged volume. *)
  charged_delta : float array;  (** Per-link charged-volume increase. *)
  sched_ms : float;
  lp : solve_tally;
}

type run = {
  scheduler : string;
  slots : int;
  rows : slot_row list;  (** In slot order. *)
  final_cost : float option;  (** From the ["sim.run"] end event. *)
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
  fault_reveals : int;  (** ["fault.reveal"] points inside the run. *)
  fault_strands : int;  (** ["fault.strand"] points inside the run. *)
  fault_losses : int;  (** ["fault.lost"] points inside the run. *)
}

val of_events : Obs.Trace_reader.event list -> run list
(** Group a validated event stream into runs. Events outside any
    ["sim.run"] span (e.g. from [postcard_solve]) are ignored. *)

val reconcile : run -> (unit, string) result
(** Check the per-slot series against the run's final totals, with zero
    tolerance: the last slot's cumulative [cost] must equal [final_cost],
    the last slot's [charged] must equal [final_charged] per link, and
    every slot's deltas must equal the difference of the adjacent
    cumulative readings (the engine computes them that way, so the
    recomputation is bit-exact). When the run carries byte totals
    (schema >= the fault-aware engine), additionally checks the byte
    decomposition [offered = delivered + lost + rejected] and the per-slot
    stranded/lost sums against the run totals, at relative tolerance
    [1e-6] (accumulation order differs between engine and analyzer). [Ok]
    when the run carries no final totals. *)

val pp_run : Format.formatter -> run -> unit

val pp : Format.formatter -> run list -> unit

val runs_to_json : run list -> Obs.Json.t
(** [{"runs": [...]}] — every run with its per-slot rows, summed solver
    tally and reconciliation verdict ("ok" or the failure message), for
    scripts that would otherwise scrape the ASCII report. *)

val summarize_file :
  ?json:bool ->
  ?profile:bool ->
  ?chrome:string ->
  ?top:int ->
  string ->
  (unit, string) result
(** Read, validate, analyze and print a trace file; the [trace-summary]
    subcommand of [postcard_sim].

    [json] switches stdout to one machine-readable document
    ({!runs_to_json}, with a ["profile"] member when [profile] is also
    set). [profile] adds the span self-time table ({!Obs.Profile}, top
    [top] rows, default 20) and makes an unbalanced profile an error.
    [chrome] additionally writes the whole event stream as Chrome
    [trace_event] JSON to the given file, re-parsing the document before
    writing it. Reconciliation failures, an unbalanced profile and a
    failed export all land in the [Error] return (the caller exits
    nonzero) after everything printable has been printed. *)
