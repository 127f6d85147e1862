(** Cold-vs-warm simplex benchmark for the online scheduler.

    Replays a Sec. VII-style online run and solves every epoch's
    time-expanded program twice: from scratch, and warm-started from the
    previous epoch's optimal basis translated through
    {!Postcard.Basis_map}. The committed plan is always the cold one, so
    both solvers face identical programs; slot 0 has no previous basis and
    is excluded from the totals. *)

type slot_stat = {
  slot : int;
  files : int;  (** Files released this slot. *)
  cols : int;  (** LP columns. *)
  rows : int;  (** LP rows. *)
  cold_iterations : int;  (** Simplex pivots, phases 1+2, cold start. *)
  warm_iterations : int;  (** Same, warm-started. *)
  cold_ms : float;
  warm_ms : float;
  objective_gap : float;  (** |cold - warm| objective (must be ~0). *)
  hit_rate : float;
      (** Fraction of this epoch's columns/rows found in the carried
          basis (0 on slot 0). *)
  cold_stats : Lp.Status.stats;  (** Full solver telemetry, cold start. *)
  warm_stats : Lp.Status.stats;  (** Same, warm-started. *)
}

type summary = {
  nodes : int;
  slots : int;
  seed : int;
  per_slot : slot_stat list;
  cold_iterations : int;  (** Total over slots >= 1. *)
  warm_iterations : int;  (** Total over slots >= 1. *)
  cold_ms : float;
  warm_ms : float;
  max_objective_gap : float;
  warm_fell_back : int;
      (** Slots (>= 1) whose warm start the solver re-solved cold. *)
  dual_reopts : int;
      (** Slots (>= 1) the dual simplex finished from the carried basis
          ({!Lp.Status.Dual_reopt}: zero phase-1 pivots). *)
  dual_pivots : int;  (** Dual pivots over warm solves of slots >= 1. *)
  warm_phase1_pivots : int;
      (** Primal phase-1 pivots over the same warm solves (zero when
          every re-opt took the dual path). *)
}

val reconcile : summary -> (unit, string) result
(** Recompute every outcome tally from the per-slot records and compare
    with the aggregate fields. [bench] fails loudly on [Error], so the
    aggregate counters can never silently disagree with the per-slot
    [warm_start] fields (the defect this check was born from). *)

val run :
  ?nodes:int -> ?slots:int -> ?seed:int -> ?pool:Exec.Pool.t -> unit -> summary
(** Defaults: 6 datacenters (complete topology, capacity 50), 12 slots,
    seed 1 — a workload whose epochs overlap enough for warm starts to
    matter, matching the scaled Sec. VII settings. With a [pool] of size
    >= 2 each slot's cold and warm trials run on separate domains (each
    trial owns its program); slots stay sequential because the carried
    basis chains them. Results are identical for any pool size. *)

val iteration_ratio : summary -> float
(** [cold_iterations / warm_iterations] over the warm-started slots;
    [infinity] when every warm solve took zero pivots. *)

val pp_summary : Format.formatter -> summary -> unit

val to_json : summary -> string
(** The summary as a self-contained JSON document (the repository carries
    no JSON library, so this is a small hand-rolled emitter). *)

(** {2 Scale sweep}

    Per-size cold / dual-reopt curves ([bench --scale], written to
    [BENCH_scale.json]). Each point replays one online run and solves
    every re-opt slot's program twice, chained on a single carried basis:
    from scratch, and through the dual simplex. The committed plan is
    always the cold one, so both solvers face identical program
    sequences. *)

type scale_point = {
  sp_nodes : int;
  sp_slots : int;  (** Slots requested; fewer may run under the budget. *)
  sp_cols : int;  (** Largest LP of the run. *)
  sp_rows : int;
  sp_reopt_slots : int;  (** Re-opt slots (>= 1) actually timed. *)
  sp_cold_iterations : int;
  sp_dual_iterations : int;
  sp_cold_ms : float;
  sp_dual_ms : float;
  sp_dual_reopts : int;  (** Dual-warm solves that ran the dual path. *)
  sp_dual_phase1_pivots : int;
      (** Phase-1 pivots on dual-warm solves; zero when the dual path
          held everywhere. *)
  sp_cold_failures : int;
      (** Re-opt slots where the cold solve gave up (pivot budget or
          numerical failure) — at the largest sizes the cold simplex can
          exhaust its 200k-pivot budget where the dual re-opt still
          certifies optimality. Recorded explicitly, never folded into
          the gap. *)
  sp_dual_failures : int;
      (** Same, dual-warm solve; [bench --scale] fails loudly when any
          point reports a nonzero count. *)
  sp_max_objective_gap : float;
      (** Worst cold/dual objective gap, over the solves that produced
          comparable outcomes (both scheduled, or both infeasible). A
          feasibility disagreement forces it to [infinity] so it cannot
          pass unnoticed; solver failures are excluded here and counted
          in the [*_failures] fields. *)
  sp_truncated : bool;
      (** The wall-clock budget cut the run short (recorded, never
          silent). *)
}

type scale_summary = {
  sc_seed : int;
  sc_budget_ms : float;
  sc_points : scale_point list;
}

val default_scale_sizes : (int * int) list
(** [(nodes, slots)] pairs swept by default:
    6x12, 12x24, 20x48, 32x72, 50x104. *)

val scale_sweep :
  ?sizes:(int * int) list ->
  ?seed:int ->
  ?budget_ms:float ->
  unit ->
  scale_summary
(** Run one {!scale_point} per size. [budget_ms] (default 20000) bounds
    each point's wall clock: once exceeded, the run stops at the end of
    the current slot — but never before at least one re-opt slot has been
    timed, so every point contributes a curve sample. *)

val pp_scale : Format.formatter -> scale_summary -> unit

val scale_to_json : scale_summary -> string
