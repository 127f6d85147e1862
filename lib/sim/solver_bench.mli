(** Dual-first simplex against the two-phase referee, for the online
    scheduler.

    Replays a Sec. VII-style online run and solves every epoch's
    time-expanded program twice: with {!Lp.Simplex.solve} (dual first
    from the slack basis) and with the two-phase primal referee
    {!Lp.Simplex.solve_two_phase}. One plan, the dual-first one, is
    committed per slot, so both solvers face identical programs. *)

type slot_stat = {
  slot : int;
  files : int;  (** Files released this slot. *)
  cols : int;  (** LP columns. *)
  rows : int;  (** LP rows. *)
  referee_iterations : int;  (** Simplex pivots, two-phase referee. *)
  dual_iterations : int;  (** Same, dual first. *)
  referee_ms : float;
  dual_ms : float;
  objective_gap : float;  (** |referee - dual| objective (must be ~0). *)
  referee_stats : Lp.Status.stats;  (** Full solver telemetry, referee. *)
  dual_stats : Lp.Status.stats;  (** Same, dual first. *)
}

type summary = {
  nodes : int;
  slots : int;
  seed : int;
  per_slot : slot_stat list;
  referee_iterations : int;  (** Total over slots. *)
  dual_iterations : int;  (** Total over slots. *)
  referee_ms : float;
  dual_ms : float;
  max_objective_gap : float;
  dual_solves : int;
      (** Slots the dual simplex finished ({!Lp.Status.Dual}: zero
          phase-1 pivots). *)
  fell_back : int;
      (** Slots whose dual-first solve fell back to the two-phase
          primal. *)
  dual_pivots : int;  (** Dual pivots over the dual-first solves. *)
  dual_phase1_pivots : int;
      (** Primal phase-1 pivots over the same solves (zero when every
          solve stayed on the dual path). *)
}

val reconcile : summary -> (unit, string) result
(** Recompute every path tally from the per-slot records and compare with
    the aggregate fields. [bench] fails loudly on [Error], so the
    aggregate counters can never silently disagree with the per-slot
    [path] fields. *)

val run :
  ?nodes:int -> ?slots:int -> ?seed:int -> ?pool:Exec.Pool.t -> unit -> summary
(** Defaults: 6 datacenters (complete topology, capacity 50), 12 slots,
    seed 1, matching the scaled Sec. VII settings. With a [pool] of size
    >= 2 each slot's two solves run on separate domains (each owns its
    program); slots stay sequential because the committed plan chains
    them. Results are identical for any pool size. *)

val iteration_ratio : summary -> float
(** [referee_iterations / dual_iterations]; [infinity] when every
    dual-first solve took zero pivots. *)

val pp_summary : Format.formatter -> summary -> unit

val to_json : summary -> string
(** The summary as a self-contained JSON document (the repository carries
    no JSON library, so this is a small hand-rolled emitter). *)

(** {2 Scale sweep}

    Per-size dual-first and referee curves ([bench --scale], written to
    [BENCH_scale.json]). Each point replays one online run, solves every
    slot's program dual first and commits that plan. The two-phase
    referee solves the same programs while its own budget lasts, so the
    speed ratio and the objective gap are measured on the slots both
    solved. *)

type scale_point = {
  sp_nodes : int;
  sp_slots : int;  (** Slots requested; fewer may run under the budget. *)
  sp_cols : int;  (** Largest LP of the run. *)
  sp_rows : int;
  sp_dual_slots : int;  (** Slots solved dual first. *)
  sp_dual_iterations : int;
  sp_dual_ms : float;
  sp_dual_solves : int;
      (** Scheduled slots the dual simplex finished ({!Lp.Status.Dual}). *)
  sp_dual_phase1_pivots : int;
      (** Phase-1 pivots over the dual-first solves; zero when none fell
          back to the two-phase primal. *)
  sp_dual_failures : int;
      (** Dual-first solves that gave up (pivot budget or numerical
          failure); [bench --scale] fails loudly when any point reports a
          nonzero count. *)
  sp_truncated : bool;
      (** The budget cut the dual-first curve short (recorded, never
          silent). *)
  sp_referee_slots : int;
      (** Slots the referee also solved: a prefix of the dual-first
          slots, as long as the referee's own budget lasted. *)
  sp_referee_iterations : int;
  sp_referee_ms : float;
  sp_referee_failures : int;
      (** Refereed slots where the two-phase primal gave up; at the
          largest sizes it can exhaust its 200k-pivot budget. Recorded
          explicitly, never folded into the gap. *)
  sp_dual_iterations_refereed : int;
      (** Dual-first pivots over the refereed slots alone. *)
  sp_dual_ms_refereed : float;
      (** Dual-first time over the refereed slots alone: the like-for-like
          counterpart of [sp_referee_ms]. *)
  sp_max_objective_gap : float;
      (** Worst referee/dual objective gap over the refereed slots whose
          outcomes compare (both scheduled, or both infeasible). A
          feasibility disagreement forces it to [infinity] so it cannot
          pass unnoticed; solver failures are counted in the
          [*_failures] fields instead. *)
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
    each curve's solve time per point. Once the dual-first curve exceeds
    it, the run stops at the end of the current slot, but never before
    one slot has been solved. The referee solves a slot only while its
    own total is within the budget. *)

val pp_scale : Format.formatter -> scale_summary -> unit

val scale_to_json : scale_summary -> string
