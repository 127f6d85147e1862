(** Solver outcome types shared by the revised simplex and the dense
    oracle. *)

(** An exportable simplex basis: the status of every structural variable
    and of every row's slack at a vertex. Captured from an optimal solve
    and replayed — possibly onto a {e different} model, after translation
    through {!Basis.make} — as the [?warm_start] argument of
    {!Simplex.solve}. The warm-start machinery never trusts a basis: a
    singular, truncated, or simply wrong basis at worst costs a cold
    solve, so any statuses are safe to supply. *)
module Basis : sig
  type var_status =
    | Basic
    | At_lower  (** Nonbasic at its lower bound. *)
    | At_upper  (** Nonbasic at its upper bound. *)
    | Free  (** Nonbasic free variable (both bounds infinite), at zero. *)

  type t

  val make : cols:var_status array -> rows:var_status array -> t
  (** [make ~cols ~rows] builds a basis for a model with
      [Array.length cols] variables and [Array.length rows] rows; the
      arrays are copied. *)

  val num_cols : t -> int
  val num_rows : t -> int

  val col_status : t -> int -> var_status
  (** Status of the [j]-th structural variable. *)

  val row_status : t -> int -> var_status
  (** Status of the [i]-th row's slack. *)

  val count_basic : t -> int

  val pp : Format.formatter -> t -> unit
end

(** How a carried warm-start basis fared (see {!Simplex.solve}). *)
type warm_start_outcome =
  | No_warm_start  (** No basis was supplied; the solve started cold. *)
  | Dual_reopt
      (** The basis installed dual-feasibly and the dual simplex
          finished the solve with zero phase-1 pivots: an optimum, or an
          [Infeasible] verdict certified by a Farkas row. The path for
          slot-to-slot and post-strand re-solves, where only RHS/bounds
          change. *)
  | Warm_fell_back
      (** The dual path could not finish (unusable basis, uncertified
          row, stall, iteration limit or numerical failure); the reported
          solve is the cold fallback. *)

(** Per-solve effort record, filled in by the revised simplex. Solvers
    that do not track a statistic report its zero/default ({!no_stats});
    [iterations] in {!solution} always remains the authoritative pivot
    total. *)
type stats = {
  phase1_pivots : int;
  phase2_pivots : int;
  dual_pivots : int;
      (** Dual-simplex re-optimization pivots ([Dual_reopt] solves only;
          disjoint from the primal phase split, and
          [phase1_pivots + phase2_pivots + dual_pivots = iterations]). *)
  refactorizations : int;
      (** Basis refactorizations after the initial one (scheduled or
          forced by an unstable eta update). *)
  eta_peak : int;  (** Longest eta file reached between refactorizations. *)
  bound_flips : int;  (** Ratio-test outcomes that flipped the entering variable. *)
  perturbations : int;
      (** Cost-perturbation rounds triggered by degeneracy, both phases. *)
  bland : bool;  (** Bland's rule (the terminal anti-cycling level) was reached. *)
  warm_start : warm_start_outcome;
}

val no_stats : stats
(** All-zero stats with [No_warm_start]; what solvers without
    instrumentation attach. *)

type solution = {
  objective : float;  (** Objective value in the model's own sense. *)
  primal : float array;  (** One value per model variable. *)
  dual : float array;  (** One value per model row (simplex multipliers). *)
  reduced_costs : float array;  (** One value per model variable. *)
  iterations : int;  (** Total simplex pivots across both phases. *)
  stats : stats;  (** Solve-effort breakdown (see {!stats}). *)
  basis : Basis.t option;
      (** The optimal basis, when the solver maintains one (the revised
          simplex does; the dense oracle and the interior-point method
          return [None]). Feed it back as [?warm_start] to resolve a
          perturbed or structurally similar model. *)
}

type outcome =
  | Optimal of solution
  | Infeasible
  | Unbounded
  | Iteration_limit

val is_optimal : outcome -> bool

val get_optimal : outcome -> solution
(** Raises [Failure] when the outcome is not [Optimal]; convenience for
    callers whose programs are feasible by construction. *)

val pp_outcome : Format.formatter -> outcome -> unit

val pp_warm_start_outcome : Format.formatter -> warm_start_outcome -> unit

val warm_start_outcome_name : warm_start_outcome -> string
(** Stable machine-readable name: ["none"], ["dual_reopt"] or
    ["fell_back"] — the vocabulary used in traces and bench JSON. *)

val pp_stats : Format.formatter -> stats -> unit
