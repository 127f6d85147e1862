(** Solver outcome types shared by the revised simplex and the dense
    oracles of the test library. *)

(** Which algorithm produced a revised-simplex answer (see
    {!Simplex.solve}). *)
type solve_path =
  | Dual
      (** The dual simplex from the slack basis finished the solve, then
          a primal phase-2 polish on the true costs; zero phase-1
          pivots. Its answer is an optimum, or an [Infeasible] verdict
          certified by a Farkas row. *)
  | Two_phase
      (** The two-phase primal from the artificial basis produced the
          answer: {!Simplex.solve}'s fallback when the dual path could
          not finish (uncertified row, repeated drift, stall, iteration
          limit or numerical failure), or {!Simplex.solve_two_phase}.
          Solvers without instrumentation report it too ({!no_stats}). *)

(** Per-solve effort record, filled in by the revised simplex. Solvers
    that do not track a statistic report its zero/default ({!no_stats});
    [iterations] in {!solution} always remains the authoritative pivot
    total. *)
type stats = {
  phase1_pivots : int;
  phase2_pivots : int;
  dual_pivots : int;
      (** Dual-simplex pivots ([Dual] solves only; disjoint from the
          primal phase split, and
          [phase1_pivots + phase2_pivots + dual_pivots = iterations]). *)
  refactorizations : int;
      (** Basis refactorizations after the initial one (scheduled or
          forced by an unstable eta update). *)
  eta_peak : int;  (** Longest eta file reached between refactorizations. *)
  bound_flips : int;  (** Ratio-test outcomes that flipped the entering variable. *)
  perturbations : int;
      (** Cost-perturbation rounds triggered by degeneracy, both phases. *)
  path : solve_path;
}

val no_stats : stats
(** All-zero stats with path [Two_phase]; what solvers without
    instrumentation attach. *)

type solution = {
  objective : float;  (** Objective value in the model's own sense. *)
  primal : float array;  (** One value per model variable. *)
  dual : float array;  (** One value per model row (simplex multipliers). *)
  reduced_costs : float array;  (** One value per model variable. *)
  iterations : int;  (** Total simplex pivots across both phases. *)
  stats : stats;  (** Solve-effort breakdown (see {!stats}). *)
}

type outcome =
  | Optimal of solution
  | Infeasible
  | Unbounded
  | Iteration_limit

val get_optimal : outcome -> solution
(** Raises [Failure] when the outcome is not [Optimal]; convenience for
    callers whose programs are feasible by construction. *)

val pp_outcome : Format.formatter -> outcome -> unit

val solve_path_name : solve_path -> string
(** Stable machine-readable name: ["dual"] or ["two_phase"], the
    vocabulary used in traces and bench JSON. *)
