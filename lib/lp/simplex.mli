(** Revised simplex method for linear programs with bounded variables,
    with a dual-simplex re-optimization path for warm starts.

    The implementation is a primal, two-phase bounded-variable simplex:

    - the basis inverse is maintained as a sparse {!Sparselin.Lu}
      factorization composed with a file of product-form {!Sparselin.Eta}
      updates, refactorized periodically;
    - phase 1 drives explicit artificial variables (one per row) to zero;
    - pricing is Devex (reference-framework weights), the standard remedy
      for the massive dual degeneracy of network-structured programs;
    - long runs of degenerate pivots first trigger a deterministic tiny
      cost perturbation (restored, and optimality re-verified, before a
      phase concludes), then Bland's rule as the terminal anti-cycling
      guarantee;
    - the ratio test is a two-pass test preferring large pivot elements
      among near-tied ratios, and supports bound flips of the entering
      variable.

    Warm starts additionally carry a dual simplex: when the supplied
    basis installs dual-feasibly (the common case for slot-to-slot
    re-solves, where only RHS/bounds changed), re-optimization runs dual
    pivots — most-infeasible leaving row under dual Devex row weights, a
    bounded-variable two-pass dual ratio test over the pivot row — and
    never touches phase 1. A leaving row no column can enter is a Farkas
    candidate: an independent bound check over the standard form turns
    it into a certified [Infeasible] verdict. Anything else the dual path
    cannot finish (a dual-infeasible install, an uncertified row,
    persistent dual degeneracy, numerical failure) is solved cold.

    This solver is exact up to floating-point tolerances for any LP built
    with {!Model}; the test suite cross-checks it against the independent
    dense implementation in {!Dense_simplex} and against combinatorial
    network-flow algorithms. *)

type params = {
  max_iterations : int;  (** Pivot budget across both phases. *)
  dual_tolerance : float;  (** Reduced-cost optimality tolerance. *)
  feasibility_tolerance : float;  (** Bound/row violation tolerance. *)
  pivot_tolerance : float;  (** Smallest acceptable pivot magnitude. *)
  refactor_frequency : int;  (** Eta updates between refactorizations. *)
  degenerate_switch : int;
      (** Consecutive degenerate pivots before escalating (perturbation,
          then Bland's rule). *)
}

val default_params : params

val solve :
  ?params:params ->
  ?warm_start:Status.Basis.t ->
  Model.t ->
  Status.outcome
(** Solve a model. The returned solution is expressed in the model's own
    variable/row indexing and objective sense, and carries the optimal
    basis ({!Status.solution.basis}).

    [warm_start] starts the solver from a basis captured by an earlier
    solve (of this model or of a structurally similar one, translated onto
    this model's indices). Dependent basic-marked columns are dropped
    through {!Sparselin.Lu.crash_select} and uncovered rows get an
    artificial column. A basis that then installs dual-feasibly
    re-optimizes with the dual simplex (outcome {!Status.Dual_reopt},
    zero phase-1 pivots), ending in an optimum or a certified
    [Infeasible]; every other case is solved cold
    ({!Status.Warm_fell_back}). Supplying a wrong or stale basis is always
    safe: it can only cost iterations, never correctness. *)
