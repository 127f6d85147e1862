(** Revised simplex method for linear programs with bounded variables,
    dual first.

    Every solve starts from the slack basis: each row's logical column is
    basic (B = I), and the structurals sit at a finite bound, or at zero
    when free. A nonbasic column whose reduced cost has the wrong sign is
    flipped to its other bound when that bound is finite; otherwise its
    cost is shifted until the reduced cost is zero (cost shifting). The
    start is then dual feasible, and a dual simplex restores primal
    feasibility with no phase 1: most-infeasible leaving row under dual
    Devex row weights, and a bounded-variable two-pass dual ratio test
    over the pivot row. When reduced costs drift so that pass 2 of that
    test comes up empty, they are rebuilt and the same flip-or-shift rule
    is applied again, at most once between two pivots. A leaving row no
    column can enter is a Farkas candidate: an independent bound check
    over the standard form turns it into a certified [Infeasible]
    verdict. On primal feasibility the true costs come back and a primal
    phase 2 polishes the vertex, pivoting out whatever a shift hid.

    Postcard's programs have non-negative costs over finite lower bounds,
    so for them the slack basis is dual feasible as it stands.

    Whatever the dual path cannot finish (an uncertified row, two empty
    ratio-test passes in a row, a stall, the iteration limit, a numerical
    failure) is solved again by the two-phase primal:

    - the basis inverse is maintained as a sparse {!Sparselin.Lu}
      factorization composed with a file of product-form {!Sparselin.Eta}
      updates, refactorized periodically (shared with the dual path);
    - phase 1 drives explicit artificial variables (one per row) to zero;
    - pricing is Devex (reference-framework weights), the standard remedy
      for the massive dual degeneracy of network-structured programs;
    - a long run of degenerate pivots triggers a deterministic tiny cost
      perturbation, a fresh round on each stall, and pricing randomizes
      among near-best candidates while a run lasts; the true costs are
      restored, and optimality re-verified, before a phase concludes;
      the pivot budget (200,000 across every phase) is the one terminal
      bound;
    - the ratio test is a two-pass test preferring large pivot elements
      among near-tied ratios, and supports bound flips of the entering
      variable.

    This solver is exact up to floating-point tolerances for any LP built
    with {!Model}; the test suite cross-checks it against the two-phase
    referee {!solve_two_phase}, the independent dense oracles of the test
    library and combinatorial network-flow algorithms. Its tolerances,
    pivot budget and refactorization period are constants of the
    implementation. *)

val solve : Model.t -> Status.outcome
(** Solve a model, dual first from the slack basis, falling back to the
    two-phase primal (see above). The returned solution is expressed in
    the model's own variable/row indexing and objective sense; its
    {!Status.stats} name the path that produced it. Nothing is carried
    between solves. *)

val solve_two_phase : Model.t -> Status.outcome
(** The two-phase primal alone, from the artificial basis: the referee
    that tests and the scale bench compare {!solve} against. Production
    code calls {!solve}. *)

val pass2_prefers : aa:float -> j:int -> best_abs:float -> best:int -> bool
(** The tie rule of the dual ratio test's second pass. That pass walks
    the pivot row's nonzero pattern, which lists columns in the order
    they were first reached, not by index. Column [j] with pivot
    magnitude [aa] displaces the current choice [best] (magnitude
    [best_abs]; [best = -1] and [best_abs = 0.] before the first) when
    [aa] is larger, or equal and [j < best]. Over any order this picks
    what an ascending scan keeping the first strict maximum picks: the
    largest magnitude, ties to the smallest index. Exposed for its
    test. *)

val pricing_prefers : score:float -> i:int -> best_score:float -> best:int -> bool
(** The tie rule of dual pricing. Pricing walks a list of the rows whose
    basic value violates a bound, kept in no particular order. Row [i]
    with score [score] (squared violation over its dual Devex weight)
    displaces the current choice [best] (score [best_score]; [best = -1]
    and [best_score = 0.] before the first) when [score] is larger, or
    equal and [i < best]. Over any order this picks what a scan of every
    row keeping the first strict maximum picks. Exposed for its test. *)
