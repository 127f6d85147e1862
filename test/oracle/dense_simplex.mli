(** Dense two-phase tableau simplex with Bland's rule.

    A deliberately independent implementation used as a correctness oracle
    for {!Lp.Simplex} in the property-test suite: it shares no code with the
    revised solver (no sparse matrices, no basis factorization, no bounded
    variables — general bounds are compiled away into shifts, splits and
    explicit rows). It is exponential-pivot-safe (Bland) but slow; use it
    only on small programs.

    The returned solution carries the primal assignment and objective in
    model terms. Dual values and reduced costs are reported as zero arrays:
    duality properties are tested against {!Lp.Simplex} directly. *)

val solve : ?max_iterations:int -> Lp.Model.t -> Lp.Status.outcome
