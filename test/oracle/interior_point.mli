(** A primal-dual interior-point method (Mehrotra predictor-corrector)
    for small dense linear programs.

    The paper solved the Postcard program with MATLAB's [fmincon], an
    interior-point solver; this module provides the same algorithmic family
    as an independent cross-check of the revised simplex. It compiles the
    model to dense equality form ({!Dense_form}) and iterates on the
    perturbed KKT system, solving the normal equations [A D A^T dy = r]
    with a dense Cholesky factorization.

    Scope: feasible, bounded programs of modest size (the normal equations
    are dense). Infeasible or unbounded inputs are reported as
    [Iteration_limit] after failing to converge — use {!Lp.Simplex} when
    status classification matters. Reported duals cover the model's own
    rows; reduced costs are the final dual slacks. *)

val solve :
  ?max_iterations:int -> ?tolerance:float -> Lp.Model.t -> Lp.Status.outcome
(** Defaults: [max_iterations = 100], [tolerance = 1e-8] on the relative
    primal/dual residuals and the duality measure. *)
