(** The Postcard online scheduler: at each epoch, solve the time-expanded
    program of {!Formulate} for the newly released files and commit the
    optimal store-and-forward plan.

    When the instance is infeasible (deadlines cannot be met under the
    residual capacities), files are dropped highest-rate-first until the
    rest fits; dropped files are reported as rejected. *)

val make : unit -> Scheduler.t
(** Each epoch's optimal simplex basis — re-keyed by the stable structural
    keys of {!Basis_map} — warm-starts the next epoch's solve, which
    typically cuts the pivot count by a large factor on sliding-horizon
    workloads. Every epoch's plan is optimal for that epoch's program,
    warm or cold; but Postcard programs are massively degenerate, so warm
    and cold solves may pick different cost-equal vertices, and
    committing a different optimal plan can nudge later epochs' programs
    — simulated cost trajectories therefore agree per epoch in
    optimality, not bit-for-bit across solver variants. *)
