(** The Postcard online scheduler: at each epoch, solve the time-expanded
    program of {!Formulate} for the newly released files and commit the
    optimal store-and-forward plan.

    When the instance is infeasible (deadlines cannot be met under the
    residual capacities), files are dropped highest-rate-first until the
    rest fits; dropped files are reported as rejected. *)

val make : unit -> Scheduler.t
(** The scheduler carries no solver state between epochs: each epoch's
    program, and each admission-control re-solve, is solved dual-first
    from the slack basis ({!Lp.Simplex.solve}). Every epoch's plan is
    optimal for that epoch's program; but Postcard programs are massively
    degenerate, so two solver variants may pick different cost-equal
    vertices, and committing a different optimal plan can nudge later
    epochs' programs. Simulated cost trajectories therefore agree across
    solver variants per epoch in optimality, not bit for bit. *)
