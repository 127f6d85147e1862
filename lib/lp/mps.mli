(** MPS (free-format) reading and writing for {!Model}.

    The venerable interchange format lets programs built here be checked
    against external solvers, and external instances be solved with this
    repository's simplex. Supported sections: [NAME], [ROWS] (N/L/G/E —
    exactly one objective row), [COLUMNS], [RHS], [BOUNDS]
    (UP/LO/FX/FR/MI/PL). [RANGES] and integrality markers are not
    supported and are reported as errors.

    Writing always produces [OBJSENSE]-free minimization-form MPS: a
    maximization model is written with negated objective coefficients and a
    comment noting the flip, so external solvers agree on the optimal
    point; {!read} of a written file recovers an equivalent minimization
    model. *)

val write : Model.t -> string

val to_file : Model.t -> string -> (unit, string) result

val read : string -> (Model.t, string) result
(** Parse from text; the error carries a line number. *)
