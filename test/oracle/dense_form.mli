(** Compilation of a {!Lp.Model} into dense equality standard form

    {v min c.z   s.t.   A z = b,   z >= 0 v}

    used by the interior-point solver: general bounds become shifts,
    negations or splits plus explicit slack columns; every inequality row
    gains a slack/surplus column. Dense representation — small programs
    only. *)

type t

val of_model : Lp.Model.t -> t

val a : t -> Dense.mat
(** The m x n constraint matrix (row-major). Do not mutate. *)

val b : t -> float array

val c : t -> float array

val n_original_rows : t -> int
(** The first [n_original_rows] rows correspond 1:1 to model rows (the
    rest encode upper bounds). *)

val restore_primal : t -> float array -> float array
(** Map a standard-form solution [z] back to model variables. *)

val model_objective : t -> float -> float
(** Map a standard-form objective value back to the model's sense,
    including the substitution constant. *)

val flip_objective : t -> bool
