(** Conversion of a {!Model} into the computational standard form used by
    the revised simplex:

    {v min c.x   s.t.   A x = b,   lb <= x <= ub v}

    Columns [0 .. n_struct-1] are the model's variables in order; column
    [n_struct + i] is the logical (slack) variable of row [i], with bounds
    encoding the row sense: [0, +inf) for [<=], (-inf, 0] for [>=] and
    [0, 0] for [=]. Maximization is converted to minimization by negating
    the cost vector ([flip_objective] records this). *)

type t = {
  a : Sparselin.Csc.t;  (** m x (n_struct + m); [Csc.transpose rows]. *)
  rows : Sparselin.Csc.t;
      (** The row-wise copy: column [i] is row [i] of [a], which lets the
          simplex form a pivot row from the nonzeros of B^-T e_r alone.
          Filled from the model's rows in O(nnz), with no sort. *)
  b : float array;
  cost : float array;
  lb : float array;
  ub : float array;
  n_struct : int;
  n_rows : int;
  flip_objective : bool;
}

val of_model : Model.t -> t

val total_vars : t -> int
(** [n_struct + n_rows]. *)

val model_objective : t -> float -> float
(** Convert a standard-form objective value back to the model's sense. *)
