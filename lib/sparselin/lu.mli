(** Sparse LU factorization of a square matrix with partial pivoting,
    in the left-looking (Gilbert-Peierls) style. This is the basis
    factorization engine of the revised simplex method in {!Lp}.

    The factorization computed is [P * B * Q = L * U] where [P] is the row
    permutation chosen by Markowitz-ordered threshold pivoting (among rows
    whose magnitude is within a fixed factor of the column maximum, the one
    with the fewest input-matrix nonzeros — a static fill-in proxy — wins,
    with deterministic tie-breaks), [Q] is a caller supplied (or
    nnz-ascending) column ordering, [L] is unit lower triangular and [U] is
    upper triangular. *)

type t

type error =
  | Singular of int
      (** [Singular k]: no acceptable pivot was found while factorizing the
          [k]-th column of the ordered matrix. *)

val factorize :
  ?col_order:int array -> dim:int -> (int -> (int * float) array) -> (t, error) result
(** [factorize ~dim col] factorizes the [dim] x [dim] matrix whose [j]-th
    column is [col j], given as (row, value) pairs with distinct rows.
    [col_order], when given, is the permutation [Q] (its [k]-th entry is the
    original column eliminated at step [k]); otherwise columns are ordered by
    increasing nonzero count, a cheap fill-reducing heuristic that suits
    near-triangular simplex bases. *)

val factorize_iter :
  ?col_order:int array ->
  dim:int ->
  (int -> (int -> float -> unit) -> unit) ->
  (t, error) result
(** [factorize_iter ~dim iter_col] is {!factorize} with the matrix supplied
    as an iterator: [iter_col j f] must call [f row value] for every nonzero
    of column [j] (distinct rows, any order). This is the allocation-free
    entry point used by the simplex basis factorization: entries stream
    straight into the elimination's scratch vectors with no intermediate
    per-column array. *)

val dim : t -> int

val nnz : t -> int
(** Total stored entries of [L] and [U], a measure of fill-in. *)

val input_nnz : t -> int
(** Nonzeros of the matrix that was factorized. *)

val fill_in : t -> int
(** [nnz t - input_nnz t] clamped at zero: entries created by the
    elimination. Every factorization also records its dimension, nnz and
    fill-in in the {!Obs.Metrics} registry (series [lu.*]). *)

val solve : t -> float array -> unit
(** [solve f b] overwrites [b] with the solution [x] of [B x = b]
    (the simplex FTRAN). Allocates nothing: it works in a vector the
    factor owns, so one factor must not be solved with from two domains
    at once. *)

val solve_transpose : t -> float array -> unit
(** [solve_transpose f c] overwrites [c] with the solution [y] of
    [transpose B y = c] (the simplex BTRAN). Hypersparse: only the
    elimination steps that a nonzero of [c] reaches through the factors
    are computed, and every other entry of [y] is exactly zero. The
    result equals a full dot-product sweep in every nonzero bit.
    Allocates nothing; the same one-domain rule as {!solve} applies. *)

val min_abs_diag : t -> float
(** Smallest pivot magnitude; a stability diagnostic. *)

val permutations : t -> int array * int array
(** [permutations f] is [(p, q)]: elimination step [k] pivoted on row
    [p.(k)] of column [q.(k)], so [L U] factorizes the matrix whose
    [(k, l)] entry is [B(p.(k), q.(l))]. Fresh copies. With them, the
    sparsity of the factors — and so of every FTRAN and BTRAN — can be
    derived from [B]'s pattern alone by symbolic elimination. *)
