(** Sparse LU factorization of a square matrix with partial pivoting,
    in the left-looking (Gilbert-Peierls) style. This is the basis
    factorization engine of the revised simplex method in {!Lp}.

    The factorization computed is [P * B * Q = L * U] where [P] is the row
    permutation chosen by Markowitz-ordered threshold pivoting (among rows
    whose magnitude is within a fixed factor of the column maximum, the one
    with the fewest input-matrix nonzeros — a static fill-in proxy — wins,
    with deterministic tie-breaks), [Q] orders the columns by increasing
    nonzero count, [L] is unit lower triangular and [U] is upper
    triangular. *)

type t

type error =
  | Singular of int
      (** [Singular k]: no acceptable pivot was found while factorizing the
          [k]-th column of the ordered matrix. *)

val factorize :
  dim:int -> (int -> (int * float) array) -> (t, error) result
(** [factorize ~dim col] factorizes the [dim] x [dim] matrix whose [j]-th
    column is [col j], given as (row, value) pairs with distinct rows.
    Columns are eliminated in order of increasing nonzero count (ties by
    index), a cheap fill-reducing heuristic that suits near-triangular
    simplex bases. *)

val factorize_iter :
  dim:int -> (int -> (int -> float -> unit) -> unit) -> (t, error) result
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

val diagonal : float array -> t
(** [diagonal d] is the factor {!factorize} builds for the diagonal
    matrix with entries [d], built in O(n) with no elimination: identity
    permutations, no L or U entry, [d] as U's diagonal. Counted as a
    factorization in the [lu.*] metrics. Raises [Invalid_argument] when
    an entry is too small to pivot on. *)

val ftran : t -> float array -> int array -> int -> int
(** [ftran f b pattern nz] overwrites [b] with the solution [x] of
    [B x = b] (the simplex FTRAN). On entry [pattern.(0 .. nz - 1)]
    lists, each once, every row where [b] may be nonzero; [b] is zero
    elsewhere. On exit [pattern.(0 .. k - 1)] lists, each once, the
    columns where [x] is nonzero, and [k] is returned. [pattern] needs
    [dim f] entries.

    A right-hand side listing more than {!sparse_limit} entries is
    solved by the dense sweep over every row, which writes every entry
    of [b]. Otherwise only the steps that a nonzero reaches are computed,
    in the dense sweep's order, and every entry outside the returned
    pattern is left [+0.]: each nonzero is bit for bit the dense sweep's,
    which may leave [-0.] where this leaves [+0.]. Allocates nothing: it
    works in vectors the factor owns and leaves them clean, so one factor
    must not be solved with from two domains at once. *)

val btran : t -> float array -> int array -> int -> int
(** [btran f c pattern nz] overwrites [c] with the solution [y] of
    [transpose B y = c] (the simplex BTRAN), with patterns as in
    {!ftran}: [pattern.(0 .. nz - 1)] lists the columns where [c] may be
    nonzero on entry, [pattern.(0 .. k - 1)] the rows where [y] is
    nonzero on exit. Hypersparse as {!ftran}, and with [c] [+0.] outside
    its nonzeros the result equals the dense sweep's in every bit, signed
    zeros included. Allocates nothing; the same one-domain rule
    applies. *)

val sparse_limit : t -> int
(** The most steps a triangular phase of {!ftran} or {!btran} queues
    before it finishes as the dense sweep, and the most right-hand-side
    entries a solve starts sparse on: a thirty-second of the dimension,
    where the heap walk stops paying against the sweep on Postcard bases. *)

val min_abs_diag : t -> float
(** Smallest pivot magnitude; a stability diagnostic. *)

val permutations : t -> int array * int array
(** [permutations f] is [(p, q)]: elimination step [k] pivoted on row
    [p.(k)] of column [q.(k)], so [L U] factorizes the matrix whose
    [(k, l)] entry is [B(p.(k), q.(l))]. Fresh copies. With them, the
    sparsity of the factors — and so of every FTRAN and BTRAN — can be
    derived from [B]'s pattern alone by symbolic elimination. *)
