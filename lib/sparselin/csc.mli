(** Immutable sparse matrices in compressed sparse column form, plus a
    mutable triplet builder. Row/column indices are 0-based. *)

type t

type builder

val builder : nrows:int -> ncols:int -> builder
(** Fresh empty builder for an [nrows] x [ncols] matrix. *)

val add : builder -> row:int -> col:int -> float -> unit
(** Accumulate a coefficient; duplicate [(row, col)] entries are summed at
    [finalize] time. Raises [Invalid_argument] on out-of-range indices. *)

val finalize : builder -> t
(** Build the CSC matrix. Entries that sum to exactly [0.] are dropped.
    Within each column, rows are sorted ascending. The builder remains
    usable. *)

val of_sorted_columns :
  nrows:int ->
  ncols:int ->
  colptr:int array ->
  rowind:int array ->
  values:float array ->
  t
(** The matrix whose column [j] holds the entries [(rowind.(k),
    values.(k))] for [k] from [colptr.(j)] to [colptr.(j + 1) - 1]. The
    arrays are taken as they are, not copied, and values are stored as
    given. Checks in O(nnz + ncols) that [colptr] has [ncols + 1]
    entries, starts at 0, never decreases and ends at the common length
    of [rowind] and [values], and that each column's row indices lie in
    [0, nrows) and strictly ascend; raises [Invalid_argument]
    otherwise. *)

val nrows : t -> int
val ncols : t -> int
val nnz : t -> int

val column : t -> int -> (int * float) array
(** [column m j] materializes column [j] as (row, value) pairs sorted by
    row. Allocates; prefer [iter_col] in hot paths. *)

val iter_col : t -> int -> (int -> float -> unit) -> unit
(** [iter_col m j f] applies [f row value] to each structural nonzero of
    column [j], in ascending row order. *)

val fold_col : t -> int -> init:'a -> f:('a -> int -> float -> 'a) -> 'a

val dot_col : t -> int -> float array -> float
(** [dot_col m j v] is the dot product of column [j] with the dense vector
    [v] — a tight loop without closure dispatch, for solver hot paths. *)

val scatter_col : t -> int -> float array -> int array -> int
(** [scatter_col m j v pattern] adds column [j] into the dense vector
    [v] and lists its rows, ascending, in [pattern.(0 .. k - 1)], where
    [k], the column's nonzero count, is returned. *)

val transpose : t -> t
(** [transpose m] is the [ncols m] x [nrows m] transpose: column [i] of the
    result is row [i] of [m], with its entries in ascending column order
    and its values copied exactly. O(nnz + nrows + ncols). *)

val get : t -> int -> int -> float
(** [get m i j] is the [(i, j)] coefficient ([0.] when structurally zero).
    Logarithmic in the column size. *)

val matvec : t -> float array -> float array
(** [matvec m x] is the dense product [m * x]. *)

val matvec_add : t -> float array -> float array -> unit
(** [matvec_add m x y] adds [m * x] into the first [nrows m] entries of
    [y]. Columns are scattered in ascending order and those with
    [x.(j) = 0.] are skipped, so each [y.(i)] gains the products
    [m(i,j) * x.(j)] over the nonzero [x.(j)] in ascending [j]. Allocates
    nothing. Raises [Invalid_argument] unless [x] has [ncols m] entries
    and [y] at least [nrows m]. *)

val matvec_add_sparse :
  t -> float array -> int array -> int -> float array -> stamp:int array ->
  mark:int -> int array -> int
(** [matvec_add_sparse m x cols nx y ~stamp ~mark pattern] is
    [matvec_add m x y] for an [x] that is zero outside the columns
    [cols.(0 .. nx - 1)], in O(nonzeros of those columns), and lists the
    rows of [y] it reaches: the first time a row [i] gains a product,
    [stamp.(i)] is set to [mark] and [i] appended to [pattern]. Columns
    are scattered in the order listed, skipping [x.(j) = 0.]; with [cols]
    ascending each [y.(i)] gains the same products in the same order as
    under [matvec_add], so the sums are bit-identical. Returns the number
    of rows listed, each exactly once, in the order first reached; a row
    whose sum cancels to [0.] stays listed. A row is taken as already
    reached when [stamp.(i) = mark], so a caller that passes a new [mark]
    on every call never clears [stamp]. Allocates nothing. Raises
    [Invalid_argument] unless [x] has [ncols m] entries and [y], [stamp]
    and [pattern] at least [nrows m]. *)

val matvec_t : t -> float array -> float array
(** [matvec_t m y] is the dense product [transpose m * y]. *)

val to_dense : t -> float array array
(** Row-major dense copy; intended for tests and small matrices. *)

val of_dense : float array array -> t

val select_columns : t -> int array -> t
(** [select_columns m cols] is the matrix whose [k]-th column is column
    [cols.(k)] of [m]. *)
