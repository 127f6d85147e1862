(** Product-form-of-the-inverse updates for the revised simplex basis.

    After a pivot that replaces basis position [pos] with a column whose
    FTRAN image is [alpha], the new basis satisfies [B' = B * E] where [E]
    is the identity with column [pos] replaced by [alpha]. A file of such
    eta matrices composes with an {!Lu} factorization to represent the
    current basis inverse between refactorizations.

    Vectors travel with their nonzero patterns: an application reads and
    writes only the eta's own entries and lists the entries it makes
    nonzero. A pattern [pattern.(0 .. nz - 1)] lists each index at most
    once, and [stamp.(i) = mark] holds exactly for the listed [i]. *)

type t
(** One eta matrix. *)

val of_pattern : pos:int -> alpha:float array -> int array -> int -> t
(** [of_pattern ~pos ~alpha pattern nz] captures the nonzeros of [alpha]
    (the FTRAN'd entering column), which is zero outside
    [pattern.(0 .. nz - 1)]. With the pattern ascending, the eta holds
    its entries in ascending order, as a scan of every index would, so
    {!apply_btran} sums them in that order. Raises [Invalid_argument] if
    the diagonal element [alpha.(pos)] is too close to zero to pivot
    on. *)

val pos : t -> int

val diag : t -> float

val apply_ftran :
  t -> float array -> stamp:int array -> mark:int -> int array -> int -> int
(** [apply_ftran e x ~stamp ~mark pattern nz] overwrites [x] with
    [E^-1 x], where [x] is zero outside [pattern.(0 .. nz - 1)], lists
    (and stamps) every index the update reaches, and returns the new
    count. Each entry gets the arithmetic of a dense application, so
    every entry is bit for bit the same, signed zeros included, when the
    pattern covers the nonzeros of [x]. *)

val apply_btran :
  t -> float array -> stamp:int array -> mark:int -> int array -> int -> int
(** [apply_btran e y ~stamp ~mark pattern nz] overwrites [y] with
    [E^-T y], lists [pos] when it becomes nonzero, and returns the new
    count; bit for bit a dense application, as {!apply_ftran}. *)

val nnz : t -> int
