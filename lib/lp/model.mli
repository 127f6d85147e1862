(** Mutable linear-program builder.

    A model is a set of variables with bounds, an objective, and linear
    constraints. Variables default to [0 <= x < infinity]. The builder is
    the single entry point for every formulation in this repository
    (Postcard's time-expanded program, the flow-based baseline, the Sec. VI
    extensions, and the random programs of the property tests). *)

type t

type var = private int
(** Variable handle; also the variable's column index in builder order. *)

type row = private int
(** Constraint handle; also the row index in builder order. *)

type sense = Le | Ge | Eq

type objective_sense = Minimize | Maximize

val create : ?name:string -> objective_sense -> t

val name : t -> string

val objective_sense : t -> objective_sense

val add_var :
  t -> ?name:string -> ?lb:float -> ?ub:float -> ?obj:float -> unit -> var
(** Add a variable. Defaults: [lb = 0.], [ub = infinity], [obj = 0.].
    Use [lb:neg_infinity] for a free variable. Raises [Invalid_argument]
    if [lb > ub] or either bound is NaN. When [name] is omitted no name is
    stored; {!var_name} synthesizes ["x<index>"] on demand (large
    formulations should omit names — an eager name per column is pure
    allocation overhead). *)

val add_vars : t -> int -> ?lb:float -> ?ub:float -> ?obj:float -> unit -> var array
(** [add_vars t k] adds [k] variables sharing the same bounds/objective. *)

val add_obj : t -> var -> float -> unit
(** Accumulate into a variable's objective coefficient. *)

val add_constraint : t -> ?name:string -> (var * float) list -> sense -> float -> row
(** [add_constraint t terms sense rhs] adds [sum terms (sense) rhs].
    Duplicate variables in [terms] are summed. As with {!add_var}, an
    omitted [name] stores nothing and {!row_name} synthesizes
    ["r<index>"]. *)

val num_vars : t -> int
val num_rows : t -> int

val var_of_index : t -> int -> var
(** Recover a handle from a raw column index (bounds-checked). *)

val row_of_index : t -> int -> row
(** Recover a handle from a raw row index (bounds-checked). *)

val var_name : t -> var -> string
val row_name : t -> row -> string
val lower_bound : t -> var -> float
val upper_bound : t -> var -> float
val obj_coeff : t -> var -> float

val row_terms : t -> row -> (var * float) list

val iter_rows : t -> (row -> (var * float) list -> sense -> float -> unit) -> unit

val objective_value : t -> float array -> float
(** [objective_value t x] evaluates the objective at a full assignment
    (indexed by variable). *)

val constraint_violation : t -> float array -> float
(** [constraint_violation t x] is the largest absolute violation of any
    constraint or bound at [x]; [0.] means feasible. *)
