(** The Postcard optimization program (problem (6) of the paper) built on a
    time-expanded graph.

    Given the files released at the current epoch, the charged volume
    [X_ij(t-1)] accumulated so far on every link, and the residual link
    capacities over the lookahead horizon, this module builds the exactly
    linearized program

    {v
    min  sum_ij a_ij X_ij
    s.t. per-file flow conservation on the time-expanded subgraph
         (layers 0 .. T_k, storage arcs included)            -- (8), (10)
         sum_k M^k_ijn <= c_ijn                               -- (7)
         sum_k M^k_ijn <= X_ij    for every layer n           -- X = max
         X_ij >= X_ij(t-1)
         M >= 0                                               -- (9)
    v}

    and recovers a slot-accurate {!Plan} from the optimal basis. Variables
    are pruned by per-file reachability (a fraction of file [k] can only
    traverse arc [i^n -> j^(n+1)] if [i] is reachable from [s_k] within [n]
    hops and [d_k] is reachable from [j] within the remaining layers). *)

type t

type result =
  | Scheduled of {
      plan : Plan.t;
      objective : float;  (** [sum a_ij X_ij] at the optimum. *)
      charged : float array;  (** Optimal [X_ij(t)] per base link. *)
    }
  | Infeasible
      (** The files cannot all meet their deadlines under the residual
          capacities. *)
  | Solver_failure of string

val create :
  base:Netgraph.Graph.t ->
  charged:float array ->
  capacity:(link:int -> layer:int -> float) ->
  files:File.t list ->
  epoch:int ->
  ?tie_break:float ->
  unit ->
  t
(** Build the program. All [files] must be released at [epoch]; [charged]
    has one entry per base arc. [tie_break] (default [1e-4]) adds
    [tie_break * a_ij] to the objective per unit actually transmitted, so
    that among cost-equal optima the plan moving the least data is
    preferred; pass [0.] for the pure paper objective. Raises
    [Invalid_argument] on inconsistent inputs. *)

val model : t -> Lp.Model.t
(** The underlying LP (for inspection and tests). *)

val horizon : t -> int

val solve : t -> result

type solve_info = {
  iterations : int;  (** Simplex pivots spent ([0] unless [Scheduled]). *)
  stats : Lp.Status.stats;
      (** Full solver statistics of the underlying simplex run (phase
          split, refactorizations, solve path, ...); {!Lp.Status.no_stats}
          unless [Scheduled]. *)
}

val solve_with_info : t -> result * solve_info
(** Like {!solve}, additionally returning solver diagnostics.
    [solve] is [fun t -> fst (solve_with_info t)]. *)

val interpret : t -> Lp.Status.outcome -> result * solve_info
(** Read an outcome of solving {!model} back as a plan and diagnostics:
    what {!solve_with_info} does after its solve. Lets a caller solve the
    program with another solver, such as the two-phase referee
    {!Lp.Simplex.solve_two_phase}, and compare results. *)
