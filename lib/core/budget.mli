(** Budget-constrained transfer maximization (second extension of Sec. VI).

    During peak hours a provider may have more transfer requests than its
    traffic budget supports. Maximize the total volume delivered within
    deadlines subject to the charged cost staying within budget:

    {v
    max  sum_k v_k
    s.t. time-expanded flow feasibility for each file (supply v_k <= F_k)
         sum_ij a_ij X_ij <= B
         X_ij >= X_ij(t-1),  X_ij >= sum_k M^k_ijn  for every layer
    v}

    (We keep the per-interval normalization of cost, consistent with the
    rest of the repository; multiply budget by the number of remaining
    intervals to use the paper's total-cost convention.) *)

type result = {
  plan : Plan.t;
  delivered : float array;  (** Volume delivered per file, in input order. *)
  total_delivered : float;
  cost : float;  (** [sum a_ij X_ij] of the chosen schedule. *)
  charged : float array;  (** Resulting [X_ij(t)]. *)
}

val solve :
  base:Netgraph.Graph.t ->
  charged:float array ->
  capacity:(link:int -> layer:int -> float) ->
  files:File.t list ->
  epoch:int ->
  budget:float ->
  unit ->
  (result, string) Result.t
(** [Error] when the budget is below the cost of the already-charged
    volumes (the committed baseline makes the program infeasible) or on a
    solver failure. *)
