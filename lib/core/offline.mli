(** The clairvoyant (offline) benchmark: one program over the whole
    charging period with every arrival known in advance.

    Postcard is an {e online} policy — each epoch optimizes only the files
    just released, taking earlier commitments as given (Sec. III motivates
    this with the unpredictability of inter-datacenter traffic). The
    offline program drops that restriction: all files, with their true
    release slots, are scheduled jointly on one time-expanded graph
    spanning the whole period. Its optimum lower-bounds every online
    schedule's cost, so the gap to the online Postcard run measures the
    {e price of myopia} — how much the online assumption itself costs,
    independent of the store-and-forward machinery. *)

type result = {
  plan : Plan.t;
  objective : float;  (** [sum a_ij X_ij] at the clairvoyant optimum. *)
  charged : float array;
}

val solve :
  base:Netgraph.Graph.t ->
  files:File.t list ->
  ?tie_break:float ->
  unit ->
  (result, string) Result.t
(** [solve ~base ~files ()] schedules every file jointly, link capacities
    taken from the base graph (constant per slot). Files carry their own
    release slots; the horizon is the latest completion deadline. [Error]
    on infeasibility or solver failure. *)

val price_of_myopia :
  base:Netgraph.Graph.t ->
  online_cost:float ->
  offline:result ->
  float
(** [online_cost /. offline.objective]: 1.0 means the online policy lost
    nothing to clairvoyance. *)
