(** Bulk "background traffic" maximization — problem (11) of Sec. VI, the
    NetStitcher-style scenario generalized to multiple files.

    Given candidate bulk files (backups, data migration) and the network
    state, maximize the total volume delivered within each file's deadline,
    using only capacity that is free of charge: the residual link capacity
    capped, when [paid_only] is set, by the headroom below the
    already-charged volume [X_ij(t-1)] (traffic below the charge is free
    under a percentile scheme).

    Note on fidelity: the paper's literal objective (11) sums [M^k_ijn]
    over {e all} arcs, which counts a fraction once per hop travelled and
    per slot stored. We maximize the {e delivered} volume (the elastic
    supply actually reaching each destination), which is the quantity the
    text describes ("as many bulk files as possible"); DESIGN.md records
    the substitution. *)

type result = {
  plan : Plan.t;
  delivered : float array;  (** Volume delivered per file, in input order. *)
  total_delivered : float;
}

val solve :
  base:Netgraph.Graph.t ->
  charged:float array ->
  capacity:(link:int -> layer:int -> float) ->
  occupied:(link:int -> layer:int -> float) ->
  files:File.t list ->
  epoch:int ->
  paid_only:bool ->
  unit ->
  (result, string) Result.t
