(** The flow-based baseline of Sec. II-B: no storage at intermediate
    datacenters — each file [k] becomes a static commodity flowing at its
    desired rate [r_k = F_k / T_k] for its whole tolerance window, possibly
    split over multiple multi-hop paths.

    The paper decouples the cost minimization into two sub-problems solved
    in sequence:

    + a {e maximum concurrent flow} program pushing the largest common
      fraction [lambda] of every demand through link volume that is
      {e already paid for} (headroom below [X_ij(t-1)] left by committed
      transfers), followed by a cost-weighted polish that picks the
      cheapest routing among maximum ones;
    + a {e minimum-cost multicommodity flow} program routing the remaining
      [(1 - lambda) r_k] on the capacities left by stage 1, paying the
      link price per unit of flow ([solve_two_stage], the paper's literal
      decomposition).

    Two strengthened variants serve as ablations:
    [solve_two_stage_excess] charges stage 2 only for volume exceeding the
    already-paid level (so leftover headroom keeps riding free), and
    [solve_joint] is the exact single-LP optimum of the flow model. Neither
    decomposition can beat [solve_joint].

    Both solvers work on a static {!instance} summarizing the network over
    the batch horizon (worst-case residuals, peak occupancies), which is
    how the flow model abstracts time away. *)

type instance = {
  base : Netgraph.Graph.t;
  cap : float array;
      (** Usable per-slot capacity per link: the minimum residual over the
          batch horizon. *)
  occ_peak : float array;
      (** Peak committed volume per link over the horizon. *)
  charged : float array;  (** [X_ij(t-1)]. *)
}

val instance_of_context : Scheduler.context -> horizon:int -> instance

type flows = {
  lambda : float;  (** Fraction of every demand served for free (stage 1). *)
  rates : float array array;  (** [rates.(k).(l)]: rate of file [k] on link [l]. *)
  estimated_cost : float;
      (** [sum a_ij max(charged, occ_peak + total rate)] — the static
          model's estimate of the resulting cost per interval. *)
}

val solve_two_stage : instance -> files:File.t list -> flows option
(** The paper's literal decomposition. [None] when the residual network
    cannot carry every demand. *)

val solve_two_stage_excess : instance -> files:File.t list -> flows option
(** Two-stage with excess-over-charge costing in stage 2 (ablation). *)

val solve_joint : instance -> files:File.t list -> flows option
(** Single-LP exact flow-based optimum (ablation). *)

val plan_of_flows : files:File.t list -> epoch:int -> flows -> Plan.t
(** Expand rates into per-slot transmissions over each file's window
    (fluid semantics: multi-hop rates occupy all their links during the
    same slots). *)

val make :
  ?variant:[ `Two_stage | `Two_stage_excess | `Joint ] -> unit -> Scheduler.t
(** Scheduler wrapper with highest-rate-first admission control; default
    variant [`Two_stage] (the paper's). Scheduler names: "flow-based",
    "flow-excess", "flow-joint". *)
