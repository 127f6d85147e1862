(** Shared machinery for linear programs on time-expanded graphs.

    {!Formulate} (the Postcard program), {!Bulk} (problem (11)) and
    {!Budget} (the budget-constrained variant) all need the same skeleton:
    per-file fraction variables [M^k_ijn] on the file's reachable
    time-expanded subgraph, per-file flow conservation, aggregate capacity
    rows, optional charged-volume coupling, and plan extraction. This
    module provides that skeleton; each formulation adds its own objective
    and extra rows. *)

type t

val deliverable : base:Netgraph.Graph.t -> File.t -> bool
(** Can the file reach its destination at all — is [dst] within
    [deadline] hops of [src]? A file failing this has {e no} usable
    time-expanded subgraph: [build] under [supply `Full] would give it no
    variables and no conservation rows, silently treating "cannot route"
    as "trivially satisfied". Callers posing full-supply programs must
    reject such files up front instead of formulating them. *)

val build :
  model:Lp.Model.t ->
  base:Netgraph.Graph.t ->
  capacity:(link:int -> layer:int -> float) ->
  files:File.t list ->
  epoch:int ->
  flow_obj:(cost:float -> float) ->
  supply:[ `Full | `Elastic of Lp.Model.var array ] ->
  t
(** Create the flow variables, conservation rows and capacity rows inside
    [model].

    - Variables are pruned by per-file reachability: a fraction of file [k]
      can only traverse [i^n -> j^(n+1)] when [i] is reachable from [s_k]
      within [n] hops and [d_k] is reachable from [j] within the remaining
      layers.
    - [flow_obj ~cost] gives the objective coefficient of a transmission
      variable on a link with per-unit price [cost] (storage variables cost
      nothing); use it for tie-breaking or volume rewards.
    - [supply `Full] injects exactly [F_k] at the source (Postcard);
      [supply (`Elastic v)] couples the injected amount to the variable
      [v.(k)] (bulk/budget maximization), which the caller creates with
      bounds [[0, F_k]].

    Files may be released at or after [epoch]: each file's variables live
    in its own window of layers [[release - epoch, release - epoch + T_k]],
    which is what lets {!Offline} pose the clairvoyant whole-period program
    on the same skeleton the online scheduler uses per epoch. Raises
    [Invalid_argument] on inconsistent inputs. *)

val texp : t -> Timexp.Time_expanded.t

val horizon : t -> int

val add_charge_coupling :
  model:Lp.Model.t ->
  t ->
  charged:float array ->
  x_obj:(cost:float -> float) ->
  Lp.Model.var array
(** Create one charged-volume variable per base link, lower-bounded by the
    already-charged volume, with objective coefficient [x_obj ~cost], and
    add the dominance rows [sum_k M^k_ijn <= X_ij] for every layer. Returns
    the X variables indexed by base arc id. *)

val extract_plan : t -> primal:float array -> Plan.t
(** Read the optimal fractions back into a slot-accurate plan (absolute
    slots). *)

val extract_supplies :
  t -> primal:float array -> Lp.Model.var array -> float array
(** Values of elastic supply variables. *)
