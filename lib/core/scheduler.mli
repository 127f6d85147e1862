(** Capability-style interface implemented by every routing/scheduling
    strategy.

    At each slot the simulation engine hands the scheduler the files just
    released, together with the network state: the charged volume
    [X_ij(t-1)] per link and a {!Linkview.t} giving the residual capacity
    of every link for every future slot (accounting for transfers
    committed at earlier epochs, with fault caps applied). The scheduler
    returns a {!Plan} for the files it accepts; files it cannot serve
    within their deadlines are rejected (the paper assumes this never
    happens at its operating points; the simulator tracks it for
    robustness).

    Every scheduler supports batch {!schedule}. A scheduler may
    additionally expose the incremental {!admit} capability — decide one
    file, right now, without an LP — which is what the serving daemon
    calls per request and what the {!tiered} combinator builds on. The
    contract linking the two: on a singleton batch, [admit] and
    [schedule] must agree (checked by {!register} with a probe
    instance). *)

type context = {
  base : Netgraph.Graph.t;
  epoch : int;  (** Current slot [t]. *)
  period : int;
      (** Total slots in the charging period ([I] in the paper); lets
          percentile-aware strategies budget their free burst slots. *)
  charged : float array;  (** [X_ij(t-1)] per base arc. *)
  links : Linkview.t;
      (** Residual/occupied/down per (link, absolute slot) — the one
          audited read path for network capacity (see {!Linkview}). *)
}

type outcome = {
  plan : Plan.t;
  accepted : File.t list;
  rejected : File.t list;
}

type decision =
  | Admitted of Plan.t
      (** The plan for this one file; the caller commits it (the engine
          books it into its ledger) before the next admission that
          should see it. *)
  | Denied

type t
(** A scheduler instance. Construct with {!create} or {!stateless};
    interrogate with the accessors below. The representation is
    deliberately abstract: the capability set can grow without breaking
    out-of-tree strategies. *)

val create :
  name:string ->
  fluid:bool ->
  ?admit:(context -> File.t -> decision) ->
  ?reset:(unit -> unit) ->
  (context -> File.t list -> outcome) ->
  t
(** [create ~name ~fluid schedule] builds a scheduler from its mandatory
    batch capability. [fluid] marks plans that follow the fluid flow
    model (capacity-only validation) rather than slot-accurate
    store-and-forward. [admit], when given, is the incremental fast path;
    it must agree with [schedule] on singleton batches. [reset] (default
    no-op) clears cross-epoch state, such as a cache a strategy keeps
    between epochs; the engine calls it once at the start of every run. *)

val stateless :
  name:string -> fluid:bool -> (context -> File.t list -> outcome) -> t
(** Thin constructor for a scheduler with no cross-epoch state and no
    incremental capability: [create] with a no-op [reset] and no
    [admit]. *)

val name : t -> string
val fluid : t -> bool

val schedule : t -> context -> File.t list -> outcome
(** The mandatory batch capability. *)

val admit : t -> (context -> File.t -> decision) option
(** The optional incremental capability; [None] for batch-only
    strategies. *)

val reset : t -> unit
(** Clear any cross-epoch state, so a scheduler value can be reused
    across independent simulations. *)

val tiered :
  ?name:string -> ?high_value:(File.t -> bool) -> fast:t -> fallback:t ->
  unit -> t
(** [tiered ~fast ~fallback ()] is the two-tier combinator: each offered
    file first goes to [fast]'s incremental {!admit}; files [fast]
    denies — plus any satisfying [high_value] (default: none) — are
    batched to [fallback]'s {!schedule}. Within one batch the fast tier's
    bookings are stacked on a {!Linkview.overlay}, so the fallback LP
    prices the capacity the fast tier already claimed. The combined
    scheduler exposes {!admit} itself (fast first, then a singleton
    fallback batch), so a serving daemon gets per-request decisions end
    to end. [name] defaults to ["fast+fallback"]; [reset] resets both tiers;
    [fluid] is the OR of the tiers' flags (a fluid tier degrades
    validation for the combined plan). Raises [Invalid_argument] when
    [fast] lacks the {!admit} capability.

    With tracing on, every non-empty batch emits a ["tier.decision"]
    point (fast/fallback admission split); the [tier.fast_admits],
    [tier.fallback_files] and [tier.fallback_admits] metrics accumulate
    the same split. *)

(** {1 Registry}

    Every strategy registers a {e factory}, not a value: [make] returns a
    fresh scheduler on every call, so callers that run many simulations
    concurrently (the domain-parallel experiment runner) can give each
    cell its own instance — scheduler values may carry mutable
    cross-epoch state and must never be shared between domains. The built-ins (postcard, flow-based and its two ablation
    variants, direct, greedy-snf, burst-95, ledger, postcard-tiered)
    self-register when the library is linked. *)

val register :
  name:string -> ?aliases:string list -> ?doc:string -> (unit -> t) -> unit
(** [register ~name factory] adds a strategy under [name] (plus optional
    lookup [aliases], e.g. "flow" for "flow-based", and a one-line [doc]
    shown by [--list-schedulers]). The factory is probed once: it must
    construct without raising, and if the instance exposes {!admit}, the
    admit and schedule capabilities must agree on a singleton probe batch
    (same admission verdict, same plan). Raises [Invalid_argument] when
    any of the names is already taken, when the factory raises at
    construction, or when the probe disagrees. *)

val registered : unit -> string list
(** Canonical (alias-free) names of every registered strategy, sorted. *)

type info = {
  info_name : string;  (** Canonical name. *)
  aliases : string list;
  doc : string option;
}

val infos : unit -> info list
(** Every registered strategy with its aliases and doc line, sorted by
    canonical name. *)

val pp_registry : Format.formatter -> unit -> unit
(** Human-readable listing of {!infos} — one strategy per line with its
    aliases and doc; what both binaries print for [--list-schedulers]. *)

val factory : string -> (unit -> t) option
(** Look up a factory by canonical name or alias. *)

val make : string -> t option
(** [make name] instantiates a {e fresh} scheduler, or [None] for an
    unknown name. *)

val make_exn : string -> t
(** Like {!make} but raises [Invalid_argument] naming the unknown
    scheduler and listing the available ones. *)

val make_all : unit -> (t list, string list) result
(** One fresh instance of every registered strategy, in {!registered}
    order — or, when any factory raises at instantiation time (a factory
    can pass its registration probe and still fail later, e.g. one that
    is stateful), [Error] with one ["name: exception"] line per broken
    factory. A factory failure is a registry inconsistency:
    [--list-schedulers] exits non-zero on it. *)

val observe : t -> t
(** Wrap a scheduler so every [schedule] call feeds the {!Obs} layer: it
    bumps the [sched.*] metrics (decisions, files offered/accepted/rejected,
    decision wall time) and, when a trace sink is installed, emits one
    ["sched.decision"] point per epoch carrying the scheduler name, epoch,
    admission counts, the rejected file ids and the decision wall time.
    The {!admit} and [reset] capabilities pass through unchanged. Adds no
    overhead beyond one flag check per call while both the metrics
    registry and tracing are off. *)

val capacity_at_epoch : context -> link:int -> layer:int -> float
(** Residual capacity in relative-layer terms:
    [Linkview.residual links ~link ~slot:(epoch + layer)]. *)

val admit_greedy :
  files:File.t list ->
  try_solve:(File.t list -> 'a option) ->
  ('a * File.t list * File.t list) option
(** Admission-control helper: attempt [try_solve] on the full file list;
    while it returns [None], drop the file with the highest desired rate
    (the hardest to place) and retry. Returns
    [(solution, accepted, rejected)], or [None] when even the empty list
    fails (which indicates a solver problem, since an empty instance is
    trivially feasible). *)
