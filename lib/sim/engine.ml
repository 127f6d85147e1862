module Graph = Netgraph.Graph
module Scheduler = Postcard.Scheduler
module Linkview = Postcard.Linkview
module File = Postcard.File

let log_src = Logs.Src.create "sim.engine" ~doc:"Simulation engine"

module Log = (val Logs.src_log log_src : Logs.LOG)

let eps = 1e-9

type config = {
  base : Graph.t;
  scheduler : Scheduler.t;
  workload : Workload.t;
  slots : int;
  faults : Faults.scenario;
}

let make ~base ~scheduler ~workload ~slots ?(faults = Faults.empty) () =
  { base; scheduler; workload; slots; faults }

type outcome = {
  cost_series : float array;
  final_charged : float array;
  total_files : int;
  rejected_files : int;
  rejected_ids : File.id list;
  delivered_volume : float;
  offered_volume : float;
  rejected_volume : float;
  stranded_volume : float;
  recovered_volume : float;
  lost_volume : float;
  lost_files : int;
  replanned_files : int;
  sched_ms_total : float;
  link_volumes : float array array;
}

type slot_result = {
  slot : int;
  accepted : File.t list;
  rejected : File.t list;
  recovered : File.t list;
  lost : File.t list;
  stranded : File.t list;
  completed : File.id list;
  cost : float;
}

type status = {
  next_slot : int;
  slots_total : int;
  files_offered : int;
  files_rejected : int;
  files_lost : int;
  files_in_flight : int;
  bytes_offered : float;
  bytes_delivered : float;
  cost_per_interval : float;
}

exception Invalid_plan of string

(* Engine-level metric series; O(1) no-ops while the registry is off. *)
let m_runs = Obs.Metrics.counter "sim.runs"
let m_slots = Obs.Metrics.counter "sim.slots"
let m_arrivals = Obs.Metrics.counter "sim.arrivals"
let m_rejected = Obs.Metrics.counter "sim.rejected"
let m_replans = Obs.Metrics.counter "sched.replan"
let m_stranded = Obs.Metrics.counter "fault.stranded_files"
let m_lost = Obs.Metrics.counter "fault.lost_files"
let h_slot_ms = Obs.Metrics.histogram "sim.slot_ms"

(* One admission of a file: the file as offered (a re-offer carries the
   remaining size and shortened deadline) plus the transmissions its plan
   booked. Tracked only under an active fault scenario, newest first, so
   stranding can void the remaining plan and evict youngest-first. *)
type flight = {
  ffile : File.t;
  ftxs : (int * int * float) list;  (* (link, slot, volume) *)
}

(* Incremental engine state. [run] folds [step] over the workload and is
   bit-identical (outcome, traces, metrics) to the historical monolithic
   loop; a serving daemon instead feeds [step] arrivals as they are pushed
   by clients, one call per slot of the wall-clock. *)
type t = {
  cfg : config;
  fstate : Faults.t;
  faulty : bool;
  tracing : bool;
  run_span : Obs.Trace.span;
  ledger : Ledger.t;
  cost_series : float array;
  mutable next : int;  (* next slot to execute *)
  mutable drained : bool;
  mutable total_files : int;
  mutable rejected_files : int;
  mutable rejected_ids : File.id list;  (* newest first *)
  mutable delivered_volume : float;
  mutable offered_volume : float;
  mutable rejected_volume : float;
  mutable stranded_volume : float;
  mutable recovered_volume : float;
  mutable lost_volume : float;
  mutable lost_files : int;
  mutable replanned_files : int;
  (* In-flight admissions, newest first; only maintained when faulty. *)
  mutable flights : flight list;
  (* Cost and charged volumes as of the end of the last executed slot —
     the baseline for the next slot span's deltas. Offers commit volume
     between steps; reading the ledger at step start would attribute that
     volume to no slot and break the trace's telescoping sums. Maintained
     only while tracing. *)
  mutable last_cost : float;
  mutable last_charged : float array;
  (* Files admitted via [offer] since the last step, folded into the next
     slot span's admission counters. *)
  mutable pend_arrivals : int;
  mutable pend_admitted : int;
  mutable pend_rejected : int;
  mutable pend_admitted_bytes : float;
  (* Wall-clock spent inside the scheduler (batch solves and incremental
     admissions), for the cost-vs-latency frontier. *)
  mutable sched_ms_total : float;
  (* Bytes parked on storage per slot, accumulated from the holdovers of
     every committed plan (a holdover booked now may cover a later slot). *)
  stored_by_slot : (int, float) Hashtbl.t;
  (* Completion tracking for the serving path: last booked transmission
     slot per admitted file (removed on stranding and on completion), plus
     a slot-keyed index of candidates. Entries in [due_by_slot] may be
     stale after a strand; [finish_by_id] is authoritative. *)
  finish_by_id : (File.id, int) Hashtbl.t;
  due_by_slot : (int, File.id list) Hashtbl.t;
}

let init cfg =
  let { base; scheduler; workload = _; slots; faults } = cfg in
  if slots < 1 then invalid_arg "Engine.init: need at least one slot";
  let fstate =
    match Faults.compile faults ~base with
    | Ok t -> t
    | Error msg -> invalid_arg (Printf.sprintf "Engine.init: %s" msg)
  in
  let faulty = Faults.active fstate in
  (* Scheduler values may be reused across runs (Experiment does); drop
     any cross-epoch state they keep. *)
  Scheduler.reset scheduler;
  let tracing = Obs.Trace.enabled () in
  let run_span =
    if tracing then
      Obs.Trace.begin_span "sim.run"
        [ ("scheduler", Obs.Trace.Str (Scheduler.name scheduler));
          ("slots", Obs.Trace.Int slots);
          ("faults", Obs.Trace.Str (Faults.to_string faults)) ]
    else Obs.Trace.null_span
  in
  Obs.Metrics.incr m_runs;
  { cfg;
    fstate;
    faulty;
    tracing;
    run_span;
    ledger = Ledger.create ~base;
    cost_series = Array.make slots 0.;
    next = 0;
    drained = false;
    total_files = 0;
    rejected_files = 0;
    rejected_ids = [];
    delivered_volume = 0.;
    offered_volume = 0.;
    rejected_volume = 0.;
    stranded_volume = 0.;
    recovered_volume = 0.;
    lost_volume = 0.;
    lost_files = 0;
    replanned_files = 0;
    flights = [];
    last_cost = 0.;
    last_charged = Array.make (Graph.num_arcs base) 0.;
    pend_arrivals = 0;
    pend_admitted = 0;
    pend_rejected = 0;
    pend_admitted_bytes = 0.;
    sched_ms_total = 0.;
    stored_by_slot = Hashtbl.create 16;
    finish_by_id = Hashtbl.create 64;
    due_by_slot = Hashtbl.create 16 }

let next_slot t = t.next

let horizon t = t.cfg.slots

let finished t = t.next >= t.cfg.slots

(* Record the completion slot of a freshly admitted file: the last slot of
   its committed transmissions (files always carry volume, so an accepted
   file has at least one transmission; an empty plan completes in place). *)
let track_completion t ~slot ~(plan : Postcard.Plan.t) accepted =
  if accepted <> [] then begin
    let finish = Hashtbl.create 16 in
    List.iter
      (fun tx ->
        let cur =
          Option.value ~default:min_int
            (Hashtbl.find_opt finish tx.Postcard.Plan.file)
        in
        if tx.Postcard.Plan.slot > cur then
          Hashtbl.replace finish tx.Postcard.Plan.file tx.Postcard.Plan.slot)
      plan.Postcard.Plan.transmissions;
    List.iter
      (fun (f : File.t) ->
        let fs =
          match Hashtbl.find_opt finish f.File.id with
          | Some s -> s
          | None -> slot
        in
        Hashtbl.replace t.finish_by_id f.File.id fs;
        let cur =
          Option.value ~default:[] (Hashtbl.find_opt t.due_by_slot fs)
        in
        Hashtbl.replace t.due_by_slot fs (f.File.id :: cur))
      accepted
  end

(* Network state as the scheduler sees it at [slot]: ledger residuals with
   fault caps applied (as known at [slot]), behind one {!Linkview}. Also
   returns the raw residual function for plan validation. *)
let context_at t ~slot =
  let base = t.cfg.base in
  let ledger = t.ledger in
  let eff_residual =
    if not t.faulty then fun ~link ~slot -> Ledger.residual ledger ~link ~slot
    else fun ~link ~slot:s ->
      let f = Faults.factor t.fstate ~asof:slot ~link ~slot:s in
      if f >= 1. then Ledger.residual ledger ~link ~slot:s
      else
        Float.max 0.
          (((Graph.arc base link).Graph.capacity *. f)
          -. Ledger.occupied ledger ~link ~slot:s)
  in
  let down =
    if not t.faulty then fun ~link:_ ~slot:_ -> false
    else fun ~link ~slot:s -> Faults.down t.fstate ~asof:slot ~link ~slot:s
  in
  let links =
    Linkview.make ~residual:eff_residual
      ~occupied:(fun ~link ~slot -> Ledger.occupied ledger ~link ~slot)
      ~down
  in
  ( { Scheduler.base;
      epoch = slot;
      period = t.cfg.slots;
      charged = Ledger.charged_all ledger;
      links },
    eff_residual )

let step t ~arrivals =
  if t.drained then invalid_arg "Engine.step: engine already drained";
  if t.next >= t.cfg.slots then
    invalid_arg "Engine.step: all slots already executed";
  let { base; scheduler; workload = _; slots = _; faults = _ } = t.cfg in
  let fstate = t.fstate and faulty = t.faulty and tracing = t.tracing in
  let ledger = t.ledger in
  let slot = t.next in
  let slot_span =
    if tracing then
      Obs.Trace.begin_span "sim.slot" [ ("slot", Obs.Trace.Int slot) ]
    else Obs.Trace.null_span
  in
  (* --- Fault reveal: strand committed volume on newly dead cells. --- *)
  let reoffers = ref [] in
  let slot_stranded = ref 0. and slot_lost = ref 0. in
  let stranded_now = ref [] and lost_now = ref [] in
  if faulty then begin
    let strand_sp = Obs.Span.begin_ "sim.strand" in
    List.iter
      (fun ev ->
        Log.info (fun m ->
            m "slot %d: fault revealed: %a" slot Faults.pp_event ev);
        if tracing then
          Obs.Trace.point "fault.reveal"
            (("slot", Obs.Trace.Int slot) :: Faults.event_fields ev))
      (Faults.revealed_at fstate ~slot);
    let strand fl =
      t.flights <- List.filter (fun x -> x != fl) t.flights;
      let voided = ref 0. in
      List.iter
        (fun (l, s, v) ->
          if s >= slot && v > 0. then begin
            Ledger.void ledger ~link:l ~slot:s v;
            voided := !voided +. v
          end)
        fl.ftxs;
      (* Bytes that already reached the destination stay delivered; bytes
         in flight (at the source or parked at an intermediate hop) are
         retransmitted from the source. *)
      let delivered_past =
        List.fold_left
          (fun acc (l, s, v) ->
            if s >= slot then acc
            else
              let a = Graph.arc base l in
              if a.Graph.dst = fl.ffile.File.dst then acc +. v
              else if a.Graph.src = fl.ffile.File.dst then acc -. v
              else acc)
          0. fl.ftxs
      in
      let remaining =
        Float.max 0. (fl.ffile.File.size -. Float.max 0. delivered_past)
      in
      if remaining > eps then begin
        t.delivered_volume <- t.delivered_volume -. remaining;
        t.stranded_volume <- t.stranded_volume +. remaining;
        slot_stranded := !slot_stranded +. remaining;
        stranded_now := fl.ffile :: !stranded_now;
        Hashtbl.remove t.finish_by_id fl.ffile.File.id;
        Obs.Metrics.incr m_stranded;
        if tracing then
          Obs.Trace.point "fault.strand"
            [ ("slot", Obs.Trace.Int slot);
              ("file", Obs.Trace.Int fl.ffile.File.id);
              ("stranded_bytes", Obs.Trace.Float remaining);
              ("voided_bytes", Obs.Trace.Float !voided) ];
        let deadline_left =
          fl.ffile.File.release + fl.ffile.File.deadline - slot
        in
        if deadline_left >= 1 then
          reoffers :=
            File.make ~id:fl.ffile.File.id ~src:fl.ffile.File.src
              ~dst:fl.ffile.File.dst ~size:remaining ~deadline:deadline_left
              ~release:slot
            :: !reoffers
        else begin
          (* Defensive: committed transmissions always lie inside the
             file's window, so a stranded file retains at least the
             current slot. *)
          t.lost_volume <- t.lost_volume +. remaining;
          slot_lost := !slot_lost +. remaining;
          t.lost_files <- t.lost_files + 1;
          lost_now := fl.ffile :: !lost_now;
          Obs.Metrics.incr m_lost;
          if tracing then
            Obs.Trace.point "fault.lost"
              [ ("slot", Obs.Trace.Int slot);
                ("file", Obs.Trace.Int fl.ffile.File.id);
                ("lost_bytes", Obs.Trace.Float remaining);
                ("reason", Obs.Trace.Str "deadline") ]
        end
      end
    in
    List.iter
      (fun (link, s, f) ->
        let cap = (Graph.arc base link).Graph.capacity *. f in
        let overfull () = Ledger.occupied ledger ~link ~slot:s > cap +. eps in
        let victim () =
          List.find_opt
            (fun fl ->
              List.exists
                (fun (l, s', v) -> l = link && s' = s && v > eps)
                fl.ftxs)
            t.flights
        in
        let continue_ = ref (overfull ()) in
        while !continue_ do
          match victim () with
          | Some fl ->
              strand fl;
              continue_ := overfull ()
          | None ->
              Log.warn (fun m ->
                  m
                    "slot %d: link %d slot %d: %g booked above the fault \
                     cap %g is not attributable to any flight"
                    slot link s
                    (Ledger.occupied ledger ~link ~slot:s)
                    cap);
              continue_ := false
        done)
      (Faults.cells_revealed_at fstate ~slot);
    Obs.Span.end_ strand_sp
  end;
  let reoffers = List.rev !reoffers in
  let replan_count = List.length reoffers in
  if replan_count > 0 then Obs.Metrics.add m_replans replan_count;
  t.total_files <- t.total_files + List.length arrivals;
  List.iter
    (fun (f : File.t) -> t.offered_volume <- t.offered_volume +. f.File.size)
    arrivals;
  let files = reoffers @ arrivals in
  let is_replan =
    if replan_count = 0 then fun _ -> false
    else begin
      let ids = Hashtbl.create replan_count in
      List.iter (fun (f : File.t) -> Hashtbl.replace ids f.File.id ()) reoffers;
      fun (f : File.t) -> Hashtbl.mem ids f.File.id
    end
  in
  let ctx, eff_residual = context_at t ~slot in
  (* Wall clock, not [Obs.Trace.now_ms]: the trace clock reads 0 with no
     sink installed, and [sched_ms_total] must feed the cost-vs-latency
     frontier in untraced runs too. *)
  let t0 = Unix.gettimeofday () in
  let { Scheduler.plan; accepted; rejected } =
    Scheduler.schedule scheduler ctx files
  in
  let sched_ms = (Unix.gettimeofday () -. t0) *. 1000. in
  t.sched_ms_total <- t.sched_ms_total +. sched_ms;
  if rejected <> [] then
    Log.info (fun m ->
        m "slot %d: %s rejected %d of %d files" slot
          (Scheduler.name scheduler) (List.length rejected)
          (List.length files));
  let commit_sp = Obs.Span.begin_ "sim.commit" in
  let check =
    if Scheduler.fluid scheduler then
      Postcard.Plan.validate_capacity ~base ~capacity:eff_residual plan
    else Postcard.Plan.validate ~base ~files:accepted ~capacity:eff_residual plan
  in
  (match check with
   | Ok () -> ()
   | Error msg ->
       raise
         (Invalid_plan
            (Printf.sprintf "slot %d, scheduler %s: %s" slot
               (Scheduler.name scheduler) msg)));
  Ledger.commit_plan ledger plan;
  Obs.Span.end_ commit_sp;
  (* Admission accounting: an accepted re-offer is recovered volume; a
     rejected re-offer is lost (its original admission was already
     charged and partially flowed), while a rejected fresh arrival is an
     ordinary rejection. *)
  let admit_sp = Obs.Span.begin_ "sim.admit" in
  let fresh_accepted = ref [] and recovered_now = ref [] in
  List.iter
    (fun (f : File.t) ->
      t.delivered_volume <- t.delivered_volume +. f.File.size;
      if is_replan f then begin
        t.recovered_volume <- t.recovered_volume +. f.File.size;
        t.replanned_files <- t.replanned_files + 1;
        recovered_now := f :: !recovered_now
      end
      else fresh_accepted := f :: !fresh_accepted)
    accepted;
  let fresh_rejected = ref [] in
  List.iter
    (fun (f : File.t) ->
      if is_replan f then begin
        t.lost_volume <- t.lost_volume +. f.File.size;
        slot_lost := !slot_lost +. f.File.size;
        t.lost_files <- t.lost_files + 1;
        lost_now := f :: !lost_now;
        Obs.Metrics.incr m_lost;
        if tracing then
          Obs.Trace.point "fault.lost"
            [ ("slot", Obs.Trace.Int slot);
              ("file", Obs.Trace.Int f.File.id);
              ("lost_bytes", Obs.Trace.Float f.File.size);
              ("reason", Obs.Trace.Str "rejected") ]
      end
      else begin
        t.rejected_files <- t.rejected_files + 1;
        t.rejected_ids <- f.File.id :: t.rejected_ids;
        t.rejected_volume <- t.rejected_volume +. f.File.size;
        fresh_rejected := f :: !fresh_rejected
      end)
    rejected;
  if faulty && accepted <> [] then begin
    let by_file = Hashtbl.create 16 in
    List.iter
      (fun tx ->
        Hashtbl.add by_file tx.Postcard.Plan.file
          (tx.Postcard.Plan.link, tx.Postcard.Plan.slot, tx.Postcard.Plan.volume))
      plan.Postcard.Plan.transmissions;
    List.iter
      (fun (f : File.t) ->
        t.flights <-
          { ffile = f; ftxs = Hashtbl.find_all by_file f.File.id } :: t.flights)
      accepted
  end;
  Obs.Span.end_ admit_sp;
  Obs.Span.with_ "sim.complete" (fun () ->
      track_completion t ~slot ~plan accepted);
  t.cost_series.(slot) <- Ledger.cost_per_interval ledger;
  if Obs.Metrics.enabled () then begin
    Obs.Metrics.incr m_slots;
    Obs.Metrics.add m_arrivals (List.length arrivals);
    Obs.Metrics.add m_rejected
      (List.length (List.filter (fun f -> not (is_replan f)) rejected));
    Obs.Metrics.observe h_slot_ms sched_ms
  end;
  if tracing then begin
    List.iter
      (fun h ->
        let cur =
          Option.value ~default:0.
            (Hashtbl.find_opt t.stored_by_slot h.Postcard.Plan.h_slot)
        in
        Hashtbl.replace t.stored_by_slot h.Postcard.Plan.h_slot
          (cur +. h.Postcard.Plan.h_volume))
      plan.Postcard.Plan.holdovers;
    let charged_after = Ledger.charged_all ledger in
    let charged_delta =
      Array.init (Array.length charged_after) (fun l ->
          charged_after.(l) -. t.last_charged.(l))
    in
    let admitted_bytes =
      List.fold_left (fun acc (f : File.t) -> acc +. f.File.size) 0. accepted
    in
    let stored_bytes =
      Option.value ~default:0. (Hashtbl.find_opt t.stored_by_slot slot)
    in
    Obs.Trace.end_span slot_span
      [ ("arrivals", Obs.Trace.Int (List.length arrivals + t.pend_arrivals));
        ("admitted", Obs.Trace.Int (List.length accepted + t.pend_admitted));
        ("rejected", Obs.Trace.Int (List.length rejected + t.pend_rejected));
        ("admitted_bytes",
         Obs.Trace.Float (admitted_bytes +. t.pend_admitted_bytes));
        ("stored_bytes", Obs.Trace.Float stored_bytes);
        ("replans", Obs.Trace.Int replan_count);
        ("stranded_bytes", Obs.Trace.Float !slot_stranded);
        ("lost_bytes", Obs.Trace.Float !slot_lost);
        ("cost", Obs.Trace.Float t.cost_series.(slot));
        ("cost_delta", Obs.Trace.Float (t.cost_series.(slot) -. t.last_cost));
        ("charged", Obs.Trace.Floats charged_after);
        ("charged_delta", Obs.Trace.Floats charged_delta);
        ("sched_ms", Obs.Trace.Float sched_ms) ];
    t.last_cost <- t.cost_series.(slot);
    t.last_charged <- charged_after
  end;
  t.pend_arrivals <- 0;
  t.pend_admitted <- 0;
  t.pend_rejected <- 0;
  t.pend_admitted_bytes <- 0.;
  (* Completions: admitted files whose committed plan carried its last
     transmission during this slot. [due_by_slot] may hold ids stranded
     since admission (or re-planned to finish elsewhere); the authoritative
     [finish_by_id] filter drops them. *)
  let completed =
    match Hashtbl.find_opt t.due_by_slot slot with
    | None -> []
    | Some ids ->
        Hashtbl.remove t.due_by_slot slot;
        List.rev
          (List.filter
             (fun id ->
               match Hashtbl.find_opt t.finish_by_id id with
               | Some s when s = slot ->
                   Hashtbl.remove t.finish_by_id id;
                   true
               | _ -> false)
             ids)
  in
  t.next <- slot + 1;
  { slot;
    accepted = List.rev !fresh_accepted;
    rejected = List.rev !fresh_rejected;
    recovered = List.rev !recovered_now;
    lost = List.rev !lost_now;
    stranded = List.rev !stranded_now;
    completed;
    cost = t.cost_series.(slot) }

(* Per-request admission between steps: the serving fast path. *)
let offer t (file : File.t) =
  if t.drained then invalid_arg "Engine.offer: engine already drained";
  if t.next >= t.cfg.slots then
    invalid_arg "Engine.offer: all slots already executed";
  if file.File.release < t.next then
    invalid_arg "Engine.offer: file released in the past";
  match Scheduler.admit t.cfg.scheduler with
  | None -> None
  | Some admit ->
      let slot = t.next in
      let scheduler = t.cfg.scheduler in
      let ctx, eff_residual = context_at t ~slot in
      let t0 = Unix.gettimeofday () in
      let decision = admit ctx file in
      let admit_ms = (Unix.gettimeofday () -. t0) *. 1000. in
      t.sched_ms_total <- t.sched_ms_total +. admit_ms;
      t.total_files <- t.total_files + 1;
      t.offered_volume <- t.offered_volume +. file.File.size;
      t.pend_arrivals <- t.pend_arrivals + 1;
      Obs.Metrics.incr m_arrivals;
      let admitted =
        match decision with
        | Scheduler.Denied ->
            t.rejected_files <- t.rejected_files + 1;
            t.rejected_ids <- file.File.id :: t.rejected_ids;
            t.rejected_volume <- t.rejected_volume +. file.File.size;
            t.pend_rejected <- t.pend_rejected + 1;
            Obs.Metrics.incr m_rejected;
            false
        | Scheduler.Admitted plan ->
            let check =
              if Scheduler.fluid scheduler then
                Postcard.Plan.validate_capacity ~base:t.cfg.base
                  ~capacity:eff_residual plan
              else
                Postcard.Plan.validate ~base:t.cfg.base ~files:[ file ]
                  ~capacity:eff_residual plan
            in
            (match check with
             | Ok () -> ()
             | Error msg ->
                 raise
                   (Invalid_plan
                      (Printf.sprintf "slot %d, scheduler %s (offer): %s" slot
                         (Scheduler.name scheduler) msg)));
            Ledger.commit_plan t.ledger plan;
            t.delivered_volume <- t.delivered_volume +. file.File.size;
            t.pend_admitted <- t.pend_admitted + 1;
            t.pend_admitted_bytes <- t.pend_admitted_bytes +. file.File.size;
            if t.faulty then begin
              let ftxs =
                List.map
                  (fun tx ->
                    ( tx.Postcard.Plan.link,
                      tx.Postcard.Plan.slot,
                      tx.Postcard.Plan.volume ))
                  plan.Postcard.Plan.transmissions
              in
              t.flights <- { ffile = file; ftxs } :: t.flights
            end;
            track_completion t ~slot ~plan [ file ];
            true
      in
      if t.tracing then
        Obs.Trace.point "sim.offer"
          [ ("slot", Obs.Trace.Int slot);
            ("file", Obs.Trace.Int file.File.id);
            ("scheduler", Obs.Trace.Str (Scheduler.name scheduler));
            ("admitted", Obs.Trace.Int (if admitted then 1 else 0));
            ("bytes", Obs.Trace.Float file.File.size);
            ("admit_ms", Obs.Trace.Float admit_ms) ];
      Some (if admitted then `Admitted else `Rejected)

let in_flight t =
  let all =
    Hashtbl.fold (fun id s acc -> (id, s) :: acc) t.finish_by_id []
  in
  List.sort compare all

let status t =
  { next_slot = t.next;
    slots_total = t.cfg.slots;
    files_offered = t.total_files;
    files_rejected = t.rejected_files;
    files_lost = t.lost_files;
    files_in_flight = Hashtbl.length t.finish_by_id;
    bytes_offered = t.offered_volume;
    bytes_delivered = t.delivered_volume;
    cost_per_interval = Ledger.cost_per_interval t.ledger }

let drain t =
  if t.drained then invalid_arg "Engine.drain: engine already drained";
  t.drained <- true;
  let executed = t.next in
  let cost_series =
    if executed = Array.length t.cost_series then t.cost_series
    else Array.sub t.cost_series 0 executed
  in
  (* Clamp to slot 0 so draining before any step (a serving session shut
     down with no traffic) still yields a well-formed, all-zero series. *)
  let last_slot = max 0 (max (executed - 1) (Ledger.max_booked_slot t.ledger)) in
  let outcome =
    { cost_series;
      final_charged = Ledger.charged_all t.ledger;
      total_files = t.total_files;
      rejected_files = t.rejected_files;
      rejected_ids = List.rev t.rejected_ids;
      delivered_volume = t.delivered_volume;
      offered_volume = t.offered_volume;
      rejected_volume = t.rejected_volume;
      stranded_volume = t.stranded_volume;
      recovered_volume = t.recovered_volume;
      lost_volume = t.lost_volume;
      lost_files = t.lost_files;
      replanned_files = t.replanned_files;
      sched_ms_total = t.sched_ms_total;
      link_volumes = Ledger.volumes_through t.ledger ~last_slot }
  in
  if t.tracing then
    Obs.Trace.end_span t.run_span
      (List.concat
         [ [ ("total_files", Obs.Trace.Int outcome.total_files);
             ("rejected_files", Obs.Trace.Int outcome.rejected_files);
             ("delivered_volume", Obs.Trace.Float outcome.delivered_volume);
             ("offered_volume", Obs.Trace.Float outcome.offered_volume);
             ("rejected_volume", Obs.Trace.Float outcome.rejected_volume);
             ("stranded_volume", Obs.Trace.Float outcome.stranded_volume);
             ("recovered_volume", Obs.Trace.Float outcome.recovered_volume);
             ("lost_volume", Obs.Trace.Float outcome.lost_volume);
             ("lost_files", Obs.Trace.Int outcome.lost_files);
             ("replanned_files", Obs.Trace.Int outcome.replanned_files) ];
           (if executed > 0 then
              [ ("final_cost", Obs.Trace.Float cost_series.(executed - 1)) ]
            else []);
           [ ("final_charged", Obs.Trace.Floats outcome.final_charged) ] ]);
  outcome

let run cfg =
  let t = init cfg in
  for slot = 0 to cfg.slots - 1 do
    ignore (step t ~arrivals:(Workload.arrivals cfg.workload ~slot))
  done;
  drain t

let average_cost (outcome : outcome) = Prelude.Stats.mean outcome.cost_series

let evaluate_cost outcome ~scheme ~base =
  let acc = ref 0. in
  Graph.iter_arcs base (fun a ->
      let volumes = outcome.link_volumes.(a.Graph.id) in
      let charged = Postcard.Charging.charged_volume scheme volumes in
      acc := !acc +. (a.Graph.cost *. charged));
  !acc

let evaluate_bill outcome ~scheme ~cost_of_link ~base =
  let acc = ref 0. in
  Graph.iter_arcs base (fun a ->
      let volumes = outcome.link_volumes.(a.Graph.id) in
      let charged = Postcard.Charging.charged_volume scheme volumes in
      acc := !acc +. Postcard.Charging.cost (cost_of_link a.Graph.id) charged);
  !acc
