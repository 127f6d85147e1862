(* Benchmark worker. perfbench/run.py builds and launches it; it drives one
   workload through the program's public entry points and prints one JSON
   document as the last line of its standard output.

   Modes:
   - setup: build everything up to the first timed operation, report the
     launch-to-ready stamps and exit (run.py repeats this launch and takes
     the median);
   - run: the untraced timed phase. Batch workloads step Sim.Engine
     in-process; serve-loopback launches postcard_serve once per instance
     and acts as its one closed-loop client over loopback TCP;
   - trace: Obs.Metrics on and every call into a layer wrapped in an
     in-memory span, interleaved with untraced replays of the same
     instances for the overhead baseline. Spans are written as a Chrome
     trace_event file when the run ends.

   Between episodes of the run mode the worker launches perfbench/probe.exe
   about once a second, and reports every time both as measured and at the
   speed of a reference host: scaled by the probe taken nearest to it (see
   [host_speed]).

   A run covers the workload's fixed number of distinct instances
   (topology and arrival script), all generated before the first timed
   operation, and replays the whole set as often as fits in [--seconds],
   at least once. Every replay of an instance must reproduce the
   deterministic outputs of its first. A slot's or request's time is the
   median over its replays: the host's speed moves by up to 2x in phases
   of seconds to minutes, and the median reports the typical speed over
   the run where a minimum would report whichever fast phase the run
   happened to catch. The output has one record per instance whatever
   the number of replays. An invariant violated here exits with code 3
   and names it on stderr. *)

module Engine = Sim.Engine
module Workload = Sim.Workload
module Faults = Sim.Faults
module Session = Serve.Session
module Protocol = Serve.Protocol
module Scheduler = Postcard.Scheduler
module File = Postcard.File
module Metrics = Obs.Metrics
module Json = Obs.Json

(* The first effect of this module runs after every library module has
   initialized, including the scheduler registry's self-registration
   probes: the end of process start. *)
let t_main = Monotonic_clock.now ()

let now () = Monotonic_clock.now ()

exception Violation of string

let violation fmt = Printf.ksprintf (fun s -> raise (Violation s)) fmt

(* ------------------------------------------------------------------ *)
(* Workloads *)

type shape = {
  nodes : int;
  capacity : float;
  files_max : int;  (* files per slot uniform in [1, files_max] *)
  max_deadline : int;  (* deadlines uniform in [1, max_deadline] *)
  slots : int;  (* slots per instance *)
  faults : string;  (* postcard_serve --faults spec, every instance *)
  instances : int;
      (* per run: as many as --seconds holds (one replay for
         lp-throttled), since a percentile's spread across seeds falls
         with the number of distinct topologies and scripts behind it *)
  traced : int;  (* the first [traced] instances make the traced run *)
}

let shape_of = function
  | "lp-throttled" ->
      (* Fig. 6 regime: throttled links, urgent deadlines; admission
         control drops files and re-solves. *)
      { nodes = 10; capacity = 30.; files_max = 8; max_deadline = 3;
        slots = 20; faults = ""; instances = 192; traced = 32 }
  | "serve-loopback" ->
      (* The paper mix against the daemon's tiered default, with link and
         datacenter outages that strand admitted transfers. *)
      { nodes = 8; capacity = 100.; files_max = 20; max_deadline = 3;
        slots = 60;
        faults = "link:0-1@10..20,dc:3@24..25,link:2-5@36..46,dc:6@50";
        instances = 48; traced = 24 }
  | w -> invalid_arg ("unknown workload " ^ w)

(* Instance [i] of a run with seed [seed]. The topology derivation is the
   daemon's own ([--seed] times 7919), so a served instance and its
   in-process replay see the same network. *)
let instance_seed ~seed i = (seed * 1024) + i

let topology sh ~iseed =
  Netgraph.Topology.complete ~n:sh.nodes
    ~rng:(Prelude.Rng.of_int (iseed * 7919))
    ~cost_lo:1. ~cost_hi:10. ~capacity:sh.capacity

let script sh ~iseed =
  let spec =
    { (Workload.paper_spec ~nodes:sh.nodes ~files_max:sh.files_max
         ~max_deadline:sh.max_deadline)
      with
      Workload.urgent_size_cap = Some sh.capacity }
  in
  let gen = Workload.create spec (Prelude.Rng.of_int (iseed * 104729)) in
  Array.init sh.slots (fun slot -> Workload.arrivals gen ~slot)

let faults_of sh =
  match Faults.parse sh.faults with
  | Ok s -> s
  | Error msg -> invalid_arg msg

(* ------------------------------------------------------------------ *)
(* Spans, kept in memory during the traced phase. *)

type span = {
  name : string;
  pid : int;  (* instance *)
  tid : int;  (* slot (batch), server file id (serve) *)
  start : int64;
  stop : int64;
  parent : int;  (* index into [spans], -1 for a root *)
}

let spans : span array ref = ref [||]
let n_spans = ref 0
let tracing = ref false
let stack : int list ref = ref []
let cur_pid = ref 0
let cur_tid = ref 0

let push_span s =
  if !n_spans = Array.length !spans then begin
    let bigger = Array.make (max 1024 (2 * !n_spans)) s in
    Array.blit !spans 0 bigger 0 !n_spans;
    spans := bigger
  end;
  !spans.(!n_spans) <- s;
  incr n_spans;
  !n_spans - 1

(* Time [f] as a span named [name] nested in the innermost open span. *)
let span name f =
  if not !tracing then f ()
  else begin
    let parent = match !stack with p :: _ -> p | [] -> -1 in
    let idx =
      push_span
        { name; pid = !cur_pid; tid = !cur_tid; start = now (); stop = 0L;
          parent }
    in
    stack := idx :: !stack;
    let finish () =
      stack := List.tl !stack;
      !spans.(idx) <- { (!spans.(idx)) with stop = now () }
    in
    match f () with
    | v ->
        finish ();
        v
    | exception e ->
        finish ();
        raise e
  end

let retag idx ~tid = !spans.(idx) <- { (!spans.(idx)) with tid }

let span_ns s = Int64.sub s.stop s.start

(* Per name: calls, inclusive ns, self ns (inclusive minus children). *)
let span_totals () =
  let tbl = Hashtbl.create 16 in
  let child = Array.make !n_spans 0L in
  for i = 0 to !n_spans - 1 do
    let s = !spans.(i) in
    if s.parent >= 0 then
      child.(s.parent) <- Int64.add child.(s.parent) (span_ns s)
  done;
  for i = 0 to !n_spans - 1 do
    let s = !spans.(i) in
    let calls, incl, self =
      Option.value (Hashtbl.find_opt tbl s.name) ~default:(0, 0L, 0L)
    in
    Hashtbl.replace tbl s.name
      ( calls + 1,
        Int64.add incl (span_ns s),
        Int64.add self (Int64.sub (span_ns s) child.(i)) )
  done;
  tbl

(* Calls and inclusive ns of the spans named [name] whose parent is named
   [parent]. *)
let under ~parent name =
  let calls = ref 0 and total = ref 0L in
  for i = 0 to !n_spans - 1 do
    let s = !spans.(i) in
    if s.name = name && s.parent >= 0 && !spans.(s.parent).name = parent
    then begin
      incr calls;
      total := Int64.add !total (span_ns s)
    end
  done;
  (float_of_int !calls, Int64.to_float !total)

let root_ns () =
  let total = ref 0L in
  for i = 0 to !n_spans - 1 do
    if !spans.(i).parent < 0 then total := Int64.add !total (span_ns !spans.(i))
  done;
  !total

(* [t0, end] of each traced episode, by instance. *)
let episode_bounds : (int, int64 * int64) Hashtbl.t = Hashtbl.create 64

(* The span tree must be well formed: every child lies inside its parent,
   siblings do not overlap, and root spans do not overlap and lie inside
   their episode. Spans are pushed in start order, so a span's earlier
   sibling is the last span pushed under the same parent. *)
let check_spans () =
  let last_child = Array.make !n_spans (-1) in
  let last_root = ref (-1) in
  for i = 0 to !n_spans - 1 do
    let s = !spans.(i) in
    if Int64.compare s.stop s.start < 0 then
      violation "span %s (instance %d, id %d) ends before it starts" s.name
        s.pid s.tid;
    let lo, hi, prev =
      if s.parent >= 0 then begin
        let p = !spans.(s.parent) in
        let prev = last_child.(s.parent) in
        last_child.(s.parent) <- i;
        (p.start, p.stop, prev)
      end
      else begin
        let lo, hi =
          match Hashtbl.find_opt episode_bounds s.pid with
          | Some b -> b
          | None -> violation "root span %s outside any episode" s.name
        in
        let prev = !last_root in
        last_root := i;
        (lo, hi, prev)
      end
    in
    if Int64.compare s.start lo < 0 || Int64.compare s.stop hi > 0 then
      violation "span %s (instance %d, id %d) outside its %s" s.name s.pid
        s.tid (if s.parent >= 0 then "parent" else "episode");
    if prev >= 0 && Int64.compare s.start !spans.(prev).stop < 0 then
      violation "span %s (instance %d, id %d) overlaps %s" s.name s.pid s.tid
        !spans.(prev).name
  done

let chrome_trace ~t0 =
  let us t = Int64.to_float (Int64.sub t t0) /. 1e3 in
  let events =
    List.init !n_spans (fun i ->
        let s = !spans.(i) in
        Json.Obj
          [ ("name", Json.Str s.name);
            ("cat", Json.Str "perfbench");
            ("ph", Json.Str "X");
            ("ts", Json.Float (us s.start));
            ("dur", Json.Float (Int64.to_float (span_ns s) /. 1e3));
            ("pid", Json.Int s.pid);
            ("tid", Json.Int s.tid) ])
  in
  Json.Obj
    [ ("traceEvents", Json.List events); ("displayTimeUnit", Json.Str "ms") ]

type call = {
  span_name : string;
  solves : int;  (* admission control re-solves once per dropped file *)
  fast_admits : int;  (* files the tiered fast tier admitted *)
}

(* Every traced scheduler call, newest first, with the counters it moved. *)
let calls : call list ref = ref []

(* Delegating timers around a scheduler's capabilities. *)
let timed ~schedule_span ?admit_span s =
  let solves = Metrics.counter "simplex.solves" in
  let fast = Metrics.counter "tier.fast_admits" in
  let counted span_name f =
    let s0 = Metrics.counter_value solves and f0 = Metrics.counter_value fast in
    let v = span span_name f in
    if !tracing then
      calls :=
        { span_name; solves = Metrics.counter_value solves - s0;
          fast_admits = Metrics.counter_value fast - f0 }
        :: !calls;
    v
  in
  let admit =
    match (Scheduler.admit s, admit_span) with
    | Some a, Some name -> Some (fun ctx f -> counted name (fun () -> a ctx f))
    | a, _ -> a
  in
  Scheduler.create ~name:(Scheduler.name s) ~fluid:(Scheduler.fluid s)
    ?admit
    ~reset:(fun () -> Scheduler.reset s)
    (fun ctx files ->
      counted schedule_span (fun () -> Scheduler.schedule s ctx files))

(* ------------------------------------------------------------------ *)
(* Counters and logs *)

let c name = Metrics.counter_value (Metrics.counter name)

(* Solves the Postcard scheduler treats as infeasible surface only as
   warnings on its log source; count them while tracing, and pass every
   report on to stderr. *)
let solver_failures = ref 0

let () =
  Logs.set_level (Some Logs.Warning);
  Logs.set_reporter
    { Logs.report =
        (fun src level ~over k msgf ->
          if
            !tracing && level = Logs.Warning
            && Logs.Src.name src = "postcard.scheduler"
          then incr solver_failures;
          msgf (fun ?header:_ ?tags:_ fmt ->
              Format.kfprintf
                (fun ppf ->
                  Format.pp_print_newline ppf ();
                  over ();
                  k ())
                Format.err_formatter
                ("worker: %s: " ^^ fmt) (Logs.Src.name src))) }

let vm_hwm_kb pid =
  let ic = open_in (Printf.sprintf "/proc/%s/status" pid) in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go () =
        match input_line ic with
        | exception End_of_file -> failwith "VmHWM missing"
        | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
            Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d" Fun.id
        | _ -> go ()
      in
      go ())

(* ------------------------------------------------------------------ *)
(* Host speed: perfbench/probe.exe, launched between episodes. *)

let median_ns xs =
  let a = Array.of_list xs in
  Array.sort Int64.compare a;
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2)
  else Int64.div (Int64.add a.((n / 2) - 1) a.(n / 2)) 2L

let probe_exe = ref ""

(* The probes' median times on a reference host, a 2-vCPU Intel Xeon
   2.1 GHz VM: allocation work, and an echo round trip. *)
let work_ref_ns = 40e6
let wire_ref_ns = 50e3

type probe = {
  at : int64;  (* midpoint of the probe's run *)
  launch_ns : int64;
  work_ns : int64;
  wire_ns : int64 option;  (* serve-loopback only *)
}

let probes : probe list ref = ref []
let last_probe = ref 0L

(* Launch to main, and the fixed allocation work, of one probe process. *)
let allocation_probe () =
  let r, w = Unix.pipe ~cloexec:true () in
  let launched = now () in
  let pid =
    Unix.create_process !probe_exe
      [| !probe_exe; Int64.to_string launched |]
      Unix.stdin w Unix.stderr
  in
  Unix.close w;
  let ic = Unix.in_channel_of_descr r in
  let line = try Some (input_line ic) with End_of_file -> None in
  close_in ic;
  match (Unix.waitpid [] pid, line) with
  | (_, Unix.WEXITED 0), Some l -> Scanf.sscanf l "%Ld %Ld" (fun a b -> (a, b))
  | _ -> violation "host-speed probe failed"

(* The median of 200 round trips over loopback TCP to [probe echo]. *)
let wire_probe () =
  let r, w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process !probe_exe [| !probe_exe; "echo" |] Unix.stdin w
      Unix.stderr
  in
  Unix.close w;
  let port_in = Unix.in_channel_of_descr r in
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  let reaped = ref false in
  let failed () = violation "host-speed echo probe failed" in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      close_in_noerr port_in;
      if not !reaped then begin
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] pid)
      end)
    (fun () ->
      let port =
        match int_of_string_opt (input_line port_in) with
        | Some p -> p
        | None | (exception End_of_file) -> failed ()
      in
      Unix.setsockopt fd Unix.TCP_NODELAY true;
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      let ic = Unix.in_channel_of_descr fd in
      let oc = Unix.out_channel_of_descr fd in
      let line = String.make 120 'x' in
      let rtts =
        List.init 200 (fun _ ->
            let a = now () in
            output_string oc line;
            output_char oc '\n';
            flush oc;
            (match input_line ic with
             | l when l = line -> ()
             | _ | (exception End_of_file) -> failed ());
            Int64.sub (now ()) a)
      in
      Unix.shutdown fd Unix.SHUTDOWN_SEND;
      let status = snd (Unix.waitpid [] pid) in
      reaped := true;
      if status <> Unix.WEXITED 0 then failed ();
      median_ns rtts)

(* At most one probe a second, so that probes sample the host over the
   whole run at a small cost. [~wire] adds an echo probe. *)
let maybe_probe ~wire =
  if Int64.sub (now ()) !last_probe >= 1_000_000_000L then begin
    let t0 = now () in
    let wire_ns = if wire then Some (wire_probe ()) else None in
    let launch_ns, work_ns = allocation_probe () in
    let t1 = now () in
    let at = Int64.add t0 (Int64.div (Int64.sub t1 t0) 2L) in
    probes := { at; launch_ns; work_ns; wire_ns } :: !probes;
    last_probe := t1
  end

let probe_fields () =
  let ns_list l = Json.List (List.map (fun x -> Json.Int (Int64.to_int x)) l) in
  [ ("probe_launch_ns", ns_list (List.map (fun p -> p.launch_ns) !probes));
    ("probe_work_ns", ns_list (List.map (fun p -> p.work_ns) !probes));
    ("probe_wire_ns", ns_list (List.filter_map (fun p -> p.wire_ns) !probes)) ]

(* [host_speed () t]: how much faster than the reference host this host
   ran at time [t], from the probe taken nearest to [t]. The host's speed
   moves by up to 1.6x between runs and by 10-30% within seconds, and the
   program's times follow it. Scaling each episode by the probe nearest to
   it follows those moves where one factor for a whole run cannot: on a
   2-vCPU VM, 45-s windows of a 6-minute lp-throttled run spread 7.2% (sd)
   as measured, 4.3% scaled by each window's median probe and 1.8% scaled
   per episode; serve-loopback 13-15%, 5-6% and 0.5-2%.

   A served request is part the daemon's own work and part system calls
   and wake-ups, so serve-loopback takes the geometric mean of the
   allocation and the echo probes' factors. Each alone tracked it better
   in one of two calibration runs (per-episode window spread 0.5-1.9% vs
   1.7-2.0%, then 2.4-3.8% vs 1.6-3.4%); their mean was 0.9-1.5% and
   1.9-3.6%. A pure integer probe tracked it worst (3.6-7.1%). *)
let host_speed () =
  match !probes with
  | [] -> violation "no host-speed probe ran"
  | p :: ps -> (
      fun t ->
        let dist q = Int64.abs (Int64.sub q.at t) in
        let q = List.fold_left (fun a q -> if dist q < dist a then q else a) p ps in
        let work = work_ref_ns /. Int64.to_float q.work_ns in
        match q.wire_ns with
        | None -> work
        | Some w -> Float.sqrt (work *. wire_ref_ns /. Int64.to_float w))

let at_speed speed ns = Int64.of_float (Int64.to_float ns *. speed)

(* ------------------------------------------------------------------ *)
(* Deterministic outputs *)

let fl x = Json.Float x

let conservation ~what ~offered ~delivered ~rejected ~lost =
  let gap = Float.abs (offered -. (delivered +. rejected +. lost)) in
  if gap > 1e-9 *. Float.max 1. offered then
    violation
      "byte conservation (%s): offered %.17g <> delivered %.17g + rejected \
       %.17g + lost %.17g"
      what offered delivered rejected lost

let cost_digest series =
  Digest.to_hex
    (Digest.string
       (String.concat ","
          (List.map (Printf.sprintf "%h") (Array.to_list series))))

(* ------------------------------------------------------------------ *)
(* Batch: Sim.Engine.init/step/drain in-process. *)

type batch_instance = {
  base : Netgraph.Graph.t;
  arrivals : File.t list array;
}

type batch_episode = {
  wall_ns : int64;  (* first step .. drain *)
  at : int64;  (* its midpoint *)
  step_ns : int64 array;
  decided : int array;  (* fresh arrivals given a verdict, per slot *)
  det : Json.t;  (* deterministic outputs *)
}

let batch_episode sh inst ~scheduler ~traced ~pid =
  let cfg =
    Engine.make ~base:inst.base ~scheduler
      ~workload:
        (Workload.scripted (List.concat (Array.to_list inst.arrivals)))
      ~slots:sh.slots ()
  in
  let step_ns = Array.make sh.slots 0L in
  let decided = Array.make sh.slots 0 in
  cur_pid := pid;
  if traced then begin
    Metrics.reset ();
    Metrics.set_enabled true;
    tracing := true
  end;
  let eng = Engine.init cfg in
  let t0 = now () in
  for slot = 0 to sh.slots - 1 do
    cur_tid := slot;
    let a = now () in
    let r =
      span "engine.step" (fun () ->
          Engine.step eng ~arrivals:inst.arrivals.(slot))
    in
    step_ns.(slot) <- Int64.sub (now ()) a;
    decided.(slot) <-
      List.length r.Engine.accepted + List.length r.Engine.rejected
  done;
  let o = Engine.drain eng in
  let t1 = now () in
  let wall_ns = Int64.sub t1 t0 in
  let at = Int64.add t0 (Int64.div wall_ns 2L) in
  if traced then Hashtbl.replace episode_bounds pid (t0, t1);
  tracing := false;
  let counts =
    if traced then
      [ ("solves", Json.Int (c "simplex.solves"));
        ("pivots", Json.Int (c "simplex.pivots")) ]
    else []
  in
  Metrics.set_enabled false;
  conservation ~what:"Engine.outcome" ~offered:o.Engine.offered_volume
    ~delivered:o.Engine.delivered_volume ~rejected:o.Engine.rejected_volume
    ~lost:o.Engine.lost_volume;
  let det =
    Json.Obj
      ([ ("cost_per_interval", fl (Engine.average_cost o));
         ("cost_series", Json.Str (cost_digest o.Engine.cost_series));
         ("offered_bytes", fl o.Engine.offered_volume);
         ("delivered_bytes", fl o.Engine.delivered_volume);
         ("rejected_bytes", fl o.Engine.rejected_volume);
         ("lost_bytes", fl o.Engine.lost_volume);
         ("offered", Json.Int o.Engine.total_files);
         ("rejected", Json.Int o.Engine.rejected_files);
         ("lost", Json.Int o.Engine.lost_files) ]
      @ counts)
  in
  { wall_ns; at; step_ns; decided; det }

(* ------------------------------------------------------------------ *)
(* Serve: the request script of one instance. *)

type serve_instance = {
  iseed : int;
  sbase : Netgraph.Graph.t;
  requests : Protocol.submit array array;  (* per slot, submission order *)
}

let submits files =
  Array.map
    (List.map (fun (f : File.t) ->
         { Protocol.src = f.File.src; dst = f.File.dst; size = f.File.size;
           deadline = f.File.deadline }))
    files
  |> Array.map Array.of_list

(* Client-side bookkeeping shared by the wire client and the in-process
   replay: both see the same event stream and must agree on it. *)
type tally = {
  mutable accepted : int;
  mutable rejected : int;
  mutable offered_bytes : float;  (* the client's own sum of sizes *)
  completed : (int, unit) Hashtbl.t;
  accepted_ids : (int, unit) Hashtbl.t;
  stranded_ids : (int, unit) Hashtbl.t;  (* awaiting recovered or lost *)
  lost_ids : (int, unit) Hashtbl.t;
  mutable stranded : int;
  mutable recovered : int;
  mutable slot_costs : float list;  (* newest first *)
  mutable session_end : Json.t option;
}

let new_tally () =
  { accepted = 0; rejected = 0; offered_bytes = 0.;
    completed = Hashtbl.create 256; accepted_ids = Hashtbl.create 256;
    stranded_ids = Hashtbl.create 16; lost_ids = Hashtbl.create 16;
    stranded = 0; recovered = 0; slot_costs = []; session_end = None }

(* Fold one event into the tally. Returns the verdict it carries. *)
let observe_event tl ev =
  match ev with
  | Protocol.Completed { id; _ } ->
      if not (Hashtbl.mem tl.accepted_ids id) then
        violation "completed event for file %d that was never accepted" id;
      if Hashtbl.mem tl.completed id then
        violation "file %d completed twice" id;
      if Hashtbl.mem tl.lost_ids id || Hashtbl.mem tl.stranded_ids id then
        violation "file %d completed while stranded or lost" id;
      Hashtbl.replace tl.completed id ();
      `Other
  | Protocol.Slot { cost; _ } ->
      tl.slot_costs <- cost :: tl.slot_costs;
      `Other
  | Protocol.Session_end s ->
      conservation ~what:"session_end" ~offered:s.offered_bytes
        ~delivered:s.delivered_bytes ~rejected:s.rejected_bytes
        ~lost:s.lost_bytes;
      if
        Float.abs (s.offered_bytes -. tl.offered_bytes)
        > 1e-9 *. Float.max 1. tl.offered_bytes
      then
        violation "session_end offered_bytes %.17g <> client tally %.17g"
          s.offered_bytes tl.offered_bytes;
      tl.session_end <-
        Some
          (Json.Obj
             [ ("offered_bytes", fl s.offered_bytes);
               ("delivered_bytes", fl s.delivered_bytes);
               ("rejected_bytes", fl s.rejected_bytes);
               ("lost_bytes", fl s.lost_bytes);
               ("cost_per_interval", fl s.cost) ]);
      `Other
  | Protocol.Queued { id; _ } -> `Queued id
  | Protocol.Accepted { id; _ } -> `Verdict (id, true)
  | Protocol.Rejected { id; _ } -> `Verdict (id, false)
  | Protocol.Error msg -> violation "error event: %s" msg
  | Protocol.Stranded { id; _ } ->
      if not (Hashtbl.mem tl.accepted_ids id) || Hashtbl.mem tl.completed id
      then violation "stranded event for file %d that is not in flight" id;
      Hashtbl.replace tl.stranded_ids id ();
      tl.stranded <- tl.stranded + 1;
      `Other
  | Protocol.Recovered { id; _ } | Protocol.Lost { id; _ } ->
      if not (Hashtbl.mem tl.stranded_ids id) then
        violation "recovered or lost event for file %d that was not stranded"
          id;
      Hashtbl.remove tl.stranded_ids id;
      (match ev with
       | Protocol.Lost _ -> Hashtbl.replace tl.lost_ids id ()
       | _ -> tl.recovered <- tl.recovered + 1);
      `Other
  | Protocol.Hello _ | Protocol.Status_report _ | Protocol.Scrape_report _
  | Protocol.Scrape_text _ | Protocol.Bye ->
      `Other

(* One submit's events, in order: exactly one queued, then exactly one
   verdict for the queued id. *)
let submit_protocol tl (req : Protocol.submit) next_event =
  tl.offered_bytes <- tl.offered_bytes +. req.Protocol.size;
  let rec go queued =
    match observe_event tl (next_event ()) with
    | `Queued id ->
        if queued <> None then violation "second queued event for one submit";
        go (Some id)
    | `Verdict (id, ok) -> (
        match queued with
        | Some q when q = id ->
            if ok then begin
              tl.accepted <- tl.accepted + 1;
              Hashtbl.replace tl.accepted_ids id ()
            end
            else tl.rejected <- tl.rejected + 1;
            id
        | _ -> violation "verdict for file %d before its queued event" id)
    | `Other -> go queued
  in
  go None

let serve_det tl ~slots =
  if List.length tl.slot_costs <> slots then
    violation "%d slot events for %d ticks" (List.length tl.slot_costs) slots;
  let lost = Hashtbl.length tl.lost_ids in
  if Hashtbl.length tl.completed + lost <> tl.accepted then
    violation "%d completed + %d lost of %d accepted files by session end"
      (Hashtbl.length tl.completed) lost tl.accepted;
  let se =
    match tl.session_end with
    | Some j -> j
    | None -> violation "no session_end event"
  in
  Json.Obj
    [ ("accepted", Json.Int tl.accepted);
      ("rejected", Json.Int tl.rejected);
      ("completed", Json.Int (Hashtbl.length tl.completed));
      ("stranded", Json.Int tl.stranded);
      ("recovered", Json.Int tl.recovered);
      ("lost", Json.Int lost);
      ("slot_costs",
       Json.Str (cost_digest (Array.of_list (List.rev tl.slot_costs))));
      ("session_end", se) ]

(* The daemon's scheduler, rebuilt from timed tiers exactly as the
   registry composes postcard-tiered. *)
let traced_tiered () =
  let fast =
    timed ~schedule_span:"tier.fast" ~admit_span:"tier.fast"
      (Postcard.Ledger_scheduler.make ())
  in
  let fallback =
    timed ~schedule_span:"tier.fallback" (Postcard.Postcard_scheduler.make ())
  in
  timed ~schedule_span:"sched.schedule" ~admit_span:"sched.admit"
    (Scheduler.observe
       (Scheduler.tiered ~name:"postcard-tiered" ~fast ~fallback ()))

type replay = {
  r_wall_ns : int64;
  online_ns : int64 array;  (* Session.on_line per submit *)
  r_det : Json.t;
  r_counts : (string * Json.t) list;
  fault_tick_ns : int64 list;  (* ticks that stranded a transfer *)
  events : int;
  lines : int;
}

(* Replay one instance's script through Serve.Session in-process, feeding
   it the lines the wire client sends. *)
let replay sh inst ~traced ~pid =
  let scheduler =
    if traced then traced_tiered () else Scheduler.make_exn "postcard-tiered"
  in
  let session =
    Session.create ~base:inst.sbase ~scheduler ~slots:(sh.slots + 1)
      ~faults:(faults_of sh) ~clock:"manual" ()
  in
  let tl = new_tally () in
  let pending = Queue.create () in
  let events = ref 0 and lines = ref 0 in
  let deliver effects =
    List.iter
      (function
        | Session.Send (_, ev) | Session.Broadcast ev -> Queue.push ev pending
        | Session.Disconnect _ | Session.End_session -> ())
      effects
  in
  (* What the daemon does with a line: decode inside on_line, encode every
     event it must write. Traced, the line is also decoded on its own
     first, which times the Protocol decoder on the same line. *)
  let handle ?(root_name = "serve.request") ?(child = "session.on_line") line =
    incr lines;
    let root = !n_spans in
    let effects =
      span root_name (fun () ->
          if !tracing then
            span "protocol.decode" (fun () ->
                ignore (Protocol.request_of_line line));
          let effects =
            span child (fun () -> Session.on_line session 0 line)
          in
          span "protocol.encode" (fun () ->
              List.iter
                (function
                  | Session.Send (_, ev) | Session.Broadcast ev ->
                      incr events;
                      ignore (Protocol.event_to_line ev)
                  | Session.Disconnect _ | Session.End_session -> ())
                effects);
          effects)
    in
    (root, effects)
  in
  let next_event () =
    match Queue.take_opt pending with
    | Some ev -> ev
    | None -> violation "session produced no further event"
  in
  let online = ref [] and fault_ticks = ref [] in
  cur_pid := pid;
  if traced then begin
    Metrics.reset ();
    Metrics.set_enabled true;
    tracing := true
  end;
  let t0 = now () in
  deliver (Session.connect session 0);
  Queue.clear pending;
  Array.iteri
    (fun slot reqs ->
      Array.iter
        (fun req ->
          let line = Protocol.request_to_line (Protocol.Submit req) in
          let a = now () in
          let root, effects = handle line in
          online := Int64.sub (now ()) a :: !online;
          deliver effects;
          let id = submit_protocol tl req next_event in
          if !tracing then begin
            retag root ~tid:id;
            for i = root + 1 to !n_spans - 1 do
              retag i ~tid:id
            done
          end)
        reqs;
      cur_tid := 1_000_000 + slot;
      let stranded = tl.stranded in
      let root, effects =
        handle ~root_name:"serve.tick" ~child:"session.tick"
          (Protocol.request_to_line Protocol.Tick)
      in
      deliver effects;
      Queue.iter (fun ev -> ignore (observe_event tl ev)) pending;
      Queue.clear pending;
      if !tracing && tl.stranded > stranded then
        fault_ticks := span_ns !spans.(root) :: !fault_ticks)
    inst.requests;
  cur_tid := 1_000_000 + sh.slots;
  let _, effects =
    handle ~root_name:"serve.tick" ~child:"session.tick"
      (Protocol.request_to_line Protocol.Stop)
  in
  deliver effects;
  Queue.iter (fun ev -> ignore (observe_event tl ev)) pending;
  let t1 = now () in
  let r_wall_ns = Int64.sub t1 t0 in
  if traced then Hashtbl.replace episode_bounds pid (t0, t1);
  tracing := false;
  let r_counts =
    if traced then
      [ ("solves", Json.Int (c "simplex.solves"));
        ("pivots", Json.Int (c "simplex.pivots")) ]
    else []
  in
  Metrics.set_enabled false;
  (match Session.outcome session with
   | None -> violation "session did not drain on stop"
   | Some o ->
       conservation ~what:"Engine.outcome" ~offered:o.Engine.offered_volume
         ~delivered:o.Engine.delivered_volume
         ~rejected:o.Engine.rejected_volume ~lost:o.Engine.lost_volume);
  { r_wall_ns;
    online_ns = Array.of_list (List.rev !online);
    r_det = serve_det tl ~slots:sh.slots;
    r_counts;
    fault_tick_ns = !fault_ticks;
    events = !events;
    lines = !lines }

(* ------------------------------------------------------------------ *)
(* Serve over the wire: postcard_serve --clock manual, one client. *)

type wire_session = {
  setup_ns : int64;  (* launch .. hello read *)
  loop_ns : int64;  (* first submit .. last slot event *)
  loop_at : int64;  (* its midpoint *)
  verdict_ns : int64 array;
  slot_ns : int64 array;
  hwm_kb : int;
  w_det : Json.t;
}

let read_listening ic =
  let line = input_line ic in
  match Scanf.sscanf line "listening on 127.0.0.1:%d" Fun.id with
  | port -> port
  | exception _ -> violation "unexpected first daemon line %S" line

let wire_session sh inst ~serve_exe =
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let args =
    [| serve_exe; "--clock"; "manual"; "--nodes"; string_of_int sh.nodes;
       "--capacity"; Printf.sprintf "%.17g" sh.capacity;
       "--seed"; string_of_int inst.iseed;
       "--slots"; string_of_int (sh.slots + 1); "--faults"; sh.faults |]
  in
  let t0 = now () in
  let pid = Unix.create_process serve_exe args devnull out_w Unix.stderr in
  Unix.close out_w;
  Unix.close devnull;
  let reaped = ref false in
  let daemon_out = Unix.in_channel_of_descr out_r in
  let sock = ref None in
  Fun.protect
    ~finally:(fun () ->
      (match !sock with
       | Some fd -> (try Unix.close fd with Unix.Unix_error _ -> ())
       | None -> ());
      if not !reaped then begin
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] pid)
      end;
      close_in_noerr daemon_out)
    (fun () ->
      let port = read_listening daemon_out in
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      sock := Some fd;
      Unix.setsockopt fd Unix.TCP_NODELAY true;
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO 60.;
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      let ic = Unix.in_channel_of_descr fd in
      let oc = Unix.out_channel_of_descr fd in
      let next_event () =
        match input_line ic with
        | exception End_of_file -> violation "daemon closed the connection"
        | line -> (
            match Protocol.event_of_line line with
            | Ok ev -> ev
            | Error msg -> violation "undecodable event %S: %s" line msg)
      in
      (match next_event () with
       | Protocol.Hello { clock = "manual"; _ } -> ()
       | _ -> violation "first event is not a manual-clock hello");
      let setup_ns = Int64.sub (now ()) t0 in
      let send req =
        output_string oc (Protocol.request_to_line req);
        output_char oc '\n';
        flush oc
      in
      let tl = new_tally () in
      let verdicts = ref [] and slots = ref [] in
      let l0 = now () in
      Array.iteri
        (fun slot reqs ->
          Array.iter
            (fun req ->
              let a = now () in
              send (Protocol.Submit req);
              ignore (submit_protocol tl req next_event);
              verdicts := Int64.sub (now ()) a :: !verdicts)
            reqs;
          let a = now () in
          send Protocol.Tick;
          let rec until_slot () =
            match next_event () with
            | Protocol.Slot { slot = s; _ } as ev when s = slot ->
                ignore (observe_event tl ev)
            | Protocol.Slot { slot = s; _ } ->
                violation "slot event %d after tick %d" s slot
            | ev -> (
                match observe_event tl ev with
                | `Other -> until_slot ()
                | `Queued _ | `Verdict _ -> violation "verdict outside a submit")
          in
          until_slot ();
          slots := Int64.sub (now ()) a :: !slots)
        inst.requests;
      let loop_ns = Int64.sub (now ()) l0 in
      let hwm_kb = vm_hwm_kb (string_of_int pid) in
      send Protocol.Stop;
      let rec until_end () =
        match next_event () with
        | Protocol.Session_end _ as ev -> ignore (observe_event tl ev)
        | ev -> (
            match observe_event tl ev with
            | `Other -> until_end ()
            | `Queued _ | `Verdict _ -> violation "verdict after stop")
      in
      until_end ();
      (match input_line ic with
       | exception End_of_file -> ()
       | line -> violation "line after session_end: %S" line);
      (* The daemon's own closing lines; reading them to EOF also waits
         for it to finish writing. *)
      (try
         while true do
           ignore (input_line daemon_out)
         done
       with End_of_file -> ());
      (match Unix.waitpid [] pid with
       | _, Unix.WEXITED 0 -> reaped := true
       | _, Unix.WEXITED n ->
           reaped := true;
           violation "postcard_serve exited with status %d" n
       | _, (Unix.WSIGNALED n | Unix.WSTOPPED n) ->
           reaped := true;
           violation "postcard_serve killed by signal %d" n);
      { setup_ns; loop_ns;
        loop_at = Int64.add l0 (Int64.div loop_ns 2L);
        verdict_ns = Array.of_list (List.rev !verdicts);
        slot_ns = Array.of_list (List.rev !slots);
        hwm_kb;
        w_det = serve_det tl ~slots:sh.slots })

(* ------------------------------------------------------------------ *)
(* Trace-mode reductions *)

let counter_names =
  [ "simplex.solves"; "simplex.pivots"; "simplex.dual_pivots";
    "simplex.refactorizations"; "simplex.warm_fell_back";
    "lu.factorizations" ]

(* Counters summed over the traced episodes (each one resets the
   registry first). *)
let counter_sums = Hashtbl.create 16

let add_counters () =
  List.iter
    (fun n ->
      let prev = Option.value (Hashtbl.find_opt counter_sums n) ~default:0 in
      Hashtbl.replace counter_sums n (prev + c n))
    counter_names

let sum n = float_of_int (Option.value (Hashtbl.find_opt counter_sums n) ~default:0)
let ratio a b = if b = 0. then 0. else a /. b
let calls_named name = List.filter (fun k -> k.span_name = name) !calls

(* Layer metrics shared by both kinds of workload; [lp_span] is the span
   that wraps the LP scheduler (its calls are where solves happen). *)
let lp_layers ~slots ~lp_span ~lp_ns =
  let solves = sum "simplex.solves" and pivots = sum "simplex.pivots" in
  let retries =
    List.fold_left (fun acc k -> acc + max 0 (k.solves - 1)) 0
      (calls_named lp_span)
  in
  [ ("lp.solves_per_slot", ratio solves (float_of_int slots));
    ("lp.retry_solve_pct", 100. *. ratio (float_of_int retries) solves);
    ("lp.pivots_per_solve", ratio pivots solves);
    ("lp.dual_pivot_pct", 100. *. ratio (sum "simplex.dual_pivots") pivots);
    ("lp.refactorizations_per_solve",
     ratio (sum "simplex.refactorizations") solves);
    ("lp.warm_fallbacks", sum "simplex.warm_fell_back");
    ("lp.us_per_pivot", ratio (lp_ns /. 1e3) pivots);
    ("lu.factorizations_per_solve", ratio (sum "lu.factorizations") solves);
    ("lp.solver_failures", float_of_int !solver_failures) ]

(* The fault path: mean time of the slots that revealed an outage and
   stranded a committed plan, and the per-file strand outcomes. *)
let fault_layers ~fault_ns ~dets =
  let det_sum key =
    List.fold_left
      (fun acc d ->
        acc + Option.value ~default:0 (Option.bind (Json.member key d) Json.to_int))
      0 dets
  in
  let total = List.fold_left (fun a x -> a +. Int64.to_float x) 0. fault_ns in
  [ ("engine.fault_slot_ms",
     ratio total (float_of_int (List.length fault_ns)) /. 1e6);
    ("engine.stranded_files", float_of_int (det_sum "stranded"));
    ("engine.recovered_files", float_of_int (det_sum "recovered"));
    ("engine.lost_files", float_of_int (det_sum "lost")) ]

(* Self time per span name plus the uncovered remainder: the rows of the
   layer table, which add up to the traced wall time. The span tree is
   checked first; self times of a well-formed tree are never negative. *)
let self_table ~wall_ns =
  check_spans ();
  let tot = span_totals () in
  let rows =
    Hashtbl.fold (fun name (_, _, self) acc -> (name, self) :: acc) tot []
    |> List.sort compare
  in
  let uncovered = Int64.sub wall_ns (root_ns ()) in
  (tot, rows @ [ ("uncovered", uncovered) ], uncovered)

let incl tot name =
  match Hashtbl.find_opt tot name with
  | Some (calls, incl, self) ->
      (float_of_int calls, Int64.to_float incl, Int64.to_float self)
  | None -> (0., 0., 0.)

(* ------------------------------------------------------------------ *)
(* Output *)

let ns_list a =
  Json.List (Array.to_list (Array.map (fun x -> Json.Int (Int64.to_int x)) a))

let int_list a = Json.List (Array.to_list (Array.map (fun x -> Json.Int x) a))
let ns x = Json.Int (Int64.to_int x)
let print_result fields = print_endline (Json.to_string (Json.Obj fields))

let stamps ~launched_ns ~ready =
  [ ("process_ns", ns (Int64.sub t_main launched_ns));
    ("build_ns", ns (Int64.sub ready t_main));
    ("setup_ns", ns (Int64.sub ready launched_ns)) ]

let det_list dets =
  Json.List
    (List.mapi (fun i d -> Json.Obj [ ("instance", Json.Int i); ("det", d) ]) dets)

let strip_counts = function
  | Json.Obj fields ->
      Json.Obj
        (List.filter (fun (k, _) -> k <> "solves" && k <> "pivots") fields)
  | j -> j

(* Deterministic outputs must not depend on the replay or on tracing;
   solve and pivot counts exist only for traced runs. *)
let same_outputs ~what ~between a b =
  if Json.to_string (strip_counts a) <> Json.to_string (strip_counts b) then
    violation "deterministic outputs: %s differs between %s: %s vs %s" what
      between (Json.to_string a) (Json.to_string b)

(* Element-wise median of the per-replay time arrays of one instance. *)
let medians = function
  | [] -> [||]
  | r :: _ as rows ->
      Array.init (Array.length r) (fun k ->
          median_ns (List.map (fun a -> a.(k)) rows))

let trace_result ~layers ~rows ~wall_ns ~dets ~chrome ~t0 extra =
  if chrome <> "" then begin
    let oc = open_out chrome in
    output_string oc (Json.to_string (chrome_trace ~t0));
    close_out oc
  end;
  print_result
    ([ ("kind", Json.Str "trace");
       ("wall_ns", ns wall_ns);
       ("self_ns",
        Json.Obj (List.map (fun (n, v) -> (n, ns v)) rows));
       ("layers", Json.Obj (List.map (fun (n, v) -> (n, fl v)) layers));
       ("spans", Json.Int !n_spans);
       ("instances", det_list dets) ]
    @ extra)

(* The traced phase replays each instance twice, untraced and traced; it
   covers the first [sh.traced] instances, which keeps a traced run within
   its time limit on a slow host. *)
let traced_set sh insts = Array.sub insts 0 (min sh.traced (Array.length insts))

(* Replay the instance set once, and again while another replay as long
   as the last one still ends before [deadline]. Returns the number of
   replays. *)
let replay_until deadline replay =
  let rec go n =
    let a = now () in
    replay ();
    let b = now () in
    if Int64.compare (Int64.add b (Int64.sub b a)) deadline <= 0 then
      go (n + 1)
    else n
  in
  go 1

let batch_main sh ~mode ~seed ~deadline ~launched_ns ~chrome =
  (* Inputs first: every script is generated before the first timed step,
     so the program only ever receives generated files. *)
  let insts =
    Array.init sh.instances (fun i ->
        let iseed = instance_seed ~seed i in
        { base = topology sh ~iseed; arrivals = script sh ~iseed })
  in
  let scheduler = Scheduler.make_exn "postcard" in
  let first =
    Engine.make ~base:insts.(0).base ~scheduler
      ~workload:(Workload.scripted []) ~slots:sh.slots ()
  in
  ignore (Engine.init first);
  let ready = now () in
  match mode with
  | "setup" ->
      print_result (("kind", Json.Str "setup") :: stamps ~launched_ns ~ready)
  | "run" ->
      (* Per instance, its first replay and the times of every replay. *)
      let first = Array.make sh.instances None in
      let times = Array.make sh.instances [] in
      let cycles =
        replay_until deadline (fun () ->
            Array.iteri
              (fun i inst ->
                maybe_probe ~wire:false;
                let e = batch_episode sh inst ~scheduler ~traced:false ~pid:i in
                (match first.(i) with
                 | None -> first.(i) <- Some e
                 | Some b ->
                     let what = Printf.sprintf "instance %d" i in
                     same_outputs ~what ~between:"replays" b.det e.det;
                     if e.decided <> b.decided then
                       violation "%s: verdicts per slot differ between replays"
                         what);
                times.(i) <- (e.at, e.wall_ns, e.step_ns) :: times.(i))
              insts)
      in
      let hwm_kb = vm_hwm_kb "self" in
      let speed = host_speed () in
      let episodes =
        Array.to_list
          (Array.mapi
             (fun i e ->
               let e = Option.get e in
               (* Medians over replays, as measured ([raw]) and at
                  reference host speed ([scaled]). *)
               let walls f = List.map (fun (at, w, _) -> f at w) times.(i) in
               let steps f =
                 List.map (fun (at, _, s) -> Array.map (f at) s) times.(i)
               in
               let raw _ x = x and scaled at = at_speed (speed at) in
               Json.Obj
                 [ ("instance", Json.Int i);
                   ("wall_ns", ns (median_ns (walls raw)));
                   ("wall_ref_ns", ns (median_ns (walls scaled)));
                   ("step_ns", ns_list (medians (steps raw)));
                   ("step_ref_ns", ns_list (medians (steps scaled)));
                   ("decided", int_list e.decided);
                   ("det", e.det) ])
             first)
      in
      print_result
        ([ ("kind", Json.Str "run");
           ("cycles", Json.Int cycles);
           ("hwm_kb", Json.Int hwm_kb);
           ("episodes", Json.List episodes) ]
        @ probe_fields () @ stamps ~launched_ns ~ready)
  | "trace" ->
      let t0 = now () in
      let plain_ns = ref 0L and wall_ns = ref 0L in
      let dets =
        Array.to_list
          (Array.mapi
             (fun i inst ->
               let plain =
                 batch_episode sh inst ~scheduler ~traced:false ~pid:i
               in
               let traced =
                 timed ~schedule_span:"sched.schedule"
                   (Scheduler.make_exn "postcard")
               in
               let tr =
                 batch_episode sh inst ~scheduler:traced ~traced:true ~pid:i
               in
               add_counters ();
               same_outputs ~what:(Printf.sprintf "instance %d" i)
                 ~between:"traced and untraced runs" plain.det tr.det;
               plain_ns := Int64.add !plain_ns plain.wall_ns;
               wall_ns := Int64.add !wall_ns tr.wall_ns;
               tr.det)
             (traced_set sh insts))
      in
      let tot, rows, uncovered = self_table ~wall_ns:!wall_ns in
      let step_calls, step_incl, step_self = incl tot "engine.step" in
      let sched_calls, sched_incl, _ = incl tot "sched.schedule" in
      let layers =
        [ ("engine.step_self_ms", ratio step_self step_calls /. 1e6);
          ("sched.schedule_ms", ratio sched_incl sched_calls /. 1e6);
          ("sched.share_pct", 100. *. ratio sched_incl step_incl) ]
        @ lp_layers ~slots:(List.length dets * sh.slots) ~lp_span:"sched.schedule"
            ~lp_ns:sched_incl
        @ [ ("trace.overhead_pct",
             100. *. (ratio (Int64.to_float !wall_ns) (Int64.to_float !plain_ns) -. 1.));
            ("trace.uncovered_pct",
             100. *. ratio (Int64.to_float uncovered) (Int64.to_float !wall_ns)) ]
      in
      trace_result ~layers ~rows ~wall_ns:!wall_ns ~dets ~chrome ~t0 []
  | m -> invalid_arg ("unknown mode " ^ m)

let serve_main sh ~mode ~seed ~deadline ~launched_ns ~chrome ~serve_exe =
  let insts =
    Array.init sh.instances (fun i ->
        let iseed = instance_seed ~seed i in
        { iseed; sbase = topology sh ~iseed;
          requests = submits (script sh ~iseed) })
  in
  match mode with
  | "setup" ->
      (* The daemon's start-up, in-process: topology, scheduler, session
         and the hello of one connection. *)
      let session =
        Session.create ~base:insts.(0).sbase
          ~scheduler:(Scheduler.make_exn "postcard-tiered")
          ~slots:(sh.slots + 1) ~faults:(faults_of sh) ~clock:"manual" ()
      in
      ignore (Session.connect session 0);
      let ready = now () in
      print_result (("kind", Json.Str "setup") :: stamps ~launched_ns ~ready)
  | "run" ->
      (* Per instance, its first session and the times of every session;
         every daemon launch is a set-up and a VmHWM sample. *)
      let first = Array.make sh.instances None in
      let sessions = Array.make sh.instances [] in
      let setups = ref [] and hwms = ref [] in
      let cycles =
        replay_until deadline (fun () ->
            Array.iteri
              (fun i inst ->
                maybe_probe ~wire:true;
                let w = wire_session sh inst ~serve_exe in
                setups := w.setup_ns :: !setups;
                hwms := w.hwm_kb :: !hwms;
                (match first.(i) with
                 | None -> first.(i) <- Some w
                 | Some b ->
                     same_outputs ~what:(Printf.sprintf "instance %d" i)
                       ~between:"replays" b.w_det w.w_det);
                sessions.(i) <- w :: sessions.(i))
              insts)
      in
      (* Per instance, medians over its sessions, as measured ([raw]) and
         at reference host speed ([scaled]). *)
      let speed = host_speed () in
      let raw _ x = x and scaled w = at_speed (speed w.loop_at) in
      let loop f i =
        ns (median_ns (List.map (fun w -> f w w.loop_ns) sessions.(i)))
      in
      let each f times i =
        ns_list
          (medians (List.map (fun w -> Array.map (f w) (times w)) sessions.(i)))
      in
      let verdicts w = w.verdict_ns and slots w = w.slot_ns in
      print_result
        ([ ("kind", Json.Str "run");
           ("cycles", Json.Int cycles);
           ("setups_ns", ns_list (Array.of_list !setups));
           ("hwm_kb", int_list (Array.of_list !hwms));
           ("sessions",
            Json.List
              (Array.to_list
                 (Array.mapi
                    (fun i w ->
                      let w = Option.get w in
                      Json.Obj
                        [ ("instance", Json.Int i);
                          ("loop_ns", loop raw i);
                          ("loop_ref_ns", loop scaled i);
                          ("verdict_ns", each raw verdicts i);
                          ("verdict_ref_ns", each scaled verdicts i);
                          ("slot_ns", each raw slots i);
                          ("slot_ref_ns", each scaled slots i);
                          ("det", w.w_det) ])
                    first))) ]
        @ probe_fields ())
  | "trace" ->
      let t0 = now () in
      let plain_ns = ref 0L and wall_ns = ref 0L in
      let online = ref [] and events = ref 0 and lines = ref 0 in
      let fault_ns = ref [] in
      let dets =
        Array.to_list
          (Array.mapi
             (fun i inst ->
               let plain = replay sh inst ~traced:false ~pid:i in
               let tr = replay sh inst ~traced:true ~pid:i in
               add_counters ();
               same_outputs ~what:(Printf.sprintf "instance %d" i)
                 ~between:"traced and untraced runs" plain.r_det tr.r_det;
               plain_ns := Int64.add !plain_ns plain.r_wall_ns;
               wall_ns := Int64.add !wall_ns tr.r_wall_ns;
               online := plain.online_ns :: !online;
               fault_ns := tr.fault_tick_ns @ !fault_ns;
               events := !events + tr.events;
               lines := !lines + tr.lines;
               match tr.r_det with
               | Json.Obj f -> Json.Obj (f @ tr.r_counts)
               | j -> j)
             (traced_set sh insts))
      in
      let tot, rows, uncovered = self_table ~wall_ns:!wall_ns in
      let tick_calls, tick_incl, tick_self = incl tot "session.tick" in
      let sched_calls, sched_incl, _ = incl tot "sched.schedule" in
      let fb_calls, fb_incl, _ = incl tot "tier.fallback" in
      let on_calls, _, on_self = incl tot "session.on_line" in
      let _, enc_incl, _ = incl tot "protocol.encode" in
      (* Per-request admits only: at fault ticks the tiered batch schedule
         re-offers stranded files to the fast tier as well. *)
      let admits = calls_named "sched.admit" in
      let admit_calls, admit_incl, _ = incl tot "sched.admit" in
      let ledger_calls, ledger_incl = under ~parent:"sched.admit" "tier.fast" in
      let dec_calls, dec_incl = under ~parent:"serve.request" "protocol.decode" in
      let fast = List.fold_left (fun a k -> a + k.fast_admits) 0 admits in
      let layers =
        [ ("engine.step_self_ms", ratio tick_self tick_calls /. 1e6) ]
        @ fault_layers ~fault_ns:!fault_ns ~dets
        @ [ ("sched.schedule_ms", ratio sched_incl sched_calls /. 1e6);
          ("sched.share_pct", 100. *. ratio sched_incl tick_incl) ]
        @ lp_layers ~slots:(List.length dets * sh.slots) ~lp_span:"tier.fallback"
            ~lp_ns:fb_incl
        @ [ ("sched.admit_us", ratio admit_incl admit_calls /. 1e3);
            ("tier.fast_pct",
             100. *. ratio (float_of_int fast) (float_of_int (List.length admits)));
            ("tier.fallback_ms", ratio fb_incl fb_calls /. 1e6);
            ("ledger.admit_us", ratio ledger_incl ledger_calls /. 1e3);
            (* on_line decodes the line itself: take the decoder's time on
               the same lines off its self time. *)
            ("session.self_us",
             (ratio on_self on_calls -. ratio dec_incl dec_calls) /. 1e3);
            ("protocol.decode_us", ratio dec_incl dec_calls /. 1e3);
            ("protocol.encode_us", ratio enc_incl (float_of_int !events) /. 1e3);
            ("protocol.events_per_request",
             ratio (float_of_int !events) (float_of_int !lines));
            ("trace.overhead_pct",
             100. *. (ratio (Int64.to_float !wall_ns) (Int64.to_float !plain_ns) -. 1.));
            ("trace.uncovered_pct",
             100. *. ratio (Int64.to_float uncovered) (Int64.to_float !wall_ns)) ]
      in
      trace_result ~layers ~rows ~wall_ns:!wall_ns ~dets ~chrome ~t0
        [ ("online_ns", ns_list (Array.concat (List.rev !online))) ]
  | m -> invalid_arg ("unknown mode " ^ m)

let () =
  let workload = ref "" and seed = ref 1 and mode = ref "run" in
  let seconds = ref 1. and launched = ref "0" in
  let serve_exe = ref "" and chrome = ref "" in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME workload");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--mode", Arg.Set_string mode, "MODE setup, run or trace");
      ("--seconds", Arg.Set_float seconds,
       "S replay the instance set as often as fits in S seconds (at least once)");
      ("--launched-ns", Arg.Set_string launched,
       "NS CLOCK_MONOTONIC reading taken just before this process launched");
      ("--serve-exe", Arg.Set_string serve_exe, "PATH postcard_serve binary");
      ("--probe-exe", Arg.Set_string probe_exe, "PATH host-speed probe binary");
      ("--chrome", Arg.Set_string chrome, "FILE Chrome trace output (trace)") ]
    (fun a -> raise (Arg.Bad a))
    "worker --workload NAME --seed N --mode setup|run|trace";
  let launched_ns = Int64.of_string !launched in
  let sh = shape_of !workload in
  let deadline = Int64.add (now ()) (Int64.of_float (!seconds *. 1e9)) in
  try
    if !workload = "serve-loopback" then
      serve_main sh ~mode:!mode ~seed:!seed ~deadline ~launched_ns
        ~chrome:!chrome ~serve_exe:!serve_exe
    else
      batch_main sh ~mode:!mode ~seed:!seed ~deadline ~launched_ns
        ~chrome:!chrome
  with Violation msg ->
    Printf.eprintf "worker: %s: invariant violated: %s\n%!" !workload msg;
    exit 3
