let log_src = Logs.Src.create "postcard.scheduler" ~doc:"Postcard scheduler"

module Log = (val Logs.src_log log_src : Logs.LOG)

(* The tie-break weight of every epoch's program; {!Formulate.create}'s
   own default is 1e-4. *)
let tie_break = 1e-7

let make () =
  (* The previous epoch's optimal basis, re-keyed by stable structural
     keys. Consecutive epochs share most of their columns and rows (the
     horizon slides by one slot), so re-optimizing from this basis
     typically saves the bulk of the pivots. Correctness never depends on
     it: the solver re-solves cold whatever it cannot finish from it. *)
  let carried : Basis_map.t option ref = ref None in
  let schedule (ctx : Scheduler.context) files =
    (* A file whose destination is out of hop range has no time-expanded
       subgraph at all: formulating it would silently satisfy it with
       zero volume. Reject it up front. *)
    let files, unroutable =
      List.partition
        (Texp_lp.deliverable ~base:ctx.Scheduler.base)
        files
    in
    if files = [] then
      { Scheduler.plan = Plan.empty; accepted = []; rejected = unroutable }
    else begin
      let capacity ~link ~layer = Scheduler.capacity_at_epoch ctx ~link ~layer in
      let try_solve subset =
        if subset = [] then
          Some
            ( Formulate.Scheduled
                { plan = Plan.empty;
                  objective = 0.;
                  charged = Array.copy ctx.Scheduler.charged },
              None )
        else begin
          let formulation =
            Formulate.create ~base:ctx.Scheduler.base
              ~charged:ctx.Scheduler.charged ~capacity ~files:subset
              ~epoch:ctx.Scheduler.epoch ~tie_break ()
          in
          match Formulate.solve_with_info ?warm_start:!carried formulation with
          | Formulate.Scheduled _ as s, info ->
              Some (s, info.Formulate.basis)
          | Formulate.Infeasible, _ -> None
          | Formulate.Solver_failure msg, _ ->
              Log.warn (fun m ->
                  m "epoch %d: solver failure (%s); treating as infeasible"
                    ctx.Scheduler.epoch msg);
              None
        end
      in
      match Scheduler.admit_greedy ~files ~try_solve with
      | Some ((Formulate.Scheduled { plan; _ }, basis), accepted, rejected) ->
          (* Carry only the accepted solve's basis forward; when nothing
             was solved (all files dropped) the previous one stays. *)
          (match basis with Some _ -> carried := basis | None -> ());
          { Scheduler.plan; accepted; rejected = rejected @ unroutable }
      | Some (((Formulate.Infeasible | Formulate.Solver_failure _), _), _, _) ->
          assert false
      | None ->
          (* Even the empty instance failed; nothing we can do. *)
          { Scheduler.plan = Plan.empty; accepted = [];
            rejected = files @ unroutable }
    end
  in
  Scheduler.observe
    (Scheduler.create ~name:"postcard" ~fluid:false
       ~reset:(fun () -> carried := None)
       schedule)

let () =
  Scheduler.register ~name:"postcard"
    ~doc:
      "The paper's online algorithm: per-epoch LP over the time-expanded \
       store-and-forward graph, warm-started from the previous basis."
    (fun () -> make ())
