let log_src = Logs.Src.create "postcard.scheduler" ~doc:"Postcard scheduler"

module Log = (val Logs.src_log log_src : Logs.LOG)

(* The tie-break weight of every epoch's program; {!Formulate.create}'s
   own default is 1e-4. *)
let tie_break = 1e-7

let make () =
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
        if subset = [] then Some Plan.empty
        else begin
          let formulation =
            Formulate.create ~base:ctx.Scheduler.base
              ~charged:ctx.Scheduler.charged ~capacity ~files:subset
              ~epoch:ctx.Scheduler.epoch ~tie_break ()
          in
          match Formulate.solve formulation with
          | Formulate.Scheduled { plan; _ } -> Some plan
          | Formulate.Infeasible -> None
          | Formulate.Solver_failure msg ->
              Log.warn (fun m ->
                  m "epoch %d: solver failure (%s); treating as infeasible"
                    ctx.Scheduler.epoch msg);
              None
        end
      in
      match Scheduler.admit_greedy ~files ~try_solve with
      | Some (plan, accepted, rejected) ->
          { Scheduler.plan; accepted; rejected = rejected @ unroutable }
      | None ->
          (* Even the empty instance failed; nothing we can do. *)
          { Scheduler.plan = Plan.empty; accepted = [];
            rejected = files @ unroutable }
    end
  in
  Scheduler.observe (Scheduler.stateless ~name:"postcard" ~fluid:false schedule)

let () =
  Scheduler.register ~name:"postcard"
    ~doc:
      "The paper's online algorithm: per-epoch LP over the time-expanded \
       store-and-forward graph, solved dual-first from the slack basis."
    (fun () -> make ())
