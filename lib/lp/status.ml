module Basis = struct
  type var_status = Basic | At_lower | At_upper | Free

  type t = {
    cols : var_status array;  (* one per structural variable *)
    rows : var_status array;  (* one per row: the status of its slack *)
  }

  let make ~cols ~rows = { cols = Array.copy cols; rows = Array.copy rows }
  let num_cols b = Array.length b.cols
  let num_rows b = Array.length b.rows
  let col_status b j = b.cols.(j)
  let row_status b i = b.rows.(i)

  let count_basic b =
    let count =
      Array.fold_left
        (fun acc s -> if s = Basic then acc + 1 else acc)
        0
    in
    count b.cols + count b.rows

  let pp ppf b =
    Format.fprintf ppf "basis (%d cols, %d rows, %d basic)" (num_cols b)
      (num_rows b) (count_basic b)
end

type warm_start_outcome =
  | No_warm_start
  | Dual_reopt
  | Warm_fell_back

type stats = {
  phase1_pivots : int;
  phase2_pivots : int;
  dual_pivots : int;
  refactorizations : int;
  eta_peak : int;
  bound_flips : int;
  perturbations : int;
  bland : bool;
  warm_start : warm_start_outcome;
}

let no_stats = {
  phase1_pivots = 0;
  phase2_pivots = 0;
  dual_pivots = 0;
  refactorizations = 0;
  eta_peak = 0;
  bound_flips = 0;
  perturbations = 0;
  bland = false;
  warm_start = No_warm_start;
}

type solution = {
  objective : float;
  primal : float array;
  dual : float array;
  reduced_costs : float array;
  iterations : int;
  stats : stats;
  basis : Basis.t option;
}

type outcome =
  | Optimal of solution
  | Infeasible
  | Unbounded
  | Iteration_limit

let is_optimal = function Optimal _ -> true | Infeasible | Unbounded | Iteration_limit -> false

let get_optimal = function
  | Optimal s -> s
  | Infeasible -> failwith "Lp.Status.get_optimal: infeasible"
  | Unbounded -> failwith "Lp.Status.get_optimal: unbounded"
  | Iteration_limit -> failwith "Lp.Status.get_optimal: iteration limit"

let warm_start_outcome_name = function
  | No_warm_start -> "none"
  | Dual_reopt -> "dual_reopt"
  | Warm_fell_back -> "fell_back"

let pp_warm_start_outcome ppf = function
  | No_warm_start -> Format.pp_print_string ppf "cold"
  | Dual_reopt -> Format.pp_print_string ppf "warm (dual re-opt)"
  | Warm_fell_back -> Format.pp_print_string ppf "warm rejected (cold fallback)"

let pp_stats ppf s =
  Format.fprintf ppf
    "%d+%d+%dd pivots, %d refactorizations, eta peak %d, %d bound flips, %a"
    s.phase1_pivots s.phase2_pivots s.dual_pivots s.refactorizations s.eta_peak
    s.bound_flips pp_warm_start_outcome s.warm_start;
  if s.perturbations > 0 then
    Format.fprintf ppf ", %d perturbation round(s)" s.perturbations;
  if s.bland then Format.fprintf ppf ", bland"

let pp_outcome ppf = function
  | Optimal s ->
      Format.fprintf ppf "optimal (objective %g, %d iterations)" s.objective
        s.iterations
  | Infeasible -> Format.pp_print_string ppf "infeasible"
  | Unbounded -> Format.pp_print_string ppf "unbounded"
  | Iteration_limit -> Format.pp_print_string ppf "iteration limit"
