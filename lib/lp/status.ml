type solve_path = Dual | Two_phase

type stats = {
  phase1_pivots : int;
  phase2_pivots : int;
  dual_pivots : int;
  refactorizations : int;
  eta_peak : int;
  bound_flips : int;
  perturbations : int;
  path : solve_path;
}

let no_stats = {
  phase1_pivots = 0;
  phase2_pivots = 0;
  dual_pivots = 0;
  refactorizations = 0;
  eta_peak = 0;
  bound_flips = 0;
  perturbations = 0;
  path = Two_phase;
}

type solution = {
  objective : float;
  primal : float array;
  dual : float array;
  reduced_costs : float array;
  iterations : int;
  stats : stats;
}

type outcome =
  | Optimal of solution
  | Infeasible
  | Unbounded
  | Iteration_limit

let get_optimal = function
  | Optimal s -> s
  | Infeasible -> failwith "Lp.Status.get_optimal: infeasible"
  | Unbounded -> failwith "Lp.Status.get_optimal: unbounded"
  | Iteration_limit -> failwith "Lp.Status.get_optimal: iteration limit"

let solve_path_name = function Dual -> "dual" | Two_phase -> "two_phase"

let pp_outcome ppf = function
  | Optimal s ->
      Format.fprintf ppf "optimal (objective %g, %d iterations)" s.objective
        s.iterations
  | Infeasible -> Format.pp_print_string ppf "infeasible"
  | Unbounded -> Format.pp_print_string ppf "unbounded"
  | Iteration_limit -> Format.pp_print_string ppf "iteration limit"
