type var = int
type row = int

type sense = Le | Ge | Eq

type objective_sense = Minimize | Maximize

type row_data = {
  r_name : string;
  r_terms : (var * float) list; (* deduplicated, ascending by variable *)
  r_sense : sense;
  r_rhs : float;
}

type t = {
  m_name : string;
  m_sense : objective_sense;
  mutable vars_name : string array;
  mutable vars_lb : float array;
  mutable vars_ub : float array;
  mutable vars_obj : float array;
  mutable n_vars : int;
  mutable rows : row_data array;
  mutable n_rows : int;
}

let create ?(name = "lp") sense =
  { m_name = name; m_sense = sense;
    vars_name = Array.make 16 "";
    vars_lb = Array.make 16 0.;
    vars_ub = Array.make 16 0.;
    vars_obj = Array.make 16 0.;
    n_vars = 0;
    rows = Array.make 16 { r_name = ""; r_terms = []; r_sense = Eq; r_rhs = 0. };
    n_rows = 0 }

let name t = t.m_name
let objective_sense t = t.m_sense

let grow_vars t =
  let cap = Array.length t.vars_name in
  if t.n_vars = cap then begin
    let cap' = 2 * cap in
    let ext a fill =
      let a' = Array.make cap' fill in
      Array.blit a 0 a' 0 t.n_vars;
      a'
    in
    t.vars_name <- ext t.vars_name "";
    t.vars_lb <- ext t.vars_lb 0.;
    t.vars_ub <- ext t.vars_ub 0.;
    t.vars_obj <- ext t.vars_obj 0.
  end

let add_var t ?name ?(lb = 0.) ?(ub = infinity) ?(obj = 0.) () =
  if Float.is_nan lb || Float.is_nan ub then
    invalid_arg "Model.add_var: NaN bound";
  if lb > ub then invalid_arg "Model.add_var: lb > ub";
  grow_vars t;
  let id = t.n_vars in
  (* Names are lazy: the empty string marks "unset" and [var_name]
     synthesizes ["x<id>"] on demand. At bench scale the eager sprintf per
     variable was pure allocation overhead. *)
  (match name with Some n -> t.vars_name.(id) <- n | None -> ());
  t.vars_lb.(id) <- lb;
  t.vars_ub.(id) <- ub;
  t.vars_obj.(id) <- obj;
  t.n_vars <- id + 1;
  id

let add_vars t k ?lb ?ub ?obj () =
  Array.init k (fun _ -> add_var t ?lb ?ub ?obj ())

let check_var t v =
  if v < 0 || v >= t.n_vars then invalid_arg "Model: unknown variable"

let check_row t r =
  if r < 0 || r >= t.n_rows then invalid_arg "Model: unknown row"

let add_obj t v c =
  check_var t v;
  t.vars_obj.(v) <- t.vars_obj.(v) +. c

let dedup_terms terms =
  let sorted = List.sort (fun (a, _) (b, _) -> compare a b) terms in
  let rec merge = function
    | [] -> []
    | [ t ] -> [ t ]
    | (v1, c1) :: (v2, c2) :: rest when v1 = v2 ->
        merge ((v1, c1 +. c2) :: rest)
    | t :: rest -> t :: merge rest
  in
  List.filter (fun (_, c) -> c <> 0.) (merge sorted)

let add_constraint t ?name terms sense rhs =
  List.iter (fun (v, _) -> check_var t v) terms;
  let id = t.n_rows in
  let rname = match name with Some n -> n | None -> "" in
  if t.n_rows = Array.length t.rows then begin
    let rows' =
      Array.make (2 * Array.length t.rows)
        { r_name = ""; r_terms = []; r_sense = Eq; r_rhs = 0. }
    in
    Array.blit t.rows 0 rows' 0 t.n_rows;
    t.rows <- rows'
  end;
  t.rows.(id) <-
    { r_name = rname; r_terms = dedup_terms terms; r_sense = sense; r_rhs = rhs };
  t.n_rows <- id + 1;
  id

let num_vars t = t.n_vars
let num_rows t = t.n_rows

let var_of_index t i =
  check_var t i;
  i

let row_of_index t i =
  check_row t i;
  i

let var_name t v =
  check_var t v;
  let n = t.vars_name.(v) in
  if n = "" then Printf.sprintf "x%d" v else n

let row_name t r =
  check_row t r;
  let n = t.rows.(r).r_name in
  if n = "" then Printf.sprintf "r%d" r else n
let lower_bound t v = check_var t v; t.vars_lb.(v)
let upper_bound t v = check_var t v; t.vars_ub.(v)
let obj_coeff t v = check_var t v; t.vars_obj.(v)

let row_terms t r = check_row t r; t.rows.(r).r_terms

let iter_rows t f =
  for r = 0 to t.n_rows - 1 do
    let row = t.rows.(r) in
    f r row.r_terms row.r_sense row.r_rhs
  done

let objective_value t x =
  if Array.length x <> t.n_vars then
    invalid_arg "Model.objective_value: assignment size mismatch";
  let acc = ref 0. in
  for v = 0 to t.n_vars - 1 do
    acc := !acc +. (t.vars_obj.(v) *. x.(v))
  done;
  !acc

let constraint_violation t x =
  if Array.length x <> t.n_vars then
    invalid_arg "Model.constraint_violation: assignment size mismatch";
  let worst = ref 0. in
  for v = 0 to t.n_vars - 1 do
    if x.(v) < t.vars_lb.(v) then worst := max !worst (t.vars_lb.(v) -. x.(v));
    if x.(v) > t.vars_ub.(v) then worst := max !worst (x.(v) -. t.vars_ub.(v))
  done;
  iter_rows t (fun _ terms sense rhs ->
      let lhs = List.fold_left (fun acc (v, c) -> acc +. (c *. x.(v))) 0. terms in
      let viol =
        match sense with
        | Le -> lhs -. rhs
        | Ge -> rhs -. lhs
        | Eq -> abs_float (lhs -. rhs)
      in
      if viol > !worst then worst := viol);
  !worst
