module Status = Lp.Status

type col_key =
  | Flow_tx of { file : int; link : int; slot : int }
  | Flow_store of { file : int; node : int; slot : int }
  | Charge of { link : int }
  | Supply of { file : int }
  | Anon_col of int

type row_key =
  | Conservation of { file : int; node : int; slot : int }
  | Capacity of { link : int; slot : int }
  | Charge_dom of { link : int; slot : int }
  | Anon_row of int

type keymap = {
  cols : col_key array;
  rows : row_key array;
}

module Registry = struct
  type t = {
    mutable cols : (int * col_key) list;
    mutable rows : (int * row_key) list;
  }

  let create () = { cols = []; rows = [] }

  let set_col t (v : Lp.Model.var) k = t.cols <- ((v :> int), k) :: t.cols
  let set_row t (r : Lp.Model.row) k = t.rows <- ((r :> int), k) :: t.rows

  let keymap t ~model =
    let cols = Array.init (Lp.Model.num_vars model) (fun j -> Anon_col j) in
    let rows = Array.init (Lp.Model.num_rows model) (fun i -> Anon_row i) in
    List.iter (fun (j, k) -> cols.(j) <- k) t.cols;
    List.iter (fun (i, k) -> rows.(i) <- k) t.rows;
    ({ cols; rows } : keymap)
end

type t = {
  col_status : (col_key, Status.Basis.var_status) Hashtbl.t;
  row_status : (row_key, Status.Basis.var_status) Hashtbl.t;
}

let capture keymap (basis : Status.Basis.t) =
  if
    Status.Basis.num_cols basis <> Array.length keymap.cols
    || Status.Basis.num_rows basis <> Array.length keymap.rows
  then invalid_arg "Basis_map.capture: keymap/basis size mismatch";
  let col_status = Hashtbl.create (Array.length keymap.cols) in
  Array.iteri
    (fun j k -> Hashtbl.replace col_status k (Status.Basis.col_status basis j))
    keymap.cols;
  let row_status = Hashtbl.create (Array.length keymap.rows) in
  Array.iteri
    (fun i k -> Hashtbl.replace row_status k (Status.Basis.row_status basis i))
    keymap.rows;
  { col_status; row_status }

(* Defaults for keys the snapshot has never seen. A brand-new column starts
   nonbasic at its bound (the cold-start choice); a brand-new row starts
   with its slack basic, i.e. the row inactive — for the capacity and
   dominance rows of fresh files that is almost always the optimal status,
   and for the equality rows the fixed slack starts basic and the solver's
   dual re-opt drives it to zero like any other bound violation. *)
let apply t keymap =
  let cols =
    Array.map
      (fun k ->
        match Hashtbl.find_opt t.col_status k with
        | Some s -> s
        | None -> Status.Basis.At_lower)
      keymap.cols
  in
  let rows =
    Array.map
      (fun k ->
        match Hashtbl.find_opt t.row_status k with
        | Some s -> s
        | None -> Status.Basis.Basic)
      keymap.rows
  in
  Status.Basis.make ~cols ~rows

let hit_rate t keymap =
  let hits = ref 0 in
  Array.iter
    (fun k -> if Hashtbl.mem t.col_status k then incr hits)
    keymap.cols;
  Array.iter
    (fun k -> if Hashtbl.mem t.row_status k then incr hits)
    keymap.rows;
  let total = Array.length keymap.cols + Array.length keymap.rows in
  if total = 0 then 1. else float_of_int !hits /. float_of_int total
