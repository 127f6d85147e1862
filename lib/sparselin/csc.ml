type t = {
  nrows : int;
  ncols : int;
  colptr : int array; (* length ncols + 1 *)
  rowind : int array; (* length nnz, sorted within each column *)
  values : float array; (* length nnz *)
}

type builder = {
  b_nrows : int;
  b_ncols : int;
  mutable rows : int array;
  mutable cols : int array;
  mutable vals : float array;
  mutable len : int;
}

let builder ~nrows ~ncols =
  if nrows < 0 || ncols < 0 then invalid_arg "Csc.builder: negative dimension";
  { b_nrows = nrows; b_ncols = ncols;
    rows = Array.make 16 0; cols = Array.make 16 0; vals = Array.make 16 0.;
    len = 0 }

let grow b =
  let cap = Array.length b.rows in
  let cap' = (2 * cap) + 1 in
  let extend a fill =
    let a' = Array.make cap' fill in
    Array.blit a 0 a' 0 b.len;
    a'
  in
  b.rows <- extend b.rows 0;
  b.cols <- extend b.cols 0;
  b.vals <- extend b.vals 0.

let add b ~row ~col v =
  if row < 0 || row >= b.b_nrows then invalid_arg "Csc.add: row out of range";
  if col < 0 || col >= b.b_ncols then invalid_arg "Csc.add: col out of range";
  if b.len = Array.length b.rows then grow b;
  b.rows.(b.len) <- row;
  b.cols.(b.len) <- col;
  b.vals.(b.len) <- v;
  b.len <- b.len + 1

let finalize b =
  let nrows = b.b_nrows and ncols = b.b_ncols in
  (* Counting sort by column, then sort each column's rows and merge
     duplicates. *)
  let counts = Array.make (ncols + 1) 0 in
  for k = 0 to b.len - 1 do
    counts.(b.cols.(k) + 1) <- counts.(b.cols.(k) + 1) + 1
  done;
  for j = 1 to ncols do
    counts.(j) <- counts.(j) + counts.(j - 1)
  done;
  let pos = Array.copy counts in
  let rowind = Array.make b.len 0 and values = Array.make b.len 0. in
  for k = 0 to b.len - 1 do
    let j = b.cols.(k) in
    rowind.(pos.(j)) <- b.rows.(k);
    values.(pos.(j)) <- b.vals.(k);
    pos.(j) <- pos.(j) + 1
  done;
  (* Sort and deduplicate each column in place, writing compacted output. *)
  let out_rows = Array.make b.len 0 and out_vals = Array.make b.len 0. in
  let colptr = Array.make (ncols + 1) 0 in
  let out = ref 0 in
  for j = 0 to ncols - 1 do
    colptr.(j) <- !out;
    let lo = counts.(j) and hi = counts.(j + 1) in
    let width = hi - lo in
    if width > 0 then begin
      let idx = Array.init width (fun k -> lo + k) in
      Array.sort (fun a b -> compare rowind.(a) rowind.(b)) idx;
      let k = ref 0 in
      while !k < width do
        let row = rowind.(idx.(!k)) in
        let acc = ref 0. in
        while !k < width && rowind.(idx.(!k)) = row do
          acc := !acc +. values.(idx.(!k));
          incr k
        done;
        if !acc <> 0. then begin
          out_rows.(!out) <- row;
          out_vals.(!out) <- !acc;
          incr out
        end
      done
    end
  done;
  colptr.(ncols) <- !out;
  { nrows; ncols;
    colptr;
    rowind = Array.sub out_rows 0 !out;
    values = Array.sub out_vals 0 !out }

let of_sorted_columns ~nrows ~ncols ~colptr ~rowind ~values =
  let bad what = invalid_arg ("Csc.of_sorted_columns: " ^ what) in
  if nrows < 0 || ncols < 0 then bad "negative dimension";
  if Array.length colptr <> ncols + 1 || colptr.(0) <> 0 then bad "colptr";
  let nnz = colptr.(ncols) in
  if Array.length rowind <> nnz || Array.length values <> nnz then
    bad "array lengths";
  for j = 0 to ncols - 1 do
    if colptr.(j + 1) < colptr.(j) then bad "colptr decreases"
  done;
  for j = 0 to ncols - 1 do
    let prev = ref (-1) in
    for k = colptr.(j) to colptr.(j + 1) - 1 do
      let r = rowind.(k) in
      if r <= !prev || r >= nrows then bad "row index unsorted or out of range";
      prev := r
    done
  done;
  { nrows; ncols; colptr; rowind; values }

let nrows m = m.nrows
let ncols m = m.ncols
let nnz m = m.colptr.(m.ncols)

let iter_col m j f =
  if j < 0 || j >= m.ncols then invalid_arg "Csc.iter_col: col out of range";
  for k = m.colptr.(j) to m.colptr.(j + 1) - 1 do
    f m.rowind.(k) m.values.(k)
  done

let fold_col m j ~init ~f =
  if j < 0 || j >= m.ncols then invalid_arg "Csc.fold_col: col out of range";
  let acc = ref init in
  for k = m.colptr.(j) to m.colptr.(j + 1) - 1 do
    acc := f !acc m.rowind.(k) m.values.(k)
  done;
  !acc

let dot_col m j v =
  let acc = ref 0. in
  for k = m.colptr.(j) to m.colptr.(j + 1) - 1 do
    acc := !acc +. (m.values.(k) *. Array.unsafe_get v m.rowind.(k))
  done;
  !acc

let scatter_col m j v pattern =
  let lo = m.colptr.(j) in
  for k = lo to m.colptr.(j + 1) - 1 do
    let r = m.rowind.(k) in
    Array.unsafe_set v r (Array.unsafe_get v r +. m.values.(k));
    pattern.(k - lo) <- r
  done;
  m.colptr.(j + 1) - lo

let transpose m =
  let nnz = nnz m in
  let colptr = Array.make (m.nrows + 1) 0 in
  for k = 0 to nnz - 1 do
    let r = m.rowind.(k) in
    colptr.(r + 1) <- colptr.(r + 1) + 1
  done;
  for i = 1 to m.nrows do
    colptr.(i) <- colptr.(i) + colptr.(i - 1)
  done;
  let fill = Array.sub colptr 0 m.nrows in
  let rowind = Array.make nnz 0 and values = Array.make nnz 0. in
  (* Visiting the columns in order leaves every output column sorted. *)
  for j = 0 to m.ncols - 1 do
    for k = m.colptr.(j) to m.colptr.(j + 1) - 1 do
      let r = m.rowind.(k) in
      let p = fill.(r) in
      rowind.(p) <- j;
      values.(p) <- m.values.(k);
      fill.(r) <- p + 1
    done
  done;
  { nrows = m.ncols; ncols = m.nrows; colptr; rowind; values }

let column m j =
  if j < 0 || j >= m.ncols then invalid_arg "Csc.column: col out of range";
  Array.init (m.colptr.(j + 1) - m.colptr.(j)) (fun k ->
      let p = m.colptr.(j) + k in
      (m.rowind.(p), m.values.(p)))

let get m i j =
  if i < 0 || i >= m.nrows then invalid_arg "Csc.get: row out of range";
  if j < 0 || j >= m.ncols then invalid_arg "Csc.get: col out of range";
  let lo = ref m.colptr.(j) and hi = ref (m.colptr.(j + 1) - 1) in
  let found = ref 0. in
  while !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let r = m.rowind.(mid) in
    if r = i then begin
      found := m.values.(mid);
      lo := !hi + 1
    end
    else if r < i then lo := mid + 1
    else hi := mid - 1
  done;
  !found

let matvec_add m x y =
  if Array.length x <> m.ncols || Array.length y < m.nrows then
    invalid_arg "Csc.matvec_add: size mismatch";
  for j = 0 to m.ncols - 1 do
    let xj = x.(j) in
    if xj <> 0. then
      for k = m.colptr.(j) to m.colptr.(j + 1) - 1 do
        let r = m.rowind.(k) in
        Array.unsafe_set y r (Array.unsafe_get y r +. (m.values.(k) *. xj))
      done
  done

let matvec_add_sparse m x cols nx y ~stamp ~mark pattern =
  if Array.length x <> m.ncols || Array.length y < m.nrows
     || Array.length stamp < m.nrows || Array.length pattern < m.nrows
  then invalid_arg "Csc.matvec_add_sparse: size mismatch";
  let n = ref 0 in
  for c = 0 to nx - 1 do
    let j = cols.(c) in
    let xj = x.(j) in
    if xj <> 0. then
      for k = m.colptr.(j) to m.colptr.(j + 1) - 1 do
        let r = m.rowind.(k) in
        if Array.unsafe_get stamp r <> mark then begin
          Array.unsafe_set stamp r mark;
          Array.unsafe_set pattern !n r;
          incr n
        end;
        Array.unsafe_set y r (Array.unsafe_get y r +. (m.values.(k) *. xj))
      done
  done;
  !n

let matvec m x =
  if Array.length x <> m.ncols then invalid_arg "Csc.matvec: size mismatch";
  let y = Array.make m.nrows 0. in
  matvec_add m x y;
  y

let matvec_t m y =
  if Array.length y <> m.nrows then invalid_arg "Csc.matvec_t: size mismatch";
  let x = Array.make m.ncols 0. in
  for j = 0 to m.ncols - 1 do
    let acc = ref 0. in
    for k = m.colptr.(j) to m.colptr.(j + 1) - 1 do
      acc := !acc +. (m.values.(k) *. y.(m.rowind.(k)))
    done;
    x.(j) <- !acc
  done;
  x

let to_dense m =
  let d = Array.make_matrix m.nrows m.ncols 0. in
  for j = 0 to m.ncols - 1 do
    for k = m.colptr.(j) to m.colptr.(j + 1) - 1 do
      d.(m.rowind.(k)).(j) <- m.values.(k)
    done
  done;
  d

let of_dense d =
  let nrows = Array.length d in
  let ncols = if nrows = 0 then 0 else Array.length d.(0) in
  let b = builder ~nrows ~ncols in
  for i = 0 to nrows - 1 do
    if Array.length d.(i) <> ncols then
      invalid_arg "Csc.of_dense: ragged matrix";
    for j = 0 to ncols - 1 do
      if d.(i).(j) <> 0. then add b ~row:i ~col:j d.(i).(j)
    done
  done;
  finalize b

let select_columns m cols =
  let b = builder ~nrows:m.nrows ~ncols:(Array.length cols) in
  Array.iteri
    (fun k j -> iter_col m j (fun row v -> add b ~row ~col:k v))
    cols;
  finalize b
