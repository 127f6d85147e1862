(* One triangular factor in flat column storage. Column [k] holds entries
   [ptr.(k) .. ptr.(k + 1) - 1], each an index [idx.(e)] and a value
   [value.(e)]. The transposed pattern is threaded through the same
   entries: [head.(i)] is the last entry whose index is [i] (-1 if none),
   [next.(e)] the entry before [e] with the same index, and [col.(e)] the
   column that holds [e]. The entry arrays double while the elimination
   appends columns; the factor is read-only once built. *)
type factor = {
  ptr : int array;
  mutable idx : int array;
  mutable value : float array;
  mutable col : int array;
  mutable next : int array;
  head : int array;
  mutable len : int;
}

let factor_create ~cols ~heads ~cap =
  let cap = max 16 cap in
  { ptr = Array.make (cols + 1) 0;
    idx = Array.make cap 0;
    value = Array.make cap 0.;
    col = Array.make cap 0;
    next = Array.make cap 0;
    head = Array.make heads (-1);
    len = 0 }

let grow fc =
  let cap = 2 * Array.length fc.idx in
  let extend a fill =
    let a' = Array.make cap fill in
    Array.blit a 0 a' 0 fc.len;
    a'
  in
  fc.idx <- extend fc.idx 0;
  fc.value <- extend fc.value 0.;
  fc.col <- extend fc.col 0;
  fc.next <- extend fc.next 0

(* Append entry (i, v) to column [k], the column under construction. *)
let[@inline] push fc k i v =
  if fc.len = Array.length fc.idx then grow fc;
  let e = fc.len in
  fc.idx.(e) <- i;
  fc.value.(e) <- v;
  fc.col.(e) <- k;
  fc.next.(e) <- fc.head.(i);
  fc.head.(i) <- e;
  fc.len <- e + 1

let close fc k = fc.ptr.(k + 1) <- fc.len

type t = {
  n : int;
  (* L, unit diagonal implicit: entry indices are original rows, so the
     transposed lists are headed by original row. *)
  l : factor;
  (* U strictly above the diagonal: entry indices are pivot steps, all
     earlier than the column's own step; lists are headed by step. *)
  u : factor;
  u_diag : float array;
  (* pivot_row.(k) = original row chosen as pivot at step k;
     pinv.(r) = step at which original row r was pivoted. *)
  pivot_row : int array;
  pinv : int array;
  (* q.(k) = original column eliminated at step k; qinv its inverse. *)
  q : int array;
  qinv : int array;
  (* Nonzeros of the input matrix, for fill-in accounting. *)
  input_nnz : int;
  (* Solve scratch owned by the factor, inherited from the elimination:
     a step-space work vector and visit marks, all zero and false
     between calls; a heap of pending steps; two lists of steps a
     sparse solve visited. *)
  work : float array;
  mark : bool array;
  heap : int array;
  seen : int array;
  seen2 : int array;
}

type error = Singular of int

let dim f = f.n

let nnz f = f.l.len + f.u.len + f.n

let input_nnz f = f.input_nnz

let fill_in f = max 0 (nnz f - f.input_nnz)

let min_abs_diag f =
  Array.fold_left (fun acc d -> min acc (abs_float d)) infinity f.u_diag

let permutations f = (Array.copy f.pivot_row, Array.copy f.q)

(* Scratch of one left-looking elimination: the L columns computed so far,
   the row-to-step map, the dense accumulator, visit flags, the reach's
   output stack, and its DFS path with the next entry to scan per level. *)
type elim = {
  el : factor;
  pinv : int array;
  x : float array;
  visited : bool array;
  stack : int array;
  dfs : int array;
  pos : int array;
}

let elim_create ~dim:n l =
  { el = l;
    pinv = Array.make n (-1);
    x = Array.make n 0.;
    visited = Array.make n false;
    stack = Array.make n 0;
    dfs = Array.make n 0;
    pos = Array.make n 0 }

(* First L entry to scan below [node]: none (an empty range) while the row
   is unpivoted. *)
let[@inline] first_child e node =
  let step = e.pinv.(node) in
  if step >= 0 then e.el.ptr.(step) else 0

(* Depth-first search computing the topological order of the rows reachable
   from [start] through already-computed L columns. Rows are pushed onto
   [e.stack] in reverse topological order; children are scanned in entry
   order. The DFS path lives in int arrays, so long elimination chains
   cannot overflow the call stack. *)
let reach e ~top start =
  let l = e.el in
  let h = ref 0 in
  e.visited.(start) <- true;
  e.dfs.(0) <- start;
  e.pos.(0) <- first_child e start;
  while !h >= 0 do
    let node = e.dfs.(!h) in
    let step = e.pinv.(node) in
    let p = e.pos.(!h) in
    if step >= 0 && p < l.ptr.(step + 1) then begin
      e.pos.(!h) <- p + 1;
      let child = l.idx.(p) in
      if not e.visited.(child) then begin
        e.visited.(child) <- true;
        incr h;
        e.dfs.(!h) <- child;
        e.pos.(!h) <- first_child e child
      end
    end
    else begin
      decr h;
      e.stack.(!top) <- node;
      incr top
    end
  done

(* Default column order: ascending nonzero count, ties by column index — a
   cheap fill-reducing heuristic that suits near-triangular simplex bases.
   Counts are at most [dim], so a stable counting sort gives the order in
   O(dim) instead of a comparison sort's O(dim log dim). *)
let order_by_count ~dim col_counts =
  let maxc = Array.fold_left max 0 col_counts in
  let start = Array.make (maxc + 2) 0 in
  Array.iter (fun c -> start.(c + 1) <- start.(c + 1) + 1) col_counts;
  for c = 1 to maxc + 1 do
    start.(c) <- start.(c) + start.(c - 1)
  done;
  let order = Array.make dim 0 in
  for j = 0 to dim - 1 do
    let c = col_counts.(j) in
    order.(start.(c)) <- j;
    start.(c) <- start.(c) + 1
  done;
  order

(* Shared per-column front end of the elimination: scatter column [j] into
   the dense accumulator [e.x] while collecting (in [e.stack], via [reach])
   the topological order of its fill pattern, then run the sparse
   triangular solve against the L columns computed so far. Returns the
   pattern size. *)
let eliminate_column e ~iter_col j =
  let l = e.el and x = e.x in
  let top = ref 0 in
  iter_col j (fun r v ->
      if not e.visited.(r) then reach e ~top r;
      x.(r) <- x.(r) +. v);
  for s = !top - 1 downto 0 do
    let node = e.stack.(s) in
    let step = e.pinv.(node) in
    if step >= 0 then begin
      let xj = x.(node) in
      if xj <> 0. then
        for p = l.ptr.(step) to l.ptr.(step + 1) - 1 do
          let r = l.idx.(p) in
          x.(r) <- x.(r) -. (l.value.(p) *. xj)
        done
    end
  done;
  !top

(* Markowitz-style threshold pivoting: among the not-yet-pivoted rows of
   the pattern whose magnitude is within a factor [rel] of the largest
   (and above [threshold]), prefer the row with the fewest nonzeros in the
   input matrix — the classic fill-in proxy, here with static row counts
   so selection stays O(pattern). Magnitude then row index break ties, so
   the choice is deterministic. Returns -1 when no entry exceeds
   [threshold]. *)
let markowitz_rel = 0.1

(* The smallest acceptable pivot magnitude. *)
let pivot_threshold = 1e-13

let select_pivot_markowitz e ~top ~threshold ~row_counts =
  let max_abs = ref 0. in
  for s = 0 to top - 1 do
    let r = e.stack.(s) in
    if e.pinv.(r) < 0 then begin
      let a = abs_float e.x.(r) in
      if a > !max_abs then max_abs := a
    end
  done;
  if !max_abs <= threshold then -1
  else begin
    let accept = max threshold (markowitz_rel *. !max_abs) in
    let best = ref (-1) and best_count = ref max_int and best_abs = ref 0. in
    for s = 0 to top - 1 do
      let r = e.stack.(s) in
      if e.pinv.(r) < 0 then begin
        let a = abs_float e.x.(r) in
        if a >= accept then begin
          let c = row_counts.(r) in
          let better =
            c < !best_count
            || (c = !best_count
                && (a > !best_abs || (a = !best_abs && r < !best)))
          in
          if better then begin
            best := r;
            best_count := c;
            best_abs := a
          end
        end
      end
    done;
    !best
  end

(* Store column [k] of the factors from the accumulated pattern and clear
   the scratch: pivoted rows go to U (under their step), the others except
   the pivot row [piv] to L scaled by [1 / d]. Entries are stored in
   reverse pattern order, the order BTRAN's dot products sum them in. *)
let gather e ~u ~k ~top ~piv ~d =
  let x = e.x in
  for s = top - 1 downto 0 do
    let r = e.stack.(s) in
    let v = x.(r) in
    if v <> 0. then begin
      let step = e.pinv.(r) in
      if step >= 0 then push u k step v
      else if r <> piv then push e.el k r (v /. d)
    end;
    x.(r) <- 0.;
    e.visited.(r) <- false
  done;
  close e.el k;
  close u k

(* Per-factorization telemetry: dimension, stored nonzeros and fill-in of
   the factors, plus a running factorization count. Updates are O(1)
   no-ops while the metrics registry is disabled. *)
let m_factorizations = Obs.Metrics.counter "lu.factorizations"
let g_dim = Obs.Metrics.gauge "lu.last_dim"
let g_nnz = Obs.Metrics.gauge "lu.last_nnz"
let g_fill = Obs.Metrics.gauge "lu.last_fill_in"
let h_fill_ratio = Obs.Metrics.histogram "lu.fill_ratio"

let record_factorization f =
  Obs.Metrics.incr m_factorizations;
  if Obs.Metrics.enabled () then begin
    let stored = nnz f in
    Obs.Metrics.set g_dim (float_of_int f.n);
    Obs.Metrics.set g_nnz (float_of_int stored);
    Obs.Metrics.set g_fill (float_of_int (fill_in f));
    if f.input_nnz > 0 then
      Obs.Metrics.observe h_fill_ratio
        (float_of_int stored /. float_of_int f.input_nnz)
  end

let factorize_iter ~dim:n iter_col =
  let sp = Obs.Span.begin_ "lu.factorize" in
  (* Static row nonzero counts of the input matrix (the Markowitz fill-in
     proxy used by the pivot selection below) and column counts (the
     default column order), in one O(nnz) pass. *)
  let row_counts = Array.make n 0 and col_counts = Array.make n 0 in
  let input_nnz = ref 0 in
  let count r _ =
    row_counts.(r) <- row_counts.(r) + 1;
    incr input_nnz
  in
  for j = 0 to n - 1 do
    let before = !input_nnz in
    iter_col j count;
    col_counts.(j) <- !input_nnz - before
  done;
  let q = order_by_count ~dim:n col_counts in
  (* Simplex bases are near-triangular: L and U together hold about the
     input's off-diagonal entries, so each starts with that room. *)
  let cap = !input_nnz - n in
  let l = factor_create ~cols:n ~heads:n ~cap in
  let u = factor_create ~cols:n ~heads:n ~cap in
  let e = elim_create ~dim:n l in
  let u_diag = Array.make n 0. in
  let pivot_row = Array.make n (-1) in
  let exception Singular_at of int in
  try
    for k = 0 to n - 1 do
      let top = eliminate_column e ~iter_col q.(k) in
      let piv =
        select_pivot_markowitz e ~top ~threshold:pivot_threshold ~row_counts
      in
      if piv < 0 then raise (Singular_at k);
      let d = e.x.(piv) in
      gather e ~u ~k ~top ~piv ~d;
      u_diag.(k) <- d;
      pivot_row.(k) <- piv;
      e.pinv.(piv) <- k
    done;
    (* The accumulator and visit flags are clean again: they become the
       solves' work vector and marks, the reach's stack and DFS arrays
       their heap and visit lists, and the column counts Q's inverse. *)
    let qinv = col_counts in
    Array.iteri (fun k j -> qinv.(j) <- k) q;
    let f =
      { n; l; u; u_diag; pivot_row; pinv = e.pinv; q; qinv;
        input_nnz = !input_nnz; work = e.x; mark = e.visited;
        heap = e.stack; seen = e.dfs; seen2 = e.pos }
    in
    record_factorization f;
    Obs.Span.end_ sp;
    Ok f
  with Singular_at k ->
    Obs.Span.end_ sp;
    Error (Singular k)

let factorize ~dim col =
  factorize_iter ~dim (fun j f ->
      Array.iter (fun (r, v) -> f r v) (col j))

let diagonal d =
  let sp = Obs.Span.begin_ "lu.factorize" in
  let n = Array.length d in
  Array.iteri
    (fun k v ->
      if not (abs_float v > pivot_threshold) then
        invalid_arg (Printf.sprintf "Lu.diagonal: entry %d is no pivot" k))
    d;
  (* What the elimination builds from a diagonal: every column a
     singleton, so the count order is the identity, no L or U entry, and
     every pivot its column's own entry. The order arrays are read-only,
     so one identity serves as all four. *)
  let id = Array.init n Fun.id in
  let f =
    { n; l = factor_create ~cols:n ~heads:n ~cap:0;
      u = factor_create ~cols:n ~heads:n ~cap:0;
      u_diag = Array.copy d; pivot_row = id; pinv = id; q = id; qinv = id;
      input_nnz = n; work = Array.make n 0.; mark = Array.make n false;
      heap = Array.make n 0; seen = Array.make n 0; seen2 = Array.make n 0 }
  in
  record_factorization f;
  Obs.Span.end_ sp;
  f

(* ------------------------------------------------------------------ *)
(* Solves. Both take the right-hand side's nonzero pattern and return
   the result's, pruned to numerical nonzeros.

   A sparse solve walks only the steps a nonzero reaches, in the order
   the dense sweep visits them: a binary heap of pending steps yields
   them ascending (L in FTRAN, U^T in BTRAN) or descending (U, L^T).
   A step joins the heap when a nonzero first updates it (FTRAN) or marks
   it (BTRAN), and leaves it before any step it feeds, so every step
   does the dense sweep's arithmetic on the dense sweep's operands, in
   the same order. Once a phase has queued more than [sparse_limit]
   steps it finishes as the dense sweep from the next pending step on,
   and a right-hand side listing more than that many entries is solved
   by the dense sweep from the start. *)

let sparse_limit f = f.n / 32

(* Binary min-heap of ints in [h.(0 .. size - 1)]; descending walks push
   n - 1 - k. *)
let heap_push h size key =
  let i = ref size in
  while !i > 0 && h.((!i - 1) / 2) > key do
    let parent = (!i - 1) / 2 in
    h.(!i) <- h.(parent);
    i := parent
  done;
  h.(!i) <- key

(* Remove and return the least of [h.(0 .. size - 1)], size > 0. *)
let heap_pop h size =
  let top = h.(0) and last = h.(size - 1) and size = size - 1 in
  let i = ref 0 and sifting = ref true in
  while !sifting do
    let c = (2 * !i) + 1 in
    if c >= size then sifting := false
    else begin
      let c = if c + 1 < size && h.(c + 1) < h.(c) then c + 1 else c in
      if h.(c) < last then begin
        h.(!i) <- h.(c);
        i := c
      end
      else sifting := false
    end
  done;
  if size > 0 then h.(!i) <- last;
  top

(* FTRAN's backward U solve over steps [k0] down to 0 as the dense sweep
   does it, in step space, writing each nonzero w_k to [b] at column
   q.(k) and listing it after [pattern.(0 .. out - 1)]. Leaves those
   steps of the work vector zero. Returns the new count. *)
let u_dense f b pattern out k0 =
  let u = f.u and y = f.work in
  let out = ref out in
  for k = k0 downto 0 do
    let wk = y.(k) /. f.u_diag.(k) in
    y.(k) <- 0.;
    if wk <> 0. then begin
      let j = f.q.(k) in
      b.(j) <- wk;
      pattern.(!out) <- j;
      incr out;
      for p = u.ptr.(k) to u.ptr.(k + 1) - 1 do
        let i = u.idx.(p) in
        y.(i) <- y.(i) -. (u.value.(p) *. wk)
      done
    end
  done;
  !out

(* FTRAN: solve B x = b with P B Q = L U, i.e. x = Q (U \ (L \ P b)).
   [b] is indexed by original rows on entry, by original columns on exit.
   The dense sweep, exactly as it has always run: every entry of [b] is
   written, zeros of either sign included. *)
let ftran_dense f b pattern =
  let n = f.n and l = f.l and u = f.u and y = f.work in
  (* Forward solve L y = P b, working directly in original row space: the
     value at pivot_row.(k) is y_k. *)
  for k = 0 to n - 1 do
    let yk = b.(f.pivot_row.(k)) in
    if yk <> 0. then
      for p = l.ptr.(k) to l.ptr.(k + 1) - 1 do
        let r = l.idx.(p) in
        b.(r) <- b.(r) -. (l.value.(p) *. yk)
      done
  done;
  for k = 0 to n - 1 do
    y.(k) <- b.(f.pivot_row.(k))
  done;
  for k = n - 1 downto 0 do
    let wk = y.(k) /. f.u_diag.(k) in
    y.(k) <- wk;
    if wk <> 0. then
      for p = u.ptr.(k) to u.ptr.(k + 1) - 1 do
        let i = u.idx.(p) in
        y.(i) <- y.(i) -. (u.value.(p) *. wk)
      done
  done;
  (* x.(q.(k)) = w_k covers every entry. *)
  let out = ref 0 in
  for k = 0 to n - 1 do
    let v = y.(k) and j = f.q.(k) in
    b.(j) <- v;
    y.(k) <- 0.;
    if v <> 0. then begin
      pattern.(!out) <- j;
      incr out
    end
  done;
  !out

(* The sparse L phase: ascending over the rows a nonzero reaches. Each
   step's value y_k moves to the work vector as it leaves the heap (no
   later step updates its row) and its row of [b] is cleared. Returns
   the number of nonzero steps, listed in [f.seen], or -1 when the phase
   switched to the dense sweep, which then has filled the work vector
   for every step. *)
let l_sparse f b pattern nz =
  let n = f.n and l = f.l and h = f.heap and mark = f.mark and y = f.work in
  let limit = sparse_limit f in
  let size = ref 0 and queued = ref 0 and nonzero = ref 0 in
  for i = 0 to nz - 1 do
    let r = pattern.(i) in
    let k = f.pinv.(r) in
    if b.(r) = 0. then b.(r) <- 0.
    else if not mark.(k) then begin
      mark.(k) <- true;
      heap_push h !size k;
      incr size;
      incr queued
    end
  done;
  while !size > 0 && !queued <= limit do
    let k = heap_pop h !size in
    decr size;
    mark.(k) <- false;
    let r = f.pivot_row.(k) in
    let yk = b.(r) in
    b.(r) <- 0.;
    if yk <> 0. then begin
      y.(k) <- yk;
      f.seen.(!nonzero) <- k;
      incr nonzero;
      for p = l.ptr.(k) to l.ptr.(k + 1) - 1 do
        let r = l.idx.(p) in
        b.(r) <- b.(r) -. (l.value.(p) *. yk);
        let c = f.pinv.(r) in
        if not mark.(c) then begin
          mark.(c) <- true;
          heap_push h !size c;
          incr size;
          incr queued
        end
      done
    end
  done;
  if !size = 0 then !nonzero
  else begin
    (* Too many steps: the dense sweep from the least pending one. *)
    let k0 = h.(0) in
    for i = 0 to !size - 1 do
      mark.(h.(i)) <- false
    done;
    for k = k0 to n - 1 do
      let r = f.pivot_row.(k) in
      let yk = b.(r) in
      b.(r) <- 0.;
      y.(k) <- yk;
      if yk <> 0. then
        for p = l.ptr.(k) to l.ptr.(k + 1) - 1 do
          let r = l.idx.(p) in
          b.(r) <- b.(r) -. (l.value.(p) *. yk)
        done
    done;
    -1
  end

(* The sparse U phase from the [nonzero] steps in [f.seen], descending;
   writes x to [b] and its pattern. *)
let u_sparse f b pattern nonzero =
  let n = f.n and u = f.u and h = f.heap and mark = f.mark and y = f.work in
  let limit = sparse_limit f in
  let size = ref 0 and out = ref 0 in
  for i = 0 to nonzero - 1 do
    let k = f.seen.(i) in
    mark.(k) <- true;
    heap_push h !size (n - 1 - k);
    incr size
  done;
  let queued = ref nonzero in
  while !size > 0 && !queued <= limit do
    let k = n - 1 - heap_pop h !size in
    decr size;
    mark.(k) <- false;
    let wk = y.(k) /. f.u_diag.(k) in
    y.(k) <- 0.;
    if wk <> 0. then begin
      let j = f.q.(k) in
      b.(j) <- wk;
      pattern.(!out) <- j;
      incr out;
      for p = u.ptr.(k) to u.ptr.(k + 1) - 1 do
        let i = u.idx.(p) in
        y.(i) <- y.(i) -. (u.value.(p) *. wk);
        if not mark.(i) then begin
          mark.(i) <- true;
          heap_push h !size (n - 1 - i);
          incr size;
          incr queued
        end
      done
    end
  done;
  if !size = 0 then !out
  else begin
    let k0 = n - 1 - h.(0) in
    for i = 0 to !size - 1 do
      mark.(n - 1 - h.(i)) <- false
    done;
    u_dense f b pattern !out k0
  end

let ftran f b pattern nz =
  if Array.length b <> f.n || Array.length pattern < f.n || nz < 0 then
    invalid_arg "Lu.ftran: size mismatch";
  if nz > sparse_limit f then ftran_dense f b pattern
  else begin
    let nonzero = l_sparse f b pattern nz in
    if nonzero < 0 then u_dense f b pattern 0 (f.n - 1)
    else u_sparse f b pattern nonzero
  end

(* BTRAN: solve B^T y = c. With B = P^T L U Q^T this is
   y = P^T (L^T \ (U^T \ Q^T c)). [c] is indexed by original columns on
   entry, by original rows on exit.

   Both triangular solves are in dot-product form, and a step is visited
   only when its own value is nonzero or a nonzero step marked it through
   the transposed pattern. A step left unvisited is exactly zero: its dot
   product would sum only zero terms. A visited step computes its dot
   product in entry order from final values, whatever order the steps
   are visited in, so the result is that of the full sweep bit for bit,
   signed zeros included. *)

(* Forward solve U^T v = w from step [k0] on, as the dense sweep: row k
   of U^T is column k of U, and a nonzero v_k marks the later steps
   whose U column has an entry at k. *)
let ut_dense f k0 =
  let u = f.u and w = f.work and mark = f.mark in
  for k = k0 to f.n - 1 do
    if mark.(k) || w.(k) <> 0. then begin
      mark.(k) <- false;
      let acc = ref w.(k) in
      for p = u.ptr.(k) to u.ptr.(k + 1) - 1 do
        acc := !acc -. (u.value.(p) *. w.(u.idx.(p)))
      done;
      let vk = !acc /. f.u_diag.(k) in
      w.(k) <- vk;
      if vk <> 0. then begin
        let p = ref u.head.(k) in
        while !p >= 0 do
          mark.(u.col.(!p)) <- true;
          p := u.next.(!p)
        done
      end
    end
  done

(* Backward solve (P L)^T z = v from step [k0] down, as the dense sweep:
   row k of (P L)^T is column k of L with rows mapped through pinv, and a
   nonzero z_k marks the earlier steps whose L column holds row
   pivot_row.(k). *)
let lt_dense f k0 =
  let l = f.l and w = f.work and mark = f.mark in
  for k = k0 downto 0 do
    if mark.(k) || w.(k) <> 0. then begin
      mark.(k) <- false;
      let acc = ref w.(k) in
      for p = l.ptr.(k) to l.ptr.(k + 1) - 1 do
        acc := !acc -. (l.value.(p) *. w.(f.pinv.(l.idx.(p))))
      done;
      w.(k) <- !acc;
      if !acc <> 0. then begin
        let p = ref l.head.(f.pivot_row.(k)) in
        while !p >= 0 do
          mark.(l.col.(!p)) <- true;
          p := l.next.(!p)
        done
      end
    end
  done

(* y = P^T z: y.(pivot_row.(k)) = z_k covers every entry. *)
let btran_out_dense f c pattern =
  let w = f.work and out = ref 0 in
  for k = 0 to f.n - 1 do
    let v = w.(k) and i = f.pivot_row.(k) in
    c.(i) <- v;
    w.(k) <- 0.;
    if v <> 0. then begin
      pattern.(!out) <- i;
      incr out
    end
  done;
  !out

let btran_sparse f c pattern nz =
  let n = f.n and u = f.u and l = f.l and h = f.heap and mark = f.mark in
  let w = f.work and seen = f.seen and seen2 = f.seen2 in
  let limit = sparse_limit f in
  let size = ref 0 and queued = ref 0 in
  for i = 0 to nz - 1 do
    let j = pattern.(i) in
    let v = c.(j) in
    c.(j) <- 0.;
    let k = f.qinv.(j) in
    if v <> 0. && not mark.(k) then begin
      w.(k) <- v;
      mark.(k) <- true;
      heap_push h !size k;
      incr size;
      incr queued
    end
  done;
  (* U^T, ascending. Every visited step is written out now; L^T
     overwrites the ones it visits again. *)
  let n_seen = ref 0 in
  while !size > 0 && !queued <= limit do
    let k = heap_pop h !size in
    decr size;
    mark.(k) <- false;
    seen.(!n_seen) <- k;
    incr n_seen;
    let acc = ref w.(k) in
    for p = u.ptr.(k) to u.ptr.(k + 1) - 1 do
      acc := !acc -. (u.value.(p) *. w.(u.idx.(p)))
    done;
    let vk = !acc /. f.u_diag.(k) in
    w.(k) <- vk;
    c.(f.pivot_row.(k)) <- vk;
    if vk <> 0. then begin
      let p = ref u.head.(k) in
      while !p >= 0 do
        let s = u.col.(!p) in
        if not mark.(s) then begin
          mark.(s) <- true;
          heap_push h !size s;
          incr size;
          incr queued
        end;
        p := u.next.(!p)
      done
    end
  done;
  if !size > 0 then begin
    ut_dense f h.(0);
    lt_dense f (n - 1);
    btran_out_dense f c pattern
  end
  else begin
    (* L^T, descending, from the nonzero steps of U^T. *)
    queued := 0;
    for i = 0 to !n_seen - 1 do
      let k = seen.(i) in
      if w.(k) <> 0. then begin
        mark.(k) <- true;
        heap_push h !size (n - 1 - k);
        incr size;
        incr queued
      end
    done;
    let n_seen2 = ref 0 and out = ref 0 in
    while !size > 0 && !queued <= limit do
      let k = n - 1 - heap_pop h !size in
      decr size;
      mark.(k) <- false;
      seen2.(!n_seen2) <- k;
      incr n_seen2;
      let acc = ref w.(k) in
      for p = l.ptr.(k) to l.ptr.(k + 1) - 1 do
        acc := !acc -. (l.value.(p) *. w.(f.pinv.(l.idx.(p))))
      done;
      let zk = !acc in
      w.(k) <- zk;
      let i = f.pivot_row.(k) in
      c.(i) <- zk;
      if zk <> 0. then begin
        pattern.(!out) <- i;
        incr out;
        let p = ref l.head.(i) in
        while !p >= 0 do
          let s = l.col.(!p) in
          if not mark.(s) then begin
            mark.(s) <- true;
            heap_push h !size (n - 1 - s);
            incr size;
            incr queued
          end;
          p := l.next.(!p)
        done
      end
    done;
    if !size > 0 then begin
      lt_dense f (n - 1 - h.(0));
      btran_out_dense f c pattern
    end
    else begin
      for i = 0 to !n_seen - 1 do
        w.(seen.(i)) <- 0.
      done;
      for i = 0 to !n_seen2 - 1 do
        w.(seen2.(i)) <- 0.
      done;
      !out
    end
  end

let btran f c pattern nz =
  if Array.length c <> f.n || Array.length pattern < f.n || nz < 0 then
    invalid_arg "Lu.btran: size mismatch";
  if nz > sparse_limit f then begin
    let w = f.work in
    for k = 0 to f.n - 1 do
      w.(k) <- c.(f.q.(k))
    done;
    ut_dense f 0;
    lt_dense f (f.n - 1);
    btran_out_dense f c pattern
  end
  else btran_sparse f c pattern nz
