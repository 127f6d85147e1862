module Lu = Sparselin.Lu
module Csc = Sparselin.Csc
module Dense = Oracle.Dense

let cols_of_dense d =
  let n = Array.length d in
  fun j ->
    let acc = ref [] in
    for i = n - 1 downto 0 do
      if d.(i).(j) <> 0. then acc := (i, d.(i).(j)) :: !acc
    done;
    Array.of_list !acc

(* Dense right-hand sides list every row, which takes the dense sweep. *)
let ftran f x =
  let n = Array.length x in
  ignore (Lu.ftran f x (Array.init n Fun.id) n)

let btran f x =
  let n = Array.length x in
  ignore (Lu.btran f x (Array.init n Fun.id) n)

let check_solve d b =
  let n = Array.length d in
  match Lu.factorize ~dim:n (cols_of_dense d) with
  | Error (Lu.Singular _) -> Alcotest.fail "unexpected singular"
  | Ok f ->
      let x = Array.copy b in
      ftran f x;
      (* Verify A x = b. *)
      let ax = Dense.matvec d x in
      Array.iteri
        (fun i v ->
          Alcotest.(check (float 1e-8)) (Printf.sprintf "Ax=b row %d" i) b.(i) v)
        ax;
      let y = Array.copy b in
      btran f y;
      let aty = Dense.matvec (Dense.transpose d) y in
      Array.iteri
        (fun i v ->
          Alcotest.(check (float 1e-8)) (Printf.sprintf "A'y=c row %d" i) b.(i) v)
        aty

let test_identity () = check_solve (Dense.identity 4) [| 1.; 2.; 3.; 4. |]

let test_permutation () =
  (* A permutation matrix needs pivoting bookkeeping but no arithmetic. *)
  let d = [| [| 0.; 1.; 0. |]; [| 0.; 0.; 1. |]; [| 1.; 0.; 0. |] |] in
  check_solve d [| 3.; 1.; 2. |]

let test_dense_3x3 () =
  let d = [| [| 2.; 1.; 1. |]; [| 4.; -6.; 0. |]; [| -2.; 7.; 2. |] |] in
  check_solve d [| 5.; -2.; 9. |]

let test_requires_pivoting () =
  (* Zero in the leading position forces a row exchange. *)
  let d = [| [| 0.; 2. |]; [| 1.; 1. |] |] in
  check_solve d [| 2.; 3. |]

let test_singular_detected () =
  let d = [| [| 1.; 2. |]; [| 2.; 4. |] |] in
  match Lu.factorize ~dim:2 (cols_of_dense d) with
  | Error (Lu.Singular _) -> ()
  | Ok _ -> Alcotest.fail "expected Singular"

let test_zero_column_singular () =
  let d = [| [| 1.; 0. |]; [| 0.; 0. |] |] in
  match Lu.factorize ~dim:2 (cols_of_dense d) with
  | Error (Lu.Singular _) -> ()
  | Ok _ -> Alcotest.fail "expected Singular"

let test_near_triangular_sparse () =
  (* Typical simplex basis shape: identity plus a few off-diagonal spikes. *)
  let n = 50 in
  let d = Dense.identity n in
  d.(10).(3) <- 0.5;
  d.(20).(3) <- -1.5;
  d.(3).(20) <- 2.0;
  d.(45).(44) <- 1.0;
  d.(44).(45) <- -0.25;
  let b = Array.init n (fun i -> float_of_int (i mod 7) -. 3.) in
  check_solve d b

let test_min_abs_diag () =
  let d = [| [| 4.; 0. |]; [| 0.; 0.5 |] |] in
  match Lu.factorize ~dim:2 (cols_of_dense d) with
  | Error _ -> Alcotest.fail "unexpected singular"
  | Ok f -> Alcotest.(check (float 1e-12)) "min diag" 0.5 (Lu.min_abs_diag f)

let random_nonsingular rng n =
  (* Random sparse matrix with a dominant diagonal: always nonsingular. *)
  let d = Array.make_matrix n n 0. in
  for i = 0 to n - 1 do
    d.(i).(i) <- Prelude.Rng.float_range rng 1. 5.
                 *. (if Prelude.Rng.bool rng then 1. else -1.)
  done;
  let extras = n * 2 in
  for _ = 1 to extras do
    let i = Prelude.Rng.int rng n and j = Prelude.Rng.int rng n in
    if i <> j then d.(i).(j) <- Prelude.Rng.float_range rng (-0.9) 0.9
  done;
  d

let test_random_sparse_solves () =
  let rng = Prelude.Rng.of_int 2024 in
  for trial = 1 to 25 do
    let n = 5 + Prelude.Rng.int rng 40 in
    let d = random_nonsingular rng n in
    let b = Array.init n (fun _ -> Prelude.Rng.float_range rng (-10.) 10.) in
    (match Lu.factorize ~dim:n (cols_of_dense d) with
     | Error (Lu.Singular _) ->
         Alcotest.fail (Printf.sprintf "trial %d: unexpected singular" trial)
     | Ok f ->
         let x = Array.copy b in
         ftran f x;
         let ax = Dense.matvec d x in
         Array.iteri
           (fun i v ->
             if abs_float (v -. b.(i)) > 1e-7 then
               Alcotest.fail
                 (Printf.sprintf "trial %d row %d: residual %g" trial i
                    (abs_float (v -. b.(i)))))
           ax;
         let y = Array.init n (fun _ -> Prelude.Rng.float_range rng (-1.) 1.) in
         let c = Array.copy y in
         btran f c;
         let atc = Dense.matvec (Dense.transpose d) c in
         Array.iteri
           (fun i v ->
             if abs_float (v -. y.(i)) > 1e-7 then
               Alcotest.fail
                 (Printf.sprintf "trial %d (transpose) row %d: residual %g"
                    trial i (abs_float (v -. y.(i)))))
           atc)
  done

(* ------------------------------------------------------------------ *)
(* Hypersparse BTRAN: every unit right-hand side against a dense solve,
   with exact zeros wherever the structure of B forces them. *)

(* Structural reach of y = B^-T e_r, from B's pattern and the pivot order
   alone. Symbolic (boolean) elimination of C(k, l) = B(p.(k), q.(l))
   gives the patterns of L and U, fill included; stored factor entries
   are a subset. In B^T y = e_r, the step l with q.(l) = r starts the
   U^T solve, which feeds later steps through U's rows, then the L^T solve
   feeds earlier steps through L's columns. Rows outside the reach are
   never computed: BTRAN must leave them exactly 0.0. *)
let symbolic_lu d (p, q) =
  let n = Array.length d in
  let c = Array.init n (fun k -> Array.init n (fun l -> d.(p.(k)).(q.(l)) <> 0.)) in
  for k = 0 to n - 1 do
    for i = k + 1 to n - 1 do
      if c.(i).(k) then
        for j = k + 1 to n - 1 do
          if c.(k).(j) then c.(i).(j) <- true
        done
    done
  done;
  c

let transpose_reach c (p, q) r =
  let n = Array.length c in
  let step = Array.make n false in
  let l = ref 0 in
  while q.(!l) <> r do incr l done;
  step.(!l) <- true;
  for k = 0 to n - 1 do
    if step.(k) then
      for j = k + 1 to n - 1 do
        if c.(k).(j) then step.(j) <- true
      done
  done;
  for k = n - 1 downto 0 do
    if step.(k) then
      for i = 0 to k - 1 do
        if c.(k).(i) then step.(i) <- true
      done
  done;
  let inside = Array.make n false in
  Array.iteri (fun k s -> if s then inside.(p.(k)) <- true) step;
  inside

let check_unit_btrans what d =
  let n = Array.length d in
  let f =
    match Lu.factorize ~dim:n (cols_of_dense d) with
    | Ok f -> f
    | Error (Lu.Singular k) -> Alcotest.failf "%s: singular at step %d" what k
  in
  let dt = Dense.transpose d in
  let perms = Lu.permutations f in
  let c = symbolic_lu d perms in
  for r = 0 to n - 1 do
    let y = Array.make n 0. in
    y.(r) <- 1.;
    let pattern = Array.make n 0 in
    pattern.(0) <- r;
    ignore (Lu.btran f y pattern 1);
    let e = Array.make n 0. in
    e.(r) <- 1.;
    let dense =
      match Dense.lu_solve dt e with
      | Some v -> v
      | None -> Alcotest.failf "%s: dense solve failed" what
    in
    let reach = transpose_reach c perms r in
    for i = 0 to n - 1 do
      if abs_float (y.(i) -. dense.(i)) > 1e-9 *. (1. +. abs_float dense.(i))
      then
        Alcotest.failf "%s: e_%d row %d: %.17g vs dense %.17g" what r i y.(i)
          dense.(i);
      if (not reach.(i)) && Int64.bits_of_float y.(i) <> 0L then
        Alcotest.failf "%s: e_%d row %d outside the reach is %h, not 0.0" what
          r i y.(i)
    done
  done

let random_permutation rng n =
  let p = Array.init n (fun i -> i) in
  for i = n - 1 downto 1 do
    let j = Prelude.Rng.int rng (i + 1) in
    let t = p.(i) in
    p.(i) <- p.(j);
    p.(j) <- t
  done;
  p

(* A basis of the optimum of a small Postcard program. The structural
   columns strictly inside their bounds at the optimum must be basic;
   greedy dense elimination completes them with logical (unit) columns
   into a nonsingular basis, the mix of network and slack columns a
   simplex basis holds. *)
let postcard_basis () =
  let rng = Prelude.Rng.of_int 31 in
  let base =
    Netgraph.Topology.complete ~n:4 ~rng ~cost_lo:1. ~cost_hi:10.
      ~capacity:40.
  in
  let files =
    List.mapi
      (fun id (src, dst, size, deadline) ->
        Postcard.File.make ~id ~src ~dst ~size ~deadline ~release:0)
      [ (0, 3, 60., 3); (1, 2, 35., 2); (3, 1, 50., 3); (2, 0, 20., 1) ]
  in
  let model =
    Postcard.Formulate.model
      (Postcard.Formulate.create ~base
         ~charged:(Array.make (Netgraph.Graph.num_arcs base) 0.)
         ~capacity:(fun ~link:_ ~layer:_ -> 40.)
         ~files ~epoch:0 ())
  in
  let primal =
    match Lp.Simplex.solve model with
    | Lp.Status.Optimal s -> s.Lp.Status.primal
    | other -> Alcotest.failf "postcard LP: %a" Lp.Status.pp_outcome other
  in
  let sf = Lp.Standard_form.of_model model in
  let m = sf.Lp.Standard_form.n_rows and n = sf.Lp.Standard_form.n_struct in
  let inside j =
    primal.(j) > sf.Lp.Standard_form.lb.(j) +. 1e-9
    && primal.(j) < sf.Lp.Standard_form.ub.(j) -. 1e-9
  in
  let candidates =
    List.filter inside (List.init n Fun.id) @ List.init m (fun i -> n + i)
  in
  (* Each accepted column, reduced against the earlier ones, with its
     pivot row. *)
  let reduced = ref [] and chosen = ref [] in
  List.iter
    (fun j ->
      if List.length !chosen < m then begin
        let v = Array.make m 0. in
        Csc.iter_col sf.Lp.Standard_form.a j (fun i x -> v.(i) <- x);
        List.iter
          (fun (r, u) ->
            let f = v.(r) /. u.(r) in
            if f <> 0. then Array.iteri (fun i ui -> v.(i) <- v.(i) -. (f *. ui)) u)
          (List.rev !reduced);
        let piv = ref (-1) in
        Array.iteri
          (fun i x ->
            if abs_float x > 1e-9
               && (!piv < 0 || abs_float x > abs_float v.(!piv))
            then piv := i)
          v;
        if !piv >= 0 then begin
          reduced := (!piv, v) :: !reduced;
          chosen := j :: !chosen
        end
      end)
    candidates;
  let cols = Array.of_list (List.rev !chosen) in
  Alcotest.(check int) "a full basis" m (Array.length cols);
  Alcotest.(check bool) "with structural columns" true (cols.(0) < n);
  let d = Dense.make m m in
  Array.iteri
    (fun k j ->
      Csc.iter_col sf.Lp.Standard_form.a j (fun i v -> d.(i).(k) <- v))
    cols;
  d

let test_btran_unit_vectors () =
  let rng = Prelude.Rng.of_int 515 in
  for trial = 1 to 6 do
    let n = 8 + Prelude.Rng.int rng 40 in
    check_unit_btrans
      (Printf.sprintf "random sparse %d" trial)
      (random_nonsingular rng n)
  done;
  let n = 30 in
  let p = random_permutation rng n in
  let perm = Dense.make n n in
  Array.iteri
    (fun i j -> perm.(i).(j) <- Prelude.Rng.float_range rng 0.5 2.)
    p;
  check_unit_btrans "permutation" perm;
  (* Lower triangular with a few spikes above the diagonal, the shape of a
     simplex basis after a handful of eta updates. *)
  let n = 40 in
  let tri = Dense.identity n in
  for i = 1 to n - 1 do
    if Prelude.Rng.int rng 3 = 0 then
      tri.(i).(Prelude.Rng.int rng i) <- Prelude.Rng.float_range rng (-2.) 2.
  done;
  tri.(3).(20) <- 0.7;
  tri.(11).(35) <- -1.25;
  check_unit_btrans "near-triangular" tri;
  check_unit_btrans "postcard basis" (postcard_basis ())

(* ------------------------------------------------------------------ *)
(* Pattern solves against the dense sweep. A right-hand side listing
   every row takes the dense sweep; the same vector given by its nonzero
   rows takes the sparse walk, which may switch to the sweep mid-phase.
   BTRAN must agree in every bit, signed zeros included; FTRAN on every
   nonzero, with +0. everywhere else. Either pattern must list the
   nonzeros, each once. Every compared call follows the dense call, which
   used the whole work vector. *)

let bits = Int64.bits_of_float

let check_pattern what ~solve y nz pattern =
  let listed = List.sort compare (Array.to_list (Array.sub pattern 0 nz)) in
  let nonzero =
    List.filter (fun i -> y.(i) <> 0.) (List.init (Array.length y) Fun.id)
  in
  if listed <> nonzero then
    Alcotest.failf "%s %s: pattern lists %d entries, %d nonzeros (or repeats)"
      what solve nz (List.length nonzero)

let check_against_sweep what f rhs =
  let n = Lu.dim f in
  let all = Array.init n Fun.id in
  let load () =
    let b = Array.make n 0. and pattern = Array.make n 0 and k = ref 0 in
    List.iter
      (fun (i, v) ->
        b.(i) <- v;
        pattern.(!k) <- i;
        incr k)
      rhs;
    (b, pattern, !k)
  in
  (* FTRAN. *)
  let dense = let b, _, _ = load () in b in
  let dpat = Array.copy all in
  let dnz = Lu.ftran f dense dpat n in
  check_pattern what ~solve:"dense ftran" dense dnz dpat;
  let b, pattern, k = load () in
  let nz = Lu.ftran f b pattern k in
  check_pattern what ~solve:"ftran" b nz pattern;
  (* A right-hand side past the sparse limit is the sweep itself. *)
  let swept = k > Lu.sparse_limit f in
  Array.iteri
    (fun i v ->
      let want = if dense.(i) <> 0. || swept then bits dense.(i) else 0L in
      if bits v <> want then
        Alcotest.failf "%s ftran row %d: %h, dense sweep %h" what i v dense.(i))
    b;
  (* BTRAN. *)
  let dense = let b, _, _ = load () in b in
  let dpat = Array.copy all in
  let dnz = Lu.btran f dense dpat n in
  check_pattern what ~solve:"dense btran" dense dnz dpat;
  let c, pattern, k = load () in
  let nz = Lu.btran f c pattern k in
  check_pattern what ~solve:"btran" c nz pattern;
  Array.iteri
    (fun i v ->
      if bits v <> bits dense.(i) then
        Alcotest.failf "%s btran row %d: %h, dense sweep %h" what i v dense.(i))
    c

let factor what d =
  let n = Array.length d in
  match Lu.factorize ~dim:n (cols_of_dense d) with
  | Ok f -> f
  | Error (Lu.Singular k) -> Alcotest.failf "%s: singular at step %d" what k

(* Every unit vector, then random right-hand sides from one entry up to
   one past the sparse limit, so a solve starts on the dense sweep. *)
let check_matrix rng what d =
  let f = factor what d in
  let n = Array.length d and limit = Lu.sparse_limit f in
  Alcotest.(check bool) (what ^ ": sparse walks possible") true (limit >= 1);
  for r = 0 to n - 1 do
    check_against_sweep (Printf.sprintf "%s e_%d" what r) f [ (r, 1.) ]
  done;
  for k = 1 to limit + 1 do
    let rows = Array.sub (random_permutation rng n) 0 k in
    check_against_sweep
      (Printf.sprintf "%s %d entries" what k)
      f
      (Array.to_list
         (Array.map (fun i -> (i, Prelude.Rng.float_range rng (-4.) 4.)) rows))
  done

let test_pattern_solves () =
  let rng = Prelude.Rng.of_int 808 in
  for trial = 1 to 3 do
    let n = 64 + Prelude.Rng.int rng 100 in
    (* Few off-diagonal entries: reaches stay short. *)
    let d = Dense.identity n in
    for i = 0 to n - 1 do
      d.(i).(i) <- Prelude.Rng.float_range rng 1. 5.
                   *. (if Prelude.Rng.bool rng then 1. else -1.)
    done;
    for _ = 1 to n / 2 do
      let i = Prelude.Rng.int rng n and j = Prelude.Rng.int rng n in
      if i <> j then d.(i).(j) <- Prelude.Rng.float_range rng (-0.9) 0.9
    done;
    check_matrix rng (Printf.sprintf "random sparse %d" trial) d;
    check_matrix rng (Printf.sprintf "random denser %d" trial)
      (random_nonsingular rng n)
  done;
  let n = 96 in
  let perm = Dense.make n n in
  Array.iteri
    (fun i j -> perm.(i).(j) <- Prelude.Rng.float_range rng (-2.) 2.)
    (random_permutation rng n);
  check_matrix rng "permutation" perm;
  let tri = Dense.identity n in
  for i = 1 to n - 1 do
    if Prelude.Rng.int rng 3 = 0 then
      tri.(i).(Prelude.Rng.int rng i) <- Prelude.Rng.float_range rng (-2.) 2.
  done;
  tri.(3).(60) <- 0.7;
  tri.(11).(85) <- -1.25;
  check_matrix rng "near-triangular" tri;
  check_matrix rng "postcard basis" (postcard_basis ())

(* Both branches of the sparse walk: a block of the identity keeps a
   unit right-hand side to one step, while a bidiagonal chain spreads e_0
   (FTRAN) and e_(n-1) (BTRAN) over all n steps, past the sparse limit,
   so those solves start sparse and finish on the sweep. *)
let test_reach_branches () =
  let n = 128 in
  let d = Dense.identity n in
  for i = 1 to n / 2 do
    d.(i).(i - 1) <- -0.5 -. (float_of_int i /. float_of_int n)
  done;
  let f = factor "chain" d in
  Alcotest.(check bool) "the chain outgrows the limit" true
    (n / 2 > Lu.sparse_limit f && Lu.sparse_limit f >= 1);
  let solve_count solve r =
    let b = Array.make n 0. and pattern = Array.make n 0 in
    b.(r) <- 1.;
    pattern.(0) <- r;
    solve f b pattern 1
  in
  Alcotest.(check bool) "ftran e_0 spreads past the limit" true
    (solve_count Lu.ftran 0 > Lu.sparse_limit f);
  Alcotest.(check bool) "btran e_(n/2) spreads past the limit" true
    (solve_count Lu.btran (n / 2) > Lu.sparse_limit f);
  Alcotest.(check int) "ftran of an identity row stays one step" 1
    (solve_count Lu.ftran (n - 1));
  Alcotest.(check int) "btran of an identity row stays one step" 1
    (solve_count Lu.btran (n - 1));
  List.iter
    (fun r -> check_against_sweep (Printf.sprintf "chain e_%d" r) f [ (r, 1.) ])
    [ 0; 1; n / 4; n / 2; n - 1 ];
  (* A visited step whose dot product cancels: over a negative pivot the
     sweep leaves -0. there, and so must the sparse walk. *)
  let d = Dense.identity n in
  d.(0).(2) <- 1.;
  d.(1).(2) <- 1.;
  d.(2).(2) <- -1.;
  let f = factor "cancelling" d in
  check_against_sweep "cancelling" f [ (0, 1.); (1, -1.) ];
  let c = Array.make n 0. and pattern = Array.make n 0 in
  c.(0) <- 1.;
  c.(1) <- -1.;
  pattern.(1) <- 1;
  ignore (Lu.btran f c pattern 2);
  Alcotest.(check bool) "the cancelled step reads -0." true
    (bits c.(2) = bits (-0.))

(* The slack start's factor: the one the elimination builds for a
   diagonal, in every observable and every solve bit. *)
let test_diagonal_factor () =
  let rng = Prelude.Rng.of_int 99 in
  let n = 70 in
  let diag =
    Array.init n (fun _ ->
        Prelude.Rng.float_range rng 0.5 3. *. (if Prelude.Rng.bool rng then 1. else -1.))
  in
  let d = Dense.make n n in
  Array.iteri (fun i v -> d.(i).(i) <- v) diag;
  let built = factor "diagonal" d and direct = Lu.diagonal diag in
  Alcotest.(check int) "nnz" (Lu.nnz built) (Lu.nnz direct);
  Alcotest.(check int) "input nnz" (Lu.input_nnz built) (Lu.input_nnz direct);
  Alcotest.(check int) "fill-in" (Lu.fill_in built) (Lu.fill_in direct);
  Alcotest.(check bool) "min diag" true
    (bits (Lu.min_abs_diag built) = bits (Lu.min_abs_diag direct));
  Alcotest.(check bool) "permutations" true
    (Lu.permutations built = Lu.permutations direct);
  for trial = 0 to 20 do
    let k = if trial = 0 then n else 1 + Prelude.Rng.int rng 3 in
    let rows = Array.sub (random_permutation rng n) 0 k in
    let v = Array.make n 0. in
    Array.iter (fun i -> v.(i) <- Prelude.Rng.float_range rng (-3.) 3.) rows;
    List.iter
      (fun solve ->
        let x = Array.copy v and y = Array.copy v in
        let px = Array.make n 0 and py = Array.make n 0 in
        Array.blit rows 0 px 0 k;
        Array.blit rows 0 py 0 k;
        let kx = solve built x px k and ky = solve direct y py k in
        Alcotest.(check int) "pattern count" kx ky;
        Array.iteri
          (fun i a ->
            if bits a <> bits y.(i) then
              Alcotest.failf "diagonal solve row %d: %h vs %h" i a y.(i))
          x)
      [ Lu.ftran; Lu.btran ]
  done;
  Alcotest.check_raises "a zero entry is no pivot"
    (Invalid_argument "Lu.diagonal: entry 1 is no pivot") (fun () ->
      ignore (Lu.diagonal [| 1.; 0.; 2. |]))

(* FTRAN and BTRAN work in the factor's own vectors: a thousand calls of
   each, sparse and dense, allocate nothing. *)
let test_solves_allocate_nothing () =
  let n = 200 in
  let d = Dense.identity n in
  let rng = Prelude.Rng.of_int 77 in
  for _ = 1 to n do
    let i = Prelude.Rng.int rng n and j = Prelude.Rng.int rng n in
    if i <> j then d.(i).(j) <- Prelude.Rng.float_range rng (-0.9) 0.9
  done;
  match Lu.factorize ~dim:n (cols_of_dense d) with
  | Error _ -> Alcotest.fail "unexpected singular"
  | Ok f ->
      let v = Array.make n 0. and pattern = Array.make n 0 in
      let unit r =
        Array.fill v 0 n 0.;
        v.(r) <- 1.;
        pattern.(0) <- r
      in
      let full () =
        Array.fill v 0 n 1.;
        for i = 0 to n - 1 do
          pattern.(i) <- i
        done
      in
      let spin calls =
        for k = 1 to calls do
          unit (k mod n);
          ignore (Lu.ftran f v pattern 1);
          unit (k mod n);
          ignore (Lu.btran f v pattern 1);
          full ();
          ignore (Lu.ftran f v pattern n);
          full ();
          ignore (Lu.btran f v pattern n)
        done
      in
      spin 10;
      let w0 = Gc.minor_words () in
      spin 1_000;
      let dw = Gc.minor_words () -. w0 in
      (* [Gc.minor_words] boxes its result; a few words over 4,000 solves
         mean the solves themselves allocate nothing. *)
      Alcotest.(check bool)
        (Printf.sprintf "allocation-free (%.0f minor words / 4000 solves)" dw)
        true (dw < 64.)

let suite =
  [ Alcotest.test_case "identity" `Quick test_identity;
    Alcotest.test_case "permutation" `Quick test_permutation;
    Alcotest.test_case "dense 3x3" `Quick test_dense_3x3;
    Alcotest.test_case "requires pivoting" `Quick test_requires_pivoting;
    Alcotest.test_case "singular detected" `Quick test_singular_detected;
    Alcotest.test_case "zero column singular" `Quick test_zero_column_singular;
    Alcotest.test_case "near-triangular sparse" `Quick test_near_triangular_sparse;
    Alcotest.test_case "min abs diag" `Quick test_min_abs_diag;
    Alcotest.test_case "random sparse solves" `Quick test_random_sparse_solves;
    Alcotest.test_case "btran of unit vectors" `Quick test_btran_unit_vectors;
    Alcotest.test_case "pattern solves match the dense sweep" `Quick
      test_pattern_solves;
    Alcotest.test_case "sparse walk and its switch to the sweep" `Quick
      test_reach_branches;
    Alcotest.test_case "diagonal factor without elimination" `Quick
      test_diagonal_factor;
    Alcotest.test_case "solves allocate nothing" `Quick
      test_solves_allocate_nothing ]
