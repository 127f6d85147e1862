module Lu = Sparselin.Lu
module Csc = Sparselin.Csc
module Dense = Sparselin.Dense

let cols_of_dense d =
  let n = Array.length d in
  fun j ->
    let acc = ref [] in
    for i = n - 1 downto 0 do
      if d.(i).(j) <> 0. then acc := (i, d.(i).(j)) :: !acc
    done;
    Array.of_list !acc

let check_solve d b =
  let n = Array.length d in
  match Lu.factorize ~dim:n (cols_of_dense d) with
  | Error (Lu.Singular _) -> Alcotest.fail "unexpected singular"
  | Ok f ->
      let x = Array.copy b in
      Lu.solve f x;
      (* Verify A x = b. *)
      let ax = Dense.matvec d x in
      Array.iteri
        (fun i v ->
          Alcotest.(check (float 1e-8)) (Printf.sprintf "Ax=b row %d" i) b.(i) v)
        ax;
      let y = Array.copy b in
      Lu.solve_transpose f y;
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
         Lu.solve f x;
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
         Lu.solve_transpose f c;
         let atc = Dense.matvec (Dense.transpose d) c in
         Array.iteri
           (fun i v ->
             if abs_float (v -. y.(i)) > 1e-7 then
               Alcotest.fail
                 (Printf.sprintf "trial %d (transpose) row %d: residual %g"
                    trial i (abs_float (v -. y.(i)))))
           atc)
  done

let test_explicit_col_order () =
  let d = [| [| 2.; 1. |]; [| 1.; 3. |] |] in
  match Lu.factorize ~col_order:[| 1; 0 |] ~dim:2 (cols_of_dense d) with
  | Error _ -> Alcotest.fail "unexpected singular"
  | Ok f ->
      let x = [| 4.; 7. |] in
      Lu.solve f x;
      let ax = Dense.matvec d x in
      Alcotest.(check (float 1e-10)) "row 0" 4. ax.(0);
      Alcotest.(check (float 1e-10)) "row 1" 7. ax.(1)

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
    Lu.solve_transpose f y;
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

(* FTRAN and BTRAN work in the factor's own vectors: a thousand calls of
   each allocate nothing. *)
let test_solves_allocate_nothing () =
  let n = 60 in
  let d = random_nonsingular (Prelude.Rng.of_int 77) n in
  match Lu.factorize ~dim:n (cols_of_dense d) with
  | Error _ -> Alcotest.fail "unexpected singular"
  | Ok f ->
      let v = Array.make n 0. in
      let spin calls =
        for k = 1 to calls do
          Array.fill v 0 n 0.;
          v.(k mod n) <- 1.;
          Lu.solve f v;
          Array.fill v 0 n 0.;
          v.(k mod n) <- 1.;
          Lu.solve_transpose f v
        done
      in
      spin 10;
      let w0 = Gc.minor_words () in
      spin 1_000;
      let dw = Gc.minor_words () -. w0 in
      (* [Gc.minor_words] boxes its result; a few words over 2,000 solves
         mean the solves themselves allocate nothing. *)
      Alcotest.(check bool)
        (Printf.sprintf "allocation-free (%.0f minor words / 2000 solves)" dw)
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
    Alcotest.test_case "explicit column order" `Quick test_explicit_col_order;
    Alcotest.test_case "btran of unit vectors" `Quick test_btran_unit_vectors;
    Alcotest.test_case "solves allocate nothing" `Quick
      test_solves_allocate_nothing ]
