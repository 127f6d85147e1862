module Dense = Oracle.Dense

let farr = Alcotest.(array (float 1e-9))

let test_matmul () =
  let a = [| [| 1.; 2. |]; [| 3.; 4. |] |] in
  let b = [| [| 5.; 6. |]; [| 7.; 8. |] |] in
  let c = Dense.matmul a b in
  Alcotest.check farr "row 0" [| 19.; 22. |] c.(0);
  Alcotest.check farr "row 1" [| 43.; 50. |] c.(1)

let test_transpose () =
  let a = [| [| 1.; 2.; 3. |]; [| 4.; 5.; 6. |] |] in
  let t = Dense.transpose a in
  Alcotest.(check (pair int int)) "dims" (3, 2) (Dense.dims t);
  Alcotest.check farr "col" [| 2.; 5. |] t.(1)

let test_lu_solve () =
  let a = [| [| 2.; 1. |]; [| 1.; 3. |] |] in
  match Dense.lu_solve a [| 5.; 10. |] with
  | None -> Alcotest.fail "unexpected singular"
  | Some x -> Alcotest.check farr "solution" [| 1.; 3. |] x

let test_lu_singular () =
  let a = [| [| 1.; 1. |]; [| 2.; 2. |] |] in
  Alcotest.(check bool) "singular" true (Dense.lu_solve a [| 1.; 2. |] = None)

let test_lu_solve_many () =
  let a = [| [| 2.; 0. |]; [| 0.; 4. |] |] in
  let rhs = [| [| 2.; 4. |]; [| 8.; 12. |] |] in
  match Dense.lu_solve_many a rhs with
  | None -> Alcotest.fail "unexpected singular"
  | Some sol ->
      Alcotest.check farr "col solutions row 0" [| 1.; 2. |] sol.(0);
      Alcotest.check farr "col solutions row 1" [| 2.; 3. |] sol.(1)

let test_cholesky () =
  let a = [| [| 4.; 2. |]; [| 2.; 3. |] |] in
  match Dense.cholesky a with
  | None -> Alcotest.fail "expected SPD"
  | Some l ->
      let llt = Dense.matmul l (Dense.transpose l) in
      Alcotest.(check (float 1e-9)) "reconstruction" 0. (Dense.max_abs_diff a llt)

let test_cholesky_not_spd () =
  let a = [| [| 1.; 2. |]; [| 2.; 1. |] |] in
  Alcotest.(check bool) "not SPD" true (Dense.cholesky a = None)

let test_cholesky_solve () =
  let a = [| [| 4.; 2. |]; [| 2.; 3. |] |] in
  match Dense.cholesky_solve a [| 10.; 8. |] with
  | None -> Alcotest.fail "expected SPD"
  | Some x ->
      let ax = Dense.matvec a x in
      Alcotest.check farr "A x = b" [| 10.; 8. |] ax

let test_solve_random () =
  let rng = Prelude.Rng.of_int 99 in
  for _ = 1 to 20 do
    let n = 1 + Prelude.Rng.int rng 10 in
    let a =
      Array.init n (fun i ->
          Array.init n (fun j ->
              (if i = j then 5. else 0.) +. Prelude.Rng.float_range rng (-1.) 1.))
    in
    let b = Array.init n (fun _ -> Prelude.Rng.float_range rng (-5.) 5.) in
    match Dense.lu_solve a b with
    | None -> Alcotest.fail "diagonally dominant must be nonsingular"
    | Some x ->
        let ax = Dense.matvec a x in
        Array.iteri
          (fun i v -> Alcotest.(check (float 1e-8)) "residual" b.(i) v)
          ax
  done

let suite =
  [ Alcotest.test_case "matmul" `Quick test_matmul;
    Alcotest.test_case "transpose" `Quick test_transpose;
    Alcotest.test_case "lu solve" `Quick test_lu_solve;
    Alcotest.test_case "lu singular" `Quick test_lu_singular;
    Alcotest.test_case "lu solve many" `Quick test_lu_solve_many;
    Alcotest.test_case "cholesky" `Quick test_cholesky;
    Alcotest.test_case "cholesky not spd" `Quick test_cholesky_not_spd;
    Alcotest.test_case "cholesky solve" `Quick test_cholesky_solve;
    Alcotest.test_case "random solves" `Quick test_solve_random ]
