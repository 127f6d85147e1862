module Eta = Sparselin.Eta
module Dense = Oracle.Dense

(* Dense reference: the eta matrix E is the identity with column [pos]
   replaced by [alpha]. apply_ftran must compute E^-1 x and apply_btran
   must compute E^-T y. *)
let dense_eta n ~pos ~alpha =
  let e = Dense.identity n in
  for i = 0 to n - 1 do
    e.(i).(pos) <- alpha.(i)
  done;
  e

(* The nonzero indices of [v], ascending, as the simplex hands them over. *)
let nonzeros v =
  let idx = List.filter (fun i -> v.(i) <> 0.) (List.init (Array.length v) Fun.id) in
  let p = Array.make (Array.length v) 0 in
  List.iteri (fun k i -> p.(k) <- i) idx;
  (p, List.length idx)

let make ~pos ~alpha =
  let p, nz = nonzeros alpha in
  Eta.of_pattern ~pos ~alpha p nz

(* Apply [f] to [x] with every index listed and stamped, as a dense
   right-hand side is; the pattern must stay the full one. *)
let apply_full f eta x =
  let n = Array.length x in
  let stamp = Array.make n 1 and pattern = Array.init n Fun.id in
  let nz = f eta x ~stamp ~mark:1 pattern n in
  Alcotest.(check int) "a full pattern stays full" n nz

let test_ftran_matches_dense () =
  let rng = Prelude.Rng.of_int 31 in
  for _ = 1 to 50 do
    let n = 2 + Prelude.Rng.int rng 8 in
    let pos = Prelude.Rng.int rng n in
    let alpha =
      Array.init n (fun _ ->
          if Prelude.Rng.bool rng then 0. else Prelude.Rng.float_range rng (-3.) 3.)
    in
    alpha.(pos) <- (1. +. Prelude.Rng.float rng 3.) *. (if Prelude.Rng.bool rng then 1. else -1.);
    let x = Array.init n (fun _ -> Prelude.Rng.float_range rng (-5.) 5.) in
    let e = dense_eta n ~pos ~alpha in
    let eta = make ~pos ~alpha in
    (* Check E * (E^-1 x) = x. *)
    let x' = Array.copy x in
    apply_full Eta.apply_ftran eta x';
    let back = Dense.matvec e x' in
    Array.iteri
      (fun i v -> Alcotest.(check (float 1e-9)) "E (E^-1 x) = x" x.(i) v)
      back
  done

let test_btran_matches_dense () =
  let rng = Prelude.Rng.of_int 37 in
  for _ = 1 to 50 do
    let n = 2 + Prelude.Rng.int rng 8 in
    let pos = Prelude.Rng.int rng n in
    let alpha =
      Array.init n (fun _ ->
          if Prelude.Rng.bool rng then 0. else Prelude.Rng.float_range rng (-3.) 3.)
    in
    alpha.(pos) <- 2.5;
    let y = Array.init n (fun _ -> Prelude.Rng.float_range rng (-5.) 5.) in
    let e = dense_eta n ~pos ~alpha in
    let eta = make ~pos ~alpha in
    let y' = Array.copy y in
    apply_full Eta.apply_btran eta y';
    let back = Dense.matvec (Dense.transpose e) y' in
    Array.iteri
      (fun i v -> Alcotest.(check (float 1e-9)) "E^T (E^-T y) = y" y.(i) v)
      back
  done

let test_small_pivot_rejected () =
  Alcotest.check_raises "tiny diagonal"
    (Invalid_argument "Eta.of_pattern: pivot element too small") (fun () ->
      ignore (make ~pos:0 ~alpha:[| 1e-13; 1. |]))

let test_accessors () =
  let eta = make ~pos:1 ~alpha:[| 0.5; 2.; 0. |] in
  Alcotest.(check int) "pos" 1 (Eta.pos eta);
  Alcotest.(check (float 0.)) "diag" 2. (Eta.diag eta);
  Alcotest.(check int) "nnz counts off-diagonal plus diag" 2 (Eta.nnz eta)

(* Sparse applications list exactly the entries they make nonzero, once
   each, next to what the caller listed. *)
let test_pattern_growth () =
  let alpha = [| 0.; 2.; -1.; 0.; 3. |] in
  let eta = make ~pos:1 ~alpha in
  let stamp = Array.make 5 0 and pattern = Array.make 5 0 in
  let x = [| 0.; 4.; 0.; 0.; 0. |] in
  pattern.(0) <- 1;
  stamp.(1) <- 7;
  let nz = Eta.apply_ftran eta x ~stamp ~mark:7 pattern 1 in
  Alcotest.(check (list int)) "ftran lists the column's rows" [ 1; 2; 4 ]
    (List.sort compare (Array.to_list (Array.sub pattern 0 nz)));
  Alcotest.(check (array (float 0.))) "E^-1 x" [| 0.; 2.; 2.; 0.; -6. |] x;
  let y = [| 0.; 0.; 1.; 0.; 0. |] in
  pattern.(0) <- 2;
  stamp.(2) <- 8;
  let nz = Eta.apply_btran eta y ~stamp ~mark:8 pattern 1 in
  Alcotest.(check (list int)) "btran adds pos" [ 1; 2 ]
    (List.sort compare (Array.to_list (Array.sub pattern 0 nz)));
  let y = [| 1.; 0.; 0.; 1.; 0. |] in
  pattern.(0) <- 0;
  pattern.(1) <- 3;
  stamp.(0) <- 9;
  stamp.(3) <- 9;
  Alcotest.(check int) "a zero result at pos is not listed" 2
    (Eta.apply_btran eta y ~stamp ~mark:9 pattern 2)

let suite =
  [ Alcotest.test_case "ftran matches dense" `Quick test_ftran_matches_dense;
    Alcotest.test_case "btran matches dense" `Quick test_btran_matches_dense;
    Alcotest.test_case "small pivot rejected" `Quick test_small_pivot_rejected;
    Alcotest.test_case "accessors" `Quick test_accessors;
    Alcotest.test_case "pattern growth" `Quick test_pattern_growth ]
