module Csc = Sparselin.Csc

let feq = Alcotest.(check (float 1e-12))

let sample () =
  (* [ 1 0 2 ]
     [ 0 3 0 ]
     [ 4 0 5 ] *)
  let b = Csc.builder ~nrows:3 ~ncols:3 in
  Csc.add b ~row:0 ~col:0 1.;
  Csc.add b ~row:2 ~col:0 4.;
  Csc.add b ~row:1 ~col:1 3.;
  Csc.add b ~row:0 ~col:2 2.;
  Csc.add b ~row:2 ~col:2 5.;
  Csc.finalize b

let test_dims () =
  let m = sample () in
  Alcotest.(check int) "nrows" 3 (Csc.nrows m);
  Alcotest.(check int) "ncols" 3 (Csc.ncols m);
  Alcotest.(check int) "nnz" 5 (Csc.nnz m)

let test_get () =
  let m = sample () in
  feq "(0,0)" 1. (Csc.get m 0 0);
  feq "(2,0)" 4. (Csc.get m 2 0);
  feq "(1,1)" 3. (Csc.get m 1 1);
  feq "(0,2)" 2. (Csc.get m 0 2);
  feq "(2,2)" 5. (Csc.get m 2 2);
  feq "(1,0) zero" 0. (Csc.get m 1 0);
  feq "(0,1) zero" 0. (Csc.get m 0 1)

let test_duplicates_summed () =
  let b = Csc.builder ~nrows:2 ~ncols:2 in
  Csc.add b ~row:0 ~col:0 1.;
  Csc.add b ~row:0 ~col:0 2.;
  Csc.add b ~row:1 ~col:1 5.;
  Csc.add b ~row:1 ~col:1 (-5.);
  let m = Csc.finalize b in
  feq "summed" 3. (Csc.get m 0 0);
  Alcotest.(check int) "cancelled entry dropped" 1 (Csc.nnz m)

let test_column_sorted () =
  let b = Csc.builder ~nrows:4 ~ncols:1 in
  Csc.add b ~row:3 ~col:0 3.;
  Csc.add b ~row:1 ~col:0 1.;
  Csc.add b ~row:2 ~col:0 2.;
  let m = Csc.finalize b in
  let col = Csc.column m 0 in
  Alcotest.(check (list (pair int (float 0.)))) "sorted rows"
    [ (1, 1.); (2, 2.); (3, 3.) ]
    (Array.to_list col)

let test_matvec () =
  let m = sample () in
  Alcotest.(check (array (float 1e-12))) "A x"
    [| 1. +. 6.; 6.; 4. +. 15. |]
    (Csc.matvec m [| 1.; 2.; 3. |])

let test_matvec_t () =
  let m = sample () in
  Alcotest.(check (array (float 1e-12))) "A^T y"
    [| 1. +. 12.; 6.; 2. +. 15. |]
    (Csc.matvec_t m [| 1.; 2.; 3. |]);
  Alcotest.(check (array (float 1e-12))) "(transpose A) y"
    [| 1. +. 12.; 6.; 2. +. 15. |]
    (Csc.matvec (Csc.transpose m) [| 1.; 2.; 3. |])

let test_dense_roundtrip () =
  let m = sample () in
  let d = Csc.to_dense m in
  let m' = Csc.of_dense d in
  Alcotest.(check int) "same nnz" (Csc.nnz m) (Csc.nnz m');
  for i = 0 to 2 do
    for j = 0 to 2 do
      feq (Printf.sprintf "(%d,%d)" i j) (Csc.get m i j) (Csc.get m' i j)
    done
  done

let test_select_columns () =
  let m = sample () in
  let s = Csc.select_columns m [| 2; 0 |] in
  feq "col0 from col2" 2. (Csc.get s 0 0);
  feq "col1 from col0" 1. (Csc.get s 0 1);
  feq "col0 row2" 5. (Csc.get s 2 0)

let test_empty () =
  let b = Csc.builder ~nrows:0 ~ncols:0 in
  let m = Csc.finalize b in
  Alcotest.(check int) "empty nnz" 0 (Csc.nnz m)

let test_out_of_range () =
  let b = Csc.builder ~nrows:2 ~ncols:2 in
  Alcotest.check_raises "bad row" (Invalid_argument "Csc.add: row out of range")
    (fun () -> Csc.add b ~row:2 ~col:0 1.);
  Alcotest.check_raises "bad col" (Invalid_argument "Csc.add: col out of range")
    (fun () -> Csc.add b ~row:0 ~col:(-1) 1.)

let test_of_sorted_columns () =
  (* The sample matrix, column by column. *)
  let m =
    Csc.of_sorted_columns ~nrows:3 ~ncols:3 ~colptr:[| 0; 2; 3; 5 |]
      ~rowind:[| 0; 2; 1; 0; 2 |] ~values:[| 1.; 4.; 3.; 2.; 5. |]
  in
  Alcotest.(check bool) "same as the builder's" true
    (Csc.to_dense m = Csc.to_dense (sample ()));
  Alcotest.(check int) "nnz" 5 (Csc.nnz m);
  let empty =
    Csc.of_sorted_columns ~nrows:4 ~ncols:2 ~colptr:[| 0; 0; 0 |]
      ~rowind:[||] ~values:[||]
  in
  Alcotest.(check int) "empty columns" 0 (Csc.nnz empty);
  let rejects what ~nrows ~colptr ~rowind =
    match
      Csc.of_sorted_columns ~nrows ~ncols:(Array.length colptr - 1) ~colptr
        ~rowind ~values:(Array.make (Array.length rowind) 1.)
    with
    | _ -> Alcotest.failf "%s: accepted" what
    | exception Invalid_argument _ -> ()
  in
  rejects "unsorted rows" ~nrows:3 ~colptr:[| 0; 2 |] ~rowind:[| 2; 0 |];
  rejects "repeated row" ~nrows:3 ~colptr:[| 0; 2 |] ~rowind:[| 1; 1 |];
  rejects "row past the end" ~nrows:3 ~colptr:[| 0; 1 |] ~rowind:[| 3 |];
  rejects "negative row" ~nrows:3 ~colptr:[| 0; 1 |] ~rowind:[| -1 |];
  rejects "colptr not from 0" ~nrows:3 ~colptr:[| 1; 1 |] ~rowind:[| 0 |];
  rejects "colptr decreasing" ~nrows:3 ~colptr:[| 0; 2; 1; 2 |]
    ~rowind:[| 0; 1 |];
  rejects "colptr past nnz" ~nrows:3 ~colptr:[| 0; 3 |] ~rowind:[| 0; 1 |];
  Alcotest.check_raises "values of another length"
    (Invalid_argument "Csc.of_sorted_columns: array lengths") (fun () ->
      ignore
        (Csc.of_sorted_columns ~nrows:3 ~ncols:1 ~colptr:[| 0; 1 |]
           ~rowind:[| 0 |] ~values:[||]))

let prop_matvec_matches_dense =
  QCheck2.Test.make ~name:"csc matvec matches dense reference" ~count:100
    QCheck2.Gen.(
      let* nrows = int_range 1 8 in
      let* ncols = int_range 1 8 in
      let* entries =
        list_size (int_range 0 30)
          (triple (int_range 0 (nrows - 1)) (int_range 0 (ncols - 1))
             (float_range (-10.) 10.))
      in
      let* x = array_size (return ncols) (float_range (-5.) 5.) in
      return (nrows, ncols, entries, x))
    (fun (nrows, ncols, entries, x) ->
      let b = Csc.builder ~nrows ~ncols in
      List.iter (fun (r, c, v) -> Csc.add b ~row:r ~col:c v) entries;
      let m = Csc.finalize b in
      let d = Csc.to_dense m in
      let expected =
        Array.init nrows (fun i ->
            let acc = ref 0. in
            for j = 0 to ncols - 1 do
              acc := !acc +. (d.(i).(j) *. x.(j))
            done;
            !acc)
      in
      let got = Csc.matvec m x in
      Array.for_all2 (fun a b -> abs_float (a -. b) < 1e-9) expected got)

(* Loading an entering column lists its rows, ascending, with the column
   added into the vector. *)
let test_scatter_col_lists_rows () =
  let b = Csc.builder ~nrows:5 ~ncols:2 in
  Csc.add b ~row:3 ~col:1 2.;
  Csc.add b ~row:0 ~col:1 (-1.);
  Csc.add b ~row:4 ~col:0 5.;
  let m = Csc.finalize b in
  let v = [| 0.; 0.; 0.; 1.; 0. |] and pattern = Array.make 5 (-1) in
  let k = Csc.scatter_col m 1 v pattern in
  Alcotest.(check int) "count" 2 k;
  Alcotest.(check (array int)) "rows" [| 0; 3 |] (Array.sub pattern 0 k);
  Alcotest.(check (array (float 0.))) "added" [| -1.; 0.; 0.; 3.; 0. |] v

(* The pattern-walking product scatters only the listed columns, and
   reads a zero listed entry as absent. *)
let test_matvec_add_sparse () =
  let b = Csc.builder ~nrows:4 ~ncols:3 in
  Csc.add b ~row:0 ~col:0 1.;
  Csc.add b ~row:2 ~col:0 2.;
  Csc.add b ~row:2 ~col:2 3.;
  Csc.add b ~row:3 ~col:1 4.;
  let m = Csc.finalize b in
  let x = [| 2.; 0.; -1. |] and y = Array.make 4 0. in
  let stamp = Array.make 4 0 and pattern = Array.make 4 (-1) in
  let k = Csc.matvec_add_sparse m x [| 0; 1; 2 |] 3 y ~stamp ~mark:1 pattern in
  Alcotest.(check (array (float 0.))) "product" [| 2.; 0.; 1.; 0. |] y;
  Alcotest.(check (array int)) "rows reached" [| 0; 2 |] (Array.sub pattern 0 k);
  let y = Array.make 4 0. in
  let k = Csc.matvec_add_sparse m x [| 2 |] 1 y ~stamp ~mark:2 pattern in
  Alcotest.(check (array (float 0.))) "listed columns only" [| 0.; 0.; -3.; 0. |] y;
  Alcotest.(check int) "one row" 1 k;
  Alcotest.check_raises "size mismatch"
    (Invalid_argument "Csc.matvec_add_sparse: size mismatch") (fun () ->
      ignore
        (Csc.matvec_add_sparse m [| 1. |] [| 0 |] 1 y ~stamp ~mark:3 pattern))

let suite =
  [ Alcotest.test_case "dims" `Quick test_dims;
    Alcotest.test_case "get" `Quick test_get;
    Alcotest.test_case "duplicates summed" `Quick test_duplicates_summed;
    Alcotest.test_case "column sorted" `Quick test_column_sorted;
    Alcotest.test_case "matvec" `Quick test_matvec;
    Alcotest.test_case "matvec transpose" `Quick test_matvec_t;
    Alcotest.test_case "dense roundtrip" `Quick test_dense_roundtrip;
    Alcotest.test_case "select columns" `Quick test_select_columns;
    Alcotest.test_case "empty" `Quick test_empty;
    Alcotest.test_case "out of range" `Quick test_out_of_range;
    Alcotest.test_case "scatter_col lists the rows" `Quick
      test_scatter_col_lists_rows;
    Alcotest.test_case "matvec_add_sparse" `Quick test_matvec_add_sparse;
    Alcotest.test_case "sorted-column constructor" `Quick
      test_of_sorted_columns;
    QCheck_alcotest.to_alcotest prop_matvec_matches_dense ]
