type t = {
  pos : int;
  diag : float;
  (* Off-diagonal nonzeros of the eta column in ascending index order, as
     parallel arrays to avoid boxing: built once per simplex pivot and
     traversed on every later solve. *)
  off_idx : int array;
  off_val : float array;
}

let of_pattern ~pos ~alpha pattern nz =
  let d = alpha.(pos) in
  if abs_float d < 1e-11 then
    invalid_arg "Eta.of_pattern: pivot element too small";
  let count = ref 0 in
  for k = 0 to nz - 1 do
    let i = pattern.(k) in
    if i <> pos && alpha.(i) <> 0. then incr count
  done;
  let off_idx = Array.make !count 0 and off_val = Array.make !count 0. in
  let c = ref 0 in
  for k = 0 to nz - 1 do
    let i = pattern.(k) in
    if i <> pos && alpha.(i) <> 0. then begin
      off_idx.(!c) <- i;
      off_val.(!c) <- alpha.(i);
      incr c
    end
  done;
  { pos; diag = d; off_idx; off_val }

let pos e = e.pos
let diag e = e.diag
let nnz e = Array.length e.off_idx + 1

(* List [i] unless [stamp] already marks it. *)
let[@inline] note ~stamp ~mark pattern nz i =
  if Array.unsafe_get stamp i = mark then nz
  else begin
    Array.unsafe_set stamp i mark;
    Array.unsafe_set pattern nz i;
    nz + 1
  end

(* E^-1 x: x'_pos = x_pos / d, then x'_i = x_i - off_i * x'_pos. *)
let apply_ftran e x ~stamp ~mark pattern nz =
  let xp = x.(e.pos) /. e.diag in
  x.(e.pos) <- xp;
  if xp = 0. then nz
  else begin
    let nz = ref nz in
    for k = 0 to Array.length e.off_idx - 1 do
      let i = Array.unsafe_get e.off_idx k in
      Array.unsafe_set x i
        (Array.unsafe_get x i -. (Array.unsafe_get e.off_val k *. xp));
      nz := note ~stamp ~mark pattern !nz i
    done;
    !nz
  end

(* E^-T y: y'_pos = (y_pos - sum_i off_i * y_i) / d, others unchanged. *)
let apply_btran e y ~stamp ~mark pattern nz =
  let acc = ref y.(e.pos) in
  for k = 0 to Array.length e.off_idx - 1 do
    acc :=
      !acc
      -. (Array.unsafe_get e.off_val k
          *. Array.unsafe_get y (Array.unsafe_get e.off_idx k))
  done;
  let yp = !acc /. e.diag in
  y.(e.pos) <- yp;
  if yp = 0. then nz else note ~stamp ~mark pattern nz e.pos
