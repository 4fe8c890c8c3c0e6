(** Sample buffers and order statistics. *)

(** A growable buffer of integer samples (simulated nanoseconds). *)
type vec = { mutable a : int array; mutable n : int }

let vec () = { a = Array.make 1024 0; n = 0 }

let push v x =
  if v.n = Array.length v.a then begin
    let b = Array.make (2 * v.n) 0 in
    Array.blit v.a 0 b 0 v.n;
    v.a <- b
  end;
  v.a.(v.n) <- x;
  v.n <- v.n + 1

let sorted v =
  let s = Array.sub v.a 0 v.n in
  Array.sort compare s;
  s

(** Nearest-rank [q]-quantile of the sorted array [s], and how many
    samples lie strictly above its rank (the support of a tail
    percentile). [s] must be non-empty. *)
let percentile s q =
  let n = Array.length s in
  let rank = max 1 (min n (int_of_float (ceil (q *. float_of_int n)))) in
  (s.(rank - 1), n - rank)

(** Mean of a non-empty sample. *)
let mean s =
  Array.fold_left (fun acc x -> acc +. float_of_int x) 0.0 s /. float_of_int (Array.length s)

let median l =
  let s = Array.of_list l in
  Array.sort compare s;
  let n = Array.length s in
  if n = 0 then nan
  else if n mod 2 = 1 then s.(n / 2)
  else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.0

(** Quartiles exactly as Python's [statistics.quantiles(values, n=4)]
    computes them (the default "exclusive" method). Needs two values. *)
let quartiles l =
  let d = Array.of_list l in
  Array.sort compare d;
  let n = Array.length d in
  if n < 2 then invalid_arg "Stats.quartiles: need at least two values";
  let m = n + 1 in
  let q i =
    let j = max 1 (min (n - 1) (i * m / 4)) in
    let delta = (i * m) - (j * 4) in
    ((d.(j - 1) *. float_of_int (4 - delta)) +. (d.(j) *. float_of_int delta))
    /. 4.0
  in
  (q 1, q 2, q 3)
