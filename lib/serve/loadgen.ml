(* Nearest-rank percentile (see loadgen.mli). *)

let percentile q a =
  let n = Array.length a in
  if n = 0 then 0.
  else
    let rank = int_of_float (ceil (q *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))
