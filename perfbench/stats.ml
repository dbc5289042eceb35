(* Order statistics over float samples.  Percentiles are nearest-rank
   (the smallest sample with at least p% of the samples at or below it),
   so every reported percentile is a value that was actually observed. *)

let sorted a =
  let c = Array.copy a in
  Array.sort Float.compare c;
  c

let percentile_sorted s p =
  let n = Array.length s in
  if n = 0 then 0.0
  else
    let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
    s.(max 0 (min (n - 1) (rank - 1)))

let percentile a p = percentile_sorted (sorted a) p
let median a = percentile a 50.0

let mean a =
  let n = Array.length a in
  if n = 0 then 0.0 else Array.fold_left ( +. ) 0.0 a /. float_of_int n

let of_ints a = Array.map float_of_int a
