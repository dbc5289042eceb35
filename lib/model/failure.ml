let interval_failure platform procs =
  if procs = [] then invalid_arg "Failure.interval_failure: empty replication set";
  (* Work in log space; fp = 0 gives log 0 = -inf and exp -inf = 0, which is
     the right answer (a perfectly reliable replica never fails). *)
  let log_prod =
    List.fold_left
      (fun acc u -> acc +. Float.log (Platform.failure platform u))
      0.0 procs
  in
  Float.exp log_prod

let log_survival platform mapping =
  List.fold_left
    (fun acc iv ->
      let pi = interval_failure platform iv.Mapping.procs in
      acc +. Float.log1p (-.pi))
    0.0
    (Mapping.intervals mapping)

let success platform mapping = Float.exp (log_survival platform mapping)

let of_mapping platform mapping = -.Float.expm1 (log_survival platform mapping)
