type t = int array

let make ~m a =
  if Array.length a = 0 then invalid_arg "Assignment.make: empty assignment";
  Array.iter
    (fun u ->
      if u < 0 || u >= m then
        invalid_arg "Assignment.make: processor index out of range")
    a;
  Array.copy a

let of_list ~m l = make ~m (Array.of_list l)

let length = Array.length

let proc t k =
  if k < 1 || k > Array.length t then
    invalid_arg "Assignment.proc: stage out of range";
  t.(k - 1)

let is_interval_based t =
  (* A processor may only reappear immediately: once we leave it, it is
     retired. *)
  let n = Array.length t in
  let rec go k retired =
    if k >= n then true
    else if t.(k) = t.(k - 1) then go (k + 1) retired
    else if List.mem t.(k) retired then false
    else go (k + 1) (t.(k - 1) :: retired)
  in
  go 1 []

let to_mapping ~m t =
  if not (is_interval_based t) then None
  else begin
    let n = Array.length t in
    let rec build first k acc =
      if k > n then List.rev acc
      else if k = n || t.(k) <> t.(k - 1) then
        build (k + 1) (k + 1)
          ({ Mapping.first; last = k; procs = [ t.(k - 1) ] } :: acc)
      else build first (k + 1) acc
    in
    Some (Mapping.make ~n ~m (build 1 1 []))
  end

let equal = ( = )

let pp ppf t =
  Format.fprintf ppf "@[<h>";
  Array.iteri
    (fun i u ->
      if i > 0 then Format.pp_print_string ppf " ";
      Format.fprintf ppf "S%d:P%d" (i + 1) u)
    t;
  Format.fprintf ppf "@]"
