open Relpipe_model

type t = { mapping : Mapping.t; evaluation : Instance.evaluation }

let of_mapping instance mapping =
  { mapping; evaluation = Instance.evaluate instance mapping }

let best ?eps objective a b =
  match a, b with
  | None, x | x, None -> x
  | Some sa, Some sb ->
      if Instance.better ?eps objective sb.evaluation sa.evaluation then Some sb
      else Some sa

let pp ppf s =
  Format.fprintf ppf "@[<v>%a@,%a@]" Mapping.pp s.mapping Instance.pp_evaluation
    s.evaluation
