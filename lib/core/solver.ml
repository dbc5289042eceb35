open Relpipe_model
module Analysis = Relpipe_analysis.Analysis
module Diagnostic = Relpipe_analysis.Diagnostic

type method_ =
  | Auto
  | Exact_enum
  | Polynomial
  | Heuristic of Heuristics.name
  | Portfolio

type error =
  | Invalid_instance of Diagnostic.t list
  | Invalid_objective of string
  | Not_applicable of string
  | Too_large of string

let pp_error ppf = function
  | Invalid_instance ds ->
      Format.fprintf ppf "invalid instance:";
      List.iter (fun d -> Format.fprintf ppf "@ %s" (Diagnostic.to_string d)) ds
  | Invalid_objective msg -> Format.fprintf ppf "invalid objective: %s" msg
  | Not_applicable msg | Too_large msg -> Format.pp_print_string ppf msg

let error_to_string e = Format.asprintf "@[<h>%a@]" pp_error e

let check_instance instance =
  match Analysis.instance_errors instance with
  | [] -> Ok ()
  | ds -> Error (Invalid_instance ds)

let check_objective objective =
  let finite name x =
    if Float.is_nan x then
      Error (Invalid_objective (Printf.sprintf "%s threshold is NaN" name))
    else Ok ()
  in
  match objective with
  | Instance.Min_latency { max_failure } -> finite "failure-probability" max_failure
  | Instance.Min_failure { max_latency } -> finite "latency" max_latency

let polynomial instance objective =
  if Fully_homog.applicable instance then Fully_homog.solve instance objective
  else if Comm_homog.applicable instance then Comm_homog.solve instance objective
  else
    invalid_arg
      "Solver: no polynomial-optimal algorithm for this platform class \
       (NP-hard or open per the paper)"

let default_budget = 1_000_000

let auto ~exact_budget instance objective =
  if Fully_homog.applicable instance || Comm_homog.applicable instance then
    polynomial instance objective
  else if Platform.size instance.Instance.platform > Relpipe_util.Bitset.max_width
  then (* beyond the search's one-word processor sets *)
    Heuristics.best_of instance objective
  else
    match Bb.solve_budgeted ~budget:exact_budget instance objective with
    | Bb.Complete s -> s
    | Bb.Exhausted incumbent ->
        Solution.best objective (Heuristics.best_of instance objective) incumbent

let exact ~exact_budget instance objective =
  match Bb.solve_budgeted ~budget:exact_budget instance objective with
  | Bb.Complete s -> s
  | Bb.Exhausted _ ->
      let n = Pipeline.length instance.Instance.pipeline
      and m = Platform.size instance.Instance.platform in
      Printf.ksprintf (fun msg -> raise (Exact.Too_large msg))
        "exact search: more than %d branch-and-bound nodes (n=%d m=%d)"
        exact_budget n m

let dispatch ~method_ ~exact_budget instance objective =
  match method_ with
  | Auto -> auto ~exact_budget instance objective
  | Exact_enum -> exact ~exact_budget instance objective
  | Polynomial -> polynomial instance objective
  | Heuristic name -> Heuristics.run name instance objective
  | Portfolio -> Heuristics.best_of instance objective

let run ?(method_ = Auto) ?(exact_budget = default_budget) instance objective =
  let ( let* ) = Result.bind in
  let* () = check_instance instance in
  let* () = check_objective objective in
  match dispatch ~method_ ~exact_budget instance objective with
  | s -> Ok s
  | exception Invalid_argument msg -> Error (Not_applicable msg)
  | exception Exact.Too_large msg -> Error (Too_large msg)

let solve ?method_ ?exact_budget instance objective =
  match run ?method_ ?exact_budget instance objective with
  | Ok s -> s
  | Error (Too_large msg) -> raise (Exact.Too_large msg)
  | Error ((Invalid_instance _ | Invalid_objective _) as e) ->
      invalid_arg ("Solver: " ^ error_to_string e)
  | Error (Not_applicable msg) -> invalid_arg msg

let describe instance =
  let platform = instance.Instance.platform in
  let comm = Classify.comm_class platform in
  let fail = Classify.failure_class platform in
  let method_name =
    if Fully_homog.applicable instance then "Algorithms 1/2 (polynomial, optimal)"
    else if Comm_homog.applicable instance then
      "Algorithms 3/4 (polynomial, optimal)"
    else "budgeted branch and bound, portfolio fallback (NP-hard/open case)"
  in
  Format.asprintf "%a, %a -> %s" Classify.pp_comm_class comm
    Classify.pp_failure_class fail method_name
