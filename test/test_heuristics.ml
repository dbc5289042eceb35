open Relpipe_model
open Relpipe_core
module Rng = Relpipe_util.Rng
module F = Relpipe_util.Float_cmp

let test = Helpers.test

let latency_of (s : Solution.t) = s.Solution.evaluation.Instance.latency
let failure_of (s : Solution.t) = s.Solution.evaluation.Instance.failure

let thresholds_for rng inst =
  let n = Pipeline.length inst.Instance.pipeline in
  let m = Platform.size inst.Instance.platform in
  let lo =
    Latency.of_mapping inst.Instance.pipeline inst.Instance.platform
      (Mapping.single_interval ~n ~m [ Mono.fastest_proc inst.Instance.platform ])
  in
  let hi =
    Latency.of_mapping inst.Instance.pipeline inst.Instance.platform
      (Mapping.single_interval ~n ~m (Platform.procs inst.Instance.platform))
  in
  ( Rng.float_range rng lo (Float.max (lo *. 1.01) (hi *. 1.1)),
    Rng.float_range rng 0.01 0.8 )

(* Every heuristic must return either None or a feasible, correctly
   evaluated solution. *)
let heuristic_results_feasible name_ =
  Helpers.seed_property ~count:30
    (Printf.sprintf "%s returns feasible solutions"
       (Heuristics.name_to_string name_))
    (fun seed ->
      let rng = Rng.create seed in
      let n = 1 + (seed mod 5) and m = 2 + (seed mod 6) in
      let inst = Helpers.random_fully_hetero rng ~n ~m in
      let max_latency, max_failure = thresholds_for rng inst in
      List.for_all
        (fun objective ->
          match Heuristics.run name_ inst objective with
          | None -> true
          | Some s ->
              Instance.feasible objective s.Solution.evaluation
              && F.approx_eq ~eps:1e-9 (latency_of s)
                   (Latency.of_mapping inst.Instance.pipeline
                      inst.Instance.platform s.Solution.mapping))
        [
          Instance.Min_failure { max_latency };
          Instance.Min_latency { max_failure };
        ])

(* Heuristics can never beat the exhaustive optimum. *)
let heuristics_never_beat_exact =
  Helpers.seed_property ~count:25 "heuristics >= exact optimum" (fun seed ->
      let rng = Rng.create seed in
      let n = 1 + (seed mod 3) and m = 2 + (seed mod 3) in
      let inst = Helpers.random_fully_hetero rng ~n ~m in
      let max_latency, _ = thresholds_for rng inst in
      let objective = Instance.Min_failure { max_latency } in
      let exact = Exact.solve inst objective in
      List.for_all
        (fun name_ ->
          match (Heuristics.run name_ inst objective, exact) with
          | None, _ -> true
          | Some _, None -> false (* heuristic "found" something exact rules out *)
          | Some h, Some e -> F.geq ~eps:1e-6 (failure_of h) (failure_of e))
        Heuristics.all_names)

(* On the homogeneous classes the greedy single-interval heuristic should
   recover the polynomial optimum. *)
let single_greedy_matches_alg3 =
  Helpers.seed_property ~count:30 "single-greedy = Algorithm 3 on CH+FailHomog"
    (fun seed ->
      let rng = Rng.create seed in
      let n = 1 + (seed mod 3) and m = 2 + (seed mod 4) in
      let inst = Helpers.random_comm_homog_fail_homog rng ~n ~m in
      let max_latency, _ = thresholds_for rng inst in
      match
        ( Heuristics.single_greedy inst (Instance.Min_failure { max_latency }),
          Comm_homog.min_failure_for_latency inst ~max_latency )
      with
      | None, None -> true
      | Some h, Some a -> F.approx_eq ~eps:1e-6 (failure_of h) (failure_of a)
      | Some _, None -> false
      | None, Some _ -> false)

(* The paper's Fig. 5: heuristics must discover the two-interval optimum
   (or at least beat the single-interval bound of 0.64). *)
let fig5_beats_single_interval () =
  let inst = Relpipe_workload.Scenarios.fig5 () in
  let objective =
    Instance.Min_failure { max_latency = Relpipe_workload.Scenarios.fig5_threshold }
  in
  match Heuristics.best_of inst objective with
  | None -> Alcotest.fail "expected a feasible solution"
  | Some s ->
      Helpers.check_leq "beats the single-interval optimum" (failure_of s) 0.64;
      Alcotest.(check bool) "finds a split" true
        (failure_of s < 0.3 (* the paper's split achieves 0.197 *))

let split_replicate_uses_intervals () =
  let inst = Relpipe_workload.Scenarios.fig5 () in
  let objective =
    Instance.Min_failure { max_latency = Relpipe_workload.Scenarios.fig5_threshold }
  in
  match Heuristics.split_replicate inst objective with
  | None -> Alcotest.fail "expected a solution"
  | Some s ->
      Alcotest.(check bool) "feasible" true
        (Instance.feasible objective s.Solution.evaluation)

let local_search_deterministic () =
  let rng = Rng.create 99 in
  let inst = Helpers.random_fully_hetero rng ~n:4 ~m:5 in
  let objective = Instance.Min_failure { max_latency = 1e6 } in
  let a = Heuristics.local_search ~seed:7 inst objective in
  let b = Heuristics.local_search ~seed:7 inst objective in
  match a, b with
  | Some sa, Some sb ->
      Alcotest.(check bool) "same mapping" true
        (Mapping.equal sa.Solution.mapping sb.Solution.mapping)
  | None, None -> ()
  | _ -> Alcotest.fail "nondeterministic feasibility"

let annealing_handles_tight_threshold () =
  let rng = Rng.create 11 in
  let inst = Helpers.random_comm_homog rng ~n:3 ~m:6 in
  (* A generous latency bound: every heuristic should find something. *)
  let objective = Instance.Min_failure { max_latency = 1e9 } in
  match Heuristics.annealing inst objective with
  | None -> Alcotest.fail "annealing found nothing under a loose bound"
  | Some s ->
      Alcotest.(check bool) "feasible" true
        (Instance.feasible objective s.Solution.evaluation)

let best_of_is_best =
  Helpers.seed_property ~count:15 "best_of dominates each heuristic"
    (fun seed ->
      let rng = Rng.create seed in
      let n = 1 + (seed mod 4) and m = 2 + (seed mod 4) in
      let inst = Helpers.random_fully_hetero rng ~n ~m in
      let max_latency, _ = thresholds_for rng inst in
      let objective = Instance.Min_failure { max_latency } in
      let best = Heuristics.best_of inst objective in
      List.for_all
        (fun name_ ->
          match (best, Heuristics.run name_ inst objective) with
          | _, None -> true
          | None, Some _ -> false
          | Some b, Some h -> F.leq ~eps:1e-9 (failure_of b) (failure_of h))
        Heuristics.all_names)

(* ------------------------------------------------------------------ *)
(* Speed-contiguous structured solver                                  *)
(* ------------------------------------------------------------------ *)

let contiguous_finds_fig5_optimum () =
  let inst = Relpipe_workload.Scenarios.fig5 () in
  let objective =
    Instance.Min_failure { max_latency = Relpipe_workload.Scenarios.fig5_threshold }
  in
  match Contiguous.solve inst objective with
  | None -> Alcotest.fail "expected a solution"
  | Some s ->
      (* The slow processor is last in speed order, the ten fast ones form
         a contiguous prefix: the paper's optimum is speed-contiguous. *)
      Helpers.check_close "matches the paper's optimum"
        (1.0 -. (0.9 *. (1.0 -. (0.8 ** 10.0))))
        (failure_of s)

let contiguous_never_beats_exact =
  Helpers.seed_property ~count:25 "contiguous >= exact" (fun seed ->
      let rng = Rng.create seed in
      let n = 1 + (seed mod 3) and m = 2 + (seed mod 3) in
      let inst = Helpers.random_comm_homog rng ~n ~m in
      let max_latency, _ = thresholds_for rng inst in
      let objective = Instance.Min_failure { max_latency } in
      match (Contiguous.solve inst objective, Exact.solve inst objective) with
      | None, _ -> true
      | Some _, None -> false
      | Some c, Some e -> F.geq ~eps:1e-6 (failure_of c) (failure_of e))

let contiguous_matches_alg3_on_fail_homog =
  Helpers.seed_property ~count:25 "contiguous = Algorithm 3 on CH+FailHomog"
    (fun seed ->
      (* Algorithm 3's optimal prefix is a contiguous segment, so the
         structured solver must recover its optimum. *)
      let rng = Rng.create seed in
      let n = 1 + (seed mod 3) and m = 2 + (seed mod 4) in
      let inst = Helpers.random_comm_homog_fail_homog rng ~n ~m in
      let max_latency, _ = thresholds_for rng inst in
      match
        ( Contiguous.solve inst (Instance.Min_failure { max_latency }),
          Comm_homog.min_failure_for_latency inst ~max_latency )
      with
      | None, None -> true
      | Some c, Some a -> F.approx_eq ~eps:1e-6 (failure_of c) (failure_of a)
      | Some _, None | None, Some _ -> false)

let contiguous_rejects_hetero_links () =
  let inst = Relpipe_workload.Scenarios.fig34 () in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Contiguous.solve inst (Instance.Min_failure { max_latency = 1e9 }));
       false
     with Invalid_argument _ -> true)

let () =
  Alcotest.run "heuristics"
    ([
       ( "feasibility",
         List.map heuristic_results_feasible Heuristics.all_names );
       ( "optimality-bounds",
         [ heuristics_never_beat_exact; single_greedy_matches_alg3 ] );
       ( "fig5",
         [
           test "beats single interval" fig5_beats_single_interval;
           test "split-replicate feasible" split_replicate_uses_intervals;
         ] );
       ( "behaviour",
         [
           test "local search deterministic" local_search_deterministic;
           test "annealing loose bound" annealing_handles_tight_threshold;
           best_of_is_best;
         ] );
       ( "contiguous",
         [
           test "finds fig5 optimum" contiguous_finds_fig5_optimum;
           contiguous_never_beats_exact;
           contiguous_matches_alg3_on_fail_homog;
           test "rejects hetero links" contiguous_rejects_hetero_links;
         ] );
     ])
