open Relpipe_model
open Relpipe_core
module Rng = Relpipe_util.Rng
module F = Relpipe_util.Float_cmp

let test = Helpers.test

let evaluation (s : Solution.t) = s.Solution.evaluation
let latency_of s = (evaluation s).Instance.latency
let failure_of s = (evaluation s).Instance.failure

(* ------------------------------------------------------------------ *)
(* Theorem 1: min FP = replicate everything everywhere                 *)
(* ------------------------------------------------------------------ *)

let thm1_beats_exhaustive =
  Helpers.seed_property ~count:40 "min_failure is optimal vs exhaustive"
    (fun seed ->
      let rng = Rng.create seed in
      let n = 1 + (seed mod 3) and m = 2 + (seed mod 3) in
      let inst = Helpers.random_fully_hetero rng ~n ~m in
      let claimed = failure_of (Mono.min_failure inst) in
      let best = ref Float.infinity in
      Exact.iter_mappings ~n ~m (fun mapping ->
          let fp = Failure.of_mapping inst.Instance.platform mapping in
          if fp < !best then best := fp);
      F.leq ~eps:1e-9 claimed !best)

let thm1_shape () =
  let inst = Relpipe_workload.Scenarios.fig5 () in
  let s = Mono.min_failure inst in
  Alcotest.(check int) "single interval" 1 (Mapping.num_intervals s.Solution.mapping);
  Alcotest.(check int) "all procs" 11
    (List.length (Mapping.used_procs s.Solution.mapping))

(* ------------------------------------------------------------------ *)
(* Theorem 2: min latency on Comm. Homogeneous                         *)
(* ------------------------------------------------------------------ *)

let thm2_beats_exhaustive =
  Helpers.seed_property ~count:40 "comm-homog min latency is optimal"
    (fun seed ->
      let rng = Rng.create seed in
      let n = 1 + (seed mod 3) and m = 2 + (seed mod 3) in
      let inst = Helpers.random_comm_homog rng ~n ~m in
      let claimed = latency_of (Mono.min_latency_comm_homog inst) in
      let best = Exact.min_latency inst in
      F.approx_eq ~eps:1e-9 claimed best)

let thm2_uses_fastest () =
  let rng = Rng.create 5 in
  let inst = Helpers.random_comm_homog rng ~n:4 ~m:5 in
  let s = Mono.min_latency_comm_homog inst in
  let u = List.hd (Mapping.used_procs s.Solution.mapping) in
  let smax =
    List.fold_left
      (fun acc v -> Float.max acc (Platform.speed inst.Instance.platform v))
      0.0
      (Platform.procs inst.Instance.platform)
  in
  Helpers.check_close "fastest" smax (Platform.speed inst.Instance.platform u)

let thm2_rejects_hetero () =
  let inst = Relpipe_workload.Scenarios.fig34 () in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Mono.min_latency_comm_homog inst);
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Theorem 4: general mappings via shortest path                       *)
(* ------------------------------------------------------------------ *)

let fig6_graph_shape () =
  let rng = Rng.create 9 in
  let inst = Helpers.random_fully_hetero rng ~n:3 ~m:4 in
  let g, src, dst = General_mapping.graph inst in
  let n = 3 and m = 4 in
  Alcotest.(check int) "vertices" ((n * m) + 2) (Relpipe_graph.Graph.n_vertices g);
  Alcotest.(check int) "edges" (((n - 1) * m * m) + (2 * m))
    (Relpipe_graph.Graph.n_edges g);
  Alcotest.(check int) "source" 0 src;
  Alcotest.(check int) "sink" ((n * m) + 1) dst

let all_algos_agree =
  Helpers.seed_property ~count:60 "Dijkstra = Bellman-Ford = DAG = DP"
    (fun seed ->
      let rng = Rng.create seed in
      let n = 1 + (seed mod 5) and m = 2 + (seed mod 4) in
      let inst = Helpers.random_fully_hetero rng ~n ~m in
      let l1, a1 = General_mapping.solve ~algo:General_mapping.Dijkstra inst in
      let l2, _ = General_mapping.solve ~algo:General_mapping.Bellman_ford inst in
      let l3, _ = General_mapping.solve ~algo:General_mapping.Dag_sweep inst in
      let l4, a4 = General_mapping.solve_dp inst in
      F.approx_eq l1 l2 && F.approx_eq l2 l3 && F.approx_eq l3 l4
      && F.approx_eq l1
           (Latency.of_assignment inst.Instance.pipeline inst.Instance.platform a1)
      && F.approx_eq l4
           (Latency.of_assignment inst.Instance.pipeline inst.Instance.platform a4))

let general_beats_interval =
  Helpers.seed_property ~count:40
    "general mapping <= best unreplicated interval mapping" (fun seed ->
      let rng = Rng.create seed in
      let n = 1 + (seed mod 4) and m = 2 + (seed mod 3) in
      let inst = Helpers.random_fully_hetero rng ~n ~m in
      let general = General_mapping.optimal_latency inst in
      match Exact.min_latency_unreplicated inst with
      | Some (interval_best, _) -> F.leq ~eps:1e-9 general interval_best
      | None -> false)

let general_beats_exhaustive_replicated =
  Helpers.seed_property ~count:25
    "general mapping <= any replicated interval mapping" (fun seed ->
      let rng = Rng.create seed in
      let n = 1 + (seed mod 3) and m = 2 + (seed mod 3) in
      let inst = Helpers.random_fully_hetero rng ~n ~m in
      let general = General_mapping.optimal_latency inst in
      (* Replication can only hurt latency (paper Section 4.1), so the
         general-mapping optimum lower-bounds the whole mapping space. *)
      F.leq ~eps:1e-9 general (Exact.min_latency inst))

let fig34_general_optimum () =
  let inst = Relpipe_workload.Scenarios.fig34 () in
  let latency, assignment = General_mapping.solve inst in
  Helpers.check_close "fig34 optimum is the split" 7.0 latency;
  Alcotest.(check int) "stage1 on P0" 0 (Assignment.proc assignment 1);
  Alcotest.(check int) "stage2 on P1" 1 (Assignment.proc assignment 2)

(* ------------------------------------------------------------------ *)
(* Theorem 3 context: one-to-one mappings                              *)
(* ------------------------------------------------------------------ *)

let one_to_one_exact_vs_bruteforce =
  Helpers.seed_property ~count:40 "branch-and-bound = brute force" (fun seed ->
      let rng = Rng.create seed in
      let n = 1 + (seed mod 3) in
      let m = n + (seed mod 2) in
      let inst = Helpers.random_fully_hetero rng ~n ~m in
      let brute =
        Seq.fold_left
          (fun acc procs ->
            let c = One_to_one.cost inst (Array.of_list procs) in
            Float.min acc c)
          Float.infinity
          (Relpipe_util.Combin.injections n
             (Platform.procs inst.Instance.platform))
      in
      match One_to_one.exact inst with
      | Some (c, _) -> F.approx_eq ~eps:1e-9 c brute
      | None -> false)

let one_to_one_heuristics_bounded =
  Helpers.seed_property ~count:30 "greedy and local search >= exact"
    (fun seed ->
      let rng = Rng.create seed in
      let n = 2 + (seed mod 3) in
      let m = n + 1 + (seed mod 2) in
      let inst = Helpers.random_fully_hetero rng ~n ~m in
      match One_to_one.exact inst with
      | None -> false
      | Some (opt, _) ->
          let check = function
            | Some (c, mapping) ->
                F.geq ~eps:1e-9 c opt
                && F.approx_eq ~eps:1e-9 c
                     (Latency.of_mapping inst.Instance.pipeline
                        inst.Instance.platform mapping)
            | None -> false
          in
          check (One_to_one.greedy inst) && check (One_to_one.local_search inst))

let one_to_one_bicriteria_vs_bruteforce =
  Helpers.seed_property ~count:40 "bi-criteria one-to-one = brute force"
    (fun seed ->
      let rng = Rng.create seed in
      let n = 1 + (seed mod 3) in
      let m = n + (seed mod 2) in
      let inst = Helpers.random_fully_hetero rng ~n ~m in
      let max_failure = Rng.float_range rng 0.1 0.9 in
      let objective = Instance.Min_latency { max_failure } in
      let brute =
        Seq.fold_left
          (fun acc procs ->
            let arr = Array.of_list procs in
            let latency = One_to_one.cost inst arr in
            let fp =
              -.Float.expm1
                  (List.fold_left
                     (fun s u ->
                       s +. Float.log1p (-.Platform.failure inst.Instance.platform u))
                     0.0 procs)
            in
            if F.leq fp max_failure then Float.min acc latency else acc)
          Float.infinity
          (Relpipe_util.Combin.injections n
             (Platform.procs inst.Instance.platform))
      in
      match One_to_one.exact_bicriteria inst objective with
      | None -> not (Float.is_finite brute)
      | Some s ->
          F.approx_eq ~eps:1e-9 s.Solution.evaluation.Instance.latency brute
          && Instance.feasible objective s.Solution.evaluation)

let one_to_one_bicriteria_consistent =
  Helpers.seed_property ~count:30
    "bi-criteria one-to-one evaluation matches model evaluators" (fun seed ->
      let rng = Rng.create seed in
      let n = 1 + (seed mod 3) in
      let m = n + 1 in
      let inst = Helpers.random_fully_hetero rng ~n ~m in
      match
        One_to_one.exact_bicriteria inst (Instance.Min_failure { max_latency = 1e9 })
      with
      | None -> false
      | Some s ->
          let e = Instance.evaluate inst s.Solution.mapping in
          F.approx_eq ~eps:1e-9 e.Instance.latency s.Solution.evaluation.Instance.latency
          && F.approx_eq ~eps:1e-9 e.Instance.failure
               s.Solution.evaluation.Instance.failure)

let one_to_one_infeasible () =
  let rng = Rng.create 3 in
  let inst = Helpers.random_fully_hetero rng ~n:4 ~m:2 in
  Alcotest.(check bool) "n > m gives None" true (One_to_one.exact inst = None);
  Alcotest.(check bool) "greedy too" true (One_to_one.greedy inst = None)

(* ------------------------------------------------------------------ *)
(* Algorithms 1 and 2 (Fully Homogeneous)                              *)
(* ------------------------------------------------------------------ *)

let thresholds_for rng inst =
  (* Derive meaningful thresholds from the instance's own envelope. *)
  let lo =
    latency_of
      (Solution.of_mapping inst
         (Mapping.single_interval
            ~n:(Pipeline.length inst.Instance.pipeline)
            ~m:(Platform.size inst.Instance.platform)
            [ Mono.fastest_proc inst.Instance.platform ]))
  in
  let hi = latency_of (Mono.min_failure inst) in
  let l = Rng.float_range rng lo (hi *. 1.2) in
  let fp = Rng.float_range rng 0.001 0.8 in
  (l, fp)

let alg1_optimal_vs_exact =
  Helpers.seed_property ~count:50 "Algorithm 1 matches exhaustive optimum"
    (fun seed ->
      let rng = Rng.create seed in
      let n = 1 + (seed mod 3) and m = 2 + (seed mod 4) in
      let inst = Helpers.random_fully_homog rng ~n ~m in
      let max_latency, _ = thresholds_for rng inst in
      let objective = Instance.Min_failure { max_latency } in
      let mine = Fully_homog.min_failure_for_latency inst ~max_latency in
      let reference = Exact.solve inst objective in
      match mine, reference with
      | None, None -> true
      | Some a, Some b -> F.approx_eq ~eps:1e-6 (failure_of a) (failure_of b)
      | Some _, None | None, Some _ -> false)

let alg2_optimal_vs_exact =
  Helpers.seed_property ~count:50 "Algorithm 2 matches exhaustive optimum"
    (fun seed ->
      let rng = Rng.create seed in
      let n = 1 + (seed mod 3) and m = 2 + (seed mod 4) in
      let inst = Helpers.random_fully_homog rng ~n ~m in
      let _, max_failure = thresholds_for rng inst in
      let objective = Instance.Min_latency { max_failure } in
      let mine = Fully_homog.min_latency_for_failure inst ~max_failure in
      let reference = Exact.solve inst objective in
      match mine, reference with
      | None, None -> true
      | Some a, Some b -> F.approx_eq ~eps:1e-6 (latency_of a) (latency_of b)
      | Some _, None | None, Some _ -> false)

let alg1_hetero_failures_remark =
  Helpers.seed_property ~count:30
    "Algorithm 1 stays optimal with heterogeneous failures (paper remark)"
    (fun seed ->
      let rng = Rng.create seed in
      let n = 1 + (seed mod 3) and m = 2 + (seed mod 3) in
      (* Homogeneous speeds/links, heterogeneous failures. *)
      let speed = Rng.float_range rng 1.0 5.0 in
      let platform =
        Platform.uniform_links
          ~speeds:(Array.make m speed)
          ~failures:(Array.init m (fun _ -> Rng.float_range rng 0.05 0.9))
          ~bandwidth:2.0
      in
      let inst = Instance.make (Helpers.random_pipeline rng ~n) platform in
      let max_latency, _ = thresholds_for rng inst in
      let objective = Instance.Min_failure { max_latency } in
      match
        ( Fully_homog.min_failure_for_latency inst ~max_latency,
          Exact.solve inst objective )
      with
      | None, None -> true
      | Some a, Some b -> F.approx_eq ~eps:1e-6 (failure_of a) (failure_of b)
      | Some _, None | None, Some _ -> false)

let alg1_infeasible () =
  let inst =
    Instance.make
      (Pipeline.of_costs ~input:10.0 [ (100.0, 10.0) ])
      (Platform.fully_homogeneous ~m:3 ~speed:1.0 ~failure:0.2 ~bandwidth:1.0)
  in
  Alcotest.(check bool) "latency 1 infeasible" true
    (Fully_homog.min_failure_for_latency inst ~max_latency:1.0 = None)

let alg2_infeasible () =
  let inst =
    Instance.make
      (Pipeline.of_costs ~input:1.0 [ (1.0, 1.0) ])
      (Platform.fully_homogeneous ~m:2 ~speed:1.0 ~failure:0.9 ~bandwidth:1.0)
  in
  (* Best possible FP = 0.81 > 0.5. *)
  Alcotest.(check bool) "unreachable FP" true
    (Fully_homog.min_latency_for_failure inst ~max_failure:0.5 = None);
  match Fully_homog.min_latency_for_failure inst ~max_failure:0.81 with
  | Some s -> Alcotest.(check int) "needs both procs" 2
                (List.length (Mapping.used_procs s.Solution.mapping))
  | None -> Alcotest.fail "0.81 is achievable"

let alg1_applicability () =
  let inst = Relpipe_workload.Scenarios.fig5 () in
  Alcotest.(check bool) "raises on comm-homog hetero speeds" true
    (try
       ignore (Fully_homog.min_failure_for_latency inst ~max_latency:22.0);
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Algorithms 3 and 4 (Comm. Homogeneous + Failure Homogeneous)        *)
(* ------------------------------------------------------------------ *)

let alg3_optimal_vs_exact =
  Helpers.seed_property ~count:50 "Algorithm 3 matches exhaustive optimum"
    (fun seed ->
      let rng = Rng.create seed in
      let n = 1 + (seed mod 3) and m = 2 + (seed mod 4) in
      let inst = Helpers.random_comm_homog_fail_homog rng ~n ~m in
      let max_latency, _ = thresholds_for rng inst in
      let objective = Instance.Min_failure { max_latency } in
      match
        (Comm_homog.min_failure_for_latency inst ~max_latency, Exact.solve inst objective)
      with
      | None, None -> true
      | Some a, Some b -> F.approx_eq ~eps:1e-6 (failure_of a) (failure_of b)
      | Some _, None | None, Some _ -> false)

let alg4_optimal_vs_exact =
  Helpers.seed_property ~count:50 "Algorithm 4 matches exhaustive optimum"
    (fun seed ->
      let rng = Rng.create seed in
      let n = 1 + (seed mod 3) and m = 2 + (seed mod 4) in
      let inst = Helpers.random_comm_homog_fail_homog rng ~n ~m in
      let _, max_failure = thresholds_for rng inst in
      let objective = Instance.Min_latency { max_failure } in
      match
        (Comm_homog.min_latency_for_failure inst ~max_failure, Exact.solve inst objective)
      with
      | None, None -> true
      | Some a, Some b -> F.approx_eq ~eps:1e-6 (latency_of a) (latency_of b)
      | Some _, None | None, Some _ -> false)

let alg3_latency_monotone =
  Helpers.seed_property ~count:40 "latency_with_fastest nondecreasing in k"
    (fun seed ->
      let rng = Rng.create seed in
      let m = 2 + (seed mod 5) in
      let inst = Helpers.random_comm_homog_fail_homog rng ~n:3 ~m in
      let rec check k =
        if k >= m then true
        else
          F.leq ~eps:1e-9
            (Comm_homog.latency_with_fastest inst k)
            (Comm_homog.latency_with_fastest inst (k + 1))
          && check (k + 1)
      in
      check 1)

let alg3_applicability () =
  let inst = Relpipe_workload.Scenarios.fig5 () in
  Alcotest.(check bool) "raises on failure-hetero" true
    (try
       ignore (Comm_homog.min_failure_for_latency inst ~max_latency:22.0);
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Lemma 1: single interval suffices on the homogeneous classes        *)
(* ------------------------------------------------------------------ *)

let lemma1_fully_homog =
  Helpers.seed_property ~count:40
    "single-interval optimum = global optimum (Fully Homog.)" (fun seed ->
      let rng = Rng.create seed in
      let n = 1 + (seed mod 3) and m = 2 + (seed mod 3) in
      let inst = Helpers.random_fully_homog rng ~n ~m in
      let max_latency, max_failure = thresholds_for rng inst in
      List.for_all
        (fun objective ->
          match
            (Exact.solve_single_interval inst objective, Exact.solve inst objective)
          with
          | None, None -> true
          | Some a, Some b ->
              F.approx_eq ~eps:1e-6
                (Instance.objective_value objective (evaluation a))
                (Instance.objective_value objective (evaluation b))
          | Some _, None | None, Some _ -> false)
        [
          Instance.Min_failure { max_latency };
          Instance.Min_latency { max_failure };
        ])

let lemma1_comm_homog_fail_homog =
  Helpers.seed_property ~count:40
    "single-interval optimum = global optimum (CH + FailHomog)" (fun seed ->
      let rng = Rng.create seed in
      let n = 1 + (seed mod 3) and m = 2 + (seed mod 3) in
      let inst = Helpers.random_comm_homog_fail_homog rng ~n ~m in
      let max_latency, max_failure = thresholds_for rng inst in
      List.for_all
        (fun objective ->
          match
            (Exact.solve_single_interval inst objective, Exact.solve inst objective)
          with
          | None, None -> true
          | Some a, Some b ->
              F.approx_eq ~eps:1e-6
                (Instance.objective_value objective (evaluation a))
                (Instance.objective_value objective (evaluation b))
          | Some _, None | None, Some _ -> false)
        [
          Instance.Min_failure { max_latency };
          Instance.Min_latency { max_failure };
        ])

let lemma1_breaks_on_fig5 () =
  (* The paper's counter-example: with heterogeneous failures the
     single-interval restriction is strictly suboptimal. *)
  let inst = Relpipe_workload.Scenarios.fig5 () in
  let objective =
    Instance.Min_failure { max_latency = Relpipe_workload.Scenarios.fig5_threshold }
  in
  let restricted = Option.get (Exact.solve_single_interval inst objective) in
  let unrestricted = Option.get (Exact.solve inst objective) in
  Helpers.check_close "restricted optimum is the paper's 0.64" 0.64
    (failure_of restricted);
  Helpers.check_leq "unrestricted beats it" (failure_of unrestricted)
    (1.0 -. (0.9 *. (1.0 -. (0.8 ** 10.0))));
  Alcotest.(check bool) "strictly better" true
    (failure_of unrestricted < 0.64 -. 0.1)

(* ------------------------------------------------------------------ *)
(* Exact machinery                                                     *)
(* ------------------------------------------------------------------ *)

let exact_count_formula () =
  (* n=2, m=2: compositions {[1..2]}, {[1..1][2..2]}; single interval has 3
     subsets; the split has 2 ordered disjoint pairs -> 5 mappings. *)
  Alcotest.(check int) "n2 m2" 5 (Exact.count_mappings ~n:2 ~m:2 ());
  (* Single stage: 2^m - 1 replication sets. *)
  Alcotest.(check int) "n1 m4" 15 (Exact.count_mappings ~n:1 ~m:4 ())

let exact_count_closed_form () =
  (* One walk per shape, histogrammed by interval count: the prefix sums
     are the enumerated sizes for every max_intervals. *)
  for n = 1 to 7 do
    for m = 1 to 6 do
      let by_p = Array.make (n + 1) 0 in
      Exact.iter_mappings ~n ~m (fun mapping ->
          let p = Mapping.num_intervals mapping in
          by_p.(p) <- by_p.(p) + 1);
      let walked = ref 0 in
      for cap = 0 to n + 1 do
        if cap >= 1 && cap <= n then walked := !walked + by_p.(cap);
        Alcotest.(check int)
          (Printf.sprintf "n=%d m=%d max_intervals=%d" n m cap)
          !walked
          (Exact.count_mappings ~max_intervals:cap ~n ~m ())
      done;
      Alcotest.(check int)
        (Printf.sprintf "n=%d m=%d default" n m)
        !walked
        (Exact.count_mappings ~n ~m ())
    done
  done;
  Alcotest.(check int) "n6 m6" 70993 (Exact.count_mappings ~n:6 ~m:6 ());
  Alcotest.(check int) "n8 m6" 269297 (Exact.count_mappings ~n:8 ~m:6 ());
  Alcotest.(check int) "saturates" max_int
    (Exact.count_mappings ~n:200 ~m:60 ())

let exact_rejects_before_enumerating () =
  (* n=8 m=6 has 269297 mappings.  Walking the first 100000 of them
     allocates tens of words each; the up-front count allocates a few
     arrays, so staying under 10^5 words proves nothing was walked. *)
  let inst = Helpers.random_fully_hetero (Rng.create 3) ~n:8 ~m:6 in
  let words = Gc.minor_words () in
  Alcotest.(check bool) "raises Too_large" true
    (try
       ignore
         (Exact.solve ~budget:100_000 inst
            (Instance.Min_latency { max_failure = 1.0 }));
       false
     with Exact.Too_large _ -> true);
  Alcotest.(check bool) "without walking the space" true
    (Gc.minor_words () -. words < 1e5)

let exact_enumerates_valid =
  Helpers.seed_property ~count:20 "enumerated mappings validate" (fun seed ->
      let n = 1 + (seed mod 3) and m = 2 + (seed mod 3) in
      let ok = ref true in
      Exact.iter_mappings ~n ~m (fun mapping ->
          match Mapping.validate ~n ~m (Mapping.intervals mapping) with
          | Ok _ -> ()
          | Error _ -> ok := false);
      !ok)

let exact_budget_guard () =
  let rng = Rng.create 1 in
  let inst = Helpers.random_fully_hetero rng ~n:4 ~m:5 in
  Alcotest.(check bool) "raises Too_large" true
    (try
       ignore
         (Exact.solve ~budget:10 inst (Instance.Min_latency { max_failure = 1.0 }));
       false
     with Exact.Too_large _ -> true)

(* ------------------------------------------------------------------ *)
(* Pareto                                                              *)
(* ------------------------------------------------------------------ *)

let pareto_front_sane () =
  let inst = Relpipe_workload.Scenarios.fig5 () in
  let front =
    Pareto.front_with
      (fun inst objective -> Exact.solve inst objective)
      inst ~count:8
  in
  Alcotest.(check bool) "non-empty" true (front <> []);
  Alcotest.(check bool) "non-dominated staircase" true
    (Pareto.is_non_dominated front);
  (* Every point is feasible for its own threshold. *)
  List.iter
    (fun p ->
      Helpers.check_leq "within threshold"
        (latency_of p.Pareto.solution)
        p.Pareto.threshold)
    front

let pareto_knee () =
  let inst = Relpipe_workload.Scenarios.fig5 () in
  let front =
    Pareto.front_with (fun inst obj -> Exact.solve inst obj) inst ~count:8
  in
  match Pareto.knee front with
  | None -> Alcotest.fail "expected a knee on a non-empty front"
  | Some k ->
      (* The knee is a member of the front and not one of the two extremes
         unless the front is tiny. *)
      Alcotest.(check bool) "knee in front" true (List.memq k front);
      if List.length front >= 3 then begin
        let first = List.hd front in
        let last = List.nth front (List.length front - 1) in
        Alcotest.(check bool) "knee is a compromise" true
          (k != first || k != last)
      end;
      Alcotest.(check bool) "empty front" true (Pareto.knee [] = None)

let pareto_dual_direction () =
  let inst = Relpipe_workload.Scenarios.fig5 () in
  let front =
    Pareto.front_by_failure
      ~solve:(fun objective -> Exact.solve inst objective)
      ~thresholds:(Pareto.failure_thresholds inst ~count:8)
  in
  Alcotest.(check bool) "non-empty" true (front <> []);
  Alcotest.(check bool) "staircase" true (Pareto.is_non_dominated front);
  (* Every point satisfies its own FP threshold. *)
  List.iter
    (fun p ->
      Helpers.check_leq "within FP threshold"
        p.Pareto.solution.Solution.evaluation.Instance.failure
        p.Pareto.threshold)
    front

let pareto_directions_consistent =
  Helpers.seed_property ~count:10 "both sweep directions trace the same front"
    (fun seed ->
      (* Every point of the dual sweep must be dominated-or-equal by some
         point of the primal sweep and vice versa (up to threshold
         granularity we only check the weaker containment: no dual point
         strictly dominates every primal point). *)
      let rng = Rng.create seed in
      let inst = Helpers.random_fully_hetero rng ~n:(1 + (seed mod 3)) ~m:3 in
      let primal =
        Pareto.front_with (fun i o -> Exact.solve i o) inst ~count:6
      in
      let dual =
        Pareto.front_by_failure
          ~solve:(fun o -> Exact.solve inst o)
          ~thresholds:(Pareto.failure_thresholds inst ~count:6)
      in
      List.for_all
        (fun d ->
          not
            (List.for_all
               (fun p ->
                 Instance.dominates d.Pareto.solution.Solution.evaluation
                   p.Pareto.solution.Solution.evaluation)
               primal)
          || primal = [])
        dual)

let pareto_thresholds_ordered () =
  let inst = Relpipe_workload.Scenarios.fig5 () in
  let ts = Pareto.latency_thresholds inst ~count:6 in
  Alcotest.(check int) "count" 6 (List.length ts);
  let rec increasing = function
    | [] | [ _ ] -> true
    | a :: (b :: _ as tl) -> a < b && increasing tl
  in
  Alcotest.(check bool) "increasing" true (increasing ts)

(* ------------------------------------------------------------------ *)
(* Solver facade                                                       *)
(* ------------------------------------------------------------------ *)

(* Instances Auto hands to branch and bound (no polynomial algorithm
   applies), n, m <= 6, in three shapes: fully heterogeneous; uniform
   speeds with two bandwidths, two failure values and two stage costs
   (many mappings tie); and homogeneous links with heterogeneous
   failures (the open case). *)
let random_bb_instance rng =
  let n = 1 + Rng.int rng 6 and m = 2 + Rng.int rng 5 in
  let pick a b = if Rng.bool rng then a else b in
  match Rng.int rng 3 with
  | 0 -> Helpers.random_fully_hetero rng ~n ~m
  | 1 ->
      let bandwidth a b =
        match (a, b) with
        (* Two Pin links that differ keep the links heterogeneous. *)
        | Platform.Pin, Platform.Proc 0 -> 1.0
        | Platform.Pin, Platform.Proc 1 -> 2.0
        | _ -> pick 1.0 2.0
      in
      let platform =
        Platform.make ~speeds:(Array.make m 2.0)
          ~failures:(Array.init m (fun _ -> pick 0.1 0.2))
          ~bandwidth
      in
      let pipeline =
        Pipeline.of_costs ~input:1.0
          (List.init n (fun _ -> (pick 1.0 2.0, pick 1.0 2.0)))
      in
      Instance.make pipeline platform
  | _ ->
      let failures = Array.init m (fun u -> 0.05 +. (0.1 *. float u)) in
      Rng.shuffle rng failures;
      Instance.make
        (Helpers.random_pipeline rng ~n)
        (Platform.uniform_links
           ~speeds:(Array.init m (fun _ -> Rng.float_range rng 1.0 10.0))
           ~failures ~bandwidth:(Rng.float_range rng 1.0 10.0))

let bits x = Int64.bits_of_float x

(* Same mapping, same latency and failure bits. *)
let same_solution a b =
  match (a, b) with
  | None, None -> true
  | Some (a : Solution.t), Some (b : Solution.t) ->
      String.equal
        (Format.asprintf "%a" Mapping.pp a.Solution.mapping)
        (Format.asprintf "%a" Mapping.pp b.Solution.mapping)
      && Int64.equal (bits (latency_of a)) (bits (latency_of b))
      && Int64.equal (bits (failure_of a)) (bits (failure_of b))
  | Some _, None | None, Some _ -> false

(* [auto] is enumeration's optimum bit for bit, or — when several
   mappings tie on the objective — another of the tied optima: B&B and
   enumeration each keep the first optimum in their own visiting order.
   Either way the answer carries its flat evaluation's bits. *)
let agrees_with_enumeration inst objective auto =
  let enum = Exact.solve inst objective in
  same_solution auto enum
  ||
  match (auto, enum) with
  | Some a, Some e ->
      let value s = bits (Instance.objective_value objective (evaluation s)) in
      Int64.equal (value a) (value e)
      && Instance.feasible objective (evaluation a)
      && same_solution auto (Some (Solution.of_mapping inst a.Solution.mapping))
  | _ -> false

let solver_auto_dispatch =
  Helpers.seed_property ~count:60 "Auto equals Exact on small instances"
    (fun seed ->
      let rng = Rng.create seed in
      let inst = random_bb_instance rng in
      if Fully_homog.applicable inst || Comm_homog.applicable inst then
        Alcotest.fail "generator produced a polynomial instance";
      let max_latency, max_failure = thresholds_for rng inst in
      List.for_all
        (fun objective ->
          agrees_with_enumeration inst objective (Solver.solve inst objective))
        [
          Instance.Min_failure { max_latency };
          Instance.Min_latency { max_failure };
        ])

let solver_polynomial_raises () =
  let inst = Relpipe_workload.Scenarios.fig34 () in
  Alcotest.(check bool) "raises on hetero" true
    (try
       ignore
         (Solver.solve ~method_:Solver.Polynomial inst
            (Instance.Min_latency { max_failure = 0.5 }));
       false
     with Invalid_argument _ -> true)

let solver_describe () =
  let fh =
    Instance.make
      (Pipeline.of_costs ~input:1.0 [ (1.0, 1.0) ])
      (Platform.fully_homogeneous ~m:2 ~speed:1.0 ~failure:0.1 ~bandwidth:1.0)
  in
  let d = Solver.describe fh in
  let contains needle hay =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "mentions algorithms" true (contains "Algorithms 1/2" d)

(* campus-grid (n=7, m=16) is past what branch and bound proves within
   the default budget: both exact-first methods stop on the node count,
   so their work is pinned by counters rather than by wall time. *)
let campus_grid () =
  match
    Textio.parse
      (In_channel.with_open_text "../examples/instances/campus-grid.relpipe"
         In_channel.input_all)
  with
  | Ok inst -> inst
  | Error msg -> Alcotest.fail msg

let with_counters f =
  let obs = Relpipe_obs.Obs.create () in
  let result = Relpipe_obs.Obs.with_ambient (Some obs) f in
  let counter name =
    Relpipe_obs.Metric.Counter.value
      (Relpipe_obs.Metric.counter obs.Relpipe_obs.Obs.metrics name)
  in
  (result, counter)

let campus_objective = Instance.Min_failure { max_latency = 100.0 }

let check_budget_spent counter =
  Alcotest.(check bool) "nodes within the budget" true
    (counter "core.bb.nodes" <= Solver.default_budget);
  Alcotest.(check int) "budget ran out" 1 (counter "core.bb.exhausted")

let solver_auto_bounded () =
  let result, counter =
    with_counters (fun () -> Solver.run (campus_grid ()) campus_objective)
  in
  (match result with
  | Ok (Some s) ->
      Alcotest.(check string) "portfolio mapping"
        "[S1..S7]->{P8,P9,P10,P11,P12,P13,P14,P15}"
        (Format.asprintf "%a" Mapping.pp s.Solution.mapping)
  | Ok None -> Alcotest.fail "infeasible"
  | Error e -> Alcotest.fail (Solver.error_to_string e));
  check_budget_spent counter

let solver_exact_over_budget () =
  let result, counter =
    with_counters (fun () ->
        Solver.run ~method_:Solver.Exact_enum (campus_grid ()) campus_objective)
  in
  (match result with
  | Error (Solver.Too_large msg) ->
      Alcotest.(check string) "message"
        "exact search: more than 1000000 branch-and-bound nodes (n=7 m=16)" msg
  | Ok _ | Error _ -> Alcotest.fail "expected Too_large");
  check_budget_spent counter

(* Processor sets in the search are one machine word wide: a wider
   platform still gets the portfolio's answer from Auto, and a typed
   refusal from the exact method. *)
let solver_wider_than_search () =
  let m = Relpipe_util.Bitset.max_width + 1 in
  let rng = Rng.create 7 in
  let inst = Helpers.random_fully_hetero rng ~n:3 ~m in
  let max_latency, _ = thresholds_for rng inst in
  let objective = Instance.Min_failure { max_latency } in
  (match Solver.run inst objective with
  | Ok (Some s) ->
      Alcotest.(check bool) "portfolio answer" true
        (same_solution (Some s) (Heuristics.best_of inst objective))
  | Ok None -> Alcotest.fail "infeasible"
  | Error e -> Alcotest.fail (Solver.error_to_string e));
  match Solver.run ~method_:Solver.Exact_enum inst objective with
  | Error (Solver.Not_applicable msg) ->
      Alcotest.(check string) "message" "Bb.solve: too many processors" msg
  | Ok _ | Error _ -> Alcotest.fail "expected Not_applicable"

let () =
  Alcotest.run "core"
    [
      ( "theorem-1",
        [ thm1_beats_exhaustive; test "shape" thm1_shape ] );
      ( "theorem-2",
        [
          thm2_beats_exhaustive;
          test "uses fastest" thm2_uses_fastest;
          test "rejects hetero links" thm2_rejects_hetero;
        ] );
      ( "theorem-4",
        [
          test "fig6 graph shape" fig6_graph_shape;
          all_algos_agree;
          general_beats_interval;
          general_beats_exhaustive_replicated;
          test "fig34 optimum" fig34_general_optimum;
        ] );
      ( "one-to-one",
        [
          one_to_one_exact_vs_bruteforce;
          one_to_one_heuristics_bounded;
          one_to_one_bicriteria_vs_bruteforce;
          one_to_one_bicriteria_consistent;
          test "infeasible when n > m" one_to_one_infeasible;
        ] );
      ( "algorithms-1-2",
        [
          alg1_optimal_vs_exact;
          alg2_optimal_vs_exact;
          alg1_hetero_failures_remark;
          test "alg1 infeasible" alg1_infeasible;
          test "alg2 infeasible and boundary" alg2_infeasible;
          test "applicability check" alg1_applicability;
        ] );
      ( "algorithms-3-4",
        [
          alg3_optimal_vs_exact;
          alg4_optimal_vs_exact;
          alg3_latency_monotone;
          test "applicability check" alg3_applicability;
        ] );
      ( "lemma-1",
        [
          lemma1_fully_homog;
          lemma1_comm_homog_fail_homog;
          test "breaks on fig5 (paper counter-example)" lemma1_breaks_on_fig5;
        ] );
      ( "exact",
        [
          test "count formula" exact_count_formula;
          test "count closed form matches enumeration" exact_count_closed_form;
          test "over budget rejected before enumerating"
            exact_rejects_before_enumerating;
          exact_enumerates_valid;
          test "budget guard" exact_budget_guard;
        ] );
      ( "pareto",
        [
          test "front is sane" pareto_front_sane;
          test "knee" pareto_knee;
          test "dual direction" pareto_dual_direction;
          pareto_directions_consistent;
          test "thresholds ordered" pareto_thresholds_ordered;
        ] );
      ( "solver",
        [
          solver_auto_dispatch;
          test "polynomial raises" solver_polynomial_raises;
          test "describe" solver_describe;
          test "auto bounded on campus-grid" solver_auto_bounded;
          test "exact over budget on campus-grid" solver_exact_over_budget;
          test "auto past the search's width" solver_wider_than_search;
        ] );
    ]
