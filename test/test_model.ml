open Relpipe_model
module Rng = Relpipe_util.Rng
module F = Relpipe_util.Float_cmp

let test = Helpers.test

(* ------------------------------------------------------------------ *)
(* Pipeline                                                            *)
(* ------------------------------------------------------------------ *)

let sample_pipeline () =
  Pipeline.of_costs ~input:4.0 [ (1.0, 2.0); (3.0, 5.0); (7.0, 6.0) ]

let pipeline_accessors () =
  let p = sample_pipeline () in
  Alcotest.(check int) "length" 3 (Pipeline.length p);
  Helpers.check_close "delta0" 4.0 (Pipeline.delta p 0);
  Helpers.check_close "delta1" 2.0 (Pipeline.delta p 1);
  Helpers.check_close "delta3" 6.0 (Pipeline.delta p 3);
  Helpers.check_close "w2" 3.0 (Pipeline.work p 2);
  Helpers.check_close "total work" 11.0 (Pipeline.total_work p)

let pipeline_work_sum () =
  let p = sample_pipeline () in
  Helpers.check_close "1..1" 1.0 (Pipeline.work_sum p ~first:1 ~last:1);
  Helpers.check_close "1..3" 11.0 (Pipeline.work_sum p ~first:1 ~last:3);
  Helpers.check_close "2..3" 10.0 (Pipeline.work_sum p ~first:2 ~last:3)

let pipeline_work_sum_matches_loop =
  Helpers.seed_property "work_sum equals explicit loop" (fun seed ->
      let rng = Rng.create seed in
      let p = Helpers.random_pipeline rng ~n:(2 + (seed mod 8)) in
      let n = Pipeline.length p in
      let first = 1 + (seed mod n) in
      let last = first + ((seed / 7) mod (n - first + 1)) in
      let manual = ref 0.0 in
      for k = first to last do
        manual := !manual +. Pipeline.work p k
      done;
      F.approx_eq !manual (Pipeline.work_sum p ~first ~last))

let pipeline_validation () =
  Alcotest.(check bool) "empty rejected" true
    (try
       ignore (Pipeline.make ~input:1.0 []);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "negative work rejected" true
    (try
       ignore (Pipeline.of_costs ~input:1.0 [ (-1.0, 1.0) ]);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "nan input rejected" true
    (try
       ignore (Pipeline.of_costs ~input:Float.nan [ (1.0, 1.0) ]);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "zero data allowed" true
    (ignore (Pipeline.of_costs ~input:1.0 [ (1.0, 0.0) ]);
     true)

let pipeline_bounds_checked () =
  let p = sample_pipeline () in
  List.iter
    (fun f ->
      Alcotest.(check bool) "raises" true
        (try
           ignore (f ());
           false
         with Invalid_argument _ -> true))
    [
      (fun () -> Pipeline.work p 0);
      (fun () -> Pipeline.work p 4);
      (fun () -> Pipeline.delta p (-1));
      (fun () -> Pipeline.delta p 4);
      (fun () -> Pipeline.work_sum p ~first:2 ~last:1);
    ]

(* ------------------------------------------------------------------ *)
(* Platform                                                            *)
(* ------------------------------------------------------------------ *)

let sample_platform () =
  Platform.uniform_links ~speeds:[| 1.0; 2.0; 4.0 |]
    ~failures:[| 0.1; 0.2; 0.3 |] ~bandwidth:5.0

let platform_accessors () =
  let p = sample_platform () in
  Alcotest.(check int) "size" 3 (Platform.size p);
  Helpers.check_close "speed" 2.0 (Platform.speed p 1);
  Helpers.check_close "failure" 0.3 (Platform.failure p 2);
  Helpers.check_close "bandwidth" 5.0
    (Platform.bandwidth p Platform.Pin (Platform.Proc 0));
  Alcotest.(check (list int)) "procs" [ 0; 1; 2 ] (Platform.procs p)

let platform_validation () =
  let bad f = try ignore (f ()); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "empty" true
    (bad (fun () -> Platform.uniform_links ~speeds:[||] ~failures:[||] ~bandwidth:1.0));
  Alcotest.(check bool) "length mismatch" true
    (bad (fun () ->
         Platform.uniform_links ~speeds:[| 1.0 |] ~failures:[| 0.1; 0.2 |]
           ~bandwidth:1.0));
  Alcotest.(check bool) "zero speed" true
    (bad (fun () ->
         Platform.uniform_links ~speeds:[| 0.0 |] ~failures:[| 0.1 |] ~bandwidth:1.0));
  Alcotest.(check bool) "failure > 1" true
    (bad (fun () ->
         Platform.uniform_links ~speeds:[| 1.0 |] ~failures:[| 1.5 |] ~bandwidth:1.0));
  Alcotest.(check bool) "zero bandwidth" true
    (bad (fun () ->
         Platform.uniform_links ~speeds:[| 1.0 |] ~failures:[| 0.1 |] ~bandwidth:0.0));
  Alcotest.(check bool) "self link" true
    (bad (fun () -> Platform.bandwidth (sample_platform ()) Platform.Pin Platform.Pin))

let platform_copies_isolated () =
  let speeds = [| 1.0; 2.0 |] in
  let p = Platform.uniform_links ~speeds ~failures:[| 0.1; 0.2 |] ~bandwidth:1.0 in
  speeds.(0) <- 99.0;
  Helpers.check_close "input array copied" 1.0 (Platform.speed p 0);
  let out = Platform.speeds p in
  out.(1) <- 42.0;
  Helpers.check_close "output array copied" 2.0 (Platform.speed p 1)

(* ------------------------------------------------------------------ *)
(* Classify                                                            *)
(* ------------------------------------------------------------------ *)

let classify_classes () =
  let fully =
    Platform.fully_homogeneous ~m:3 ~speed:2.0 ~failure:0.1 ~bandwidth:1.0
  in
  Alcotest.(check bool) "fully homog" true
    (Classify.comm_class fully = Classify.Fully_homogeneous);
  Alcotest.(check bool) "failure homog" true
    (Classify.failure_class fully = Classify.Failure_homogeneous);
  let comm = sample_platform () in
  Alcotest.(check bool) "comm homog" true
    (Classify.comm_class comm = Classify.Comm_homogeneous);
  Alcotest.(check bool) "failure hetero" true
    (Classify.failure_class comm = Classify.Failure_heterogeneous);
  let hetero =
    Platform.make ~speeds:[| 1.0; 2.0 |] ~failures:[| 0.1; 0.1 |]
      ~bandwidth:(fun a b ->
        match a, b with
        | Platform.Pin, Platform.Proc 0 | Platform.Proc 0, Platform.Pin -> 9.0
        | _ -> 1.0)
  in
  Alcotest.(check bool) "fully hetero" true
    (Classify.comm_class hetero = Classify.Fully_heterogeneous);
  Alcotest.(check (option (float 1e-9))) "common bandwidth" (Some 5.0)
    (Classify.common_bandwidth comm);
  Alcotest.(check (option (float 1e-9))) "no common bandwidth" None
    (Classify.common_bandwidth hetero)

let classify_generators_agree =
  Helpers.seed_property "generators land in their class" (fun seed ->
      let rng = Rng.create seed in
      let ch = Helpers.random_comm_homog rng ~n:3 ~m:4 in
      let fh = Helpers.random_fully_homog rng ~n:3 ~m:4 in
      Classify.links_homogeneous ch.Instance.platform
      && Classify.comm_class fh.Instance.platform = Classify.Fully_homogeneous)

(* ------------------------------------------------------------------ *)
(* Mapping                                                             *)
(* ------------------------------------------------------------------ *)

let mapping_valid () =
  let m =
    Mapping.make ~n:4 ~m:5
      [
        { Mapping.first = 1; last = 2; procs = [ 3; 0 ] };
        { Mapping.first = 3; last = 4; procs = [ 2 ] };
      ]
  in
  Alcotest.(check int) "intervals" 2 (Mapping.num_intervals m);
  Alcotest.(check int) "replication" 2 (Mapping.replication m 0);
  Alcotest.(check (list int)) "procs sorted" [ 0; 3 ]
    (List.hd (Mapping.intervals m)).Mapping.procs;
  Alcotest.(check (list int)) "used procs" [ 0; 2; 3 ] (Mapping.used_procs m);
  let iv = Mapping.interval_of_stage m 3 in
  Alcotest.(check int) "stage 3 interval" 3 iv.Mapping.first

let mapping_rejects () =
  let invalid ivs =
    match Mapping.validate ~n:3 ~m:3 ivs with Ok _ -> false | Error _ -> true
  in
  Alcotest.(check bool) "gap" true
    (invalid
       [
         { Mapping.first = 1; last = 1; procs = [ 0 ] };
         { Mapping.first = 3; last = 3; procs = [ 1 ] };
       ]);
  Alcotest.(check bool) "not starting at 1" true
    (invalid [ { Mapping.first = 2; last = 3; procs = [ 0 ] } ]);
  Alcotest.(check bool) "not covering" true
    (invalid [ { Mapping.first = 1; last = 2; procs = [ 0 ] } ]);
  Alcotest.(check bool) "empty procs" true
    (invalid [ { Mapping.first = 1; last = 3; procs = [] } ]);
  Alcotest.(check bool) "duplicate proc in interval" true
    (invalid [ { Mapping.first = 1; last = 3; procs = [ 1; 1 ] } ]);
  Alcotest.(check bool) "proc reused across intervals" true
    (invalid
       [
         { Mapping.first = 1; last = 1; procs = [ 0 ] };
         { Mapping.first = 2; last = 3; procs = [ 0 ] };
       ]);
  Alcotest.(check bool) "proc out of range" true
    (invalid [ { Mapping.first = 1; last = 3; procs = [ 7 ] } ])

let mapping_one_to_one () =
  let m = Mapping.one_to_one ~n:3 ~m:4 [ 2; 0; 3 ] in
  Alcotest.(check int) "three intervals" 3 (Mapping.num_intervals m);
  Alcotest.(check bool) "arity enforced" true
    (try
       ignore (Mapping.one_to_one ~n:3 ~m:4 [ 1; 2 ]);
       false
     with Invalid_argument _ -> true)

let mapping_random_always_valid =
  Helpers.seed_property "random mappings validate" (fun seed ->
      let rng = Rng.create seed in
      let n = 1 + (seed mod 6) and m = 2 + (seed mod 5) in
      let m' = max m 6 in
      let mapping = Helpers.random_mapping rng ~n ~m:m' in
      match Mapping.validate ~n ~m:m' (Mapping.intervals mapping) with
      | Ok _ -> true
      | Error _ -> false)

(* ------------------------------------------------------------------ *)
(* Assignment                                                          *)
(* ------------------------------------------------------------------ *)

let assignment_interval_detection () =
  Alcotest.(check bool) "consecutive ok" true
    (Assignment.is_interval_based (Assignment.of_list ~m:3 [ 0; 0; 1; 2; 2 ]));
  Alcotest.(check bool) "reuse rejected" false
    (Assignment.is_interval_based (Assignment.of_list ~m:3 [ 0; 1; 0 ]));
  let a = Assignment.of_list ~m:3 [ 0; 0; 2 ] in
  (match Assignment.to_mapping ~m:3 a with
  | Some mapping -> Alcotest.(check int) "two intervals" 2 (Mapping.num_intervals mapping)
  | None -> Alcotest.fail "expected interval mapping");
  Alcotest.(check bool) "non-interval gives None" true
    (Assignment.to_mapping ~m:3 (Assignment.of_list ~m:3 [ 0; 1; 0 ]) = None)

(* ------------------------------------------------------------------ *)
(* Latency                                                             *)
(* ------------------------------------------------------------------ *)

let eq1_manual () =
  (* Two intervals on a comm-homogeneous platform, checked against a hand
     computation of Eq. (1). *)
  let pipeline = Pipeline.of_costs ~input:6.0 [ (4.0, 2.0); (8.0, 10.0) ] in
  let platform =
    Platform.uniform_links ~speeds:[| 2.0; 1.0; 4.0 |]
      ~failures:[| 0.1; 0.2; 0.3 |] ~bandwidth:3.0
  in
  let mapping =
    Mapping.make ~n:2 ~m:3
      [
        { Mapping.first = 1; last = 1; procs = [ 0; 1 ] };
        { Mapping.first = 2; last = 2; procs = [ 2 ] };
      ]
  in
  (* k1*d0/b + w1/min(2,1) + k2*d1/b + w2/4 + d2/b
     = 2*(6/3) + 4/1 + 1*(2/3) + 8/4 + 10/3 = 14. *)
  Helpers.check_close "eq1 by hand" 14.0 (Latency.eq1 pipeline platform mapping);
  Helpers.check_close "eq2 agrees" 14.0 (Latency.eq2 pipeline platform mapping)

let eq1_eq2_agree_on_comm_homog =
  Helpers.seed_property "Eq1 = Eq2 on homogeneous links" (fun seed ->
      let rng = Rng.create seed in
      let n = 1 + (seed mod 5) and m = 2 + (seed mod 5) in
      let inst = Helpers.random_comm_homog rng ~n ~m in
      let mapping = Helpers.random_mapping rng ~n ~m in
      let l1 = Latency.eq1 inst.Instance.pipeline inst.Instance.platform mapping in
      let l2 = Latency.eq2 inst.Instance.pipeline inst.Instance.platform mapping in
      F.approx_eq ~eps:1e-9 l1 l2)

let eq1_rejects_hetero_links () =
  let inst = Relpipe_workload.Scenarios.fig34 () in
  Alcotest.(check bool) "raises" true
    (try
       ignore
         (Latency.eq1 inst.Instance.pipeline inst.Instance.platform
            (Relpipe_workload.Scenarios.fig34_single 0));
       false
     with Invalid_argument _ -> true)

let latency_replication_increases =
  Helpers.seed_property "adding a replica cannot reduce Eq1 latency"
    (fun seed ->
      let rng = Rng.create seed in
      let n = 1 + (seed mod 4) in
      let m = 3 in
      let inst = Helpers.random_comm_homog rng ~n ~m in
      let single = Mapping.single_interval ~n ~m [ 0 ] in
      let replicated = Mapping.single_interval ~n ~m [ 0; 1 ] in
      let l1 = Latency.of_mapping inst.Instance.pipeline inst.Instance.platform single in
      let l2 =
        Latency.of_mapping inst.Instance.pipeline inst.Instance.platform replicated
      in
      F.leq l1 l2)

let assignment_latency_manual () =
  let inst = Relpipe_workload.Scenarios.fig34 () in
  (* The split mapping of Fig. 3/4 as a general assignment: latency 7. *)
  let a = Assignment.of_list ~m:2 [ 0; 1 ] in
  Helpers.check_close "fig34 assignment" 7.0
    (Latency.of_assignment inst.Instance.pipeline inst.Instance.platform a);
  (* Same processor everywhere: no internal communications: 105. *)
  let b = Assignment.of_list ~m:2 [ 0; 0 ] in
  Helpers.check_close "single proc" 105.0
    (Latency.of_assignment inst.Instance.pipeline inst.Instance.platform b)

let assignment_latency_matches_mapping =
  Helpers.seed_property "interval assignment latency = unreplicated Eq2"
    (fun seed ->
      let rng = Rng.create seed in
      let n = 1 + (seed mod 5) and m = 2 + (seed mod 4) in
      let inst = Helpers.random_fully_hetero rng ~n ~m in
      (* Build a random unreplicated interval mapping. *)
      let mapping = Helpers.random_mapping rng ~n ~m in
      let unreplicated =
        Mapping.make ~n ~m
          (List.map
             (fun iv -> { iv with Mapping.procs = [ List.hd iv.Mapping.procs ] })
             (Mapping.intervals mapping))
      in
      let procs =
        List.concat_map
          (fun iv ->
            List.init
              (iv.Mapping.last - iv.Mapping.first + 1)
              (fun _ -> List.hd iv.Mapping.procs))
          (Mapping.intervals unreplicated)
      in
      let a = Assignment.of_list ~m procs in
      F.approx_eq ~eps:1e-9
        (Latency.of_assignment inst.Instance.pipeline inst.Instance.platform a)
        (Latency.eq2 inst.Instance.pipeline inst.Instance.platform unreplicated))

(* ------------------------------------------------------------------ *)
(* Failure                                                             *)
(* ------------------------------------------------------------------ *)

let failure_manual () =
  let platform = sample_platform () in
  Helpers.check_close "interval product" 0.02
    (Failure.interval_failure platform [ 0; 1 ]);
  let mapping =
    Mapping.make ~n:2 ~m:3
      [
        { Mapping.first = 1; last = 1; procs = [ 0; 1 ] };
        { Mapping.first = 2; last = 2; procs = [ 2 ] };
      ]
  in
  (* FP = 1 - (1 - 0.02)(1 - 0.3) = 1 - 0.98*0.7 = 0.314 *)
  Helpers.check_close "global FP" 0.314 (Failure.of_mapping platform mapping);
  Helpers.check_close "success" 0.686 (Failure.success platform mapping)

let failure_matches_direct =
  Helpers.seed_property "log-space FP equals direct product" (fun seed ->
      let rng = Rng.create seed in
      let n = 1 + (seed mod 5) and m = 2 + (seed mod 5) in
      let inst = Helpers.random_comm_homog rng ~n ~m in
      let mapping = Helpers.random_mapping rng ~n ~m in
      let direct =
        1.0
        -. List.fold_left
             (fun acc iv ->
               acc
               *. (1.0
                  -. List.fold_left
                       (fun p u -> p *. Platform.failure inst.Instance.platform u)
                       1.0 iv.Mapping.procs))
             1.0 (Mapping.intervals mapping)
      in
      F.approx_eq ~eps:1e-9 direct (Failure.of_mapping inst.Instance.platform mapping))

let failure_perfect_replica () =
  let platform =
    Platform.uniform_links ~speeds:[| 1.0; 1.0 |] ~failures:[| 0.0; 0.9 |]
      ~bandwidth:1.0
  in
  let mapping = Mapping.single_interval ~n:1 ~m:2 [ 0; 1 ] in
  Helpers.check_close "perfect replica gives FP 0" 0.0
    (Failure.of_mapping platform mapping)

let failure_certain_failure () =
  let platform =
    Platform.uniform_links ~speeds:[| 1.0 |] ~failures:[| 1.0 |] ~bandwidth:1.0
  in
  let mapping = Mapping.single_interval ~n:1 ~m:1 [ 0 ] in
  Helpers.check_close "certain failure" 1.0 (Failure.of_mapping platform mapping);
  Alcotest.(check bool) "log survival -inf" true
    (Float.equal (Failure.log_survival platform mapping) Float.neg_infinity)

let failure_replication_decreases =
  Helpers.seed_property "adding a replica cannot increase FP" (fun seed ->
      let rng = Rng.create seed in
      let n = 1 + (seed mod 4) in
      let inst = Helpers.random_comm_homog rng ~n ~m:3 in
      let single = Mapping.single_interval ~n ~m:3 [ 0 ] in
      let replicated = Mapping.single_interval ~n ~m:3 [ 0; 1 ] in
      F.leq
        (Failure.of_mapping inst.Instance.platform replicated)
        (Failure.of_mapping inst.Instance.platform single))

(* ------------------------------------------------------------------ *)
(* Comm_model ablation                                                 *)
(* ------------------------------------------------------------------ *)

let multiport_below_one_port =
  Helpers.seed_property "multiport latency <= one-port latency" (fun seed ->
      let rng = Rng.create seed in
      let n = 1 + (seed mod 5) and m = 2 + (seed mod 5) in
      let inst = Helpers.random_fully_hetero rng ~n ~m in
      let mapping = Helpers.random_mapping rng ~n ~m in
      F.leq ~eps:1e-9
        (Comm_model.latency Comm_model.Multiport inst.Instance.pipeline
           inst.Instance.platform mapping)
        (Comm_model.latency Comm_model.One_port inst.Instance.pipeline
           inst.Instance.platform mapping))

let models_agree_without_replication =
  Helpers.seed_property "models coincide on unreplicated mappings" (fun seed ->
      let rng = Rng.create seed in
      let n = 1 + (seed mod 5) and m = 2 + (seed mod 4) in
      let inst = Helpers.random_fully_hetero rng ~n ~m in
      let mapping = Helpers.random_mapping rng ~n ~m in
      let unreplicated =
        Mapping.make ~n ~m
          (List.map
             (fun iv -> { iv with Mapping.procs = [ List.hd iv.Mapping.procs ] })
             (Mapping.intervals mapping))
      in
      F.approx_eq ~eps:1e-9
        (Comm_model.latency Comm_model.Multiport inst.Instance.pipeline
           inst.Instance.platform unreplicated)
        (Comm_model.latency Comm_model.One_port inst.Instance.pipeline
           inst.Instance.platform unreplicated))

let multiport_dissolves_fig5 () =
  (* Under multiport, replicating the whole fig5 pipeline on everything
     has the same input cost as one send: the latency/reliability tension
     collapses. *)
  let inst = Relpipe_workload.Scenarios.fig5 () in
  let everything = Mapping.single_interval ~n:2 ~m:11 (List.init 11 Fun.id) in
  let mp =
    Comm_model.latency Comm_model.Multiport inst.Instance.pipeline
      inst.Instance.platform everything
  in
  (* delta0/b + slowest compute (101/1) + 0 = 10 + 101 = 111, vs one-port
     11*10 + 101 + 0 = 211. *)
  Helpers.check_close "multiport" 111.0 mp;
  Helpers.check_close "one-port" 211.0
    (Comm_model.latency Comm_model.One_port inst.Instance.pipeline
       inst.Instance.platform everything);
  Helpers.check_close "penalty" (211.0 /. 111.0)
    (Comm_model.replication_penalty inst.Instance.pipeline
       inst.Instance.platform everything)

(* ------------------------------------------------------------------ *)
(* Instance                                                            *)
(* ------------------------------------------------------------------ *)

let instance_feasibility () =
  let inst = Relpipe_workload.Scenarios.fig5 () in
  let split = Instance.evaluate inst (Relpipe_workload.Scenarios.fig5_split ()) in
  Alcotest.(check bool) "split feasible at L=22" true
    (Instance.feasible (Instance.Min_failure { max_latency = 22.0 }) split);
  Alcotest.(check bool) "split infeasible at L=21" false
    (Instance.feasible (Instance.Min_failure { max_latency = 21.0 }) split)

let instance_dominates () =
  let a = { Instance.latency = 1.0; failure = 0.5 } in
  let b = { Instance.latency = 2.0; failure = 0.5 } in
  let c = { Instance.latency = 2.0; failure = 0.4 } in
  Alcotest.(check bool) "a dominates b" true (Instance.dominates a b);
  Alcotest.(check bool) "b not dominates a" false (Instance.dominates b a);
  Alcotest.(check bool) "b,c incomparable" false (Instance.dominates b c);
  Alcotest.(check bool) "a,a incomparable" false (Instance.dominates a a)

(* ------------------------------------------------------------------ *)
(* Scenarios (paper Section 3 numbers)                                 *)
(* ------------------------------------------------------------------ *)

let fig34_numbers () =
  let inst = Relpipe_workload.Scenarios.fig34 () in
  let lat m = Latency.of_mapping inst.Instance.pipeline inst.Instance.platform m in
  Helpers.check_close "single on P0 = 105" 105.0
    (lat (Relpipe_workload.Scenarios.fig34_single 0));
  Helpers.check_close "single on P1 = 105" 105.0
    (lat (Relpipe_workload.Scenarios.fig34_single 1));
  Helpers.check_close "split = 7" 7.0 (lat (Relpipe_workload.Scenarios.fig34_split ()))

let fig5_numbers () =
  let inst = Relpipe_workload.Scenarios.fig5 () in
  let e1 = Instance.evaluate inst (Relpipe_workload.Scenarios.fig5_single_two_fast ()) in
  Helpers.check_close "single FP = 0.64" 0.64 e1.Instance.failure;
  Helpers.check_leq "single latency <= 22" e1.Instance.latency 22.0;
  let e2 = Instance.evaluate inst (Relpipe_workload.Scenarios.fig5_split ()) in
  Helpers.check_close "split latency = 22" 22.0 e2.Instance.latency;
  Helpers.check_close "split FP = 1 - 0.9(1-0.8^10)"
    (1.0 -. (0.9 *. (1.0 -. (0.8 ** 10.0))))
    e2.Instance.failure;
  Helpers.check_leq "split FP < 0.2" e2.Instance.failure 0.2

(* ------------------------------------------------------------------ *)
(* Textio                                                              *)
(* ------------------------------------------------------------------ *)

let textio_parse () =
  let text =
    "# demo instance\n\
     input 10\n\
     stage 1 1\n\
     stage 100 0\n\
     proc 1 0.1\n\
     proc 100 0.8\n\
     link default 1\n"
  in
  match Textio.parse text with
  | Error msg -> Alcotest.failf "parse failed: %s" msg
  | Ok inst ->
      Alcotest.(check int) "stages" 2 (Pipeline.length inst.Instance.pipeline);
      Alcotest.(check int) "procs" 2 (Platform.size inst.Instance.platform);
      Helpers.check_close "fp" 0.8 (Platform.failure inst.Instance.platform 1)

let textio_roundtrip =
  Helpers.seed_property "to_string/parse round-trips" (fun seed ->
      let rng = Rng.create seed in
      let n = 1 + (seed mod 4) and m = 2 + (seed mod 4) in
      let inst = Helpers.random_fully_hetero rng ~n ~m in
      match Textio.parse (Textio.to_string inst) with
      | Error _ -> false
      | Ok inst' ->
          Pipeline.equal inst.Instance.pipeline inst'.Instance.pipeline
          && Platform.size inst.Instance.platform
             = Platform.size inst'.Instance.platform
          && List.for_all
               (fun u ->
                 F.approx_eq
                   (Platform.speed inst.Instance.platform u)
                   (Platform.speed inst'.Instance.platform u)
                 && F.approx_eq
                      (Platform.bandwidth inst.Instance.platform Platform.Pin
                         (Platform.Proc u))
                      (Platform.bandwidth inst'.Instance.platform Platform.Pin
                         (Platform.Proc u)))
               (Platform.procs inst.Instance.platform))

let textio_errors () =
  let bad text =
    match Textio.parse text with Ok _ -> false | Error _ -> true
  in
  Alcotest.(check bool) "missing input" true (bad "stage 1 1\nproc 1 0.1\nlink default 1\n");
  Alcotest.(check bool) "no stages" true (bad "input 1\nproc 1 0.1\nlink default 1\n");
  Alcotest.(check bool) "no procs" true (bad "input 1\nstage 1 1\nlink default 1\n");
  Alcotest.(check bool) "bad number" true
    (bad "input abc\nstage 1 1\nproc 1 0.1\nlink default 1\n");
  Alcotest.(check bool) "unknown directive" true
    (bad "frobnicate 1\ninput 1\nstage 1 1\nproc 1 0.1\nlink default 1\n");
  Alcotest.(check bool) "no default bandwidth" true
    (bad "input 1\nstage 1 1\nproc 1 0.1\n")

let () =
  Alcotest.run "model"
    [
      ( "pipeline",
        [
          test "accessors" pipeline_accessors;
          test "work_sum" pipeline_work_sum;
          pipeline_work_sum_matches_loop;
          test "validation" pipeline_validation;
          test "bounds checked" pipeline_bounds_checked;
        ] );
      ( "platform",
        [
          test "accessors" platform_accessors;
          test "validation" platform_validation;
          test "copies isolated" platform_copies_isolated;
        ] );
      ( "classify",
        [ test "classes" classify_classes; classify_generators_agree ] );
      ( "mapping",
        [
          test "valid mapping" mapping_valid;
          test "rejects invalid" mapping_rejects;
          test "one-to-one" mapping_one_to_one;
          mapping_random_always_valid;
        ] );
      ("assignment", [ test "interval detection" assignment_interval_detection ]);
      ( "latency",
        [
          test "Eq1 by hand" eq1_manual;
          eq1_eq2_agree_on_comm_homog;
          test "Eq1 rejects hetero links" eq1_rejects_hetero_links;
          latency_replication_increases;
          test "assignment latency by hand" assignment_latency_manual;
          assignment_latency_matches_mapping;
        ] );
      ( "failure",
        [
          test "by hand" failure_manual;
          failure_matches_direct;
          test "perfect replica" failure_perfect_replica;
          test "certain failure" failure_certain_failure;
          failure_replication_decreases;
        ] );
      ( "comm-model",
        [
          multiport_below_one_port;
          models_agree_without_replication;
          test "multiport dissolves fig5" multiport_dissolves_fig5;
        ] );
      ( "instance",
        [ test "feasibility" instance_feasibility; test "dominance" instance_dominates ] );
      ( "scenarios",
        [ test "fig 3/4 numbers" fig34_numbers; test "fig 5 numbers" fig5_numbers ] );
      ( "textio",
        [
          test "parse" textio_parse;
          textio_roundtrip;
          test "errors" textio_errors;
        ] );
    ]
