(* Kernel ledger: wall-clock timings of relpipe's computational kernels.

   The paper is a complexity paper: polynomial algorithms where the
   platform is homogeneous, NP-hard search where it is not (Section 4).
   This harness shows that landscape as numbers.  Every timed section
   samples through the one function [measure_kernel]:

   - the kernel landscape (model evaluation, polynomial algorithms,
     exponential search, heuristics, simulator, the cache-hit path's
     parse / key / Bloom steps) and the Theorem 4 scaling rows;
   - optimized kernels vs their frozen [Reference] twins;
   - the parallel exact B&B vs its serial form;
   - warm-started vs cold churn re-solving.

   [--obs-guard] is the one exception: it computes a paired per-call
   overhead ratio, a different statistic.  The paper experiments
   (E1-E24 of DESIGN.md) are rendered by [relpipe experiments];
   end-to-end service throughput is measured by perfbench/ (see
   perfbench/README.md). *)

open Relpipe_model
open Relpipe_core
module Rng = Relpipe_util.Rng
module Table = Relpipe_util.Table
module J = Relpipe_service.Json

let make_fully_hetero seed ~n ~m =
  let rng = Rng.create seed in
  let pipeline =
    Relpipe_workload.App_gen.random rng
      { Relpipe_workload.App_gen.n; work = (1.0, 20.0); data = (0.5, 10.0) }
  in
  let platform =
    Relpipe_workload.Plat_gen.random_fully_heterogeneous rng ~m
      ~speed:(1.0, 10.0) ~failure:(0.05, 0.6) ~bandwidth:(0.5, 10.0)
  in
  Instance.make pipeline platform

let make_comm_homog seed ~n ~m =
  let rng = Rng.create seed in
  let pipeline =
    Relpipe_workload.App_gen.random rng
      { Relpipe_workload.App_gen.n; work = (1.0, 20.0); data = (0.5, 10.0) }
  in
  let platform =
    Relpipe_workload.Plat_gen.random_comm_homogeneous rng ~m ~speed:(1.0, 10.0)
      ~failure:(0.2, 0.2) ~bandwidth:4.0
  in
  Instance.make pipeline platform

(* ------------------------------------------------------------------ *)
(* The sampling harness.                                               *)
(* ------------------------------------------------------------------ *)

(* Per-call time in ns: the median of [samples] timed blocks of [reps]
   calls each, and the 2.5/97.5 percentile band of its bootstrap. *)
type estimate = {
  ns : float;
  lo : float;
  hi : float;
  reps : int;
  samples : int;
}

let median xs =
  let s = Array.copy xs in
  Array.sort Float.compare s;
  s.(Array.length s / 2)

(* Warmup, then 25 timed blocks.  The point estimate is the median
   block, and the CI comes from 200 seeded bootstrap resamples of that
   median; a minimum would pin the CI's lower bound to the point.  The
   time source is injectable: under a virtual clock every block reads a
   fixed tick, so the whole report is byte-stable (the determinism test
   relies on this). *)
let measure_kernel ~clock ~rng f =
  for _ = 1 to 3 do
    ignore (Sys.opaque_identity (f ()))
  done;
  let time_reps reps =
    let t0 = Relpipe_obs.Clock.now_ns clock in
    for _ = 1 to reps do
      ignore (Sys.opaque_identity (f ()))
    done;
    let t1 = Relpipe_obs.Clock.now_ns clock in
    float_of_int (t1 - t0)
  in
  let reps =
    if Relpipe_obs.Clock.is_virtual clock then 1
    else
      (* Double the block until one block costs >= 1 ms of real time. *)
      let rec grow reps =
        if time_reps reps >= 1e6 || reps >= 1 lsl 20 then reps
        else grow (reps * 2)
      in
      grow 1
  in
  let samples = 25 in
  let xs = Array.init samples (fun _ -> time_reps reps /. float_of_int reps) in
  let medians =
    Array.init 200 (fun _ ->
        median (Array.init samples (fun _ -> xs.(Rng.int rng samples))))
  in
  Array.sort Float.compare medians;
  { ns = median xs; lo = medians.(5); hi = medians.(194); reps; samples }

(* [fast]'s upper CI bound sits below [slow]'s lower one. *)
let separated ~fast ~slow = fast.hi < slow.lo

let section title table =
  print_endline title;
  print_endline (String.make (String.length title) '=');
  Table.print table;
  print_newline ()

let fmt_ns x = Printf.sprintf "%.1f" x

(* ------------------------------------------------------------------ *)
(* The complexity landscape.                                           *)
(* ------------------------------------------------------------------ *)

(* A kernel thunk whose result is discarded, so kernels of different
   result types share one list. *)
let discard f () = ignore (Sys.opaque_identity (f ()))
let kernel name f = (name, discard f)

let landscape () =
  let inst_ch = make_comm_homog 1 ~n:8 ~m:8 in
  let inst_fh = make_fully_hetero 2 ~n:8 ~m:8 in
  let rng = Rng.create 3 in
  let mapping_ch =
    Mapping.make ~n:8 ~m:8
      [
        { Mapping.first = 1; last = 4; procs = [ 0; 1; 2 ] };
        { Mapping.first = 5; last = 8; procs = [ 3; 4 ] };
      ]
  in
  let small_exact = make_fully_hetero 4 ~n:3 ~m:4 in
  let small_objective = Instance.Min_failure { max_latency = 1e6 } in
  let tsp = Tsp_reduction.random (Rng.create 5) ~n:8 ~max_cost:9 in
  let partition = Partition_reduction.random (Rng.create 6) ~m:10 ~max_value:12 in
  let big_general = make_fully_hetero 7 ~n:32 ~m:24 in
  let alive = Relpipe_sim.Failure_inject.all_alive inst_fh.Instance.platform in
  let mapping_fh = mapping_ch (* same shape reused on the FH platform *) in
  (* The cache-hit path, priced step by step on the 64 texts of the
     seed-0 Stream_gen pool: what a served request costs before any
     solver runs. *)
  let stream_entries =
    Relpipe_workload.Stream_gen.pool_entries ~seed:0
      Relpipe_workload.Stream_gen.default_spec
  in
  let stream_texts =
    Array.map (fun e -> e.Relpipe_workload.Stream_gen.text) stream_entries
  in
  let stream_requests =
    Array.map
      (fun (e : Relpipe_workload.Stream_gen.entry) ->
        match (Textio.parse e.text, Relpipe_service.Protocol.method_of_string e.method_name) with
        | Ok inst, Ok method_ -> (inst, method_, e.objective)
        | Error msg, _ | _, Error msg -> failwith msg)
      stream_entries
  in
  let bloom = Relpipe_obs.Stream.Bloom.create ~expected:1024 () in
  [
    (* Model evaluation kernels (Eq. 1, Eq. 2, FP formula). *)
    kernel "latency-eq1 (n=8, 2 intervals)" (fun () ->
        Latency.eq1 inst_ch.Instance.pipeline inst_ch.Instance.platform
          mapping_ch);
    kernel "latency-eq2 (n=8, 2 intervals)" (fun () ->
        Latency.eq2 inst_fh.Instance.pipeline inst_fh.Instance.platform
          mapping_fh);
    kernel "failure-probability (n=8)" (fun () ->
        Failure.of_mapping inst_fh.Instance.platform mapping_fh);
    (* Polynomial algorithms (Theorems 1-2, 4; Algorithms 1-4). *)
    kernel "thm1 min-failure (m=8)" (fun () -> Mono.min_failure inst_ch);
    kernel "alg1 fully-homog minFP|L (m=8)"
      (let inst =
         Instance.make inst_ch.Instance.pipeline
           (Relpipe_workload.Plat_gen.fully_homogeneous ~m:8 ~speed:5.0
              ~failure:0.3 ~bandwidth:4.0)
       in
       fun () -> Fully_homog.min_failure_for_latency inst ~max_latency:100.0);
    kernel "alg3 comm-homog minFP|L (m=8)" (fun () ->
        Comm_homog.min_failure_for_latency
          (Instance.make inst_ch.Instance.pipeline
             (Relpipe_workload.Plat_gen.random_comm_homogeneous (Rng.copy rng)
                ~m:8 ~speed:(1.0, 10.0) ~failure:(0.2, 0.2) ~bandwidth:4.0))
          ~max_latency:100.0);
    kernel "thm4 shortest-path (n=32, m=24)" (fun () ->
        General_mapping.solve big_general);
    kernel "thm4 direct DP (n=32, m=24)" (fun () ->
        General_mapping.solve_dp big_general);
    (* Exponential machinery on small instances. *)
    kernel "exact enumeration (n=3, m=4)" (fun () ->
        Exact.solve small_exact small_objective);
    kernel "one-to-one branch&bound (n=m=8, TSP-reduced)"
      (let inst, _ = Tsp_reduction.to_instance tsp in
       fun () -> One_to_one.exact inst);
    kernel "held-karp hamiltonian (n=8)" (fun () ->
        Relpipe_graph.Hamiltonian.held_karp ~cost:tsp.Tsp_reduction.cost
          ~s:tsp.Tsp_reduction.source ~t:tsp.Tsp_reduction.target);
    kernel "2-partition witness search (m=10)" (fun () ->
        Partition_reduction.witness partition);
    (* Heuristics. *)
    kernel "heuristic single-greedy (n=8, m=8)" (fun () ->
        Heuristics.single_greedy inst_fh
          (Instance.Min_failure { max_latency = 1e6 }));
    kernel "heuristic split-replicate (n=8, m=8)" (fun () ->
        Heuristics.split_replicate inst_fh
          (Instance.Min_failure { max_latency = 1e6 }));
    (* Simulator. *)
    kernel "simulated trial (n=8, 2 intervals)" (fun () ->
        Relpipe_sim.Trial.run inst_fh mapping_fh ~alive
          ~policy:Relpipe_sim.Trial.Pessimistic);
    kernel "steady-state 100 data sets (n=8)" (fun () ->
        Relpipe_sim.Steady.run inst_fh mapping_fh ~datasets:100);
    (* Extensions. *)
    kernel "period eval (n=8, 2 intervals)" (fun () ->
        Period.of_mapping inst_fh.Instance.pipeline inst_fh.Instance.platform
          mapping_fh);
    kernel "branch&bound minFP|L (n=4, m=5)"
      (let inst = make_fully_hetero 8 ~n:4 ~m:5 in
       fun () -> Bb.solve inst (Instance.Min_failure { max_latency = 1e6 }));
    kernel "bitmask-DP interval optimum (n=8, m=10)"
      (let inst = make_fully_hetero 9 ~n:8 ~m:10 in
       fun () -> Interval_exact.min_latency inst);
    kernel "tri-criteria greedy (n=8, m=8)" (fun () ->
        Tri.greedy_min_failure inst_fh
          { Tri.max_latency = 1e6; max_period = 1e6 });
    (* Cache-hit path. *)
    kernel "textio parse (64 stream texts)" (fun () ->
        Array.map Textio.parse stream_texts);
    kernel "canon key (64 stream texts)" (fun () ->
        Array.map
          (fun (inst, method_, objective) ->
            Relpipe_service.Canon.normalize ~budget:Solver.default_budget
              ~method_ inst objective)
          stream_requests);
    kernel "bloom add (64 stream texts)" (fun () ->
        Array.map (Relpipe_obs.Stream.Bloom.add bloom) stream_texts);
  ]

let run_landscape ~clock () =
  let rng = Rng.create 80 in
  let rows =
    List.map
      (fun (name, f) -> (name, measure_kernel ~clock ~rng f))
      (landscape ())
  in
  let table = Table.create [ "kernel"; "ns/run"; "ci lo"; "ci hi" ] in
  List.iter
    (fun (name, e) ->
      Table.add_row table
        [ name; fmt_ns e.ns; fmt_ns e.lo; fmt_ns e.hi ])
    rows;
  section "Kernel landscape (median, bootstrap CI)" table;
  rows

(* Theorem 4 runtime scaling -- the performance "figure" of the
   polynomial result: graph shortest path vs the direct DP across
   instance sizes. *)
let run_scaling ~clock () =
  let rng = Rng.create 81 in
  let table =
    Table.create
      [ "n x m (Thm 4)"; "graph vertices"; "Dijkstra us"; "direct DP us" ]
  in
  List.iter
    (fun (n, m) ->
      let inst = make_fully_hetero 11 ~n ~m in
      let us f =
        Printf.sprintf "%.1f" ((measure_kernel ~clock ~rng f).ns /. 1e3)
      in
      let graph = us (fun () -> General_mapping.solve inst) in
      let dp = us (fun () -> General_mapping.solve_dp inst) in
      Table.add_row table
        [ Printf.sprintf "%dx%d" n m; string_of_int ((n * m) + 2); graph; dp ])
    [ (4, 4); (8, 8); (16, 12); (32, 16); (64, 24); (128, 32) ];
  section "Theorem 4 runtime scaling (polynomial general mappings)" table

(* ------------------------------------------------------------------ *)
(* Twin harness: optimized kernels vs their frozen Reference twins.    *)
(* ------------------------------------------------------------------ *)

type twin_result = {
  tw_kernel : string;
  tw_shape : string;
  tw_opt : estimate;
  tw_ref : estimate;
}

let twin_specs () =
  let inst_iv = make_fully_hetero 9 ~n:8 ~m:10 in
  let inst_dp = make_fully_hetero 7 ~n:32 ~m:24 in
  let inst_bb = make_fully_hetero 8 ~n:4 ~m:5 in
  let obj_bb = Instance.Min_failure { max_latency = 1e6 } in
  [
    ( "interval-dp",
      "n=8 m=10 fully-hetero",
      discard (fun () -> Interval_exact.min_latency inst_iv),
      discard (fun () -> Reference.interval_min_latency_reference inst_iv) );
    ( "general-dp",
      "n=32 m=24 fully-hetero",
      discard (fun () -> General_mapping.solve_dp inst_dp),
      discard (fun () -> Reference.general_dp_reference inst_dp) );
    ( "bb",
      "n=4 m=5 fully-hetero minFP|L",
      discard (fun () -> Bb.solve inst_bb obj_bb),
      discard (fun () -> Reference.bb_solve_reference inst_bb obj_bb) );
  ]

let speedup_lo tw = tw.tw_ref.lo /. tw.tw_opt.hi

let run_twins ~clock () =
  (* One seeded stream for all bootstraps keeps the report deterministic
     under the virtual clock. *)
  let rng = Rng.create 77 in
  let results =
    List.map
      (fun (kernel, shape, opt, reference) ->
        let tw_ref = measure_kernel ~clock ~rng reference in
        let tw_opt = measure_kernel ~clock ~rng opt in
        { tw_kernel = kernel; tw_shape = shape; tw_opt; tw_ref })
      (twin_specs ())
  in
  let table =
    Table.create
      [ "kernel"; "shape"; "opt ns/run"; "ref ns/run"; "speedup"; "speedup lo" ]
  in
  List.iter
    (fun tw ->
      Table.add_row table
        [
          tw.tw_kernel;
          tw.tw_shape;
          fmt_ns tw.tw_opt.ns;
          fmt_ns tw.tw_ref.ns;
          Printf.sprintf "%.2fx" (tw.tw_ref.ns /. tw.tw_opt.ns);
          Printf.sprintf "%.2fx" (speedup_lo tw);
        ])
    results;
  section "Optimized kernels vs frozen reference twins (median, bootstrap CI)"
    table;
  results

(* Churn replay: warm-started incremental re-solving vs cold
   from-scratch re-solving of the same seeded scenario.  Both replays
   include the identical initial solve; with 20 events the figure is
   dominated by the per-event re-solves, which is where the carried DP
   table and the surviving incumbent bound pay.  The per-event figures
   are the time-to-repair claim of the churn engine: ci_warm_hi below
   ci_cold_lo means the speedup is CI-separated, not noise. *)
type churn_result = {
  ch_shape : string;
  ch_events : int;
  ch_warm : estimate;
  ch_cold : estimate;
}

let churn_specs () =
  let module Churn = Relpipe_churn in
  let mk shape inst ~seed ~events =
    let world = Churn.World.of_instance inst in
    let trace = Churn.Driver.trace ~cap:8 ~seed ~count:events world in
    let objective = Instance.Min_latency { max_failure = 0.5 } in
    (shape, events, world, trace, objective)
  in
  [
    mk "n=6 m=6 fully-hetero" (make_fully_hetero 21 ~n:6 ~m:6) ~seed:11
      ~events:20;
    mk "n=8 m=5 comm-homog" (make_comm_homog 22 ~n:8 ~m:5) ~seed:12 ~events:20;
  ]

let churn_separated ch = separated ~fast:ch.ch_warm ~slow:ch.ch_cold

let run_churn ~clock () =
  let module Churn = Relpipe_churn in
  let rng = Rng.create 78 in
  let results =
    List.map
      (fun (shape, events, world, trace, objective) ->
        let warm () = Churn.Engine.run ~objective world trace in
        let cold () = Churn.Engine.run ~cold:true ~objective world trace in
        let ch_cold = measure_kernel ~clock ~rng cold in
        let ch_warm = measure_kernel ~clock ~rng warm in
        { ch_shape = shape; ch_events = events; ch_warm; ch_cold })
      (churn_specs ())
  in
  let table =
    Table.create
      [ "scenario"; "events"; "warm ns"; "cold ns"; "speedup"; "CI-separated" ]
  in
  List.iter
    (fun ch ->
      Table.add_row table
        [
          ch.ch_shape;
          string_of_int ch.ch_events;
          fmt_ns ch.ch_warm.ns;
          fmt_ns ch.ch_cold.ns;
          Printf.sprintf "%.2fx" (ch.ch_cold.ns /. ch.ch_warm.ns);
          (if churn_separated ch then "yes" else "no");
        ])
    results;
  section "Churn replay: warm-started vs cold re-solving (median, bootstrap CI)"
    table;
  results

(* Parallel exact kernels vs their serial forms, at roughly twice the
   twin-bench shapes (bb twins run n=4 m=5; these run n=6 m=6 and
   n=5 m=7).  On a single-core host core-count parallelism cannot help,
   so the B&B figure isolates the algorithmic win of the probe+confirm
   design: the best-first probe publishes inflated incumbents into the
   shared bound cell early, and the confirming serial pass re-searches
   under that bound, visiting far fewer nodes than the cold serial
   solve.  Node counts are reported next to the wall clock so the claim
   is explicit about its mechanism; CI-separated means the parallel
   upper CI sits below the serial lower CI. *)
type par_result = {
  p_kernel : string;
  p_shape : string;
  p_workers : int;
  p_ser : estimate;
  p_par : estimate;
  p_nodes_ser : int;
  p_nodes_par : int;
}

let par_separated p = separated ~fast:p.p_par ~slow:p.p_ser

let run_par ~clock () =
  let rng = Rng.create 79 in
  (* Same objective as the bb twin bench, at twice its shapes.  Under
     min-failure the depth-first serial search finds its incumbent late,
     while the probe's best-first frontier reaches a near-optimal
     mapping within its first task budgets — the shared bound then cuts
     the confirming pass to a few hundred nodes, a >10x node reduction
     at every seed tried (not a cherry-picked pair). *)
  let obj = Instance.Min_failure { max_latency = 1e6 } in
  let specs =
    [
      ("bb", "n=6 m=6 fully-hetero minFP|L", make_fully_hetero 31 ~n:6 ~m:6, 2);
      ("bb", "n=5 m=7 fully-hetero minFP|L", make_fully_hetero 32 ~n:5 ~m:7, 2);
    ]
  in
  let results =
    List.map
      (fun (kernel, shape, inst, workers) ->
        let p_ser = measure_kernel ~clock ~rng (fun () -> Bb.solve inst obj) in
        let p_par =
          measure_kernel ~clock ~rng (fun () -> Bb.solve_par ~workers inst obj)
        in
        let _, sstats = Bb.solve_with_stats inst obj in
        let _, pstats = Bb.solve_par_with_stats ~workers inst obj in
        {
          p_kernel = kernel;
          p_shape = shape;
          p_workers = workers;
          p_ser;
          p_par;
          p_nodes_ser = sstats.Bb.nodes;
          p_nodes_par = pstats.Bb.probe_nodes + pstats.Bb.confirm.Bb.nodes;
        })
      specs
  in
  let table =
    Table.create
      [
        "kernel"; "shape"; "ser ns/run"; "par ns/run"; "ser nodes";
        "par nodes"; "speedup"; "CI-separated";
      ]
  in
  List.iter
    (fun p ->
      Table.add_row table
        [
          p.p_kernel;
          p.p_shape;
          fmt_ns p.p_ser.ns;
          fmt_ns p.p_par.ns;
          string_of_int p.p_nodes_ser;
          string_of_int p.p_nodes_par;
          Printf.sprintf "%.2fx" (p.p_ser.ns /. p.p_par.ns);
          (if par_separated p then "yes" else "no");
        ])
    results;
  section
    "Parallel exact B&B (probe+confirm, w=2) vs serial (median, bootstrap CI)"
    table;
  results

(* Regression gate: compare this run's optimized medians against a
   baseline BENCH_*.json; >10% slower on any twin kernel is a failure. *)
let check_against ~baseline twins =
  let fail_usage msg =
    Printf.eprintf "against: %s\n" msg;
    exit 2
  in
  let text =
    try In_channel.with_open_text baseline In_channel.input_all
    with Sys_error msg -> fail_usage msg
  in
  let json =
    match J.parse text with
    | Ok j -> j
    | Error msg -> fail_usage (Printf.sprintf "%s does not parse: %s" baseline msg)
  in
  let baseline_twins =
    match Option.bind (J.member "twins" json) J.to_list with
    | Some l -> l
    | None -> fail_usage (Printf.sprintf "%s has no \"twins\" array" baseline)
  in
  let find kernel =
    List.find_opt
      (fun j ->
        match Option.bind (J.member "kernel" j) J.to_str with
        | Some s -> String.equal s kernel
        | None -> false)
      baseline_twins
  in
  let regressions = ref [] in
  List.iter
    (fun tw ->
      match find tw.tw_kernel with
      | None ->
          Printf.printf "against: %-12s not in baseline, skipped\n" tw.tw_kernel
      | Some j -> (
          match Option.bind (J.member "ns_opt" j) J.to_float with
          | None ->
              fail_usage
                (Printf.sprintf "baseline entry for %s has no ns_opt" tw.tw_kernel)
          | Some base ->
              let ratio = tw.tw_opt.ns /. base in
              Printf.printf "against: %-12s %10.1f ns vs baseline %10.1f ns (%.2fx)\n"
                tw.tw_kernel tw.tw_opt.ns base ratio;
              if tw.tw_opt.ns > 1.10 *. base then
                regressions := (tw.tw_kernel, ratio) :: !regressions))
    twins;
  match List.rev !regressions with
  | [] -> Printf.printf "against: OK — no kernel regressed by more than 10%%\n"
  | rs ->
      List.iter
        (fun (kernel, ratio) ->
          Printf.eprintf "against: FAIL — %s regressed to %.2fx of baseline\n"
            kernel ratio)
        rs;
      exit 1

let write_json path ~virtual_clock ~landscape ~twins ~par ~churn =
  let date =
    (* The virtual-clock report must be byte-stable across runs, so it
       pins the date to the epoch. *)
    if virtual_clock then "1970-01-01T00:00:00Z"
    else
      let tm = Unix.gmtime (Unix.time ()) in
      Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (tm.Unix.tm_year + 1900)
        (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min
        tm.Unix.tm_sec
  in
  (* ns_<tag>, ci_<tag>_lo, ci_<tag>_hi: the field triple every row uses. *)
  let est tag e =
    [
      ("ns_" ^ tag, J.float e.ns);
      ("ci_" ^ tag ^ "_lo", J.float e.lo);
      ("ci_" ^ tag ^ "_hi", J.float e.hi);
    ]
  in
  let kernel_json (name, e) = J.Obj (("name", J.Str name) :: est "per_run" e) in
  let twin_json tw =
    J.Obj
      ([
         ("kernel", J.Str tw.tw_kernel);
         ("shape", J.Str tw.tw_shape);
         ("samples", J.Int tw.tw_opt.samples);
         ("reps", J.Int tw.tw_opt.reps);
       ]
      @ est "opt" tw.tw_opt @ est "ref" tw.tw_ref
      @ [
          ("speedup", J.float (tw.tw_ref.ns /. tw.tw_opt.ns));
          ("speedup_lo", J.float (speedup_lo tw));
        ])
  in
  let churn_json ch =
    let per_event e = e.ns /. float_of_int ch.ch_events in
    J.Obj
      ([ ("shape", J.Str ch.ch_shape); ("events", J.Int ch.ch_events) ]
      @ est "warm" ch.ch_warm @ est "cold" ch.ch_cold
      @ [
          ("ttr_warm_ns_per_event", J.float (per_event ch.ch_warm));
          ("ttr_cold_ns_per_event", J.float (per_event ch.ch_cold));
          ("speedup", J.float (ch.ch_cold.ns /. ch.ch_warm.ns));
          ("ci_separated", J.Bool (churn_separated ch));
        ])
  in
  let par_json p =
    J.Obj
      ([
         ("kernel", J.Str p.p_kernel);
         ("shape", J.Str p.p_shape);
         ("workers", J.Int p.p_workers);
       ]
      @ est "serial" p.p_ser @ est "parallel" p.p_par
      @ [
          ("nodes_serial", J.Int p.p_nodes_ser);
          ("nodes_parallel", J.Int p.p_nodes_par);
          ("speedup", J.float (p.p_ser.ns /. p.p_par.ns));
          ("ci_separated", J.Bool (par_separated p));
        ])
  in
  let json =
    J.Obj
      [
        ("version", J.Int 2);
        ("date", J.Str date);
        ("cpus", J.Int (Relpipe_pool.Pool.cpu_count ()));
        ("virtual_clock", J.Bool virtual_clock);
        ("twins", J.List (List.map twin_json twins));
        ("par_exact", J.List (List.map par_json par));
        ("churn", J.List (List.map churn_json churn));
        ("benchmarks", J.List (List.map kernel_json landscape));
      ]
  in
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc (J.to_string json);
      Out_channel.output_char oc '\n');
  Printf.printf "wrote %s\n" path

(* Observability cost guard: solver kernels with no ambient context vs an
   ambient no-op sink.  The disabled path is a domain-local read plus
   dead-counter lookups, so the two timings must agree; a regression here
   means instrumentation leaked real work onto the hot path. *)
let obs_guard ~threshold =
  let module Obs = Relpipe_obs.Obs in
  let big_general = make_fully_hetero 7 ~n:32 ~m:24 in
  let inst_bb = make_fully_hetero 8 ~n:4 ~m:5 in
  let inst_iv = make_fully_hetero 9 ~n:8 ~m:10 in
  let kernels =
    [
      ( "thm4 direct DP (n=32, m=24)",
        fun () -> ignore (Sys.opaque_identity (General_mapping.solve_dp big_general)) );
      ( "branch&bound minFP|L (n=4, m=5)",
        fun () ->
          ignore
            (Sys.opaque_identity
               (Bb.solve inst_bb (Instance.Min_failure { max_latency = 1e6 }))) );
      ( "bitmask-DP interval optimum (n=8, m=10)",
        fun () -> ignore (Sys.opaque_identity (Interval_exact.min_latency inst_iv)) );
    ]
  in
  (* Every kernel call takes hundreds of microseconds, so each call is
     timed individually and the off/noop-sink variants are paired
     call-by-call — one pair sits well inside a single CPU-frequency /
     scheduler regime, unlike multi-millisecond blocks, which made the
     guard flaky on noisy machines.  The per-pair ratio is therefore
     tight, and the MEDIAN over all pairs discards the occasional call
     that absorbed a GC slice or an interrupt on one side.  The lead
     order alternates pair by pair to cancel any within-pair bias. *)
  let noop = Obs.noop () in
  let paired_ratio f =
    let timed g =
      let t0 = Unix.gettimeofday () in
      g ();
      Unix.gettimeofday () -. t0
    in
    let off () = timed f in
    let with_noop () = Obs.with_ambient (Some noop) (fun () -> timed f) in
    for _ = 1 to 3 do
      ignore (off ());
      ignore (with_noop ())
    done;
    let pairs = 301 in
    let offs = Array.make pairs 0.0 in
    let noops = Array.make pairs 0.0 in
    let ratios = Array.make pairs 0.0 in
    for i = 0 to pairs - 1 do
      let a, b =
        if i land 1 = 0 then
          let a = off () in
          let b = with_noop () in
          (a, b)
        else
          let b = with_noop () in
          let a = off () in
          (a, b)
      in
      offs.(i) <- a;
      noops.(i) <- b;
      ratios.(i) <- b /. a
    done;
    Array.sort Float.compare offs;
    Array.sort Float.compare noops;
    Array.sort Float.compare ratios;
    let mid = pairs / 2 in
    (offs.(mid), noops.(mid), ratios.(mid))
  in
  let table =
    Relpipe_util.Table.create
      [ "kernel"; "off ns"; "noop-sink ns"; "overhead" ]
  in
  let worst = ref neg_infinity in
  List.iter
    (fun (name, f) ->
      let t_off, t_noop, median_ratio = paired_ratio f in
      let overhead = median_ratio -. 1.0 in
      worst := Float.max !worst overhead;
      Relpipe_util.Table.add_row table
        [
          name;
          Printf.sprintf "%.1f" (1e9 *. t_off);
          Printf.sprintf "%.1f" (1e9 *. t_noop);
          Printf.sprintf "%+.2f%%" (100.0 *. overhead);
        ])
    kernels;
  print_endline "Observability no-op-sink cost guard";
  print_endline "===================================";
  Relpipe_util.Table.print table;
  if !worst > threshold then begin
    Printf.eprintf "obs-guard: FAIL — worst overhead %+.2f%% exceeds %.0f%%\n"
      (100.0 *. !worst) (100.0 *. threshold);
    exit 1
  end;
  Printf.printf "obs-guard: OK — worst overhead %+.2f%% (threshold %.0f%%)\n"
    (100.0 *. !worst) (100.0 *. threshold)

let () =
  (* Flags: [--json FILE] writes a machine-readable report; [--obs-guard]
     runs only the observability cost guard; [--virtual-clock] times every
     section on a deterministic clock (byte-stable report); [--against
     FILE] exits non-zero when an optimized kernel is >10% slower than the
     baseline report. *)
  let json_path = ref None and obs_guard_only = ref false in
  let virtual_clock = ref false and against = ref None in
  let rec parse = function
    | [] -> ()
    | "--json" :: path :: rest ->
        json_path := Some path;
        parse rest
    | "--obs-guard" :: rest ->
        obs_guard_only := true;
        parse rest
    | "--virtual-clock" :: rest ->
        virtual_clock := true;
        parse rest
    | "--against" :: path :: rest ->
        against := Some path;
        parse rest
    | arg :: _ ->
        Printf.eprintf
          "usage: %s [--json FILE] [--obs-guard] [--virtual-clock] \
           [--against FILE]\n\
          \  unknown argument %S\n"
          Sys.argv.(0) arg;
        exit 2
  in
  parse (List.tl (Array.to_list Sys.argv));
  if !obs_guard_only then begin
    obs_guard ~threshold:0.02;
    exit 0
  end;
  print_endline "relpipe kernel ledger";
  print_endline "Paper: Benoit, Rehn-Sonigo, Robert — Optimizing Latency and";
  print_endline "Reliability of Pipeline Workflow Applications (RR-6345, 2008)";
  print_newline ();
  let clock =
    if !virtual_clock then Relpipe_obs.Clock.virtual_ ()
    else Relpipe_obs.Clock.monotonic ()
  in
  let landscape = run_landscape ~clock () in
  run_scaling ~clock ();
  let twins = run_twins ~clock () in
  let par = run_par ~clock () in
  let churn = run_churn ~clock () in
  Option.iter
    (fun path ->
      write_json path ~virtual_clock:!virtual_clock ~landscape ~twins ~par
        ~churn)
    !json_path;
  Option.iter (fun baseline -> check_against ~baseline twins) !against
