(* Tests for relpipe.obs: the injectable clock, the metrics registry
   (counters under Domain parallelism, histogram bucketing laws), the
   span tracer, the Lru counter registration, and the headline
   guarantee — engine traces and metric snapshots under a virtual clock
   are byte-identical across worker counts and never perturb responses.
   The deterministic artifacts (trace/metrics JSONL, [relpipe prof]
   output) are pinned byte-for-byte by the golden-snapshot harness. *)

open Relpipe_model
open Relpipe_service
module Rng = Relpipe_util.Rng
module Lru = Relpipe_util.Lru
module Clock = Relpipe_obs.Clock
module Metric = Relpipe_obs.Metric
module Trace = Relpipe_obs.Trace
module Obs = Relpipe_obs.Obs
module Snapshot = Helpers.Snapshot

let test = Helpers.test
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Clock                                                               *)
(* ------------------------------------------------------------------ *)

let test_virtual_clock_sequence () =
  let c = Clock.virtual_ () in
  check_bool "virtual" true (Clock.is_virtual c);
  check_int "first read" 0 (Clock.now_ns c);
  check_int "second read" 1000 (Clock.now_ns c);
  check_int "third read" 2000 (Clock.now_ns c);
  let c2 = Clock.virtual_ ~start:5 ~tick:7 () in
  check_int "custom start" 5 (Clock.now_ns c2);
  check_int "custom tick" 12 (Clock.now_ns c2);
  let m = Clock.monotonic () in
  check_bool "monotonic is not virtual" false (Clock.is_virtual m)

let test_clock_fork () =
  let c = Clock.virtual_ () in
  ignore (Clock.now_ns c);
  let f0 = Clock.fork c 0 in
  let f2 = Clock.fork c 2 in
  (* Each fork is an independent timeline based at (i + 1) seconds. *)
  check_int "fork 0 base" 1_000_000_000 (Clock.now_ns f0);
  check_int "fork 0 advances" 1_000_001_000 (Clock.now_ns f0);
  check_int "fork 2 base" 3_000_000_000 (Clock.now_ns f2);
  (* Forking does not advance the parent. *)
  check_int "parent unperturbed" 1000 (Clock.now_ns c);
  let m = Clock.monotonic () in
  check_bool "monotonic fork stays monotonic" false
    (Clock.is_virtual (Clock.fork m 3))

(* ------------------------------------------------------------------ *)
(* Counters under Domain parallelism                                   *)
(* ------------------------------------------------------------------ *)

let test_counter_parallel_no_lost_updates () =
  let reg = Metric.create () in
  let c = Metric.counter reg "pool.counter" in
  let per_domain = 25_000 in
  let domains =
    List.init 4 (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to per_domain do
              Metric.Counter.incr c
            done))
  in
  List.iter Domain.join domains;
  check_int "no lost updates" (4 * per_domain) (Metric.Counter.value c);
  (* The registered counter and a fresh lookup are the same instrument. *)
  Metric.Counter.add (Metric.counter reg "pool.counter") 5;
  check_int "lookup aliases" ((4 * per_domain) + 5) (Metric.Counter.value c)

let test_registry_kind_mismatch () =
  let reg = Metric.create () in
  ignore (Metric.counter reg "core.x");
  (match Metric.gauge reg "core.x" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected a kind error for counter-vs-gauge");
  (match Metric.histogram reg "core.x" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected a kind error for counter-vs-histogram")

let test_noop_registry_is_silent () =
  let reg = Metric.noop () in
  check_bool "not live" false (Metric.is_live reg);
  Metric.Counter.add (Metric.counter reg "core.c") 7;
  Metric.Gauge.record_max (Metric.gauge reg "core.g") 9;
  Metric.Histogram.observe (Metric.histogram reg "core.h") 3.0;
  check_str "renders empty" "" (Metric.render_jsonl reg);
  check_int "no bindings" 0 (List.length (Metric.bindings reg))

(* ------------------------------------------------------------------ *)
(* Histogram bucketing laws                                            *)
(* ------------------------------------------------------------------ *)

(* A seed-indexed float generator that hits every interesting regime:
   ordinary magnitudes, extreme exponents, zero, negative zero,
   negatives, NaN and both infinities. *)
let float_of_seed seed =
  let rng = Helpers.rng_of_seed (1_000 + seed) in
  match seed mod 8 with
  | 0 -> Rng.float_range rng 0.0 4.0
  | 1 -> Float.ldexp (Rng.float_range rng 1.0 2.0) (Rng.int rng 60 - 10)
  | 2 -> -.Rng.float_range rng 0.0 1e12
  | 3 -> 0.
  | 4 -> -0.
  | 5 -> Float.nan
  | 6 -> Float.infinity
  | _ -> Float.neg_infinity

let prop_every_float_in_exactly_one_bucket seed =
  let v = float_of_seed seed in
  let i = Metric.Histogram.bucket_index v in
  let h = Metric.Histogram.make () in
  Metric.Histogram.observe h v;
  let counts = Metric.Histogram.counts h in
  i >= 0
  && i < Metric.Histogram.num_buckets
  && Array.length counts = Metric.Histogram.num_buckets
  && counts.(i) = 1
  && Array.fold_left ( + ) 0 counts = 1
  && Metric.Histogram.count h = 1

let prop_merge_is_concatenation seed =
  let rng = Helpers.rng_of_seed (2_000 + seed) in
  let a = Metric.Histogram.make () in
  let b = Metric.Histogram.make () in
  let na = Rng.int rng 20 and nb = Rng.int rng 20 in
  for k = 0 to na - 1 do
    Metric.Histogram.observe a (float_of_seed ((seed * 31) + k))
  done;
  for k = 0 to nb - 1 do
    Metric.Histogram.observe b (float_of_seed ((seed * 37) + k + 500))
  done;
  let m = Metric.Histogram.merge a b in
  let ca = Metric.Histogram.counts a
  and cb = Metric.Histogram.counts b
  and cm = Metric.Histogram.counts m in
  let buckets_add = ref true in
  Array.iteri (fun i c -> if c <> ca.(i) + cb.(i) then buckets_add := false) cm;
  !buckets_add
  && Metric.Histogram.count m = na + nb
  && Int64.equal
       (Int64.bits_of_float (Metric.Histogram.sum m))
       (Int64.bits_of_float (Metric.Histogram.sum a +. Metric.Histogram.sum b))

let test_bucket_edges () =
  let idx = Metric.Histogram.bucket_index in
  check_int "0.5 underflows" 0 (idx 0.5);
  check_int "zero underflows" 0 (idx 0.);
  check_int "negative underflows" 0 (idx (-3.0));
  check_int "nan underflows" 0 (idx Float.nan);
  check_int "1.0 opens bucket 1" 1 (idx 1.0);
  check_int "1.999 stays in bucket 1" 1 (idx 1.999);
  check_int "2.0 opens bucket 2" 2 (idx 2.0);
  check_int "2^39 lands in bucket 40" 40 (idx (Float.ldexp 1.0 39));
  check_int "2^40 overflows" 41 (idx (Float.ldexp 1.0 40));
  check_int "infinity overflows" 41 (idx Float.infinity);
  check_bool "bucket 1 lower edge" true
    (Float.equal (Metric.Histogram.bucket_lower 1) 1.0);
  check_bool "bucket 2 lower edge" true
    (Float.equal (Metric.Histogram.bucket_lower 2) 2.0)

(* ------------------------------------------------------------------ *)
(* Trace                                                               *)
(* ------------------------------------------------------------------ *)

let test_trace_span_timing () =
  let clock = Clock.virtual_ () in
  let t = Trace.create ~clock in
  let v =
    Trace.span t ~attrs:[ ("k", "v") ] "core.outer" (fun () ->
        Trace.instant t "core.mark";
        42)
  in
  check_int "span returns the body's value" 42 v;
  match Trace.events t with
  | [ mark; outer ] ->
      (* Completion order: the instant fires inside the span. *)
      check_str "instant name" "core.mark" mark.Trace.name;
      check_int "instant ts" 1000 mark.Trace.ts;
      check_bool "instant has no duration" true (Option.is_none mark.Trace.dur);
      check_str "span name" "core.outer" outer.Trace.name;
      check_int "span start" 0 outer.Trace.ts;
      (match outer.Trace.dur with
      | Some 2000 -> ()
      | _ -> Alcotest.fail "span duration should cover both inner reads");
      check_str "jsonl rendering"
        ("{\"ts\":1000,\"name\":\"core.mark\"}\n"
       ^ "{\"ts\":0,\"dur\":2000,\"name\":\"core.outer\",\"attrs\":{\"k\":\"v\"}}\n")
        (Trace.to_jsonl t)
  | evs -> Alcotest.failf "expected 2 events, got %d" (List.length evs)

let test_trace_span_records_on_exception () =
  let t = Trace.create ~clock:(Clock.virtual_ ()) in
  (try Trace.span t "core.boom" (fun () -> failwith "boom") with Failure _ -> ());
  match Trace.events t with
  | [ e ] ->
      check_str "event recorded" "core.boom" e.Trace.name;
      check_bool "has duration" true (Option.is_some e.Trace.dur)
  | _ -> Alcotest.fail "span must record on exception"

let test_trace_append_in_job_order () =
  let parent = Trace.create ~clock:(Clock.virtual_ ()) in
  let children =
    List.init 3 (fun i ->
        let c = Trace.create ~clock:(Clock.virtual_ ~start:(i * 100) ()) in
        Trace.instant c ("core.job_" ^ string_of_int i);
        c)
  in
  List.iter (fun c -> Trace.append ~into:parent c) children;
  let names = List.map (fun e -> e.Trace.name) (Trace.events parent) in
  Alcotest.(check (list string))
    "merged in append order"
    [ "core.job_0"; "core.job_1"; "core.job_2" ]
    names

(* ------------------------------------------------------------------ *)
(* Lru registration                                                    *)
(* ------------------------------------------------------------------ *)

let test_lru_create_in_registers_counters () =
  let metrics = Metric.create () in
  let c = Lru.create_in ~metrics ~name:"engine.cache" ~capacity:1 in
  ignore (Lru.find c "a") (* miss *);
  Lru.add c "a" 1;
  ignore (Lru.find c "a") (* hit *);
  Lru.add c "b" 2 (* evicts a *);
  let view name =
    match List.assoc_opt name (Metric.bindings metrics) with
    | Some (Metric.Counter_v v) -> v
    | _ -> Alcotest.failf "counter %s not registered" name
  in
  check_int "hits" 1 (view "engine.cache.hits");
  check_int "misses" 1 (view "engine.cache.misses");
  check_int "evictions" 1 (view "engine.cache.evictions");
  (* The Lru's own stats read the same counters. *)
  let s = Lru.stats c in
  check_int "stats hits agree" 1 s.Lru.hits;
  check_int "stats misses agree" 1 s.Lru.misses;
  check_int "stats evictions agree" 1 s.Lru.evictions

(* ------------------------------------------------------------------ *)
(* Engine: cross-worker identity + golden snapshots                    *)
(* ------------------------------------------------------------------ *)

let loose = Instance.Min_failure { max_latency = 1e6 }

let batch_requests () =
  let req ?id path objective =
    Protocol.request ?id ~instance:(Protocol.File path) objective
  in
  [|
    req ~id:"homog" "fixtures/clean_fully_homog.relpipe" loose;
    req ~id:"hetero" "fixtures/clean_fully_hetero.relpipe" loose;
    req ~id:"homog-dup" "fixtures/clean_fully_homog.relpipe" loose;
    req ~id:"comm" "fixtures/clean_comm_homog.relpipe" loose;
    req ~id:"infeasible" "fixtures/clean_fully_hetero.relpipe"
      (Instance.Min_failure { max_latency = 1e-9 });
  |]

let run_with_obs workers =
  let obs = Obs.create ~tracing:true ~clock:(Clock.virtual_ ()) () in
  let engine =
    Engine.create ~obs ~workers ~cap_to_cpus:false ~cache_capacity:64 ()
  in
  let responses = Engine.run_requests engine (batch_requests ()) in
  let lines =
    Array.to_list (Array.map Protocol.encode_response responses)
  in
  (lines, Obs.metrics_jsonl obs, Obs.trace_jsonl obs)

let test_engine_obs_identical_across_workers () =
  let lines1, metrics1, trace1 = run_with_obs 1 in
  List.iter
    (fun w ->
      let lines, metrics, trace = run_with_obs w in
      Alcotest.(check (list string))
        (Printf.sprintf "responses workers=%d" w)
        lines1 lines;
      check_str (Printf.sprintf "metrics workers=%d" w) metrics1 metrics;
      check_str (Printf.sprintf "trace workers=%d" w) trace1 trace)
    [ 2; 8 ]

let test_engine_obs_never_perturbs_responses () =
  let lines_obs, _, _ = run_with_obs 4 in
  let plain =
    Engine.run_requests
      (Engine.create ~workers:4 ~cap_to_cpus:false ~cache_capacity:64 ())
      (batch_requests ())
  in
  Alcotest.(check (list string))
    "instrumented run answers exactly like a plain run" lines_obs
    (Array.to_list (Array.map Protocol.encode_response plain))

let test_engine_obs_snapshots () =
  let _, metrics, trace = run_with_obs 1 in
  Snapshot.check "engine-metrics.snap" metrics;
  Snapshot.check "engine-trace.snap" trace

(* ------------------------------------------------------------------ *)
(* CLI: prof golden snapshot and negative paths                        *)
(* ------------------------------------------------------------------ *)

let run_cli = Helpers.run_cli

let test_prof_snapshot () =
  let args =
    [
      "prof"; "-i"; "fixtures/clean_fully_hetero.relpipe"; "--max-failure";
      "0.5"; "--virtual-clock";
    ]
  in
  let code, out, err = run_cli args in
  check_int "prof exits 0" 0 code;
  check_str "prof stderr empty" "" err;
  Snapshot.check "prof-clean-fully-hetero.snap" out;
  (* Byte-stable across reruns: the virtual clock leaves nothing to
     drift. *)
  let code2, out2, _ = run_cli args in
  check_int "prof exits 0 again" 0 code2;
  check_str "prof output byte-stable" out out2

let check_fails name (code, _out, err) =
  Alcotest.(check bool) (name ^ " exits non-zero") true (code <> 0);
  Alcotest.(check bool) (name ^ " prints a diagnostic") true
    (String.length err > 0)

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i =
    i + nl <= hl && (String.equal (String.sub hay i nl) needle || go (i + 1))
  in
  nl = 0 || go 0

let test_cli_bad_sink_paths () =
  let r = run_cli [ "batch"; "--metrics"; "/nonexistent-dir/m.jsonl" ] in
  check_fails "bad --metrics" r;
  let _, _, err = r in
  check_bool "metrics diagnostic names the path" true
    (contains ~needle:"/nonexistent-dir/m.jsonl" err);
  let r = run_cli [ "batch"; "--trace"; "/nonexistent-dir/t.jsonl" ] in
  check_fails "bad --trace" r;
  let _, _, err = r in
  check_bool "trace diagnostic names the path" true
    (contains ~needle:"/nonexistent-dir/t.jsonl" err)

let test_cli_unknown_subcommand () =
  check_fails "unknown subcommand" (run_cli [ "frobnicate" ])

let test_cli_malformed_instance () =
  let path = Filename.temp_file "relpipe-test" ".relpipe" in
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc "this is not a relpipe instance\n");
  let r = run_cli [ "prof"; "-i"; path; "--max-failure"; "0.5" ] in
  Sys.remove path;
  check_fails "malformed instance" r

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "obs"
    [
      ( "clock",
        [
          test "virtual sequence" test_virtual_clock_sequence;
          test "fork" test_clock_fork;
        ] );
      ( "metric",
        [
          test "counter: parallel increments lose nothing"
            test_counter_parallel_no_lost_updates;
          test "registry: kind mismatch" test_registry_kind_mismatch;
          test "noop registry is silent" test_noop_registry_is_silent;
          test "histogram: bucket edges" test_bucket_edges;
          Helpers.seed_property ~count:200
            "histogram: every float in exactly one bucket"
            prop_every_float_in_exactly_one_bucket;
          Helpers.seed_property ~count:100
            "histogram: merge is sample concatenation"
            prop_merge_is_concatenation;
        ] );
      ( "trace",
        [
          test "span timing under virtual clock" test_trace_span_timing;
          test "span records on exception" test_trace_span_records_on_exception;
          test "append merges in job order" test_trace_append_in_job_order;
        ] );
      ( "lru",
        [ test "create_in registers counters" test_lru_create_in_registers_counters ] );
      ( "engine",
        [
          test "identical snapshots across workers"
            test_engine_obs_identical_across_workers;
          test "instrumentation never perturbs responses"
            test_engine_obs_never_perturbs_responses;
          test "golden trace and metrics snapshots" test_engine_obs_snapshots;
        ] );
      ( "cli",
        [
          test "prof golden snapshot" test_prof_snapshot;
          test "bad sink paths fail eagerly" test_cli_bad_sink_paths;
          test "unknown subcommand" test_cli_unknown_subcommand;
          test "malformed instance" test_cli_malformed_instance;
        ] );
    ]
