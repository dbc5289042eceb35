(* The in-process workloads: hot-zipf (Atlas.run over
   Engine.run_requests on a pool that fits the cache) and cold-distinct
   (Engine.run_requests on requests that are all distinct).

   The measured window holds only calls into relpipe; the benchmark's own
   correctness checks run between calls and their time is taken out.  The
   traced run measures a third of a window untraced (cache, GC and tail
   figures), then the same requests with spans and an engine Obs
   context, each call repeated at once on an untraced engine so that the
   tracing overhead compares like with like. *)

module Engine = Relpipe_service.Engine
module Atlas = Relpipe_service.Atlas
module Canon = Relpipe_service.Canon
module Protocol = Relpipe_service.Protocol
module Stream_gen = Relpipe_workload.Stream_gen
module Obs = Relpipe_obs.Obs
module Trace = Relpipe_obs.Trace
module Analysis = Relpipe_analysis.Analysis

let now_ns = Spans.now_ns
let s_of_ns ns = float_of_int ns /. 1e9

(* ------------------------------------------------------------------ *)
(* Set-up                                                              *)
(* ------------------------------------------------------------------ *)

(* A fixed request that any engine answers quickly (a small instance on
   a fully homogeneous platform), so set-up time measures the engine,
   not a seed's kernel. *)
let probe () =
  let spec = { Stream_gen.default_spec with pool = 1 } in
  Gate.request (Gate.slot_of_entry (Stream_gen.pool_entries ~seed:0 spec).(0))

(* Fresh engine until its first answer. *)
let setup_sample (spec : Spec.t) probe =
  let t0 = now_ns () in
  let engine =
    Engine.create ~workers:spec.workers ~cache_capacity:spec.cache_capacity ()
  in
  (match (Engine.run_requests engine [| probe |]).(0).r_outcome with
  | Protocol.Failed msg -> failwith ("set-up probe failed: " ^ msg)
  | Solved _ | Infeasible -> ());
  s_of_ns (now_ns () - t0)

(* Set-up samples are spread over the run (between engine calls, outside
   the measured time), so their median does not hang on one moment's
   machine speed. *)
type setups = { probe : Protocol.request; mutable samples : float list }

let setups () = { probe = probe (); samples = [] }
let sample spec su = su.samples <- setup_sample spec su.probe :: su.samples
let setup_median su = Stats.median (Array.of_list su.samples)

(* ------------------------------------------------------------------ *)
(* Tracing                                                             *)
(* ------------------------------------------------------------------ *)

(* One engine call of the traced window. *)
type call = {
  span : int;  (** the engine.run_requests span *)
  reqs : int array;  (** gate slot id of each request, in batch order *)
  seq : int;  (** stream position of the first request *)
  misses : int array;  (** batch positions that became kernel jobs *)
  replays : int list;  (** replayed parse/canonicalize spans *)
}

type tracer = {
  spans : Spans.t;
  obs : Obs.t;
  mutable calls : call list;
  mutable skip : int;  (** engine events from before the window *)
}

let tracer () =
  {
    spans = Spans.create ();
    obs = Obs.create ~tracing:true ();
    calls = [];
    skip = 0;
  }

let engine_events tr =
  match tr.obs.Obs.trace with Some t -> Trace.events t | None -> []

(* Mark the start of the traced window: engine events so far (warm-up)
   belong to no recorded call. *)
let start_window tr = tr.skip <- List.length (engine_events tr)

(* Replay a request's parse and canonicalization right after its call,
   so both run under the same machine conditions; the spans are moved
   under the call's prepare phase once the engine's own spans are in. *)
let replay tr (slot : Gate.slot) ~req =
  let t0 = now_ns () in
  let inst =
    match Analysis.parse_instance_text slot.text with
    | Ok inst -> inst
    | Error _ -> failwith "replayed parse failed"
  in
  let t1 = now_ns () in
  ignore (Canon.normalize ~budget:200_000 ~method_:slot.method_ inst slot.objective);
  let t2 = now_ns () in
  [
    Spans.add tr.spans ~req ~replay:true "analysis.parse" ~start_ns:t0 ~end_ns:t1;
    Spans.add tr.spans ~req ~replay:true "canon.normalize" ~start_ns:t1
      ~end_ns:t2;
  ]

(* One engine call, timed: [(responses, start, end)].  With a tracer,
   record its span under [parent] and replay its requests after [end]. *)
let engine_call ?tr ?(parent = -1) engine ~gate ~reqs ~seq requests =
  let t0 = now_ns () in
  let resps = Engine.run_requests engine requests in
  let t1 = now_ns () in
  (match tr with
  | None -> ()
  | Some tr ->
      let span =
        Spans.add tr.spans ~parent "engine.run_requests" ~start_ns:t0 ~end_ns:t1
      in
      let misses =
        List.filter_map
          (fun (i, (r : Protocol.response)) ->
            match r.r_cache with Protocol.Miss -> Some i | Hit -> None)
          (List.mapi (fun i r -> (i, r)) (Array.to_list resps))
      in
      let replays =
        List.concat
          (List.mapi
             (fun pos id -> replay tr (Gate.slot gate id) ~req:(seq + pos))
             (Array.to_list reqs))
      in
      tr.calls <-
        { span; reqs; seq; misses = Array.of_list misses; replays } :: tr.calls);
  (resps, t0, t1)

(* Traced runs repeat each call on an untraced engine right away, so
   the tracing overhead compares the two under the same machine
   conditions. *)
let shadow_call shadow requests =
  match shadow with
  | None -> 0
  | Some engine ->
      let t0 = now_ns () in
      ignore (Engine.run_requests engine requests);
      now_ns () - t0

let attr key (ev : Trace.event) =
  Option.value (List.assoc_opt key ev.attrs) ~default:""

(* Fold the engine's own phase and job spans into the span buffer and
   hang each call's replayed spans under its prepare phase.  The engine
   emits, per call and in completion order: prepare, plan, the merged
   kernel jobs, solve, then emit. *)
let attach tr (gate : Gate.t) =
  let calls = Array.of_list (List.rev tr.calls) in
  let events = List.filteri (fun i _ -> i >= tr.skip) (engine_events tr) in
  let c = ref 0 and jobs = ref [] and prepare = Array.make (Array.length calls) (-1) in
  let add name (ev : Trace.event) ~parent ~req =
    let d = Option.value ev.dur ~default:0 in
    Spans.add tr.spans ~parent ~req name ~start_ns:ev.ts ~end_ns:(ev.ts + d)
  in
  List.iter
    (fun (ev : Trace.event) ->
      if !c < Array.length calls then begin
        let call = calls.(!c) in
        match ev.name with
        | "engine.phase.prepare" ->
            prepare.(!c) <- add "engine.prepare" ev ~parent:call.span ~req:(-1)
        | "engine.phase.plan" ->
            ignore (add "engine.plan" ev ~parent:call.span ~req:(-1))
        | "engine.job" -> jobs := ev :: !jobs
        | "engine.phase.solve" ->
            let solve = add "engine.solve" ev ~parent:call.span ~req:(-1) in
            List.iter
              (fun ev ->
                let pos = call.misses.(int_of_string (attr "job" ev)) in
                let slot = Gate.slot gate call.reqs.(pos) in
                ignore
                  (add ("core." ^ slot.path) ev ~parent:solve ~req:(call.seq + pos)))
              (List.rev !jobs);
            jobs := []
        | "engine.phase.emit" ->
            ignore (add "engine.emit" ev ~parent:call.span ~req:(-1));
            incr c
        | _ -> ()
      end)
    events;
  Array.iteri
    (fun k call ->
      List.iter
        (fun id ->
          Spans.set tr.spans id { (Spans.get tr.spans id) with parent = prepare.(k) })
        call.replays)
    calls

(* ------------------------------------------------------------------ *)
(* Windows                                                             *)
(* ------------------------------------------------------------------ *)

let heap_mb () =
  float_of_int ((Gc.quick_stat ()).top_heap_words * (Sys.word_size / 8))
  /. 1048576.0

type window = {
  requests : int;
  answered : int;  (** Solved or Infeasible; Failed responses are not *)
  wall_ns : int;  (** measured time: relpipe calls only *)
  call_ns : (int * int) list;  (** each engine call: duration, answered *)
  shadow_ns : int;  (** the same calls on the untraced shadow engine *)
  minor_words : float;
  heap_mb : float;  (** top heap at the end, or after [heap_after] requests *)
  stats0 : Engine.stats;
  stats1 : Engine.stats;
}

let stats_delta w =
  let d f = f w.stats1 - f w.stats0 in
  let reqs = d (fun s -> s.Engine.requests) in
  let per x = if reqs = 0 then 0.0 else float_of_int x /. float_of_int reqs in
  ( per (d (fun s -> s.Engine.cache.hits) + d (fun s -> s.Engine.shared)),
    per (d (fun s -> s.Engine.cache.evictions)) )

let answered (resps : Protocol.response array) =
  Array.fold_left
    (fun acc (r : Protocol.response) ->
      match r.r_outcome with Protocol.Failed _ -> acc | Solved _ | Infeasible -> acc + 1)
    0 resps

let sum_answered call_ns = List.fold_left (fun acc (_, k) -> acc + k) 0 call_ns

(* Closed loop: a request is due when its chunk is submitted and
   answered when the engine call returns.  Failed responses are not
   answers and have no latency. *)
let latencies_ms w =
  Array.concat
    (List.map (fun (ns, k) -> Array.make k (float_of_int ns /. 1e6)) w.call_ns)

let atlas_slots (slots : Gate.slot array) =
  Array.map
    (fun (s : Gate.slot) ->
      {
        Atlas.sl_text = s.text;
        sl_objective = s.objective;
        sl_method = s.method_;
        sl_class = s.path;
      })
    slots

(* hot-zipf: the seed's stream through Atlas.run, whose solve callback
   is one engine call per chunk, until [stop ~requests ~measured_ns]
   holds at a chunk boundary.  Event [i] goes to tenant [i mod tenants]:
   each tenant sees its own Zipf stream over its own pool, so a run
   averages over several hot sets instead of hanging on the size of one
   pool's hottest instance. *)
let hot_window ?tr ?shadow ?(between = fun _ -> ()) (spec : Spec.t) ~chunk
    ~tenants ~seed ~engine ~gate ~slots ~stop =
  let pending = Queue.create () in
  let pool = spec.stream.pool in
  let t0 = ref 0 and check_ns = ref 0 and emitted = ref 0 and shadow_ns = ref 0 in
  let source =
    {
      Atlas.slots = atlas_slots slots;
      events =
        (fun f ->
          (* The stream is unbounded; leaving it early is local to this
             function, so Atlas.run sees an ordinary end of stream. *)
          try
            Stream_gen.iter ~seed spec.stream ~n:max_int (fun ev ->
                let i = ev.Stream_gen.ev_index in
                if
                  i mod chunk = 0
                  && stop ~requests:i ~measured_ns:(now_ns () - !t0 - !check_ns)
                then raise Exit;
                let slot = (i mod tenants * pool) + ev.ev_slot in
                Queue.push slot pending;
                emitted := i + 1;
                f { Atlas.ev_index = i; ev_slot = slot; ev_gap_ns = ev.ev_gap_ns })
          with Exit -> ());
    }
  in
  let root = match tr with Some tr -> Spans.reserve tr.spans | None -> -1 in
  let seq = ref 0 and call_ns = ref [] in
  let solve requests =
    let t0 = now_ns () in
    let cb = match tr with Some tr -> Spans.reserve tr.spans | None -> -1 in
    let reqs = Array.map (fun _ -> Queue.pop pending) requests in
    let resps, c0, t1 =
      engine_call ?tr ~parent:cb engine ~gate ~reqs ~seq:!seq requests
    in
    call_ns := (t1 - c0, answered resps) :: !call_ns;
    shadow_ns := !shadow_ns + shadow_call shadow requests;
    Array.iteri (fun i r -> Gate.check gate ~id:reqs.(i) ~expect_index:i r) resps;
    between (List.length !call_ns);
    let t2 = now_ns () in
    check_ns := !check_ns + (t2 - t1);
    seq := !seq + Array.length requests;
    (match tr with
    | None -> ()
    | Some tr ->
        ignore
          (Spans.add tr.spans ~parent:cb "bench.check" ~start_ns:t1 ~end_ns:t2);
        Spans.set tr.spans cb
          {
            Spans.name = "atlas.solve";
            start_ns = t0;
            end_ns = t2;
            parent = root;
            req = -1;
            replay = false;
          });
    resps
  in
  let stats0 = Engine.stats engine in
  let minor0 = Gc.minor_words () in
  t0 := now_ns ();
  let report = Atlas.run ~chunk ~solve source in
  let t1 = now_ns () in
  let t0 = !t0 in
  let minor_words = Gc.minor_words () -. minor0 in
  (match tr with
  | None -> ()
  | Some tr ->
      Spans.set tr.spans root
        {
          Spans.name = "atlas.run";
          start_ns = t0;
          end_ns = t1;
          parent = -1;
          req = -1;
          replay = false;
        });
  if report.Atlas.requests <> !emitted then failwith "Atlas.run dropped requests";
  {
    requests = !emitted;
    answered = sum_answered !call_ns;
    wall_ns = t1 - t0 - !check_ns;
    call_ns = !call_ns;
    shadow_ns = !shadow_ns;
    minor_words;
    heap_mb = heap_mb ();
    stats0;
    stats1 = Engine.stats engine;
  }

(* cold-distinct: request [i] of the run is slot [i] of a sequence of
   fresh Stream_gen pools (pool [b] from a seed derived from the run's
   seed), so no two requests of a run share an instance.  Calls of
   [chunk] requests continue until [stop ~calls ~wall_ns] holds. *)
let cold_slot (spec : Spec.t) ~seed ~gate id =
  let pool = spec.stream.pool in
  if not (Hashtbl.mem gate.Gate.slots id) then begin
    let b = id / pool in
    let entries =
      Stream_gen.pool_entries ~seed:(Spec.derived_seed seed b) spec.stream
    in
    Array.iteri
      (fun i e -> Gate.register gate ((b * pool) + i) (Gate.slot_of_entry e))
      entries
  end;
  Gate.slot gate id

let cold_window ?tr ?shadow ?(between = fun _ -> ()) ?(settle = true)
    ?(heap_after = max_int) (spec : Spec.t) ~chunk ~seed ~engine ~gate ~stop =
  let root = match tr with Some tr -> Spans.reserve tr.spans | None -> -1 in
  let stats0 = Engine.stats engine in
  let minor = ref 0.0 and wall = ref 0 and calls = ref 0 and next = ref 0 in
  let call_ns = ref [] and shadow_ns = ref 0 and heap = ref None in
  let first = now_ns () in
  while not (stop ~calls:!calls ~wall_ns:!wall) do
    let reqs = Array.init chunk (fun i -> !next + i) in
    let requests =
      Array.map
        (fun id ->
          Gate.request ~id:(string_of_int id) (cold_slot spec ~seed ~gate id))
        reqs
    in
    let m0 = Gc.minor_words () in
    let resps, c0, c1 =
      engine_call ?tr ~parent:root engine ~gate ~reqs ~seq:!next requests
    in
    let ns = c1 - c0 in
    minor := !minor +. (Gc.minor_words () -. m0);
    wall := !wall + ns;
    call_ns := (ns, answered resps) :: !call_ns;
    shadow_ns := !shadow_ns + shadow_call shadow requests;
    Array.iteri
      (fun i r ->
        Gate.check gate ~id:reqs.(i) ~expect_index:i
          ~expect_id:(string_of_int reqs.(i)) r)
      resps;
    if settle then Array.iter (Gate.settle gate) reqs;
    next := !next + chunk;
    if Option.is_none !heap && !next >= heap_after then heap := Some (heap_mb ());
    incr calls;
    between !calls
  done;
  (match tr with
  | None -> ()
  | Some tr ->
      Spans.set tr.spans root
        {
          Spans.name = "bench.run";
          start_ns = first;
          end_ns = now_ns ();
          parent = -1;
          req = -1;
          replay = false;
        });
  ( {
      requests = !next;
      answered = sum_answered !call_ns;
      wall_ns = !wall;
      call_ns = !call_ns;
      shadow_ns = !shadow_ns;
      minor_words = !minor;
      heap_mb = (match !heap with Some h -> h | None -> heap_mb ());
      stats0;
      stats1 = Engine.stats engine;
    },
    !calls )

(* ------------------------------------------------------------------ *)
(* Per-layer reduction                                                 *)
(* ------------------------------------------------------------------ *)

let layers (m : Report.metrics) tr ~workers ~untraced ~traced =
  let tot = Spans.by_name tr.spans in
  let get name =
    Option.value (Hashtbl.find_opt tot name)
      ~default:{ Spans.self_ns = 0; total_ns = 0; count = 0 }
  in
  let reqs = float_of_int traced.requests in
  let calls = float_of_int (get "engine.run_requests").count in
  let per_req ns = float_of_int ns /. reqs /. 1e3 in
  let per_call ns = if calls = 0.0 then 0.0 else float_of_int ns /. calls /. 1e6 in
  Report.set m "analysis.parse_us" (per_req (get "analysis.parse").total_ns);
  Report.set m "canon.normalize_us" (per_req (get "canon.normalize").total_ns);
  Report.set m "atlas.self_us" (per_req (get "atlas.run").self_ns);
  List.iter
    (fun phase ->
      Report.set m ("engine." ^ phase ^ "_ms")
        (per_call (get ("engine." ^ phase)).self_ns))
    [ "prepare"; "plan"; "solve"; "emit" ];
  let hit_share, evictions = stats_delta untraced in
  Report.set m "cache.hit_share" hit_share;
  Report.set m "cache.evictions_per_req" evictions;
  let kernel_ns = ref 0 in
  List.iter
    (fun path ->
      let d = Stats.of_ints (Spans.durations tr.spans ("core." ^ path)) in
      let ms = Array.map (fun x -> x /. 1e6) d in
      kernel_ns := !kernel_ns + (get ("core." ^ path)).total_ns;
      Report.set m ("core.jobs." ^ path) (float_of_int (Array.length d));
      Report.set m ("core.solve_ms." ^ path ^ ".p50") (Stats.percentile ms 50.0);
      Report.set m ("core.solve_ms." ^ path ^ ".p99") (Stats.percentile ms 99.0))
    Gate.paths;
  let solve = get "engine.solve" in
  Report.set m "pool.busy_share"
    (if solve.total_ns = 0 then 0.0
     else
       float_of_int !kernel_ns
       /. (float_of_int workers *. float_of_int solve.total_ns));
  let lat = latencies_ms untraced in
  Report.set m "latency_p50_ms" (Stats.percentile lat 50.0);
  Report.set m "latency_p99_ms" (Stats.percentile lat 99.0);
  Report.set m "latency_samples" (float_of_int (Array.length lat));
  Report.set m "gc.minor_words_per_req"
    (untraced.minor_words /. float_of_int untraced.requests);
  let traced_calls =
    List.fold_left (fun acc (ns, _) -> acc + ns) 0 traced.call_ns
  in
  Report.set m "trace.overhead_share"
    ((float_of_int traced_calls /. float_of_int traced.shadow_ns) -. 1.0);
  (* Where the traced window's time went. *)
  let wall = float_of_int traced.wall_ns in
  let share ns = float_of_int ns /. wall in
  let engine_self =
    List.fold_left
      (fun acc n -> acc + (get n).self_ns)
      0
      [ "engine.run_requests"; "engine.prepare"; "engine.plan"; "engine.emit" ]
  in
  Report.set m "share.analysis" (share (get "analysis.parse").total_ns);
  Report.set m "share.canon" (share (get "canon.normalize").total_ns);
  Report.set m "share.engine" (share engine_self);
  Report.set m "share.core" (share (solve.total_ns - solve.self_ns));
  Report.set m "share.pool" (share solve.self_ns);
  Report.set m "share.atlas" (share (get "atlas.run").self_ns);
  Report.set m "share.protocol" 0.0;
  Report.set m "share.serve" 0.0;
  List.iter
    (fun k -> Report.set m k 0.0)
    [
      "protocol.decode_us";
      "protocol.encode_us";
      "serve.reqs_per_tick";
      "serve.rtt_idle_us";
      "serve.refused";
      "loadgen.late_ms_p99";
    ]

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)
(* ------------------------------------------------------------------ *)

let end_to_end m (spec : Spec.t) ~(setup : setups) ~gate ~(w : window) =
  let q = Gate.quality gate in
  let setup_samples = setup.samples in
  Report.set m "setup_s" (setup_median setup);
  Report.set m "throughput_rps" (float_of_int w.answered /. s_of_ns w.wall_ns);
  let lat = latencies_ms w in
  Report.set m "slo_met_share"
    (float_of_int
       (Array.fold_left
          (fun acc x -> if x <= spec.Spec.latency_limit_ms then acc + 1 else acc)
          0 lat)
    /. float_of_int (max 1 w.requests));
  Report.set m "answered_share"
    (float_of_int gate.Gate.answered
    /. float_of_int (gate.answered + gate.failed));
  Report.set m "optimal_share" q.optimal_share;
  Report.set m "objective_ratio_mean" q.objective_ratio_mean;
  Report.set m "heap_peak_mb" w.heap_mb;
  Printf.sprintf
    "%s: %d requests in %.3f s; latency p50 %.3f ms, p99 %.3f ms, max %.3f \
     ms over %d samples (limit %.0f ms); set-up median of %d samples; %d \
     reference optima in %.3f s"
    spec.name w.requests (s_of_ns w.wall_ns) (Stats.percentile lat 50.0)
    (Stats.percentile lat 99.0) (Stats.percentile lat 100.0) (Array.length lat)
    spec.latency_limit_ms (List.length setup_samples) q.optima q.optima_s

let warm_up engine ~gate (slots : Gate.slot array) =
  let requests = Array.map (fun s -> Gate.request s) slots in
  let resps = Engine.run_requests engine requests in
  Array.iteri (fun i r -> Gate.check gate ~id:i ~expect_index:i r) resps

(* The traced run's per-layer figures. *)
let traced_outcome m tr gate ~workers ~untraced ~traced =
  attach tr gate;
  layers m tr ~workers ~untraced ~traced;
  ignore (Gate.quality gate);
  {
    Report.metrics = m;
    gate;
    attempted = untraced.requests + traced.requests;
    valid = true;
    notes = [];
    spans = Some tr.spans;
  }

let measured_outcome m spec ~setups ~gate ~w =
  let note = end_to_end m spec ~setup:setups ~gate ~w in
  {
    Report.metrics = m;
    gate;
    attempted = w.requests;
    valid = true;
    notes = [ note ];
    spans = None;
  }

let hot (spec : Spec.t) ~chunk ~tenants ~seed ~seconds ~trace =
  let gate = Gate.create () in
  let slots =
    Array.concat
      (List.init tenants (fun k ->
           Array.map Gate.slot_of_entry
             (Stream_gen.pool_entries ~seed:(Spec.derived_seed seed k)
                spec.stream)))
  in
  Array.iteri (fun i s -> Gate.register gate i s) slots;
  let su = setups () in
  sample spec su;
  let fresh ?obs () =
    let engine =
      Engine.create ?obs ~workers:spec.workers
        ~cache_capacity:spec.cache_capacity ()
    in
    warm_up engine ~gate slots;
    engine
  in
  let engine = fresh () in
  let m = Report.create () in
  let budget ~seconds ~requests:_ ~measured_ns =
    measured_ns >= int_of_float (seconds *. 1e9)
  in
  if not trace then begin
    let between k = if k mod 25 = 0 then sample spec su in
    let w =
      hot_window ~between spec ~chunk ~tenants ~seed ~engine ~gate ~slots
        ~stop:(budget ~seconds)
    in
    measured_outcome m spec ~setups:su ~gate ~w
  end
  else begin
    let untraced =
      hot_window spec ~chunk ~tenants ~seed ~engine ~gate ~slots
        ~stop:(budget ~seconds:(seconds /. 3.0))
    in
    let tr = tracer () in
    let traced_engine = fresh ~obs:tr.obs () in
    start_window tr;
    let traced =
      hot_window ~tr ~shadow:engine spec ~chunk ~tenants ~seed
        ~engine:traced_engine ~gate ~slots
        ~stop:(fun ~requests ~measured_ns:_ -> requests >= untraced.requests)
    in
    traced_outcome m tr gate ~workers:(Engine.workers engine) ~untraced ~traced
  end

let cold (spec : Spec.t) ~chunk ~seed ~seconds ~trace =
  let gate = Gate.create () in
  let fresh ?obs () =
    Engine.create ?obs ~workers:spec.workers ~cache_capacity:spec.cache_capacity
      ()
  in
  let m = Report.create () in
  let budget_ns s = int_of_float (s *. 1e9) in
  if not trace then begin
    let su = setups () in
    let w, _ =
      cold_window spec ~chunk ~seed ~engine:(fresh ()) ~gate
        ~between:(fun _ -> sample spec su)
        ~heap_after:spec.cache_capacity
        ~stop:(fun ~calls:_ ~wall_ns -> wall_ns >= budget_ns seconds)
    in
    measured_outcome m spec ~setups:su ~gate ~w
  end
  else begin
    let engine = fresh () in
    let untraced, n_calls =
      cold_window ~settle:false spec ~chunk ~seed ~engine ~gate
        ~stop:(fun ~calls:_ ~wall_ns -> wall_ns >= budget_ns (seconds /. 3.0))
    in
    let tr = tracer () in
    let traced, _ =
      cold_window ~tr ~shadow:(fresh ()) ~settle:false spec ~chunk ~seed
        ~engine:(fresh ~obs:tr.obs ()) ~gate
        ~stop:(fun ~calls ~wall_ns:_ -> calls >= n_calls)
    in
    traced_outcome m tr gate ~workers:(Engine.workers engine) ~untraced ~traced
  end
