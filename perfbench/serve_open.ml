(* serve-open: a separate `relpipe serve` daemon on a Unix socket, driven
   by an open-loop generator — one connection, a sender thread that sends
   each request when it is due and a receiver (the main thread) that
   timestamps each reply.  Arrivals follow the seed's Stream_gen bursts
   with the gaps rescaled to the workload's rate.  Latency runs from when
   a request was due, so a stall also charges the requests queued behind
   it. *)

module Protocol = Relpipe_service.Protocol
module Canon = Relpipe_service.Canon
module Client = Relpipe_serve.Client
module Metric = Relpipe_obs.Metric
module Stream_gen = Relpipe_workload.Stream_gen
module Analysis = Relpipe_analysis.Analysis
module Solver = Relpipe_core.Solver

let now_ns = Spans.now_ns

(* ------------------------------------------------------------------ *)
(* The daemon                                                          *)
(* ------------------------------------------------------------------ *)

type server = {
  pid : int;
  client : Client.t;
  setup_s : float;
  ready : in_channel;  (** the daemon's stderr, where it reports readiness *)
}

(* Daemons still running; killed on any exit path.  Set-up samples
   spawn daemons from their own thread, hence the lock. *)
let live = ref []
let live_lock = Mutex.create ()
let update_live f = Mutex.protect live_lock (fun () -> live := f !live)

let reap pid = try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ()

let kill_all () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      reap pid)
    (Mutex.protect live_lock (fun () -> !live));
  update_live (fun _ -> [])

let () = at_exit kill_all

let hello = Protocol.encode_control (Protocol.hello ~client:"relbench" ())

(* Spawn a daemon and time it until it has answered the handshake. *)
let spawn ~relpipe ~sock (spec : Spec.t) (o : Spec.serve) =
  (try Sys.remove sock with Sys_error _ -> ());
  let args =
    [|
      relpipe; "serve"; "--unix"; sock;
      "-w"; string_of_int spec.workers;
      "--cache-size"; string_of_int spec.cache_capacity;
      "--session-window"; string_of_int o.session_window;
      "--queue-size"; string_of_int o.queue_size;
    |]
  in
  (* The daemon reads nothing on stdin: give it a closed pipe.  Its
     stderr says "listening on ..." once the socket is bound, so set-up
     waits on that line instead of polling the socket. *)
  let stdin_r, stdin_w = Unix.pipe ~cloexec:true () in
  Unix.close stdin_w;
  let err_r, err_w = Unix.pipe ~cloexec:true () in
  let t0 = now_ns () in
  let pid = Unix.create_process relpipe args stdin_r err_w err_w in
  List.iter Unix.close [ stdin_r; err_w ];
  update_live (fun l -> pid :: l);
  let ready = Unix.in_channel_of_descr err_r in
  let rec wait_listening () =
    match In_channel.input_line ready with
    | Some l when String.starts_with ~prefix:"listening on" l -> ()
    | Some _ -> wait_listening ()
    | None -> failwith "relpipe serve exited before listening"
  in
  wait_listening ();
  let client = Client.connect (`Unix sock) in
  (match Option.map Protocol.decode_control_reply (Client.call client hello) with
  | Some (Ok (Protocol.Hello_ok _)) -> ()
  | _ -> failwith "relpipe serve refused the handshake");
  { pid; client; setup_s = float_of_int (now_ns () - t0) /. 1e9; ready }

(* Ask the daemon to drain, read what is left and wait for it to exit. *)
let shutdown s =
  (try
     Client.send s.client (Protocol.encode_control Protocol.Shutdown);
     Client.finish_sending s.client;
     while Option.is_some (Client.recv s.client) do
       ()
     done
   with Unix.Unix_error _ | Sys_error _ -> ());
  Client.close s.client;
  reap s.pid;
  close_in_noerr s.ready;
  update_live (List.filter (fun p -> not (Int.equal p s.pid)))

let stats s =
  match
    Option.map Protocol.decode_control_reply
      (Client.call s.client (Protocol.encode_control Protocol.Stats))
  with
  | Some (Ok (Protocol.Stats_ok bindings)) -> bindings
  | _ -> failwith "stats request failed"

let counter bindings name =
  match List.assoc_opt name bindings with
  | Some (Metric.Counter_v n) | Some (Metric.Gauge_v n) -> float_of_int n
  | Some (Metric.Histogram_v { sum; _ }) -> sum
  | None -> 0.0

(* How much a daemon counter grew over the window. *)
let grew ~before ~after name = counter after name -. counter before name

(* Peak resident set of the daemon, from /proc (the protocol exposes no
   GC statistics). *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%d/status" pid in
  let lines = In_channel.with_open_text path In_channel.input_all in
  match
    List.find_opt
      (fun l -> String.length l > 6 && String.equal (String.sub l 0 6) "VmHWM:")
      (String.split_on_char '\n' lines)
  with
  | Some l ->
      Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d kB" (fun kb ->
          float_of_int kb /. 1024.0)
  | None -> failwith "no VmHWM in /proc status"

(* ------------------------------------------------------------------ *)
(* The open loop                                                       *)
(* ------------------------------------------------------------------ *)

(* Due times (ns from the start) of [rate * seconds] events: the seed's
   Stream_gen gaps, scaled so that the run offers exactly [rate] on
   average and keeps the stream's bursts. *)
let schedule (spec : Spec.t) ~rate_rps ~seed ~seconds =
  let n = max 1 (int_of_float (rate_rps *. seconds)) in
  let slots = Array.make n 0 and at = Array.make n 0.0 and t = ref 0.0 in
  Stream_gen.iter ~seed spec.stream ~n (fun ev ->
      t := !t +. float_of_int ev.ev_gap_ns;
      slots.(ev.ev_index) <- ev.ev_slot;
      at.(ev.ev_index) <- !t);
  let scale = if !t > 0.0 then seconds *. 1e9 /. !t else 0.0 in
  Array.init n (fun i -> (slots.(i), int_of_float (at.(i) *. scale)))

type run = {
  start_ns : int;
  due_ns : int array;  (** absolute *)
  sent_ns : int array;  (** when the send began *)
  sent_end_ns : int array;
  recv_ns : int array;  (** 0 when no reply arrived *)
  replies : string array;
  received : int;
}

let open_loop s ~lines ~due ~grace_s =
  let n = Array.length lines in
  let start = now_ns () + 10_000_000 in
  let due_ns = Array.map (fun d -> start + d) due in
  let sent_ns = Array.make n 0 and sent_end_ns = Array.make n 0 in
  let recv_ns = Array.make n 0 and replies = Array.make n "" in
  let finished = Atomic.make false in
  let sender =
    Thread.create
      (fun () ->
        try
          for i = 0 to n - 1 do
            let wait = due_ns.(i) - now_ns () in
            if wait > 0 then Unix.sleepf (float_of_int wait /. 1e9);
            sent_ns.(i) <- now_ns ();
            Client.send s.client lines.(i);
            sent_end_ns.(i) <- now_ns ()
          done
        with Unix.Unix_error _ | Sys_error _ -> ())
      ()
  in
  (* A daemon that stops answering is killed after the grace period, so
     the receiver sees end of stream instead of blocking forever. *)
  let deadline =
    (if n = 0 then start else due_ns.(n - 1)) + int_of_float (grace_s *. 1e9)
  in
  let watchdog =
    Thread.create
      (fun () ->
        while (not (Atomic.get finished)) && now_ns () < deadline do
          Unix.sleepf 0.05
        done;
        if not (Atomic.get finished) then
          try Unix.kill s.pid Sys.sigkill with Unix.Unix_error _ -> ())
      ()
  in
  let received = ref 0 in
  (try
     while !received < n do
       match Client.recv s.client with
       | Some line ->
           recv_ns.(!received) <- now_ns ();
           replies.(!received) <- line;
           incr received
       | None -> raise Exit
     done
   with Exit | Unix.Unix_error _ | Sys_error _ -> ());
  Atomic.set finished true;
  Thread.join sender;
  Thread.join watchdog;
  { start_ns = start; due_ns; sent_ns; sent_end_ns; recv_ns; replies; received = !received }

(* Set-up samples: [reps] daemons, each spawned, timed to its handshake
   and shut down on a socket of its own, at even steps over the [span_ns]
   the open loop runs, so that their median follows the machine's speed
   over the whole run rather than at its two ends.  The daemon serving
   the loop only shares the cpus with them: a start costs about 10 ms of
   one cpu. *)
let sample_setups ~spawn ~reps ~span_ns =
  let start = now_ns () and samples = ref [] and error = ref None in
  let thread =
    Thread.create
      (fun () ->
        try
          for k = 0 to reps - 1 do
            let wait = start + ((2 * k) + 1) * span_ns / (2 * reps) - now_ns () in
            if wait > 0 then Unix.sleepf (float_of_int wait /. 1e9);
            let s = spawn () in
            samples := s.setup_s :: !samples;
            shutdown s
          done
        with e -> error := Some e)
      ()
  in
  fun () ->
    Thread.join thread;
    Option.iter raise !error;
    !samples

(* ------------------------------------------------------------------ *)
(* The workload                                                        *)
(* ------------------------------------------------------------------ *)

let ms_of_ns ns = float_of_int ns /. 1e6

let run ~relpipe ~out_dir (spec : Spec.t) (o : Spec.serve) ~seed ~seconds ~trace =
  let gate = Gate.create () in
  let slots =
    Array.map Gate.slot_of_entry (Stream_gen.pool_entries ~seed spec.stream)
  in
  Array.iteri (fun i s -> Gate.register gate i s) slots;
  let events = schedule spec ~rate_rps:o.rate_rps ~seed ~seconds in
  let n = Array.length events in
  let requests =
    Array.mapi (fun i (slot, _) -> Gate.request ~id:(string_of_int i) slots.(slot)) events
  in
  let lines = Array.map Protocol.encode_request requests in
  let sock = Filename.concat out_dir (Printf.sprintf "serve-%d.sock" (Unix.getpid ())) in
  let s = spawn ~relpipe ~sock spec o in
  (* Warm the cache with the pool's hottest slots, as a long-running
     daemon's would be, so the window does not open on a burst of
     compulsory misses. *)
  let warm = min o.warm_slots (Array.length slots) in
  for k = 0 to warm - 1 do
    Client.send s.client
      (Protocol.encode_request (Gate.request ~id:("w" ^ string_of_int k) slots.(k)))
  done;
  let warm_gate = Gate.create () in
  Array.iteri (fun i sl -> Gate.register warm_gate i sl) (Array.sub slots 0 warm);
  for k = 0 to warm - 1 do
    match Option.map Protocol.decode_response (Client.recv s.client) with
    | Some (Ok resp) ->
        Gate.check warm_gate ~id:k ~expect_index:k ~expect_id:("w" ^ string_of_int k) resp
    | _ -> Gate.fail warm_gate (Printf.sprintf "warm-up request %d: no answer" k)
  done;
  List.iter (Gate.error gate) warm_gate.errors;
  List.iter (Gate.fail gate) warm_gate.failures;
  let before = stats s in
  let setups =
    sample_setups ~reps:o.setup_reps
      ~span_ns:(int_of_float (seconds *. 1e9))
      ~spawn:(fun () -> spawn ~relpipe ~sock:(sock ^ ".setup") spec o)
  in
  let r = open_loop s ~lines ~due:(Array.map snd events) ~grace_s:60.0 in
  let setups = s.setup_s :: setups () in
  let daemon_alive = r.received = n in
  let after = if daemon_alive then stats s else before in
  let grew = grew ~before ~after in
  let heap = if daemon_alive then peak_rss_mb s.pid else 0.0 in
  (* Lockstep round trips of a request the daemon has cached. *)
  let rtt_idle_us =
    if trace && daemon_alive && n > 0 then
      Stats.median
        (Array.init 50 (fun _ ->
             let t0 = now_ns () in
             ignore (Client.call s.client lines.(0));
             float_of_int (now_ns () - t0) /. 1e3))
    else 0.0
  in
  shutdown s;
  List.iter
    (fun f -> try Sys.remove f with Sys_error _ -> ())
    [ sock; sock ^ ".setup" ];
  (* Correctness, on replies received in order. *)
  let latencies = ref [] and answered_in_limit = ref 0 and last_recv = ref r.start_ns in
  let refused = ref 0 and decoded = Array.make n None in
  Array.iteri
    (fun i (slot, _) ->
      if i >= r.received then Gate.fail gate (Printf.sprintf "request %d: no reply" i)
      else
        match Protocol.decode_response r.replies.(i) with
        | Error _ ->
            incr refused;
            Gate.fail gate (Printf.sprintf "request %d refused: %s" i r.replies.(i))
        | Ok resp ->
            decoded.(i) <- Some resp;
            let failed_before = gate.Gate.failed in
            Gate.check gate ~id:slot ~expect_index:(warm + i)
              ~expect_id:(string_of_int i) resp;
            if gate.Gate.failed = failed_before then begin
              let lat = ms_of_ns (r.recv_ns.(i) - r.due_ns.(i)) in
              latencies := lat :: !latencies;
              if lat <= spec.latency_limit_ms then incr answered_in_limit;
              last_recv := max !last_recv r.recv_ns.(i)
            end)
    events;
  let lat = Array.of_list !latencies in
  let late =
    Array.init r.received (fun i -> ms_of_ns (r.sent_ns.(i) - r.due_ns.(i)))
  in
  let late_p99 = Stats.percentile late 99.0 in
  let valid = late_p99 <= o.max_late_ms in
  let m = Report.create () in
  let notes =
    [
      Printf.sprintf
        "serve-open: sent %d, answered %d, failed %d (refused %d), rate %.1f/s; \
         latency p50 %.3f ms, p99 %.3f ms over %d samples; set-up median of \
         %d samples; generator late p99 %.3f ms (limit %.1f)%s"
        n gate.Gate.answered gate.failed !refused o.rate_rps
        (Stats.percentile lat 50.0) (Stats.percentile lat 99.0)
        (Array.length lat) (List.length setups) late_p99 o.max_late_ms
        (if valid then "" else " -- INVALID: the generator fell behind");
    ]
  in
  let q = Gate.quality gate in
  let wall_s = float_of_int (!last_recv - r.start_ns) /. 1e9 in
  if not trace then begin
    Report.set m "setup_s" (Stats.median (Array.of_list setups));
    Report.set m "throughput_rps" (float_of_int (Array.length lat) /. wall_s);
    Report.set m "slo_met_share"
      (float_of_int !answered_in_limit /. float_of_int (max 1 n));
    Report.set m "answered_share"
      (float_of_int gate.answered /. float_of_int (max 1 n));
    Report.set m "optimal_share" q.optimal_share;
    Report.set m "objective_ratio_mean" q.objective_ratio_mean;
    Report.set m "heap_peak_mb" heap;
    { Report.metrics = m; gate; attempted = n; valid; notes; spans = None }
  end
  else begin
    (* Replay each request's protocol, parse and canonicalization steps,
       and the kernel of as many misses as a sixth of the run allows,
       as children of its round-trip span. *)
    let sp = Spans.create () in
    let t_cal0 = now_ns () in
    let cal = Spans.create () in
    for _ = 1 to 10_000 do
      ignore (Spans.add cal "x" ~start_ns:(now_ns ()) ~end_ns:(now_ns ()))
    done;
    let span_cost_ns = float_of_int (now_ns () - t_cal0) /. 10_000.0 in
    let kernel_budget = now_ns () + int_of_float (seconds /. 6.0 *. 1e9) in
    let misses = Hashtbl.create 8 and kernels = Hashtbl.create 8 in
    let find tbl k ~default = Option.value (Hashtbl.find_opt tbl k) ~default in
    Array.iteri
      (fun i (slot_id, _) ->
        match decoded.(i) with
        | None -> ()
        | Some resp ->
            let slot = slots.(slot_id) in
            ignore
              (Spans.add sp ~req:i "loadgen.send" ~start_ns:r.sent_ns.(i)
                 ~end_ns:r.sent_end_ns.(i));
            let rtt =
              Spans.add sp ~req:i "serve.rtt" ~start_ns:r.sent_ns.(i)
                ~end_ns:r.recv_ns.(i)
            in
            let replay name f =
              let t0 = now_ns () in
              let x = f () in
              ignore
                (Spans.add sp ~parent:rtt ~req:i ~replay:true name ~start_ns:t0
                   ~end_ns:(now_ns ()));
              x
            in
            ignore (replay "protocol.decode" (fun () -> Protocol.decode_request lines.(i)));
            let inst =
              replay "analysis.parse" (fun () -> Analysis.parse_instance_text slot.text)
            in
            (match inst with
            | Ok inst ->
                ignore
                  (replay "canon.normalize" (fun () ->
                       Canon.normalize ~budget:200_000 ~method_:slot.method_ inst
                         slot.objective));
                (match resp.r_cache with
                | Protocol.Hit -> ()
                | Protocol.Miss ->
                    Hashtbl.replace misses slot.path
                      (find misses slot.path ~default:0 + 1);
                    if now_ns () < kernel_budget then begin
                      let t0 = now_ns () in
                      ignore
                        (replay ("core." ^ slot.path) (fun () ->
                             Solver.run ~method_:slot.method_ inst slot.objective));
                      Hashtbl.replace kernels slot.path
                        ((now_ns () - t0) :: find kernels slot.path ~default:[])
                    end)
            | Error _ -> ());
            ignore (replay "protocol.encode" (fun () -> Protocol.encode_response resp)))
      events;
    let tot = Spans.by_name sp in
    let get name =
      Option.value (Hashtbl.find_opt tot name)
        ~default:{ Spans.self_ns = 0; total_ns = 0; count = 0 }
    in
    let answered = float_of_int (max 1 (Array.length lat)) in
    let per_req_us name = float_of_int (get name).total_ns /. answered /. 1e3 in
    List.iter
      (fun (k, name) -> Report.set m k (per_req_us name))
      [
        ("protocol.decode_us", "protocol.decode");
        ("protocol.encode_us", "protocol.encode");
        ("analysis.parse_us", "analysis.parse");
        ("canon.normalize_us", "canon.normalize");
      ];
    List.iter
      (fun k -> Report.set m k 0.0)
      [
        "atlas.self_us"; "engine.prepare_ms"; "engine.plan_ms"; "engine.solve_ms";
        "engine.emit_ms"; "gc.minor_words_per_req"; "share.engine"; "share.pool";
        "share.atlas";
      ];
    let requests = grew "serve.requests" in
    Report.set m "cache.hit_share"
      (float_of_int gate.hits /. float_of_int (max 1 (Array.length lat)));
    Report.set m "cache.evictions_per_req"
      (grew "engine.cache.evictions" /. Float.max 1.0 requests);
    let est_kernel_ns = ref 0.0 in
    List.iter
      (fun path ->
        let d = Array.of_list (find kernels path ~default:[]) in
        let ms = Array.map (fun x -> float_of_int x /. 1e6) d in
        let count = find misses path ~default:0 in
        est_kernel_ns := !est_kernel_ns +. (float_of_int count *. Stats.mean ms *. 1e6);
        Report.set m ("core.jobs." ^ path) (float_of_int count);
        Report.set m ("core.solve_ms." ^ path ^ ".p50") (Stats.percentile ms 50.0);
        Report.set m ("core.solve_ms." ^ path ^ ".p99") (Stats.percentile ms 99.0))
      Gate.paths;
    Report.set m "pool.busy_share"
      (grew "pool.task.duration_ns"
      /. (float_of_int spec.workers *. wall_s *. 1e9));
    Report.set m "serve.reqs_per_tick"
      (requests /. Float.max 1.0 (grew "serve.ticks"));
    Report.set m "serve.rtt_idle_us" rtt_idle_us;
    Report.set m "serve.refused" (grew "serve.refused");
    Report.set m "latency_p50_ms" (Stats.percentile lat 50.0);
    Report.set m "latency_p99_ms" (Stats.percentile lat 99.0);
    Report.set m "latency_samples" (float_of_int (Array.length lat));
    Report.set m "loadgen.late_ms_p99" late_p99;
    Report.set m "trace.overhead_share"
      (span_cost_ns *. float_of_int (2 * r.received) /. (wall_s *. 1e9));
    (* Shares of the summed due-to-reply latency. *)
    let total = Array.fold_left ( +. ) 0.0 lat *. 1e6 in
    let share ns = ns /. total in
    let tot_ns name = float_of_int (get name).total_ns in
    let protocol = tot_ns "protocol.decode" +. tot_ns "protocol.encode" in
    let loadgen = Array.fold_left ( +. ) 0.0 late *. 1e6 in
    let analysis = tot_ns "analysis.parse" and canon = tot_ns "canon.normalize" in
    Report.set m "share.protocol" (share protocol);
    Report.set m "share.analysis" (share analysis);
    Report.set m "share.canon" (share canon);
    Report.set m "share.core" (share !est_kernel_ns);
    Report.set m "share.serve"
      (share (total -. protocol -. analysis -. canon -. !est_kernel_ns -. loadgen));
    ignore q;
    { Report.metrics = m; gate; attempted = n; valid; notes; spans = Some sp }
  end
