(* relpipe command-line interface.

   Subcommands:
     describe     classify a platform and say which algorithm applies
     solve        solve a bi-criteria mapping problem from an instance file
     exact        run the exact kernels serial/parallel, optionally certified
     cert         independently check an optimality certificate
     simulate     Monte-Carlo-validate a solved mapping
     pareto       print the latency/reliability trade-off front
     eval         evaluate and certify a user-supplied mapping
     tri          minimize failure under latency and period bounds
     goodput      solve, then measure goodput over simulated missions
     experiments  regenerate every paper experiment (E1-E24)
     catalog      list the built-in platform presets or export one
     lint         diagnose an instance file (spans, rule IDs)
     batch        answer a JSONL stream of solve requests (cached, parallel)
     serve        daemon: the batch protocol over Unix/TCP sockets
     call         scripted client for a running serve daemon
     prof         per-phase span/metric breakdown of one solve
     sweep        generate synthetic scenarios and batch-solve them
     atlas        stream a seeded Zipf/bursty workload with online aggregation
     fuzz         differential fuzzing campaign over the solver oracles
     devlint      source linter: compare, determinism, race, obs-name rules
     churn        replay live platform churn with warm-started re-solving
     demo         write a sample instance file (the paper's Fig. 5) *)

open Cmdliner
open Relpipe_model
open Relpipe_core
module Service = Relpipe_service
module Serve = Relpipe_serve
module Pool = Relpipe_pool.Pool
module Table = Relpipe_util.Table
module Obs = Relpipe_obs.Obs

(* ------------------------------------------------------------------ *)
(* The front-end layer every subcommand goes through: loading, solving,
   reading, writing, workers and observability sinks.  Each failure
   comes back as [Error msg], which a subcommand ends with as
   "relpipe: msg" (exit 124) — never as an uncaught exception.        *)
(* ------------------------------------------------------------------ *)

(* Subcommand bodies chain [(_, string) result] steps with this bind. *)
let ( let* ) r f = match r with Ok x -> f x | Error msg -> `Error (false, msg)

(* Statuses other than cmdliner's (lint severities, rejected
   certificates, failed fuzz oracles). *)
let exit_with = function
  | 0 -> `Ok ()
  | code ->
      Format.print_flush ();
      flush stdout;
      Stdlib.exit code

let cmd ?man name ~doc term = Cmd.v (Cmd.info name ~doc ?man) (Term.ret term)

let opt_arg ?docv conv names default doc =
  Arg.value (Arg.opt conv default (Arg.info names ?docv ~doc))

let flag_arg names doc = Arg.(value & flag & info names ~doc)

let seed_arg ?(names = [ "s"; "seed" ]) ?(doc = "Random seed.") default =
  opt_arg Arg.int names default doc

(* Parse failures are rendered through the Relpipe_analysis spans
   ("path:line:col: error[RP-P001]: ..."), exactly like `relpipe lint`. *)
let load_instance path = Relpipe_analysis.Analysis.load_instance_file path

(* The one solve, over the typed Solver.run. *)
let solve ~method_ inst objective =
  Result.map_error
    (function
      | (Solver.Invalid_instance _ | Solver.Invalid_objective _) as e ->
          "Solver: " ^ Solver.error_to_string e
      | Solver.Not_applicable msg | Solver.Too_large msg -> msg)
    (Solver.run ~method_ inst objective)

let print_solution inst (s : Solution.t) =
  Format.printf "mapping:  %a@." Mapping.pp s.Solution.mapping;
  Format.printf "latency:  %g@." s.Solution.evaluation.Instance.latency;
  Format.printf "failure:  %g@." s.Solution.evaluation.Instance.failure;
  Format.printf "class:    %s@." (Solver.describe inst)

let print_infeasible objective =
  Format.printf "no feasible mapping for %a@." Instance.pp_objective objective

(* For the commands that go on to run the mapping they solved. *)
let solve_to_run ~method_ inst objective =
  match solve ~method_ inst objective with
  | Error _ as e -> e
  | Ok None -> Error "no feasible mapping to simulate"
  | Ok (Some s) ->
      print_solution inst s;
      Ok s

(* I/O failures come back as the Sys_error text. *)
let sys_result f =
  match f () with x -> Ok x | exception Sys_error msg -> Error msg

let read_file path =
  sys_result (fun () -> In_channel.with_open_text path In_channel.input_all)

(* [-] is stdin. *)
let read_lines = function
  | "-" -> sys_result (fun () -> In_channel.input_lines stdin)
  | path ->
      sys_result (fun () ->
          In_channel.with_open_text path In_channel.input_lines)

(* Write failures (unwritable path, ENOSPC, a closed pipe) name the
   path, and never leave a silently truncated file. *)
let guard_write name write =
  Result.map_error
    (Printf.sprintf "cannot write %s: %s" name)
    (sys_result write)

let write_file ?name path f =
  guard_write (Option.value name ~default:path) (fun () ->
      (* Flush inside the guarded region: with_open_text closes with
         close_noerr, which would swallow an ENOSPC at close time. *)
      Out_channel.with_open_text path (fun oc ->
          f oc;
          Out_channel.flush oc))

(* [-] is stdout. *)
let with_output path f =
  if path <> "-" then write_file path f
  else
    guard_write "stdout" (fun () ->
        f stdout;
        flush stdout)

let output_lines lines oc =
  List.iter
    (fun line ->
      Out_channel.output_string oc line;
      Out_channel.output_char oc '\n')
    lines

(* Certificates are written before the self-check, so a rejected one is
   still on disk for inspection. *)
let emit_certificate ~path inst cert =
  match
    write_file ~name:("certificate " ^ path) path (fun oc ->
        Out_channel.output_string oc (Relpipe_cert.Cert.to_string cert))
  with
  | Error _ as e -> e
  | Ok () -> (
      match Relpipe_cert.Check.check inst cert with
      | Ok entries ->
          Format.printf "certificate: %s (%d entries, checker accepted)@."
            path entries;
          Ok ()
      | Error msg ->
          Error
            (Printf.sprintf "certificate self-check rejected %s: %s" path msg))

let print_table ?aligns headers rows =
  let table = Table.create ?aligns headers in
  List.iter (Table.add_row table) rows;
  Table.print table

(* lint --rules and devlint --list-rules. *)
let print_rule_catalog ~group rows =
  print_table
    ~aligns:Table.[ Left; Left; Left; Left ]
    [ "id"; "severity"; group; "title" ]
    rows

(* 0 (or less) means every CPU; the count is capped to the CPUs unless
   --exact-workers asks for oversubscription. *)
let resolve_workers ~exact_workers workers =
  Pool.effective_workers ~cap:(not exact_workers)
    (if workers <= 0 then Pool.cpu_count () else workers)

let make_engine ?obs ?(cache_shards = 1) ~workers ~exact_workers ~cache_size ()
    =
  Service.Engine.create ?obs
    ~workers:(resolve_workers ~exact_workers workers)
    ~cap_to_cpus:false ~cache_capacity:cache_size ~cache_shards ()

let finish_batch engine stats =
  if stats then
    Format.eprintf "%a@." Service.Engine.pp_stats (Service.Engine.stats engine)

let make_obs ~tracing ~virtual_clock =
  let clock =
    if virtual_clock then Relpipe_obs.Clock.virtual_ ()
    else Relpipe_obs.Clock.monotonic ()
  in
  Obs.create ~tracing ~clock ()

let open_sink = function
  | None -> Ok None
  | Some path ->
      sys_result (fun () -> Some (path, Out_channel.open_text path))

let close_sink = Option.iter (fun (_, oc) -> Out_channel.close_noerr oc)

let write_sink sink content =
  match sink with
  | None -> Ok ()
  | Some (path, oc) ->
      guard_write path (fun () ->
          Out_channel.output_string oc content;
          Out_channel.close oc)

(* The --metrics/--trace files are opened before any solving, so a bad
   path fails the command instead of discarding a finished run.  [k]
   gets the registry (when either file is asked for) and a function
   that writes both files. *)
let with_obs_sinks ~virtual_clock ~metrics ~trace k =
  let* metrics_sink = open_sink metrics in
  match open_sink trace with
  | Error msg ->
      close_sink metrics_sink;
      `Error (false, msg)
  | Ok trace_sink ->
      let obs =
        if Option.is_none metrics_sink && Option.is_none trace_sink then None
        else
          Some (make_obs ~tracing:(Option.is_some trace_sink) ~virtual_clock)
      in
      let write_obs () =
        match obs with
        | None -> Ok ()
        | Some o ->
            Result.bind
              (write_sink metrics_sink (Obs.metrics_jsonl o))
              (fun () -> write_sink trace_sink (Obs.trace_jsonl o))
      in
      Fun.protect
        ~finally:(fun () ->
          close_sink metrics_sink;
          close_sink trace_sink)
        (fun () -> k obs write_obs)

let endpoints unix_path tcp_port host =
  Option.to_list (Option.map (fun p -> `Unix p) unix_path)
  @ Option.to_list (Option.map (fun port -> `Tcp (host, port)) tcp_port)

let connect endpoint =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  match Serve.Client.connect endpoint with
  | c -> Ok c
  | exception Unix.Unix_error (e, _, _) ->
      Error ("connect: " ^ Unix.error_message e)

(* ------------------------------------------------------------------ *)
(* Shared arguments                                                    *)
(* ------------------------------------------------------------------ *)

let instance_arg =
  let doc = "Instance description file (see `relpipe demo` for the format)." in
  Arg.(required & opt (some file) None & info [ "i"; "instance" ] ~doc)

let objective_arg =
  let max_latency =
    opt_arg Arg.(some float) [ "L"; "max-latency" ] None
      "Minimize failure probability subject to this latency bound."
  in
  let max_failure =
    opt_arg Arg.(some float) [ "F"; "max-failure" ] None
      "Minimize latency subject to this failure-probability bound."
  in
  let combine l f =
    match l, f with
    | Some max_latency, None -> Ok (Instance.Min_failure { max_latency })
    | None, Some max_failure -> Ok (Instance.Min_latency { max_failure })
    | _ -> Error "pass exactly one of --max-latency or --max-failure"
  in
  Term.(term_result' (const combine $ max_latency $ max_failure))

let method_arg =
  let methods = Service.Protocol.method_names in
  opt_arg (Arg.enum methods) [ "m"; "method" ] Solver.Auto
    (Printf.sprintf "Solving method: %s."
       (String.concat ", " (List.map fst methods)))

let workers_arg =
  opt_arg Arg.int [ "w"; "workers" ] 0
    "Worker domains for the solve phase (0 = all CPUs).  Clamped to the \
     detected CPU count unless $(b,--exact-workers) is set."

let exact_workers_arg =
  flag_arg [ "exact-workers" ]
    "Spawn exactly the requested number of domains, even beyond the CPU \
     count (oversubscription; used by tests to exercise scheduling on \
     small machines).  Output is byte-identical either way."

let cache_size_arg =
  opt_arg Arg.int [ "cache-size" ] 1024
    "Result-cache capacity (canonical instances; 0 disables)."

let stats_flag =
  flag_arg [ "stats" ]
    "Print engine and cache counters to stderr after the batch."

let output_arg =
  opt_arg Arg.string [ "o"; "output" ] "-"
    "Write JSONL responses here ($(b,-) = stdout)."

let metrics_arg =
  opt_arg ~docv:"FILE" Arg.(some string) [ "metrics" ] None
    "Write a JSONL metric snapshot here after the batch."

let trace_arg =
  opt_arg ~docv:"FILE" Arg.(some string) [ "trace" ] None
    "Write the JSONL span/event trace here after the batch."

let virtual_clock_flag =
  flag_arg [ "virtual-clock" ]
    "Timestamp metrics and traces with a deterministic virtual clock \
     (fixed tick per reading) instead of the monotonic clock, so the \
     files are byte-identical across runs and worker counts."

let unix_sock_arg =
  opt_arg ~docv:"PATH" Arg.(some string) [ "unix" ] None
    "Listen on (or connect to) this Unix-domain socket path."

let tcp_port_arg =
  opt_arg ~docv:"PORT" Arg.(some int) [ "tcp" ] None
    "Listen on (or connect to) this TCP port (0 picks a free port)."

let host_arg = opt_arg Arg.string [ "host" ] "127.0.0.1" "Host for $(b,--tcp)."

let format_arg =
  opt_arg
    (Arg.enum [ ("text", `Text); ("json", `Json) ])
    [ "format" ] `Text "Output format: text or json."

(* ------------------------------------------------------------------ *)
(* Single-instance commands                                            *)
(* ------------------------------------------------------------------ *)

let describe_cmd =
  let run path =
    let* inst = load_instance path in
    let platform = inst.Instance.platform in
    Format.printf "pipeline: %d stages, total work %g@."
      (Pipeline.length inst.Instance.pipeline)
      (Pipeline.total_work inst.Instance.pipeline);
    Format.printf "platform: %d processors@." (Platform.size platform);
    Format.printf "classes:  %a, %a@." Classify.pp_comm_class
      (Classify.comm_class platform)
      Classify.pp_failure_class
      (Classify.failure_class platform);
    Format.printf "dispatch: %s@." (Solver.describe inst);
    `Ok ()
  in
  cmd "describe"
    ~doc:"Classify an instance and report the applicable algorithm."
    Term.(const run $ instance_arg)

let solve_cmd =
  let certify_arg =
    opt_arg ~docv:"FILE" Arg.(some string) [ "certify" ] None
      "Write an optimality certificate (a replayable branch-and-bound \
       transcript) to $(docv) and replay it through the independent \
       checker before reporting.  Forces the exact branch-and-bound \
       solver; the answer is bit-identical to the uncertified solve."
  in
  let run path objective method_ certify =
    let* inst = load_instance path in
    let* best =
      match certify with
      | None -> solve ~method_ inst objective
      | Some cert_path -> (
          match Certify.bb inst objective with
          | best, cert ->
              Result.map
                (fun () -> best)
                (emit_certificate ~path:cert_path inst cert)
          | exception Invalid_argument msg -> Error msg)
    in
    (match best with
    | Some s -> print_solution inst s
    | None -> print_infeasible objective);
    `Ok ()
  in
  cmd "solve" ~doc:"Solve a bi-criteria mapping problem."
    Term.(const run $ instance_arg $ objective_arg $ method_arg $ certify_arg)

(* --- exact: the parallel/serial exact kernels, head to head --------- *)

let exact_cmd =
  let leg_arg =
    opt_arg ~docv:"LEG"
      (Arg.enum [ ("bb", `Bb); ("dp", `Dp) ])
      [ "leg" ] `Bb
      "Exact kernel to run: $(b,bb) (branch and bound, full bi-criteria \
       objective) or $(b,dp) (interval DP, unreplicated minimum latency; \
       the objective bound is ignored)."
  in
  let workers_arg =
    opt_arg ~docv:"N" Arg.(some int) [ "w"; "workers" ] None
      "Run the parallel kernel over this many pool domains.  The answer \
       is bit-identical to $(b,--serial) at every worker count — diff the \
       outputs to check."
  in
  let serial_flag =
    flag_arg [ "serial" ]
      "Run the serial kernel (the default)."
  in
  let certify_arg =
    opt_arg ~docv:"FILE" Arg.(some string) [ "certify" ] None
      "Write the optimality certificate for the chosen leg to $(docv) and \
       replay it through the independent checker."
  in
  (* Hex floats alongside %g so serial-vs-parallel runs can be compared
     byte-for-byte (tools/check.sh does exactly that). *)
  let print_exact latency failure mapping =
    Format.printf "mapping:  %a@." Mapping.pp mapping;
    Format.printf "latency:  %g (%h)@." latency latency;
    match failure with
    | None -> ()
    | Some f -> Format.printf "failure:  %g (%h)@." f f
  in
  let run path objective leg workers serial certify =
    if Option.is_some workers && serial then
      `Error (true, "pass at most one of --workers and --serial")
    else
      let* inst = load_instance path in
      let certificate emit =
        match certify with
        | None -> Ok ()
        | Some cert_path -> (
            match emit () with
            | None -> Error "nothing to certify: no feasible mapping"
            | Some cert -> emit_certificate ~path:cert_path inst cert)
      in
      match leg with
      | `Bb ->
          (match
             match workers with
             | None -> Bb.solve inst objective
             | Some w -> Bb.solve_par ~workers:w inst objective
           with
          | Some s ->
              print_exact s.Solution.evaluation.Instance.latency
                (Some s.Solution.evaluation.Instance.failure)
                s.Solution.mapping
          | None -> print_infeasible objective);
          let* () =
            certificate (fun () -> Some (snd (Certify.bb inst objective)))
          in
          `Ok ()
      | `Dp when Platform.size inst.Instance.platform > Interval_exact.max_procs
        ->
          `Error
            ( false,
              Printf.sprintf "interval DP supports at most %d processors"
                Interval_exact.max_procs )
      | `Dp ->
          (match
             match workers with
             | None -> Interval_exact.min_latency inst
             | Some w -> Interval_exact.min_latency_par ~workers:w inst
           with
          | Some (latency, mapping) -> print_exact latency None mapping
          | None -> Format.printf "no interval mapping@.");
          let* () = certificate (fun () -> snd (Certify.interval inst)) in
          `Ok ()
  in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Runs one exact kernel directly: $(b,--leg bb) is the bi-criteria \
         branch and bound, $(b,--leg dp) the unreplicated interval DP.  \
         With $(b,-w N) the parallel twin runs over N pool domains; the \
         printed answer (including the hex float bits) is bit-identical \
         to the serial kernel at every worker count, so piping two runs \
         through $(b,diff) is a real determinism check.";
      `P
        "$(b,--certify FILE) additionally emits an optimality certificate \
         — a replayable search transcript for bb, a potential-function \
         table for dp — and replays it through the independent checker in \
         lib/cert, which shares no solver code.  $(b,relpipe cert) \
         re-checks a stored certificate later.";
    ]
  in
  cmd "exact" ~man
    ~doc:"Run the exact kernels, serial or parallel, optionally certified."
    Term.(
      const run $ instance_arg $ objective_arg $ leg_arg $ workers_arg
      $ serial_flag $ certify_arg)

(* --- cert: independent certificate checking ------------------------ *)

let cert_cmd =
  let cert_file_arg =
    let doc = "Certificate file written by solve/exact $(b,--certify)." in
    Arg.(required & pos 0 (some file) None & info [] ~docv:"CERTFILE" ~doc)
  in
  let run path cert_path =
    let* inst = load_instance path in
    match Result.bind (read_file cert_path) Relpipe_cert.Cert.of_string with
    | Error msg ->
        Format.eprintf "%s: unreadable certificate: %s@." cert_path msg;
        exit_with 1
    | Ok cert -> (
        match Relpipe_cert.Check.check inst cert with
        | Ok entries ->
            Format.printf "%s: accepted (%d entries)@." cert_path entries;
            `Ok ()
        | Error msg ->
            Format.eprintf "%s: REJECTED: %s@." cert_path msg;
            exit_with 1)
  in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Replays a certificate written by $(b,relpipe solve --certify) or \
         $(b,relpipe exact --certify) through the independent checker in \
         lib/cert.  The checker shares no code with the solvers: it \
         re-walks the branch-and-bound transcript (re-deriving every \
         bound and justifying every cut) or re-verifies the DP table as a \
         potential function, and binds the certificate to the instance \
         via its digest.";
      `P "Exit status is 1 when the certificate is rejected, 0 otherwise.";
    ]
  in
  cmd "cert" ~man ~doc:"Check an optimality certificate against an instance."
    Term.(const run $ instance_arg $ cert_file_arg)

let simulate_cmd =
  let trials_arg =
    opt_arg Arg.int [ "t"; "trials" ] 10_000 "Number of Monte-Carlo trials."
  in
  let run path objective method_ trials seed =
    let* inst = load_instance path in
    let* s = solve_to_run ~method_ inst objective in
    let rng = Relpipe_util.Rng.create seed in
    let r =
      Relpipe_sim.Montecarlo.estimate rng inst s.Solution.mapping ~trials
        ~policy:Relpipe_sim.Trial.Optimistic
    in
    Format.printf "%a@." Relpipe_sim.Montecarlo.pp_result r;
    `Ok ()
  in
  cmd "simulate"
    ~doc:"Solve, then validate the mapping by Monte-Carlo simulation."
    Term.(
      const run $ instance_arg $ objective_arg $ method_arg $ trials_arg
      $ seed_arg 42)

let pareto_cmd =
  let count_arg =
    opt_arg Arg.int [ "n"; "points" ] 8 "Number of latency thresholds to sweep."
  in
  let run path method_ count =
    let* inst = load_instance path in
    let exception Failed of string in
    let* front =
      match
        Pareto.front_with
          (fun inst objective ->
            match solve ~method_ inst objective with
            | Ok s -> s
            | Error msg -> raise (Failed msg))
          inst ~count
      with
      | front -> Ok front
      | exception Failed msg -> Error msg
    in
    print_table
      [ "threshold"; "latency"; "failure"; "intervals"; "replicas" ]
      (List.map
         (fun { Pareto.threshold; solution } ->
           let { Solution.mapping; evaluation } = solution in
           [
             Table.fmt_float threshold;
             Table.fmt_float evaluation.Instance.latency;
             Table.fmt_float evaluation.Instance.failure;
             string_of_int (Mapping.num_intervals mapping);
             string_of_int (List.length (Mapping.used_procs mapping));
           ])
         front);
    `Ok ()
  in
  cmd "pareto" ~doc:"Print the latency/reliability Pareto front of an instance."
    Term.(const run $ instance_arg $ method_arg $ count_arg)

let eval_cmd =
  let mapping_arg =
    let doc =
      "Mapping to evaluate, e.g. \"1:0; 2:1,2,3\" (stage range : processor \
       list, intervals separated by ';')."
    in
    Arg.(required & opt (some string) None & info [ "mapping" ] ~doc)
  in
  let run path objective mapping_text =
    let* inst = load_instance path in
    let n = Pipeline.length inst.Instance.pipeline in
    let m = Platform.size inst.Instance.platform in
    let* mapping = Mapping_syntax.parse ~n ~m mapping_text in
    let s = Solution.of_mapping inst mapping in
    print_solution inst s;
    Format.printf "period:   %g@."
      (Period.of_mapping inst.Instance.pipeline inst.Instance.platform mapping);
    let report = Validate.check inst objective s in
    Format.printf "%a@." Validate.pp report;
    if Validate.ok report then `Ok () else `Error (false, "validation failed")
  in
  cmd "eval" ~doc:"Evaluate and certify a user-supplied mapping."
    Term.(const run $ instance_arg $ objective_arg $ mapping_arg)

let tri_cmd =
  let latency_arg =
    let doc = "Latency threshold." in
    Arg.(required & opt (some float) None & info [ "L"; "max-latency" ] ~doc)
  in
  let period_arg =
    let doc = "Period (inverse-throughput) threshold." in
    Arg.(required & opt (some float) None & info [ "P"; "max-period" ] ~doc)
  in
  let exact_arg =
    flag_arg [ "exact" ] "Use the exhaustive solver (small instances only)."
  in
  let run path max_latency max_period exact =
    let* inst = load_instance path in
    let constraints = { Tri.max_latency; max_period } in
    let solve =
      if exact then Tri.exact_min_failure ?budget:None
      else Tri.greedy_min_failure
    in
    match solve inst constraints with
    | None ->
        Format.printf "no mapping satisfies latency <= %g and period <= %g@."
          max_latency max_period;
        `Ok ()
    | Some s ->
        Format.printf "mapping: %a@.%a@." Mapping.pp s.Tri.mapping
          Tri.pp_evaluation s.Tri.evaluation;
        `Ok ()
    | exception Exact.Too_large msg -> `Error (false, msg)
  in
  cmd "tri"
    ~doc:
      "Minimize failure probability under joint latency and period bounds \
       (tri-criteria extension)."
    Term.(const run $ instance_arg $ latency_arg $ period_arg $ exact_arg)

let goodput_cmd =
  let mission_arg =
    opt_arg Arg.float [ "mission" ] 1000.0
      "Mission length (time units); failure rates are derived from each \
       processor's fp over this horizon."
  in
  let trials_arg =
    opt_arg Arg.int [ "t"; "trials" ] 1000 "Number of simulated missions."
  in
  let run path objective method_ mission trials seed =
    let* inst = load_instance path in
    let* s = solve_to_run ~method_ inst objective in
    let platform = inst.Instance.platform in
    let rates =
      Array.init (Platform.size platform) (fun u ->
          Failure_rate.rate_of_fp ~fp:(Platform.failure platform u) ~mission)
    in
    let rng = Relpipe_util.Rng.create seed in
    let goodputs =
      Array.init trials (fun _ ->
          (Relpipe_sim.Lifetime.run rng inst s.Solution.mapping ~rates ~mission)
            .Relpipe_sim.Lifetime.goodput)
    in
    let empirical, analytic =
      Relpipe_sim.Lifetime.survival_estimate rng inst s.Solution.mapping ~rates
        ~mission ~trials
    in
    Format.printf "goodput: %a@." Relpipe_util.Stats.pp_summary
      (Relpipe_util.Stats.summarize goodputs);
    Format.printf "mission survival: empirical %.4f, analytic %.4f@." empirical
      analytic;
    `Ok ()
  in
  cmd "goodput"
    ~doc:
      "Solve, then measure goodput (fraction of the stream completed before \
       a compromise) over simulated missions."
    Term.(
      const run $ instance_arg $ objective_arg $ method_arg $ mission_arg
      $ trials_arg $ seed_arg 42)

let experiments_cmd =
  let only_arg =
    opt_arg Arg.(some string) [ "only" ] None
      "Only run experiments whose title contains this string (e.g. \"E5\")."
  in
  let markdown_arg =
    flag_arg [ "markdown" ]
      "Emit GitHub-flavoured markdown tables."
  in
  let run only markdown =
    let contains needle hay =
      let nl = String.length needle and hl = String.length hay in
      let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
      nl = 0 || go 0
    in
    let selected =
      List.filter
        (fun (title, _) ->
          match only with None -> true | Some s -> contains s title)
        (Relpipe_experiments.Experiments.all ())
    in
    if selected = [] then `Error (false, "no experiment matches")
    else begin
      List.iter
        (fun (title, table) ->
          if markdown then begin
            Printf.printf "## %s\n\n" title;
            print_string (Table.render_markdown table)
          end
          else begin
            print_endline title;
            print_endline (String.make (String.length title) '=');
            Table.print table
          end;
          print_newline ())
        selected;
      `Ok ()
    end
  in
  cmd "experiments" ~doc:"Regenerate the paper experiments (DESIGN.md E1-E24)."
    Term.(const run $ only_arg $ markdown_arg)

let catalog_cmd =
  let module Catalog = Relpipe_workload.Catalog in
  let write_arg =
    opt_arg Arg.(some string) [ "write" ] None
      "Write an instance file combining this preset platform with the JPEG \
       encoder pipeline."
  in
  let out_arg =
    opt_arg Arg.string [ "o"; "output" ] "catalog.relpipe"
      "Output path for --write."
  in
  let run write out =
    match write with
    | None ->
        print_table
          ~aligns:Table.[ Left; Right; Left; Left ]
          [ "name"; "m"; "classes"; "description" ]
          (List.map
             (fun { Catalog.name; description; platform = p } ->
               [
                 name;
                 string_of_int (Platform.size p);
                 Format.asprintf "%a, %a" Classify.pp_comm_class
                   (Classify.comm_class p) Classify.pp_failure_class
                   (Classify.failure_class p);
                 description;
               ])
             Catalog.all);
        `Ok ()
    | Some name -> (
        match Catalog.find name with
        | None -> `Error (false, Printf.sprintf "unknown preset %S" name)
        | Some e ->
            let inst =
              Instance.make
                (Relpipe_workload.Jpeg.pipeline ())
                e.Catalog.platform
            in
            let* () =
              write_file out (fun oc ->
                  Printf.fprintf oc "# %s: %s\n%s" e.Catalog.name
                    e.Catalog.description (Textio.to_string inst))
            in
            Format.printf "wrote %s@." out;
            `Ok ())
  in
  cmd "catalog"
    ~doc:"List the built-in platform presets, or export one as an instance."
    Term.(const run $ write_arg $ out_arg)

let lint_cmd =
  let module A = Relpipe_analysis in
  let file_arg =
    let doc =
      "Instance file to lint.  Omit when using $(b,--rules) or \
       $(b,--builtin)."
    in
    Arg.(value & pos 0 (some file) None & info [] ~docv:"FILE" ~doc)
  in
  let mapping_arg =
    opt_arg Arg.(some string) [ "mapping" ] None
      "Also lint this mapping (e.g. \"1-2:0; 3:1,2\") against the instance."
  in
  let rules_flag = flag_arg [ "rules" ] "Print the rule catalog and exit." in
  let builtin_flag =
    flag_arg [ "builtin" ]
      "Lint the built-in catalog presets and paper scenarios instead of a \
       file."
  in
  let report_text ~file diags =
    if diags = [] then Format.printf "%s: clean@." file
    else
      List.iter (fun d -> Format.printf "%a@." (A.Diagnostic.pp ~file) d) diags
  in
  (* Exit reflects the worst finding: 2 on errors, 1 on warnings, 0
     otherwise (hints are informational). *)
  let finish diags = exit_with (A.Diagnostic.exit_code diags) in
  let builtin_instances () =
    let jpeg = Relpipe_workload.Jpeg.pipeline () in
    List.map
      (fun e ->
        ( "catalog:" ^ e.Relpipe_workload.Catalog.name,
          Instance.make jpeg e.Relpipe_workload.Catalog.platform ))
      Relpipe_workload.Catalog.all
    @ [
        ("scenario:fig34", Relpipe_workload.Scenarios.fig34 ());
        ("scenario:fig5", Relpipe_workload.Scenarios.fig5 ());
        ( "scenario:grid",
          Relpipe_workload.Scenarios.grid_instance (Relpipe_util.Rng.create 7) );
      ]
  in
  let run file format mapping rules builtin =
    if rules then begin
      print_rule_catalog ~group:"pass"
        (List.map
           (fun r ->
             [
               r.A.Rule.id;
               A.Severity.to_string r.A.Rule.severity;
               A.Rule.pass_name r.A.Rule.pass;
               r.A.Rule.title;
             ])
           (A.Analysis.rules ()));
      `Ok ()
    end
    else if builtin then begin
      let diags =
        List.concat_map
          (fun (name, inst) ->
            let ds = A.Analysis.lint_instance inst in
            (match format with `Text -> report_text ~file:name ds | `Json -> ());
            ds)
          (builtin_instances ())
      in
      if format = `Json then
        print_endline (A.Diagnostic.report_to_json ~file:"<builtin>" diags);
      finish diags
    end
    else
      match file with
      | None ->
          `Error (true, "pass an instance FILE (or --rules / --builtin)")
      | Some path ->
          let* text =
            Result.map_error
              (Printf.sprintf "cannot read %s: %s" path)
              (read_file path)
          in
          let instance_diags = A.Analysis.lint_instance_text text in
          let mapping_diags =
            match mapping with
            | None -> []
            | Some mtext -> (
                (* Mapping rules need the instance's shape; skip (with an
                   error already reported) when it does not even parse. *)
                match Textio.parse text with
                | Error _ -> []
                | Ok inst ->
                    let n = Pipeline.length inst.Instance.pipeline in
                    let m = Platform.size inst.Instance.platform in
                    A.Analysis.lint_mapping_text ~n ~m mtext)
          in
          (match format with
          | `Text ->
              report_text ~file:path instance_diags;
              if mapping <> None then
                report_text ~file:"<mapping>" mapping_diags
          | `Json ->
              print_endline
                (A.Diagnostic.report_to_json ~file:path
                   (instance_diags @ mapping_diags)));
          finish (instance_diags @ mapping_diags)
  in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Runs the $(b,relpipe.analysis) diagnostics engine: the instance \
         pass (domain errors, connectivity, dominance), the numeric pass \
         (underflow/absorption hazards) and, with $(b,--mapping), the \
         mapping pass (contiguity, replication, one-port effects).";
      `P
        "Exit status is 2 if any error was reported, 1 if any warning, 0 \
         otherwise.";
    ]
  in
  cmd "lint" ~man
    ~doc:"Statically check an instance (and optionally a mapping)."
    Term.(
      const run $ file_arg $ format_arg $ mapping_arg $ rules_flag
      $ builtin_flag)

(* ------------------------------------------------------------------ *)
(* Batch service                                                       *)
(* ------------------------------------------------------------------ *)

let batch_cmd =
  let input_arg =
    let doc = "JSONL request file ($(b,-) = stdin), one request per line." in
    Arg.(value & pos 0 string "-" & info [] ~docv:"REQUESTS" ~doc)
  in
  let run input output workers exact_workers cache_size stats metrics trace
      virtual_clock =
    with_obs_sinks ~virtual_clock ~metrics ~trace (fun obs write_obs ->
        let* lines = read_lines input in
        let engine = make_engine ?obs ~workers ~exact_workers ~cache_size () in
        let responses = Service.Engine.run_lines engine lines in
        let* () = with_output output (output_lines responses) in
        let* () = write_obs () in
        finish_batch engine stats;
        `Ok ())
  in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Reads one JSON request per line, answers through the \
         $(b,relpipe.service) engine (canonicalization, LRU result cache, \
         Domain worker pool) and writes one JSON response per line, in \
         request order.  Output is deterministic: byte-identical for every \
         worker count.";
      `P
        "Request: {\"v\":1, \"id\":..., \"instance\":TEXT | \
         \"instance_file\":PATH, \"objective\":{\"minimize\":\"failure\", \
         \"max_latency\":L} | {\"minimize\":\"latency\",\"max_failure\":F}, \
         \"method\":NAME, \"budget\":N}.";
      `P
        "Response: {\"v\":1, \"index\":I, \"id\":..., \
         \"cache\":\"hit\"|\"miss\", \"status\":\"ok\"|\"infeasible\"|\
         \"error\", ...}.  Malformed lines yield per-line error responses, \
         never a failed batch.";
      `P
        "$(b,--metrics) and $(b,--trace) record counters, phase spans and \
         per-job timings without changing a single response byte; with \
         $(b,--virtual-clock) the recorded files are themselves \
         byte-deterministic for every worker count.";
    ]
  in
  cmd "batch" ~man ~doc:"Batch-solve a JSON-lines request stream."
    Term.(
      const run $ input_arg $ output_arg $ workers_arg $ exact_workers_arg
      $ cache_size_arg $ stats_flag $ metrics_arg $ trace_arg
      $ virtual_clock_flag)

let prof_cmd =
  let run path objective method_ virtual_clock =
    let* inst = load_instance path in
    let obs = make_obs ~tracing:true ~virtual_clock in
    let engine = Service.Engine.create ~obs ~workers:1 () in
    let r = Service.Engine.solve_instance engine ~method_ inst objective in
    (match r.Service.Protocol.r_outcome with
    | Service.Protocol.Solved { mapping; latency; failure } ->
        Format.printf "status:   solved@.";
        Format.printf "mapping:  %s@." mapping;
        Format.printf "latency:  %g@." latency;
        Format.printf "failure:  %g@." failure
    | Service.Protocol.Infeasible -> Format.printf "status:   infeasible@."
    | Service.Protocol.Failed msg ->
        Format.printf "status:   error (%s)@." msg);
    let module Trace = Relpipe_obs.Trace in
    let module Metric = Relpipe_obs.Metric in
    print_newline ();
    print_table [ "span"; "start_ns"; "dur_ns" ]
      (match obs.Obs.trace with
      | None -> []
      | Some tr ->
          List.filter_map
            (fun (ev : Trace.event) ->
              match ev.Trace.dur with
              | Some d
                when String.starts_with ~prefix:"engine." ev.Trace.name ->
                  let start = string_of_int ev.Trace.ts in
                  Some [ ev.Trace.name; start; string_of_int d ]
              | _ -> None)
            (Trace.events tr));
    print_newline ();
    print_table [ "metric"; "value" ]
      (List.map
         (fun (name, view) ->
           [
             name;
             (match view with
             | Metric.Counter_v v | Metric.Gauge_v v -> string_of_int v
             | Metric.Histogram_v { count; sum } ->
                 Printf.sprintf "n=%d sum=%s" count (Table.fmt_float sum));
           ])
         (Metric.bindings obs.Obs.metrics));
    `Ok ()
  in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Solves one instance through the batch engine with tracing and \
         metrics enabled, then prints the recorded $(b,engine.*) spans \
         (start and duration in nanoseconds) and every counter, gauge and \
         histogram the run touched — DP cell and relaxation counts, \
         branch-and-bound node/prune totals, cache and pool activity.";
      `P
        "With $(b,--virtual-clock) timestamps come from a deterministic \
         tick, so the report is byte-stable across runs and machines — the \
         golden-snapshot tests and $(b,tools/check.sh) pin it \
         byte-for-byte.";
    ]
  in
  cmd "prof" ~man ~doc:"Profile one solve: per-phase spans and solver counters."
    Term.(
      const run $ instance_arg $ objective_arg $ method_arg
      $ virtual_clock_flag)

let sweep_cmd =
  let count_arg =
    opt_arg Arg.int [ "n"; "count" ] 50 "Number of scenarios to generate."
  in
  let class_arg =
    let classes =
      [
        ("fully-hetero", `Fully_hetero);
        ("comm-homog", `Comm_homog);
        ("fully-homog", `Fully_homog);
        ("speed-correlated", `Speed_correlated);
        ("clustered", `Clustered);
        ("two-tier", `Two_tier);
      ]
    in
    opt_arg (Arg.enum classes) [ "class" ] `Fully_hetero
      (Printf.sprintf "Platform class to sample: %s."
         (String.concat ", " (List.map fst classes)))
  in
  let stages_arg =
    opt_arg Arg.int [ "stages" ] 8 "Pipeline length of each scenario."
  in
  let procs_arg =
    opt_arg Arg.int [ "procs" ] 6
      "Platform size of each scenario."
  in
  let emit_arg =
    opt_arg Arg.(some string) [ "emit-requests" ] None
      "Also write the generated requests as JSONL to this file."
  in
  let dry_run_arg =
    flag_arg [ "dry-run" ]
      "Generate (and $(b,--emit-requests)) only; skip solving."
  in
  let gen_platform rng class_ ~m =
    let module P = Relpipe_workload.Plat_gen in
    let module Rng = Relpipe_util.Rng in
    match class_ with
    | `Fully_hetero ->
        P.random_fully_heterogeneous rng ~m ~speed:(1.0, 10.0)
          ~failure:(0.05, 0.6) ~bandwidth:(0.5, 10.0)
    | `Comm_homog ->
        P.random_comm_homogeneous rng ~m ~speed:(1.0, 10.0)
          ~failure:(0.05, 0.6) ~bandwidth:4.0
    | `Fully_homog ->
        P.fully_homogeneous ~m
          ~speed:(Rng.float_range rng 1.0 10.0)
          ~failure:(Rng.float_range rng 0.05 0.6)
          ~bandwidth:(Rng.float_range rng 1.0 10.0)
    | `Speed_correlated ->
        P.speed_correlated_failures rng ~m ~speed:(1.0, 10.0)
          ~failure:(0.05, 0.8) ~bandwidth:4.0
    | `Clustered ->
        P.clustered rng ~clusters:(max 1 (m / 4)) ~cluster_size:4
          ~speed:(1.0, 10.0) ~failure:(0.05, 0.6) ~intra_bandwidth:10.0
          ~inter_bandwidth:1.0 ~io_bandwidth:2.0
    | `Two_tier ->
        P.two_tier ~m_slow:1 ~m_fast:(max 1 (m - 1)) ~slow_speed:1.0
          ~fast_speed:100.0 ~slow_failure:0.1 ~fast_failure:0.8 ~bandwidth:1.0
  in
  let run count seed class_ n m objective method_ output workers exact_workers
      cache_size stats emit dry_run =
    if count <= 0 then `Error (false, "--count must be positive")
    else
      let rng = Relpipe_util.Rng.create seed in
      let requests =
        List.init count (fun k ->
            let pipeline =
              Relpipe_workload.App_gen.random rng
                {
                  Relpipe_workload.App_gen.n;
                  work = (1.0, 20.0);
                  data = (0.5, 10.0);
                }
            in
            let platform = gen_platform rng class_ ~m in
            let inst = Instance.make pipeline platform in
            Service.Protocol.request
              ~id:(Printf.sprintf "sweep-%03d" k)
              ~method_
              ~instance:(Service.Protocol.Inline (Textio.to_string inst))
              objective)
      in
      let* () =
        match emit with
        | None -> Ok ()
        | Some path ->
            write_file path
              (output_lines
                 (List.map Service.Protocol.encode_request requests))
            |> Result.map (fun () ->
                   Format.eprintf "wrote %d requests to %s@." count path)
      in
      if dry_run then `Ok ()
      else
        let engine = make_engine ~workers ~exact_workers ~cache_size () in
        let responses =
          Service.Engine.run_requests engine (Array.of_list requests)
        in
        let* () =
          with_output output
            (output_lines
               (Array.to_list
                  (Array.map Service.Protocol.encode_response responses)))
        in
        finish_batch engine stats;
        `Ok ()
  in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Samples $(b,--count) instances from the $(b,Relpipe_workload) \
         generators (platform class selected with $(b,--class), shape with \
         $(b,--stages)/$(b,--procs)) and batch-solves them with the same \
         cached parallel engine as $(b,relpipe batch), replacing ad-hoc \
         sequential experiment loops.  With $(b,--emit-requests) the \
         generated batch is also written as JSONL, so it can be replayed, \
         diffed across worker counts, or turned into a regression \
         fixture.";
    ]
  in
  cmd "sweep" ~man
    ~doc:"Generate synthetic scenarios and push them through the batch engine."
    Term.(
      const run $ count_arg
      $ seed_arg ~doc:"Random seed for the generators." 42
      $ class_arg $ stages_arg $ procs_arg $ objective_arg $ method_arg
      $ output_arg $ workers_arg $ exact_workers_arg $ cache_size_arg
      $ stats_flag $ emit_arg $ dry_run_arg)

let atlas_cmd =
  let module Stream_gen = Relpipe_workload.Stream_gen in
  let default = Stream_gen.default_spec in
  let requests_arg =
    opt_arg Arg.int [ "n"; "requests" ] 10_000
      "Stream length (number of requests to replay)."
  in
  let pool_arg =
    opt_arg Arg.int [ "pool" ] default.Stream_gen.pool
      "Distinct instances in the workload pool."
  in
  let zipf_arg =
    opt_arg Arg.float [ "zipf" ] default.Stream_gen.zipf_s
      "Zipf skew exponent of slot popularity (0 = uniform)."
  in
  let burst_arg =
    opt_arg Arg.float [ "burst" ] default.Stream_gen.burst
      "Mean arrival burst length (>= 1)."
  in
  let chunk_arg =
    opt_arg Arg.int [ "chunk" ] 512
      "Requests per engine call — the only stream-length-proportional \
       buffer the driver holds."
  in
  let unix_arg =
    opt_arg ~docv:"PATH" Arg.(some string) [ "unix" ] None
      "Stream through a running $(b,relpipe serve) daemon on this Unix \
       socket instead of an in-process engine."
  in
  let gc_stats_flag =
    flag_arg [ "gc-stats" ]
      "Print allocation counters ($(b,Gc.quick_stat)) to stderr after the \
       run — the constant-memory guard in check.sh parses these."
  in
  let daemon_solve c reqs =
    (* Lockstep per request: the daemon answers every line in order, and
       strict call/reply alternation cannot deadlock on full socket
       buffers however large the chunk is. *)
    Array.map
      (fun r ->
        match Serve.Client.call c (Service.Protocol.encode_request r) with
        | None -> failwith "atlas: server closed the stream mid-chunk"
        | Some line -> (
            match Service.Protocol.decode_response line with
            | Ok resp -> resp
            | Error msg -> failwith ("atlas: bad response line: " ^ msg)))
      reqs
  in
  let run requests seed pool zipf burst chunk unix_path output workers
      exact_workers cache_size stats metrics virtual_clock gc_stats =
    let spec = { default with Stream_gen.pool; zipf_s = zipf; burst } in
    match Stream_gen.validate spec with
    | Error msg -> `Error (true, "atlas: " ^ msg)
    | Ok () ->
        with_obs_sinks ~virtual_clock ~metrics ~trace:None (fun obs write_obs ->
            let slots =
              Array.map
                (fun (e : Stream_gen.entry) ->
                  match
                    Service.Protocol.method_of_string e.Stream_gen.method_name
                  with
                  | Ok m ->
                      {
                        Service.Atlas.sl_text = e.Stream_gen.text;
                        sl_objective = e.Stream_gen.objective;
                        sl_method = m;
                        sl_class = e.Stream_gen.plat_class;
                      }
                  | Error msg -> failwith ("atlas: " ^ msg))
                (Stream_gen.pool_entries ~seed spec)
            in
            let source =
              {
                Service.Atlas.slots;
                events =
                  (fun f ->
                    Stream_gen.iter ~seed spec ~n:requests (fun ev ->
                        f
                          {
                            Service.Atlas.ev_index = ev.Stream_gen.ev_index;
                            ev_slot = ev.Stream_gen.ev_slot;
                            ev_gap_ns = ev.Stream_gen.ev_gap_ns;
                          }));
              }
            in
            let* report =
              try
                match unix_path with
                | None ->
                    let engine =
                      make_engine ?obs ~workers ~exact_workers ~cache_size ()
                    in
                    let report =
                      Service.Atlas.run ?obs ~chunk
                        ~solve:(Service.Engine.run_requests engine)
                        source
                    in
                    finish_batch engine stats;
                    Ok report
                | Some path ->
                    Result.map
                      (fun c ->
                        (match
                           Serve.Client.call c
                             (Service.Protocol.encode_control
                                (Service.Protocol.hello ~client:"atlas" ()))
                         with
                        | Some _ -> ()
                        | None -> failwith "atlas: no hello reply");
                        let report =
                          Service.Atlas.run ?obs ~chunk ~solve:(daemon_solve c)
                            source
                        in
                        Serve.Client.finish_sending c;
                        Serve.Client.close c;
                        report)
                      (connect (`Unix path))
              with Failure msg -> Error msg
            in
            let* () = write_obs () in
            if gc_stats then begin
              let st = Gc.quick_stat () in
              Printf.eprintf
                "gc: top_heap_words=%d heap_words=%d minor_collections=%d \
                 major_collections=%d\n\
                 %!"
                st.Gc.top_heap_words st.Gc.heap_words st.Gc.minor_collections
                st.Gc.major_collections
            end;
            let* () =
              with_output output (fun oc ->
                  Out_channel.output_string oc (Service.Atlas.render report))
            in
            `Ok ())
  in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Generates a Zipf-skewed, bursty request stream over a bounded \
         pool of distinct instances (mixed platform classes and solver \
         methods) and streams it through the cached parallel engine — or a \
         live $(b,relpipe serve) daemon with $(b,--unix) — without ever \
         materializing the batch.  Aggregation is fully online (mergeable \
         quantile sketches, exponential smoothing, a bloom-filter \
         duplicate tracker), so peak memory is independent of \
         $(b,--requests).";
      `P
        "The report (outcome counts, cache hit rate and curve, latency \
         percentiles, arrival rates, per-class mix) derives only from \
         response contents and the event sequence, so it is byte-identical \
         at every worker count; the snapshot tests pin it at workers 1, 2 \
         and 8.";
    ]
  in
  cmd "atlas" ~man
    ~doc:"Stream a seeded million-request workload through the engine."
    Term.(
      const run $ requests_arg
      $ seed_arg ~names:[ "seed" ]
          ~doc:"Master seed for the workload (pool, slots and gaps)." 1
      $ pool_arg $ zipf_arg $ burst_arg $ chunk_arg $ unix_arg $ output_arg
      $ workers_arg $ exact_workers_arg $ cache_size_arg $ stats_flag
      $ metrics_arg $ virtual_clock_flag $ gc_stats_flag)

let fuzz_cmd =
  let module Fuzz = Relpipe_fuzz in
  let count_arg =
    opt_arg Arg.int [ "n"; "count" ] 100 "Number of random cases to generate."
  in
  let oracle_arg =
    let doc =
      "Run only this oracle (repeatable; see $(b,--list-oracles))."
    in
    Arg.(value & opt_all string [] & info [ "oracle" ] ~docv:"NAME" ~doc)
  in
  let all_flag =
    flag_arg [ "all-oracles" ]
      "Run every registered oracle (explicit form of the default when no \
       $(b,--oracle) is given; overrides $(b,--oracle))."
  in
  let list_flag =
    flag_arg [ "list-oracles" ]
      "Print the oracle registry and exit."
  in
  let max_stages_arg =
    opt_arg Arg.int [ "max-stages" ]
      Fuzz.Gen.default_shape.Fuzz.Gen.max_stages
      "Largest pipeline length to generate."
  in
  let max_procs_arg =
    opt_arg Arg.int [ "max-procs" ] Fuzz.Gen.default_shape.Fuzz.Gen.max_procs
      "Largest platform size to generate."
  in
  let out_dir_arg =
    opt_arg Arg.(some string) [ "out-dir" ] None
      "Write each minimized counterexample here as a replayable \
       $(b,.relpipe) file."
  in
  let replay_arg =
    let doc =
      "Replay a repro file written by a failing campaign (repeatable); \
       skips generation."
    in
    Arg.(value & opt_all file [] & info [ "replay" ] ~docv:"FILE" ~doc)
  in
  let perturb_arg =
    opt_arg Arg.float [ "perturb" ] 0.0
      "Harness self-test: inject a relative fault of this size into the \
       interval-DP latency, so the $(b,interval-dp) oracle must fail and \
       produce a minimized repro."
  in
  let run seed count oracle_names all_oracles list max_stages max_procs workers
      exact_workers out_dir replays perturb =
    if list then begin
      print_string (Fuzz.Runner.list_oracles_text ());
      `Ok ()
    end
    else if replays <> [] then begin
      let ctx = { Fuzz.Oracle.perturb } in
      let failed = ref false in
      List.iter
        (fun path ->
          match Fuzz.Corpus.replay_file ~ctx path with
          | Error msg ->
              failed := true;
              Printf.printf "%s: error: %s\n" path msg
          | Ok outcome ->
              if Fuzz.Oracle.is_fail outcome then failed := true;
              Printf.printf "%s: %s\n" path
                (Fuzz.Oracle.outcome_to_string outcome))
        replays;
      exit_with (if !failed then 1 else 0)
    end
    else begin
      let oracles =
        if all_oracles || oracle_names = [] then Ok (Fuzz.Oracles.all ())
        else
          List.fold_left
            (fun acc name ->
              match acc with
              | Error _ -> acc
              | Ok os -> (
                  match Fuzz.Oracles.find name with
                  | Some o -> Ok (os @ [ o ])
                  | None ->
                      Error
                        (Printf.sprintf
                           "unknown oracle %S (try --list-oracles)" name)))
            (Ok []) oracle_names
      in
      match oracles with
      | Error msg -> `Error (false, msg)
      | Ok _ when count < 0 -> `Error (false, "--count must be non-negative")
      | Ok _ when max_stages < 1 || max_procs < 1 ->
          `Error (false, "--max-stages and --max-procs must be positive")
      | Ok oracles ->
          let report =
            Fuzz.Runner.run
              {
                Fuzz.Runner.seed;
                count;
                oracles;
                max_stages;
                max_procs;
                workers = resolve_workers ~exact_workers workers;
                perturb;
                out_dir;
                obs = None;
              }
          in
          print_string (Fuzz.Runner.render report);
          exit_with (if report.Fuzz.Runner.r_failures <> [] then 1 else 0)
    end
  in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Generates seeded random instances across the paper's three \
         platform classes and checks a registry of invariants: exact-DP \
         vs brute-force agreement, shortest-path bounds, heuristic Pareto \
         dominance, validator/lint acceptance, canonicalization symmetry \
         and print/parse round-trips ($(b,--list-oracles) for the full \
         list).";
      `P
        "Campaigns are byte-deterministic: the report depends only on the \
         configuration, never on the worker count.  On failure the \
         offending instance is delta-shrunk (stages and processors \
         dropped, costs rounded) to a minimal repro, printed inline and, \
         with $(b,--out-dir), written as a $(b,.relpipe) file that \
         $(b,--replay) re-checks.";
      `P "Exit status is 1 when any oracle failed, 0 otherwise.";
    ]
  in
  cmd "fuzz" ~man
    ~doc:
      "Differential fuzzing: random instances, cross-checking oracles, \
       delta-shrinking."
    Term.(
      const run
      $ seed_arg
          ~doc:"Master seed; the whole campaign is a pure function of it." 42
      $ count_arg $ oracle_arg $ all_flag $ list_flag $ max_stages_arg
      $ max_procs_arg $ workers_arg $ exact_workers_arg $ out_dir_arg
      $ replay_arg $ perturb_arg)

let devlint_cmd =
  let module DL = Relpipe_devlint in
  let module A = Relpipe_analysis in
  let paths_arg =
    let doc =
      "Files or directories to analyze.  Defaults to lib bin bench test \
       (run from the repository root)."
    in
    Arg.(value & pos_all string [] & info [] ~docv:"PATH" ~doc)
  in
  let list_rules_flag =
    flag_arg [ "list-rules" ] "Print the source-rule catalog and exit."
  in
  let baseline_arg =
    opt_arg ~docv:"FILE" Arg.(some file) [ "baseline" ] None
      "Baseline file of vetted exceptions (default: devlint.baseline when \
       it exists)."
  in
  let no_baseline_flag =
    flag_arg [ "no-baseline" ]
      "Ignore any baseline file."
  in
  let family_arg =
    let doc =
      "Run only this rule family (repeatable): compare, determinism, race, \
       obs-names."
    in
    Arg.(value & opt_all string [] & info [ "family" ] ~docv:"FAMILY" ~doc)
  in
  let default_roots = [ "lib"; "bin"; "bench"; "test" ] in
  let run paths format list_rules baseline no_baseline families =
    let known = List.map fst DL.Driver.passes in
    let roots =
      if paths <> [] then paths else List.filter Sys.file_exists default_roots
    in
    if list_rules then begin
      print_rule_catalog ~group:"family"
        (List.map
           (fun (r : DL.Drule.t) ->
             [
               r.DL.Drule.id;
               A.Severity.to_string r.DL.Drule.severity;
               r.DL.Drule.family;
               r.DL.Drule.title;
             ])
           (DL.Driver.rules ()));
      `Ok ()
    end
    else
      match List.find_opt (fun f -> not (List.mem f known)) families with
      | Some f ->
          `Error
            ( false,
              Printf.sprintf "unknown rule family %S (known: %s)" f
                (String.concat ", " known) )
      | None when roots = [] ->
          `Error
            ( false,
              "none of lib/ bin/ bench/ test/ exist here; run from the \
               repository root or pass paths" )
      | None ->
          let* baseline =
            Result.map_error (( ^ ) "baseline: ")
              (if no_baseline then Ok DL.Baseline.empty
               else
                 match baseline with
                 | Some path -> DL.Baseline.load path
                 | None ->
                     if Sys.file_exists "devlint.baseline" then
                       DL.Baseline.load "devlint.baseline"
                     else Ok DL.Baseline.empty)
          in
          let report = DL.Driver.run_paths ~baseline ~families roots in
          (match format with
          | `Text -> print_string (DL.Driver.render_text report)
          | `Json -> print_endline (DL.Driver.render_json report));
          exit_with (DL.Driver.exit_code report)
  in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Parses every .ml file under the given roots with the compiler's \
         own parser and runs the relpipe.devlint rule registry: the \
         compare family (polymorphic compare / float equality — the \
         AST-grounded replacement for the old tools/forbid.sh grep), the \
         determinism family (ambient randomness, wall-clock reads, \
         Domain.self, unordered Hashtbl iteration), the race family \
         (unsynchronized writes captured by Relpipe_pool.Pool / \
         Domain.spawn closures) and the obs-names family (metric/span name contract).";
      `P
        "Vetted exceptions live in a baseline file (one \"RULE-ID \
         PATH[:LINE] [-- reason]\" per line) or as in-source \
         \"(* devlint: allow RULE-ID — reason *)\" comments covering \
         their own line and the next.";
      `P
        "Exit status is 2 if any error survives, 1 if any warning, 0 \
         otherwise (hints are informational).";
    ]
  in
  cmd "devlint" ~man
    ~doc:"Statically analyze the repository's own OCaml sources."
    Term.(
      const run $ paths_arg $ format_arg $ list_rules_flag $ baseline_arg
      $ no_baseline_flag $ family_arg)

(* ------------------------------------------------------------------ *)
(* Serve daemon and its client                                         *)
(* ------------------------------------------------------------------ *)

let sockaddr_to_string = function
  | Unix.ADDR_UNIX p -> "unix:" ^ p
  | Unix.ADDR_INET (a, p) ->
      Printf.sprintf "tcp:%s:%d" (Unix.string_of_inet_addr a) p

let serve_cmd =
  let queue_arg =
    opt_arg Arg.int [ "queue-size" ] 256
      "Global admission-queue bound; readers block (backpressure) when \
       the dispatcher is this many events behind."
  in
  let window_arg =
    opt_arg Arg.int [ "session-window" ] 32
      "Per-session in-flight window: a session's reader blocks while \
       this many of its lines are unanswered or unwritten."
  in
  let shards_arg =
    opt_arg Arg.int [ "cache-shards" ] 4
      "Shards of the result cache (per-shard locks; concurrent sessions \
       contend less).  Replays must use the recording's shard count."
  in
  let record_arg =
    opt_arg ~docv:"FILE" Arg.(some string) [ "record" ] None
      "Append every dispatch batch to this $(b,.session) transcript, \
       replayable with $(b,--replay)."
  in
  let replay_arg =
    opt_arg ~docv:"FILE" Arg.(some file) [ "replay" ] None
      "Replay a recorded $(b,.session) transcript instead of listening; \
       prints each reply as \"SESSION<TAB>LINE\" to $(b,-o).  With \
       $(b,--virtual-clock) the output is byte-identical for every \
       $(b,-w)."
  in
  let run unix_path tcp_port host queue window shards record replay output
      workers exact_workers cache_size stats virtual_clock =
    let engine () =
      let obs = make_obs ~tracing:false ~virtual_clock in
      ( obs,
        make_engine ~obs ~cache_shards:shards ~workers ~exact_workers
          ~cache_size () )
    in
    let endpoints =
      List.map
        (function
          | `Unix p -> Serve.Server.Unix_sock p
          | `Tcp (h, port) -> Serve.Server.Tcp (h, port))
        (endpoints unix_path tcp_port host)
    in
    if shards < 1 then `Error (false, "--cache-shards must be positive")
    else
      match replay with
      | Some path ->
          let* script = Serve.Script.load path in
          let obs, engine = engine () in
          let replies = Serve.Replay.run ~obs ~engine script in
          let* () =
            with_output output (fun oc ->
                Out_channel.output_string oc (Serve.Replay.render replies))
          in
          finish_batch engine stats;
          `Ok ()
      | None when endpoints = [] ->
          `Error (true, "pass --unix PATH and/or --tcp PORT (or --replay FILE)")
      | None ->
          let obs, engine = engine () in
          let config =
            {
              Serve.Server.endpoints;
              queue_capacity = queue;
              session_window = window;
              max_line = Serve.Frame.default_max_line;
              record;
            }
          in
          (* A Signal_handle callback only runs at an OCaml safepoint, and
             an idle daemon has every thread parked in C waits — the
             handler could be delayed forever.  Block the signals in every
             thread (the mask is inherited) and receive them synchronously
             on a dedicated thread instead. *)
          ignore (Thread.sigmask Unix.SIG_BLOCK [ Sys.sigterm; Sys.sigint ]);
          let (_ : Thread.t) =
            Thread.create
              (fun () ->
                ignore (Thread.wait_signal [ Sys.sigterm; Sys.sigint ]);
                Serve.Server.signal_drain ())
              ()
          in
          let on_ready addrs =
            List.iter
              (fun a ->
                Format.eprintf "listening on %s@." (sockaddr_to_string a))
              addrs
          in
          let report = Serve.Server.run ~obs ~engine ~config ~on_ready () in
          Format.eprintf "drained: %d sessions, %d ticks, %d replies@."
            report.Serve.Server.accepted report.Serve.Server.ticks
            report.Serve.Server.answered;
          finish_batch engine stats;
          `Ok ()
  in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Listens on a Unix socket and/or TCP port and answers the \
         $(b,relpipe batch) JSONL protocol, multiplexing every connected \
         session onto one shared engine (result cache included) and its \
         Domain worker pool.  Sessions start with a \
         {\"v\":1,\"op\":\"hello\"} handshake; \"stats\" renders the live \
         metric registry; \"shutdown\" — or SIGTERM — drains: the server \
         stops accepting, answers everything already admitted, flushes \
         and exits 0.";
      `P
        "Backpressure is two-stage (per-session window, global admission \
         queue), so a slow or flooding client never stalls the solver \
         pool.";
      `P
        "With $(b,--record) the daemon writes a $(b,.session) transcript \
         of every dispatch batch; $(b,--replay) pushes a transcript back \
         through the same deterministic core, producing byte-identical \
         replies for every worker count under $(b,--virtual-clock) — the \
         CI gate diffs $(b,-w 1) against $(b,-w 8).";
    ]
  in
  cmd "serve" ~man
    ~doc:"Serve the batch protocol to concurrent clients (daemon)."
    Term.(
      const run $ unix_sock_arg $ tcp_port_arg $ host_arg $ queue_arg
      $ window_arg $ shards_arg $ record_arg $ replay_arg $ output_arg
      $ workers_arg $ exact_workers_arg $ cache_size_arg $ stats_flag
      $ virtual_clock_flag)

let call_cmd =
  let input_arg =
    let doc = "JSONL request file ($(b,-) = stdin), one line per request." in
    Arg.(value & pos 0 string "-" & info [] ~docv:"REQUESTS" ~doc)
  in
  let client_arg =
    opt_arg Arg.string [ "client" ] "relpipe-call"
      "Client name sent in the hello handshake."
  in
  let no_hello_flag =
    flag_arg [ "no-hello" ]
      "Skip the handshake (to exercise the server's hello gate)."
  in
  let op_arg =
    opt_arg ~docv:"OP"
      Arg.(some (enum [ ("stats", `Stats); ("shutdown", `Shutdown) ]))
      [ "op" ] None
      "Send a single control operation instead of reading requests: \
       $(b,stats) or $(b,shutdown)."
  in
  let run unix_path tcp_port host input client no_hello op =
    match endpoints unix_path tcp_port host with
    | [] -> `Error (true, "pass --unix PATH or --tcp PORT")
    | endpoint :: _ ->
        let* request_lines =
          if Option.is_some op then Ok [] else read_lines input
        in
        let* c = connect endpoint in
        let control =
          (if no_hello then [] else [ Service.Protocol.hello ~client () ])
          @
          match op with
          | Some `Stats -> [ Service.Protocol.Stats ]
          | Some `Shutdown -> [ Service.Protocol.Shutdown ]
          | None -> []
        in
        let lines =
          List.map Service.Protocol.encode_control control @ request_lines
        in
        (* Send from a helper thread so deep pipelines cannot deadlock on
           two full socket buffers. *)
        let sender =
          Thread.create
            (fun () ->
              (* A draining server cuts the receive side; stop sending
                 but keep pumping the replies it still owes for
                 everything it admitted. *)
              try
                List.iter (Serve.Client.send c) lines;
                Serve.Client.finish_sending c
              with Unix.Unix_error _ -> ())
            ()
        in
        let rec pump () =
          match Serve.Client.recv c with
          | None -> ()
          | Some line ->
              print_endline line;
              pump ()
        in
        pump ();
        Thread.join sender;
        Serve.Client.close c;
        flush stdout;
        `Ok ()
  in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Connects, performs the hello handshake, streams the given JSONL \
         requests and prints every reply line to stdout — the scripted \
         client the smoke tests drive concurrently.  $(b,--op stats) and \
         $(b,--op shutdown) send a single control message instead.";
    ]
  in
  cmd "call" ~man ~doc:"Send requests to a running $(b,relpipe serve) daemon."
    Term.(
      const run $ unix_sock_arg $ tcp_port_arg $ host_arg $ input_arg
      $ client_arg $ no_hello_flag $ op_arg)

let churn_cmd =
  let module Churn = Relpipe_churn in
  let events_arg =
    opt_arg Arg.int [ "e"; "events" ] 20
      "Number of churn events to generate and replay."
  in
  let mission_arg =
    opt_arg Arg.float [ "mission" ] 1000.0
      "Mission duration feeding the lifetime model that picks death \
       victims."
  in
  let cold_flag =
    flag_arg [ "cold" ]
      "Solve every step from scratch instead of warm-starting.  All \
       solution-derived output is byte-identical to the warm run \
       ($(b,tools/check.sh) diffs the two); only reuse/bound statistics \
       differ."
  in
  let verify_flag =
    flag_arg [ "verify" ]
      "After the run, cold-solve every step's world (in parallel on \
       $(b,--workers) domains) and check the recorded answers \
       bit-for-bit; fail loudly on any mismatch."
  in
  let churn_stats_flag =
    flag_arg [ "stats" ]
      "Append per-step reuse/bound/node/time-to-repair columns."
  in
  let fmt_value = function
    | None -> "infeasible"
    | Some v -> Printf.sprintf "%.17g" v
  in
  let run path objective events seed mission cold verify stats workers
      exact_workers virtual_clock =
    let* inst = load_instance path in
    if Platform.size inst.Instance.platform > Interval_exact.max_procs then
      `Error
        ( false,
          Printf.sprintf "churn needs at most %d processors"
            Interval_exact.max_procs )
    else (
        match Churn.Driver.trace ~mission ~seed ~count:events
                (Churn.World.of_instance inst)
        with
        | exception Invalid_argument msg -> `Error (false, msg)
        | trace ->
            let world = Churn.World.of_instance inst in
            let obs = make_obs ~tracing:false ~virtual_clock in
            let steps = Churn.Engine.run ~obs ~cold ~objective world trace in
            Printf.printf "seed:      %d\n" seed;
            Printf.printf "events:    %d\n" events;
            (match objective with
            | Instance.Min_latency { max_failure } ->
                Printf.printf "objective: min-latency max-failure=%g\n"
                  max_failure
            | Instance.Min_failure { max_latency } ->
                Printf.printf "objective: min-failure max-latency=%g\n"
                  max_latency);
            Printf.printf "\n%-5s %-26s %-5s %-22s %-22s %-22s %s\n" "step"
              "event" "procs" "dp-latency" "latency" "failure" "moved";
            List.iter
              (fun (st : Churn.Engine.step) ->
                let dp_lat = Option.map fst st.Churn.Engine.dp in
                let lat, fail =
                  match st.Churn.Engine.solution with
                  | None -> (None, None)
                  | Some s ->
                      ( Some s.Solution.evaluation.Instance.latency,
                        Some s.Solution.evaluation.Instance.failure )
                in
                Printf.printf "%-5d %-26s %-5d %-22s %-22s %-22s %d"
                  st.Churn.Engine.index st.Churn.Engine.label
                  (Churn.World.size st.Churn.Engine.world)
                  (fmt_value dp_lat) (fmt_value lat) (fmt_value fail)
                  st.Churn.Engine.moved_stages;
                if stats then
                  Printf.printf "  reuse=%d/%d bound=%s nodes=%d ttr=%dns"
                    st.Churn.Engine.reuse.Interval_exact.Dp.cells_reused
                    st.Churn.Engine.reuse.Interval_exact.Dp.cells_total
                    (if st.Churn.Engine.warm_bound then "yes" else "no")
                    st.Churn.Engine.bb_stats.Bb.nodes st.Churn.Engine.ttr_ns;
                print_newline ())
              steps;
            let count kind =
              List.length
                (List.filter
                   (fun (st : Churn.Engine.step) ->
                     match st.Churn.Engine.event with
                     | Some ev -> String.equal (Churn.Event.kind ev) kind
                     | None -> false)
                   steps)
            in
            let total_moved =
              List.fold_left
                (fun acc (st : Churn.Engine.step) ->
                  acc + st.Churn.Engine.moved_stages)
                0 steps
            in
            Printf.printf
              "\nsummary: steps=%d deaths=%d joins=%d speed-drifts=%d \
               bw-drifts=%d moved=%d\n"
              (List.length steps) (count "death") (count "join")
              (count "speed") (count "bandwidth") total_moved;
            (match List.rev steps with
            | last :: _ -> (
                match last.Churn.Engine.solution with
                | Some s ->
                    Format.printf "final:   %a@." Mapping.pp s.Solution.mapping
                | None -> print_string "final:   infeasible\n")
            | [] -> ());
            if verify then begin
              let workers = resolve_workers ~exact_workers workers in
              if Churn.Engine.verify ~obs ~workers ~objective steps then begin
                Printf.printf "verify:  warm == cold on %d steps\n"
                  (List.length steps);
                `Ok ()
              end
              else
                `Error
                  (false, "churn verify failed: warm and cold solves disagree")
            end
            else `Ok ())
  in
  let doc = "Replay a seeded churn scenario with incremental re-solving." in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Generates a deterministic event trace (processor deaths, \
         speed/bandwidth drift, node joins) from one master seed, then \
         re-solves after every event: the interval DP warm-starts from \
         its previous table and branch-and-bound prunes against the \
         surviving incumbent.  Warm answers are byte-identical to cold \
         solves — $(b,--verify) re-proves it, $(b,--cold) replays the \
         scenario from scratch for diffing.";
      `P
        "Reports per step the re-solved optimum, the mapping stability \
         (stages whose replica set changed, by stable processor \
         identity) and, with $(b,--stats), DP table reuse and \
         time-to-repair through the (optionally virtual) clock.";
    ]
  in
  cmd "churn" ~doc ~man
    Term.(
      const run $ instance_arg $ objective_arg $ events_arg
      $ seed_arg
          ~doc:
            "Master seed for the scenario driver (one integer replays the \
             whole trace)."
          1
      $ mission_arg $ cold_flag $ verify_flag $ churn_stats_flag
      $ workers_arg $ exact_workers_arg $ virtual_clock_flag)

let demo_cmd =
  let out_arg =
    opt_arg Arg.string [ "o"; "output" ] "fig5.relpipe"
      "Where to write the sample instance."
  in
  let run path =
    let* () =
      write_file path (fun oc ->
          Printf.fprintf oc
            "# The paper's Fig. 5 instance: one slow reliable processor and\n\
             # ten fast unreliable ones.  Try:\n\
             #   relpipe solve -i %s --max-latency 22\n\
             %s"
            path
            (Textio.to_string (Relpipe_workload.Scenarios.fig5 ())))
    in
    Format.printf "wrote %s@." path;
    `Ok ()
  in
  cmd "demo" ~doc:"Write a sample instance file (the paper's Fig. 5)."
    Term.(const run $ out_arg)

let () =
  let doc =
    "bi-criteria latency/reliability mapping of pipeline workflows \
     (Benoit, Rehn-Sonigo, Robert, RR-6345)"
  in
  let info = Cmd.info "relpipe" ~version:"0.1.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            describe_cmd; solve_cmd; exact_cmd; cert_cmd; simulate_cmd;
            pareto_cmd; eval_cmd;
            tri_cmd; goodput_cmd; experiments_cmd; catalog_cmd; lint_cmd;
            batch_cmd; serve_cmd; call_cmd; prof_cmd; sweep_cmd; atlas_cmd;
            fuzz_cmd;
            devlint_cmd; churn_cmd; demo_cmd;
          ]))
