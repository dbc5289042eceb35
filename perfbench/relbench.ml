(* relbench: relpipe's service benchmark.

     relbench.exe --workload NAME --seed N --seconds S --trace 0|1
                  [--relpipe PATH]

   Runs one workload of perfbench/workloads.json for about S seconds and
   prints, as the last line of standard output, one JSON object with the
   correctness verdict, the requests attempted and failed, and the
   metrics BENCHMARK.json declares: the end_to_end ones with --trace 0,
   the per_layer ones with --trace 1.  Summaries go to standard error;
   the traced run's spans go to perfbench/out/.  Run it through
   perfbench/run.py, which builds it first. *)

let usage =
  "relbench.exe --workload NAME --seed N --seconds S --trace 0|1 [--relpipe \
   PATH]"

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 in
  let trace = ref 0 and relpipe = ref "_build/default/bin/relpipe_cli.exe" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME  hot-zipf, cold-distinct or serve-open");
      ("--seed", Arg.Set_int seed, "N  workload seed");
      ("--seconds", Arg.Set_float seconds, "S  length of the measured window");
      ("--trace", Arg.Set_int trace, "0|1  end-to-end (0) or per-layer (1) metrics");
      ("--relpipe", Arg.Set_string relpipe, "PATH  the relpipe binary serve-open spawns");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let out_dir = Filename.concat "perfbench" "out" in
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
  let spec = Spec.load ~path:(Filename.concat "perfbench" "workloads.json") !workload in
  let traced = !trace = 1 in
  let seed = !seed and seconds = !seconds in
  let o =
    match spec.shape with
    | Spec.Hot { chunk; tenants } ->
        Inproc.hot spec ~chunk ~tenants ~seed ~seconds ~trace:traced
    | Cold { chunk } -> Inproc.cold spec ~chunk ~seed ~seconds ~trace:traced
    | Serve serve ->
        Serve_open.run ~relpipe:!relpipe ~out_dir spec serve ~seed ~seconds
          ~trace:traced
  in
  List.iter prerr_endline o.Report.notes;
  List.iter (fun e -> prerr_endline ("relbench: FAILED CHECK: " ^ e)) (List.rev o.gate.errors);
  List.iter (fun e -> prerr_endline ("relbench: failed request: " ^ e)) (List.rev o.gate.failures);
  (match o.spans with
  | Some sp ->
      let path =
        Filename.concat out_dir (Printf.sprintf "spans-%s-%d.jsonl" spec.name seed)
      in
      Spans.write_jsonl sp path;
      Printf.eprintf "relbench: %d spans written to %s\n" (Spans.length sp) path
  | None -> ());
  let declared =
    Report.declared ~path:"BENCHMARK.json" (if traced then "per_layer" else "end_to_end")
  in
  print_endline
    (Report.line ~declared
       ~correct:(Gate.ok o.gate && o.valid)
       ~attempted:o.attempted ~failed:o.gate.failed o.metrics)
