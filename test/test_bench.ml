(* End-to-end tests for the kernel ledger (bench/main.exe): the
   virtual-clock report must be byte-identical across runs, carry the v2
   twin schema and the landscape rows, pass a regression check against
   itself, and fail one against a doctored twice-as-fast baseline. *)

module Json = Relpipe_service.Json

let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)
let run_bench = Helpers.run_exe Helpers.bench_exe

let slurp path = In_channel.with_open_bin path In_channel.input_all

let report_in () =
  let tmp = Filename.temp_file "relpipe-bench" ".json" in
  let code, _out, err = run_bench [ "--virtual-clock"; "--json"; tmp ] in
  check_int "bench exits 0" 0 code;
  check_str "bench stderr empty" "" err;
  let s = slurp tmp in
  Sys.remove tmp;
  s

(* One run shared by every test that only reads the report. *)
let report = lazy (report_in ())

let with_baseline text f =
  let tmp = Filename.temp_file "relpipe-bench" ".json" in
  Out_channel.with_open_bin tmp (fun oc -> Out_channel.output_string oc text);
  Fun.protect ~finally:(fun () -> Sys.remove tmp) (fun () -> f tmp)

let test_deterministic () =
  check_str "virtual-clock reports byte-identical" (Lazy.force report)
    (report_in ())

let parse_exn s =
  match Json.parse s with
  | Ok v -> v
  | Error e -> Alcotest.failf "bench JSON does not parse: %s" e

let get name v =
  match v with Some x -> x | None -> Alcotest.failf "missing field %s" name

let test_schema () =
  let j = parse_exn (Lazy.force report) in
  let field name = get name (Json.member name j) in
  check_int "version" 2 (get "version" (Json.to_int (field "version")));
  Alcotest.(check bool)
    "virtual_clock" true
    (get "virtual_clock" (Json.to_bool (field "virtual_clock")));
  check_str "date pinned" "1970-01-01T00:00:00Z"
    (get "date" (Json.to_str (field "date")));
  (* The landscape shares the twins' harness, so it runs under the
     virtual clock too. *)
  let names =
    List.map
      (fun k -> get "name" (Option.bind (Json.member "name" k) Json.to_str))
      (get "benchmarks" (Json.to_list (field "benchmarks")))
  in
  check_int "twenty-three landscape rows" 23 (List.length names);
  List.iter
    (fun name ->
      Alcotest.(check bool) ("landscape row " ^ name) true (List.mem name names))
    [ "latency-eq1 (n=8, 2 intervals)"; "thm4 direct DP (n=32, m=24)";
      "exact enumeration (n=3, m=4)"; "tri-criteria greedy (n=8, m=8)";
      "textio parse (64 stream texts)"; "canon key (64 stream texts)";
      "bloom add (64 stream texts)" ];
  let twins = get "twins" (Json.to_list (field "twins")) in
  check_int "three kernel twins" 3 (List.length twins);
  let kernels =
    List.map (fun t -> get "kernel" (Json.to_str (get "kernel" (Json.member "kernel" t)))) twins
  in
  check_str "twin order" "interval-dp,general-dp,bb" (String.concat "," kernels);
  List.iter
    (fun t ->
      List.iter
        (fun f ->
          match Json.member f t with
          | Some v ->
              ignore (get f (Json.to_float v));
              (* Under the virtual clock every sample costs exactly one
                 tick, so point estimates and CI endpoints coincide. *)
              ()
          | None -> Alcotest.failf "twin missing field %s" f)
        [ "ns_opt"; "ci_opt_lo"; "ci_opt_hi"; "ns_ref"; "ci_ref_lo";
          "ci_ref_hi"; "speedup"; "speedup_lo" ])
    twins

let test_against_self_passes () =
  let code, out, _err =
    with_baseline (Lazy.force report) (fun tmp ->
        run_bench [ "--virtual-clock"; "--against"; tmp ])
  in
  check_int "self-comparison exits 0" 0 code;
  Alcotest.(check bool)
    "reports OK" true
    (let ok = "against: OK" in
     let rec mem i =
       i + String.length ok <= String.length out
       && (String.sub out i (String.length ok) = ok || mem (i + 1))
     in
     mem 0)

let test_against_regression_fails () =
  (* Doctor the baseline so every kernel claims to have been 2x faster:
     the current run then looks like a 2x regression and must fail the
     10% gate. *)
  let j = parse_exn (Lazy.force report) in
  let doctored =
    match j with
    | Json.Obj fields ->
        Json.Obj
          (List.map
             (fun (k, v) ->
               if k <> "twins" then (k, v)
               else
                 match Json.to_list v with
                 | None -> (k, v)
                 | Some twins ->
                     ( k,
                       Json.List
                         (List.map
                            (function
                              | Json.Obj tf ->
                                  Json.Obj
                                    (List.map
                                       (fun (tk, tv) ->
                                         if tk = "ns_opt" then
                                           match Json.to_float tv with
                                           | Some ns ->
                                               (tk, Json.float (ns /. 2.0))
                                           | None -> (tk, tv)
                                         else (tk, tv))
                                       tf)
                              | t -> t)
                            twins) ))
             fields)
    | _ -> Alcotest.fail "bench JSON is not an object"
  in
  let code, _out, err =
    with_baseline (Json.to_string doctored) (fun tmp ->
        run_bench [ "--virtual-clock"; "--against"; tmp ])
  in
  check_int "regression exits 1" 1 code;
  Alcotest.(check bool)
    "names a failing kernel on stderr" true
    (let needle = "against: FAIL" in
     let rec mem i =
       i + String.length needle <= String.length err
       && (String.sub err i (String.length needle) = needle || mem (i + 1))
     in
     mem 0)

let () =
  Alcotest.run "bench"
    [
      ( "virtual-clock",
        [
          Alcotest.test_case "report is deterministic" `Quick test_deterministic;
          Alcotest.test_case "report carries the v2 twin schema" `Quick
            test_schema;
        ] );
      ( "against",
        [
          Alcotest.test_case "passes against itself" `Quick
            test_against_self_passes;
          Alcotest.test_case "fails against a doctored 2x-faster baseline"
            `Quick test_against_regression_fails;
        ] );
    ]
