(* CLI transcripts: stdout, stderr and exit code of the relpipe binary,
   pinned byte-for-byte as golden snapshots (one per invocation, plus
   one holding the --help=plain page of every subcommand).

   Re-record after an intended change with
   RELPIPE_SNAPSHOT_UPDATE=1 dune runtest. *)

module Snapshot = Helpers.Snapshot

let test = Helpers.test

let fig5 = "../examples/instances/fig5.relpipe"
let hetero = "fixtures/clean_fully_hetero.relpipe"

let read_file path = In_channel.with_open_bin path In_channel.input_all

let transcript args (code, out, err) =
  Printf.sprintf "$ relpipe %s\n--- stdout\n%s--- stderr\n%s--- exit %d\n"
    (String.concat " " args) out err code

(* [files] are written by the command; their contents join the
   transcript and they are removed afterwards. *)
let check_transcript ?(files = []) name args () =
  List.iter (fun f -> if Sys.file_exists f then Sys.remove f) files;
  let t = transcript args (Helpers.run_cli args) in
  let written =
    List.map
      (fun f ->
        let body = read_file f in
        Sys.remove f;
        Printf.sprintf "--- file %s\n%s" f body)
      files
  in
  Snapshot.check ("cli-" ^ name ^ ".snap") (String.concat "" (t :: written))

let methods =
  [
    "auto"; "exact"; "polynomial"; "portfolio"; "single-greedy";
    "split-replicate"; "local-search"; "annealing"; "iterated-ls";
  ]

let transcripts =
  [ ("describe", [ "describe"; "-i"; fig5 ]) ]
  @ List.map
      (fun m -> ("solve-" ^ m, [ "solve"; "-i"; fig5; "-L"; "22"; "-m"; m ]))
      methods
  @ [
      ("simulate", [ "simulate"; "-i"; fig5; "-L"; "22"; "-t"; "1000" ]);
      ("pareto", [ "pareto"; "-i"; fig5; "-n"; "4" ]);
      ( "eval-valid",
        [ "eval"; "-i"; fig5; "-L"; "22"; "--mapping"; "1:0; 2:1,2,3" ] );
      ( "eval-rejected",
        [ "eval"; "-i"; fig5; "-L"; "10"; "--mapping"; "1:0; 2:1,2,3" ] );
      ("tri-greedy", [ "tri"; "-i"; hetero; "-L"; "20"; "-P"; "10" ]);
      ("tri-exact", [ "tri"; "-i"; hetero; "-L"; "20"; "-P"; "10"; "--exact" ]);
      ("goodput", [ "goodput"; "-i"; fig5; "-L"; "22"; "-t"; "100" ]);
      ("catalog", [ "catalog" ]);
      ("lint-file", [ "lint"; "fixtures/defect_I004.relpipe" ]);
      ("lint-rules", [ "lint"; "--rules" ]);
      ("lint-builtin", [ "lint"; "--builtin" ]);
      ( "lint-json",
        [ "lint"; "fixtures/defect_I004.relpipe"; "--format"; "json" ] );
      ("error-no-objective", [ "solve"; "-i"; fig5 ]);
      ("error-both-objectives", [ "solve"; "-i"; fig5; "-L"; "22"; "-F"; "0.5" ]);
      ( "error-unparsable",
        [ "solve"; "-i"; "fixtures/defect_P001.relpipe"; "-L"; "22" ] );
    ]

let subcommands =
  [
    "describe"; "solve"; "exact"; "cert"; "simulate"; "pareto"; "eval"; "tri";
    "goodput"; "experiments"; "catalog"; "lint"; "batch"; "serve"; "call";
    "prof"; "sweep"; "atlas"; "fuzz"; "devlint"; "churn"; "demo";
  ]

let test_help_pages () =
  Snapshot.check "cli-help.snap"
    (String.concat ""
       (List.map
          (fun cmd ->
            let args = [ cmd; "--help=plain" ] in
            transcript args (Helpers.run_cli args))
          subcommands))

let () =
  Alcotest.run "cli"
    [
      ( "transcripts",
        List.map
          (fun (name, args) -> test name (check_transcript name args))
          transcripts
        @ [
            test "catalog --write"
              (check_transcript ~files:[ "cli-catalog.relpipe" ]
                 "catalog-write"
                 [ "catalog"; "--write"; "lab-cluster"; "-o";
                   "cli-catalog.relpipe" ]);
            test "demo"
              (check_transcript ~files:[ "cli-demo.relpipe" ] "demo"
                 [ "demo"; "-o"; "cli-demo.relpipe" ]);
            test "--help=plain, every subcommand" test_help_pages;
          ] );
    ]
