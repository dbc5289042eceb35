(* Shared test utilities: seed-driven random instances and mappings, and
   tolerant float assertions.  Properties are expressed as functions of an
   integer seed so QCheck shrinking stays meaningful. *)

open Relpipe_model
module Rng = Relpipe_util.Rng
module F = Relpipe_util.Float_cmp

(* Golden-snapshot assertions (committed under test/snapshots/). *)
module Snapshot = Snapshot

let check_close ?(eps = 1e-9) name expected actual =
  if not (F.approx_eq ~eps expected actual) then
    Alcotest.failf "%s: expected %.17g, got %.17g" name expected actual

let check_leq ?(eps = 1e-9) name a b =
  if not (F.leq ~eps a b) then
    Alcotest.failf "%s: expected %.17g <= %.17g" name a b

let rng_of_seed seed = Rng.create seed

(* ------------------------------------------------------------------ *)
(* Random problem instances                                            *)
(* ------------------------------------------------------------------ *)

let random_pipeline rng ~n =
  Relpipe_workload.App_gen.random rng
    { Relpipe_workload.App_gen.n; work = (1.0, 20.0); data = (0.5, 10.0) }

let random_fully_homog rng ~n ~m =
  let platform =
    Relpipe_workload.Plat_gen.fully_homogeneous ~m
      ~speed:(Rng.float_range rng 1.0 10.0)
      ~failure:(Rng.float_range rng 0.05 0.6)
      ~bandwidth:(Rng.float_range rng 1.0 10.0)
  in
  Instance.make (random_pipeline rng ~n) platform

let random_comm_homog rng ~n ~m =
  let platform =
    Relpipe_workload.Plat_gen.random_comm_homogeneous rng ~m ~speed:(1.0, 10.0)
      ~failure:(0.05, 0.6)
      ~bandwidth:(Rng.float_range rng 1.0 10.0)
  in
  Instance.make (random_pipeline rng ~n) platform

let random_comm_homog_fail_homog rng ~n ~m =
  let fp = Rng.float_range rng 0.05 0.6 in
  let platform =
    Relpipe_workload.Plat_gen.random_comm_homogeneous rng ~m ~speed:(1.0, 10.0)
      ~failure:(fp, fp)
      ~bandwidth:(Rng.float_range rng 1.0 10.0)
  in
  Instance.make (random_pipeline rng ~n) platform

let random_fully_hetero rng ~n ~m =
  let platform =
    Relpipe_workload.Plat_gen.random_fully_heterogeneous rng ~m
      ~speed:(1.0, 10.0) ~failure:(0.05, 0.6) ~bandwidth:(0.5, 10.0)
  in
  Instance.make (random_pipeline rng ~n) platform

(* ------------------------------------------------------------------ *)
(* Random mappings                                                     *)
(* ------------------------------------------------------------------ *)

let random_composition rng n =
  (* Random cut set over positions 1..n-1. *)
  let rec build first k acc =
    if k > n then List.rev acc
    else if k = n || Rng.bool rng then build (k + 1) (k + 1) ((first, k) :: acc)
    else build first (k + 1) acc
  in
  build 1 1 []

let random_mapping rng ~n ~m =
  (* Random interval partition with at most m parts, then a random disjoint
     assignment of processors (each interval gets at least one). *)
  let rec pick_intervals () =
    let ivs = random_composition rng n in
    if List.length ivs <= m then ivs else pick_intervals ()
  in
  let intervals = pick_intervals () in
  let p = List.length intervals in
  let perm = Array.to_list (Rng.permutation rng m) in
  (* Give one processor to each interval, then scatter a random subset of
     the remainder. *)
  let seeds, rest =
    let rec split k = function
      | xs when k = 0 -> ([], xs)
      | [] -> ([], [])
      | x :: tl ->
          let a, b = split (k - 1) tl in
          (x :: a, b)
    in
    split p perm
  in
  let sets = Array.of_list (List.map (fun u -> [ u ]) seeds) in
  List.iter
    (fun u -> if Rng.bool rng then begin
        let j = Rng.int rng p in
        sets.(j) <- u :: sets.(j)
      end)
    rest;
  Mapping.make ~n ~m
    (List.mapi
       (fun j (first, last) -> { Mapping.first; last; procs = sets.(j) })
       intervals)

(* ------------------------------------------------------------------ *)
(* QCheck plumbing                                                     *)
(* ------------------------------------------------------------------ *)

let seed_property ?(count = 100) name prop =
  (* A property over a deterministic seed: reproducible and shrinkable. *)
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name ~count QCheck.small_nat (fun seed -> prop seed))

let test name f = Alcotest.test_case name `Quick f

(* ------------------------------------------------------------------ *)
(* Driving the built executables                                       *)
(* ------------------------------------------------------------------ *)

(* Paths relative to the test build directory; test/dune lists both
   executables in its deps. *)
let relpipe_exe = Filename.concat ".." (Filename.concat "bin" "relpipe_cli.exe")
let bench_exe = Filename.concat ".." (Filename.concat "bench" "main.exe")

(* Run [exe args] with stdin closed: (exit code, stdout, stderr).  Exit
   125 is cmdliner's status for an uncaught exception, never an intended
   outcome, so it fails the calling test outright. *)
let run_exe exe args =
  let out = Filename.temp_file "relpipe-test" ".out" in
  let err = Filename.temp_file "relpipe-test" ".err" in
  let cmd =
    Printf.sprintf "%s %s </dev/null >%s 2>%s" (Filename.quote exe)
      (String.concat " " (List.map Filename.quote args))
      (Filename.quote out) (Filename.quote err)
  in
  let code = Sys.command cmd in
  let slurp path =
    let s = In_channel.with_open_bin path In_channel.input_all in
    Sys.remove path;
    s
  in
  let out = slurp out and err = slurp err in
  if code = 125 then
    Alcotest.failf "%s %s: uncaught exception (exit 125)\n%s" exe
      (String.concat " " args) err;
  (code, out, err)

let run_cli args = run_exe relpipe_exe args
