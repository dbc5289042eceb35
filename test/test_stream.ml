(* Property battery for the streaming aggregators (Relpipe_obs.Stream)
   and the atlas end-to-end snapshot.

   The sketch properties check the two documented guarantees against
   exact offline computations on adversarial streams (sorted, reversed,
   constant, heavy-duplicate, random): relative value error within
   [x*, gamma x*] and rank bracketing.  The merge laws are structural:
   bucket lists must be *equal*, not approximately equal, however the
   stream is chunked, ordered or merged.  Bloom: no false negatives,
   ever; measured false-positive rate within its configured bound.  The
   atlas CLI report is pinned byte-identical at workers 1, 2 and 8. *)

module Rng = Relpipe_util.Rng
module Stream = Relpipe_obs.Stream
module Quantile = Stream.Quantile
module Ewma = Stream.Ewma
module Bloom = Stream.Bloom

let test = Helpers.test
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Quantile: accuracy against exact offline quantiles                  *)
(* ------------------------------------------------------------------ *)

let phis = [ 0.0; 0.25; 0.5; 0.75; 0.9; 0.95; 0.99; 1.0 ]

let exact_quantile sorted phi =
  let n = Array.length sorted in
  let k = int_of_float (Float.ceil (phi *. float_of_int n)) in
  let k = if k < 1 then 1 else if k > n then n else k in
  sorted.(k - 1)

(* The documented guarantee, with ulp-level slack at bucket edges. *)
let check_estimate name values =
  let q = Quantile.create () in
  Array.iter (Quantile.add q) values;
  let sorted = Array.copy values in
  Array.sort Float.compare sorted;
  let gamma = Quantile.gamma q in
  List.iter
    (fun phi ->
      let exact = exact_quantile sorted phi in
      let est = Quantile.quantile q phi in
      if est < exact *. (1.0 -. 1e-9) || est > exact *. gamma *. (1.0 +. 1e-9)
      then
        Alcotest.failf "%s: quantile(%g) = %.17g outside [%.17g, %.17g]" name
          phi est exact (exact *. gamma);
      (* Rank bracketing: at least ceil(phi n) values <= est, fewer than
         ceil(phi n) strictly below the bucket's lower edge. *)
      let n = Array.length values in
      let target =
        let k = int_of_float (Float.ceil (phi *. float_of_int n)) in
        if k < 1 then 1 else if k > n then n else k
      in
      let leq =
        Array.fold_left
          (fun acc v -> if v <= est *. (1.0 +. 1e-12) then acc + 1 else acc)
          0 values
      and below_lower =
        Array.fold_left
          (fun acc v ->
            if v < est /. gamma *. (1.0 -. 1e-12) then acc + 1 else acc)
          0 values
      in
      if leq < target then
        Alcotest.failf "%s: only %d of %d values <= quantile(%g) = %.17g" name
          leq target phi est;
      if below_lower >= target then
        Alcotest.failf
          "%s: %d values below the lower edge of quantile(%g)'s bucket" name
          below_lower phi)
    phis

let test_sorted_stream () =
  check_estimate "sorted" (Array.init 500 (fun i -> 0.1 +. float_of_int i))

let test_reversed_stream () =
  check_estimate "reversed"
    (Array.init 500 (fun i -> 0.1 +. float_of_int (499 - i)))

let test_constant_stream () =
  check_estimate "constant" (Array.make 400 42.0);
  let q = Quantile.create () in
  Array.iter (Quantile.add q) (Array.make 400 42.0);
  check_int "constant stream fills one bucket" 1
    (List.length (Quantile.buckets q))

let test_heavy_duplicate_stream () =
  (* 90% of the stream is one hot value, the tail is a wide spread. *)
  let values =
    Array.init 1000 (fun i ->
        if i mod 10 <> 0 then 7.5 else Float.pow 10.0 (float_of_int (i / 100)))
  in
  check_estimate "heavy-duplicate" values

let prop_random_stream seed =
  let rng = Rng.create (seed + 17) in
  let n = 1 + Rng.int rng 400 in
  (* Mix scales across nine orders of magnitude. *)
  let values =
    Array.init n (fun _ ->
        Rng.float_range rng 1e-3 2.0 *. Float.pow 10.0 (float_of_int (Rng.int rng 7)))
  in
  check_estimate "random" values;
  true

(* ------------------------------------------------------------------ *)
(* Quantile: structural merge laws                                     *)
(* ------------------------------------------------------------------ *)

let structurally_equal a b =
  Quantile.count a = Quantile.count b
  && Quantile.low_count a = Quantile.low_count b
  && List.equal
       (fun (i1, c1) (i2, c2) -> Int.equal i1 i2 && Int.equal c1 c2)
       (Quantile.buckets a) (Quantile.buckets b)

let sketch_of values =
  let q = Quantile.create () in
  Array.iter (Quantile.add q) values;
  q

let prop_merge_concat_assoc_comm seed =
  let rng = Rng.create (seed + 31) in
  let part () =
    Array.init (Rng.int rng 120) (fun _ ->
        (* Include non-positive and non-finite values: merge laws must
           hold for the low bucket and the infinity bucket too. *)
        match Rng.int rng 12 with
        | 0 -> 0.0
        | 1 -> -.Rng.float_range rng 0.0 5.0
        | 2 -> Float.infinity
        | _ -> Rng.float_range rng 1e-3 1e6)
  in
  let a = part () and b = part () and c = part () in
  let whole = sketch_of (Array.concat [ a; b; c ]) in
  let sa = sketch_of a and sb = sketch_of b and sc = sketch_of c in
  (* Concatenation: merging per-part sketches equals one sketch fed the
     whole stream. *)
  if not (structurally_equal (Quantile.merge (Quantile.merge sa sb) sc) whole)
  then QCheck.Test.fail_report "merge of parts <> sketch of concatenation";
  (* Associativity and commutativity, structurally. *)
  if
    not
      (structurally_equal
         (Quantile.merge (Quantile.merge sa sb) sc)
         (Quantile.merge sa (Quantile.merge sb sc)))
  then QCheck.Test.fail_report "merge is not associative";
  if not (structurally_equal (Quantile.merge sa sb) (Quantile.merge sb sa))
  then QCheck.Test.fail_report "merge is not commutative";
  (* Merge must not mutate its operands. *)
  if not (structurally_equal sa (sketch_of a)) then
    QCheck.Test.fail_report "merge mutated its left operand";
  true

let test_low_bucket_and_errors () =
  let q = Quantile.create () in
  Quantile.add q (-1.0);
  Quantile.add q 0.0;
  Quantile.add q Float.nan;
  Quantile.add q 5.0;
  check_int "count includes low values" 4 (Quantile.count q);
  check_int "low bucket holds <= 0 and nan" 3 (Quantile.low_count q);
  check_bool "low-bucket quantile reports 0" true
    (Float.equal (Quantile.quantile q 0.5) 0.0);
  check_bool "high quantile sees the positive value" true
    (Quantile.quantile q 1.0 > 4.9);
  check_bool "empty sketch quantile is 0" true
    (Float.equal (Quantile.quantile (Quantile.create ()) 0.5) 0.0);
  let raises f =
    match f () with
    | _ -> false
    | exception Invalid_argument _ -> true
  in
  check_bool "phi out of range raises" true
    (raises (fun () -> Quantile.quantile q 1.5));
  check_bool "nan phi raises" true
    (raises (fun () -> Quantile.quantile q Float.nan));
  check_bool "bad accuracy raises" true
    (raises (fun () -> Quantile.create ~accuracy:1.0 ()));
  check_bool "accuracy-mismatched merge raises" true
    (raises (fun () ->
         Quantile.merge (Quantile.create ~accuracy:0.02 ()) (Quantile.create ())))

let test_infinity_bucket () =
  let q = Quantile.create () in
  Quantile.add q 1.0;
  Quantile.add q Float.infinity;
  check_bool "max quantile is infinite" true
    (Float.equal (Quantile.quantile q 1.0) Float.infinity);
  check_bool "median stays finite" true
    (Float.is_finite (Quantile.quantile q 0.5))

(* ------------------------------------------------------------------ *)
(* Ewma                                                                *)
(* ------------------------------------------------------------------ *)

let prop_ewma_matches_reference_fold seed =
  let rng = Rng.create (seed + 47) in
  let alpha = Rng.float_range rng 0.01 1.0 in
  let xs = Array.init (1 + Rng.int rng 50) (fun _ -> Rng.float_range rng (-5.0) 5.0) in
  let e = Ewma.create ~alpha in
  Array.iter (Ewma.observe e) xs;
  let expected =
    Array.fold_left
      (fun acc x ->
        match acc with
        | None -> Some x
        | Some s -> Some ((alpha *. x) +. ((1.0 -. alpha) *. s)))
      None xs
  in
  (match expected with
  | None -> assert false
  | Some s ->
      if not (Float.equal s (Ewma.value e)) then
        QCheck.Test.fail_reportf "ewma %.17g <> reference fold %.17g"
          (Ewma.value e) s);
  Ewma.count e = Array.length xs

let test_ewma_basics () =
  let e = Ewma.create ~alpha:0.5 in
  check_bool "value before first observation" true
    (Float.equal (Ewma.value e) 0.0);
  Ewma.observe e 10.0;
  check_bool "first observation seeds" true (Float.equal (Ewma.value e) 10.0);
  Ewma.observe e 20.0;
  check_bool "second observation smooths" true
    (Float.equal (Ewma.value e) 15.0);
  let tracker = Ewma.create ~alpha:1.0 in
  Ewma.observe tracker 3.0;
  Ewma.observe tracker 9.0;
  check_bool "alpha 1 tracks the last value" true
    (Float.equal (Ewma.value tracker) 9.0);
  check_bool "bad alpha raises" true
    (match Ewma.create ~alpha:0.0 with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Bloom                                                               *)
(* ------------------------------------------------------------------ *)

let key_of seed i = Printf.sprintf "key-%d-%d" seed i

let prop_bloom_no_false_negatives seed =
  let rng = Rng.create (seed + 61) in
  let n = 1 + Rng.int rng 300 in
  let b = Bloom.create ~expected:512 () in
  for i = 0 to n - 1 do
    ignore (Bloom.add b (key_of seed i))
  done;
  check_int "added counts with multiplicity" n (Bloom.added b);
  for i = 0 to n - 1 do
    if not (Bloom.mem b (key_of seed i)) then
      QCheck.Test.fail_reportf "added key %d reported absent" i
  done;
  (* A re-add of any inserted key must report the duplicate. *)
  let i = Rng.int rng n in
  if not (Bloom.add b (key_of seed i)) then
    QCheck.Test.fail_reportf "re-adding key %d was not flagged as seen" i;
  true

let test_bloom_fp_rate_within_bound () =
  let fp_rate = 0.02 in
  let n = 1000 in
  let b = Bloom.create ~fp_rate ~expected:n () in
  for i = 0 to n - 1 do
    ignore (Bloom.add b (Printf.sprintf "member-%d" i))
  done;
  let probes = 20_000 in
  let fps = ref 0 in
  for i = 0 to probes - 1 do
    if Bloom.mem b (Printf.sprintf "stranger-%d" i) then incr fps
  done;
  let measured = float_of_int !fps /. float_of_int probes in
  (* The sizing targets fp_rate at exactly [expected] insertions; allow
     2x for the variance of one deterministic draw. *)
  if measured > 2.0 *. fp_rate then
    Alcotest.failf "measured FP rate %.4f exceeds 2 * configured %.3f"
      measured fp_rate;
  check_bool "some bits are set" true (Bloom.set_bits b > 0);
  check_bool "set bits below width" true (Bloom.set_bits b < Bloom.bits b)

let test_bloom_union_laws () =
  let mk keys =
    let b = Bloom.create ~expected:64 () in
    List.iter (fun k -> ignore (Bloom.add b k)) keys;
    b
  in
  let a = mk [ "a1"; "a2"; "a3" ] and b = mk [ "b1"; "b2" ] in
  let u = Bloom.union a b in
  List.iter
    (fun k -> check_bool ("union remembers " ^ k) true (Bloom.mem u k))
    [ "a1"; "a2"; "a3"; "b1"; "b2" ];
  check_int "union adds the added counts" 5 (Bloom.added u);
  check_int "union is commutative (set bits)" (Bloom.set_bits u)
    (Bloom.set_bits (Bloom.union b a));
  let c = mk [ "c1" ] in
  check_int "union is associative (set bits)"
    (Bloom.set_bits (Bloom.union (Bloom.union a b) c))
    (Bloom.set_bits (Bloom.union a (Bloom.union b c)));
  (* Union must not mutate operands. *)
  check_bool "left operand unchanged" false (Bloom.mem a "b1");
  check_bool "geometry mismatch raises" true
    (match Bloom.union a (Bloom.create ~expected:4096 ()) with
    | _ -> false
    | exception Invalid_argument _ -> true);
  check_bool "bad expected raises" true
    (match Bloom.create ~expected:0 () with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* The published FNV-1a 64 test vectors: the probe hash is the standard
   function, so filter contents do not depend on how the loop is
   written. *)
let test_bloom_fnv1a64_vectors () =
  List.iter
    (fun (input, expected) ->
      Alcotest.(check string)
        (Printf.sprintf "fnv1a64 %S" input)
        expected
        (Printf.sprintf "%016Lx" (Bloom.fnv1a64 input)))
    [
      ("", "cbf29ce484222325");
      ("a", "af63dc4c8601ec8c");
      ("foobar", "85944171f73967e8");
    ]

(* ------------------------------------------------------------------ *)
(* Atlas CLI: golden report, byte-identical across worker counts       *)
(* ------------------------------------------------------------------ *)

let run_cli = Helpers.run_cli

let atlas_args workers =
  [
    "atlas"; "-n"; "600"; "--pool"; "16"; "--seed"; "5"; "--chunk"; "128";
    "--virtual-clock"; "-w"; string_of_int workers; "--exact-workers";
  ]

let test_atlas_snapshot_across_workers () =
  let c1, o1, e1 = run_cli (atlas_args 1) in
  check_int "exits 0 (1 worker)" 0 c1;
  check_str "stderr empty" "" e1;
  Helpers.Snapshot.check "atlas-report.snap" o1;
  let c2, o2, _ = run_cli (atlas_args 2) in
  check_int "exits 0 (2 workers)" 0 c2;
  check_str "byte-identical at 2 workers" o1 o2;
  let c8, o8, _ = run_cli (atlas_args 8) in
  check_int "exits 0 (8 workers)" 0 c8;
  check_str "byte-identical at 8 workers" o1 o8

let () =
  Alcotest.run "stream"
    [
      ( "quantile",
        [
          test "sorted stream within guarantee" test_sorted_stream;
          test "reversed stream within guarantee" test_reversed_stream;
          test "constant stream within guarantee" test_constant_stream;
          test "heavy-duplicate stream within guarantee"
            test_heavy_duplicate_stream;
          Helpers.seed_property ~count:150 "random streams within guarantee"
            prop_random_stream;
          Helpers.seed_property ~count:150
            "merge: concatenation, associativity, commutativity"
            prop_merge_concat_assoc_comm;
          test "low bucket and invalid arguments" test_low_bucket_and_errors;
          test "infinity bucket" test_infinity_bucket;
        ] );
      ( "ewma",
        [
          Helpers.seed_property ~count:200 "matches the reference fold"
            prop_ewma_matches_reference_fold;
          test "seeding, smoothing, alpha bounds" test_ewma_basics;
        ] );
      ( "bloom",
        [
          Helpers.seed_property ~count:100 "no false negatives"
            prop_bloom_no_false_negatives;
          test "measured FP rate within bound" test_bloom_fp_rate_within_bound;
          test "union laws and geometry guard" test_bloom_union_laws;
          test "FNV-1a 64 test vectors" test_bloom_fnv1a64_vectors;
        ] );
      ( "atlas",
        [
          test "report byte-identical at workers 1/2/8"
            test_atlas_snapshot_across_workers;
        ] );
    ]
