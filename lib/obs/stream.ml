(* Streaming aggregators: mergeable quantile sketch, exponential
   smoothing, bloom-filter duplicate tracking.  See stream.mli for the
   accuracy and merge-law contracts; test/test_stream.ml pins them. *)

module Imap = Map.Make (Int)

module Quantile = struct
  type t = {
    q_accuracy : float;
    q_gamma : float;
    q_log_gamma : float;
    mutable q_buckets : int Imap.t;
    mutable q_low : int;  (* values <= 0 and NaN *)
    mutable q_count : int;
  }

  (* Geometric buckets overflow [int_of_float] on infinity; park +inf in
     a bucket index no finite value can reach (|log v / log gamma| for
     finite v is far below 2^40 even at accuracy 1e-9). *)
  let inf_bucket = 1 lsl 40

  let create ?(accuracy = 0.01) () =
    if not (accuracy > 0.0 && accuracy < 1.0) then
      invalid_arg "Stream.Quantile.create: accuracy must be in (0, 1)";
    let gamma = (1.0 +. accuracy) /. (1.0 -. accuracy) in
    {
      q_accuracy = accuracy;
      q_gamma = gamma;
      q_log_gamma = Float.log gamma;
      q_buckets = Imap.empty;
      q_low = 0;
      q_count = 0;
    }

  let accuracy t = t.q_accuracy
  let gamma t = t.q_gamma

  let bucket_index t v =
    if Float.is_nan v || not (v > 0.0) then None
    else if not (Float.is_finite v) then Some inf_bucket
    else Some (int_of_float (Float.ceil (Float.log v /. t.q_log_gamma)))

  let add t v =
    t.q_count <- t.q_count + 1;
    match bucket_index t v with
    | None -> t.q_low <- t.q_low + 1
    | Some i ->
        t.q_buckets <-
          Imap.update i
            (function None -> Some 1 | Some c -> Some (c + 1))
            t.q_buckets

  let count t = t.q_count
  let low_count t = t.q_low
  let buckets t = Imap.bindings t.q_buckets

  let merge a b =
    if not (Float.equal a.q_accuracy b.q_accuracy) then
      invalid_arg "Stream.Quantile.merge: accuracies differ";
    {
      q_accuracy = a.q_accuracy;
      q_gamma = a.q_gamma;
      q_log_gamma = a.q_log_gamma;
      q_buckets =
        Imap.union (fun _ ca cb -> Some (ca + cb)) a.q_buckets b.q_buckets;
      q_low = a.q_low + b.q_low;
      q_count = a.q_count + b.q_count;
    }

  (* Upper edge of bucket [i]: the estimate returned for any rank that
     lands in it.  gamma^i computed through exp so huge negative indices
     underflow to 0 instead of raising. *)
  let bucket_edge t i =
    if i >= inf_bucket then Float.infinity
    else Float.exp (float_of_int i *. t.q_log_gamma)

  let quantile t phi =
    if Float.is_nan phi || not (phi >= 0.0 && phi <= 1.0) then
      invalid_arg "Stream.Quantile.quantile: phi must be in [0, 1]";
    if t.q_count = 0 then 0.0
    else begin
      let target =
        let r = int_of_float (Float.ceil (phi *. float_of_int t.q_count)) in
        if r < 1 then 1 else if r > t.q_count then t.q_count else r
      in
      if target <= t.q_low then 0.0
      else begin
        (* Sequential scan in index order; the map holds one bucket per
           distinct magnitude class, bounded by the value range, not the
           stream length. *)
        let remaining = ref (target - t.q_low) in
        let edge = ref 0.0 in
        (try
           Imap.iter
             (fun i c ->
               if !remaining > 0 then begin
                 remaining := !remaining - c;
                 edge := bucket_edge t i;
                 if !remaining <= 0 then raise Exit
               end)
             t.q_buckets
         with Exit -> ());
        !edge
      end
    end
end

module Ewma = struct
  type t = {
    e_alpha : float;
    mutable e_value : float;
    mutable e_count : int;
  }

  let create ~alpha =
    if not (alpha > 0.0 && alpha <= 1.0) then
      invalid_arg "Stream.Ewma.create: alpha must be in (0, 1]";
    { e_alpha = alpha; e_value = 0.0; e_count = 0 }

  let observe t x =
    t.e_value <-
      (if t.e_count = 0 then x
       else (t.e_alpha *. x) +. ((1.0 -. t.e_alpha) *. t.e_value));
    t.e_count <- t.e_count + 1

  let value t = t.e_value
  let count t = t.e_count
end

module Bloom = struct
  type t = {
    b_bits : int;
    b_hashes : int;
    b_bytes : Bytes.t;
    mutable b_added : int;
  }

  let create ?(fp_rate = 0.01) ~expected () =
    if expected <= 0 then
      invalid_arg "Stream.Bloom.create: expected must be positive";
    if not (fp_rate > 0.0 && fp_rate < 1.0) then
      invalid_arg "Stream.Bloom.create: fp_rate must be in (0, 1)";
    let ln2 = Float.log 2.0 in
    let m =
      let raw =
        Float.ceil
          (-.float_of_int expected *. Float.log fp_rate /. (ln2 *. ln2))
      in
      max 64 (int_of_float raw)
    in
    let k =
      max 1
        (int_of_float
           (Float.round (float_of_int m /. float_of_int expected *. ln2)))
    in
    {
      b_bits = m;
      b_hashes = k;
      b_bytes = Bytes.make ((m + 7) / 8) '\000';
      b_added = 0;
    }

  let bits t = t.b_bits
  let hashes t = t.b_hashes
  let added t = t.b_added

  (* FNV-1a over the key bytes, then a SplitMix64 finalizer for the
     second stream of double hashing.  Pure functions of the key, so
     filter contents are reproducible across runs and platforms. *)
  let fnv1a64 s =
    (* A plain loop over a local ref: the compiler keeps [h] unboxed, so
       hashing a key allocates nothing per byte. *)
    let h = ref 0xcbf29ce484222325L in
    for i = 0 to String.length s - 1 do
      h :=
        Int64.mul
          (Int64.logxor !h (Int64.of_int (Char.code (String.unsafe_get s i))))
          0x00000100000001b3L
    done;
    !h

  let splitmix_finalize z =
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
        0xbf58476d1ce4e5b9L in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
        0x94d049bb133111ebL in
    Int64.logxor z (Int64.shift_right_logical z 31)

  let probes t key =
    let h64 = fnv1a64 key in
    let h1 = Int64.to_int h64 land max_int in
    (* Force the stride odd so it is non-zero and co-prime with any
       power-of-two component of the width. *)
    let h2 = Int64.to_int (splitmix_finalize h64) land max_int lor 1 in
    Array.init t.b_hashes (fun i -> (h1 + (i * h2)) land max_int mod t.b_bits)

  let get_bit t i = Char.code (Bytes.get t.b_bytes (i lsr 3)) land (1 lsl (i land 7)) <> 0

  let set_bit t i =
    let byte = i lsr 3 in
    Bytes.set t.b_bytes byte
      (Char.chr (Char.code (Bytes.get t.b_bytes byte) lor (1 lsl (i land 7))))

  let mem t key = Array.for_all (get_bit t) (probes t key)

  let add t key =
    let ps = probes t key in
    let seen = Array.for_all (get_bit t) ps in
    Array.iter (set_bit t) ps;
    t.b_added <- t.b_added + 1;
    seen

  let set_bits t =
    let n = ref 0 in
    Bytes.iter
      (fun c ->
        let b = ref (Char.code c) in
        while !b <> 0 do
          b := !b land (!b - 1);
          incr n
        done)
      t.b_bytes;
    !n

  let union a b =
    if a.b_bits <> b.b_bits || a.b_hashes <> b.b_hashes then
      invalid_arg "Stream.Bloom.union: filter geometries differ";
    let bytes = Bytes.copy a.b_bytes in
    Bytes.iteri
      (fun i c ->
        Bytes.set bytes i (Char.chr (Char.code (Bytes.get bytes i) lor Char.code c)))
      b.b_bytes;
    { b_bits = a.b_bits; b_hashes = a.b_hashes; b_bytes = bytes; b_added = a.b_added + b.b_added }
end
