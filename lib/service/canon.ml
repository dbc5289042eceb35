open Relpipe_model

let version = 3

(* Round the significand to 40 bits (about 12 significant digits):
   adding half of the dropped 12-bit tail to the IEEE bit pattern and
   clearing the tail rounds half away from zero, and a carry out of the
   significand correctly bumps the exponent.  The one carry that
   overflows is into infinity (at the top binade); there the value is
   truncated instead, so finite inputs stay finite.  [-0.0] becomes
   [0.0]; non-finite values pass through. *)
let quantize x =
  if not (Float.is_finite x) then x
  else if Float.equal x 0.0 then 0.0
  else
    let bits = Int64.bits_of_float x in
    let rounded = Int64.float_of_bits (Int64.logand (Int64.add bits 0x800L) (-0x1000L)) in
    if Float.is_finite rounded then rounded
    else Int64.float_of_bits (Int64.logand bits (-0x1000L))

type normalized = { key : string; perm : int array }

(* Stable order on (quantized speed, quantized failure), falling back to
   the declared index so equal processors keep a deterministic relative
   order.  Each processor is quantized once, outside the comparator. *)
let canonical_perm platform ~symmetric =
  let m = Platform.size platform in
  let perm = Array.init m Fun.id in
  if symmetric then begin
    let speed = Array.init m (fun u -> quantize (Platform.speed platform u)) in
    let failure = Array.init m (fun u -> quantize (Platform.failure platform u)) in
    Array.sort
      (fun a b ->
        let c = Float.compare speed.(a) speed.(b) in
        if c <> 0 then c
        else
          let c = Float.compare failure.(a) failure.(b) in
          if c <> 0 then c else Int.compare a b)
      perm
  end;
  perm

let key_prefix = Printf.sprintf "v%d:" version

(* The digested serialization is binary: a version header, then
   fixed-width little-endian fields (ints as int64, floats as the bits of
   their quantized value) and one-byte tags separating the variants.  The
   method name is length-prefixed and every count precedes what it
   counts, so distinct requests never serialize to the same bytes. *)
let normalize ~budget ~method_ instance objective =
  let pipeline = instance.Instance.pipeline in
  let platform = instance.Instance.platform in
  let n = Pipeline.length pipeline in
  let m = Platform.size platform in
  let common_bw = Classify.common_bandwidth platform in
  let symmetric = Option.is_some common_bw in
  let perm = canonical_perm platform ~symmetric in
  let buf = Buffer.create 512 in
  let add_int i = Buffer.add_int64_le buf (Int64.of_int i) in
  let add_float x = Buffer.add_int64_le buf (Int64.bits_of_float (quantize x)) in
  Buffer.add_string buf "relpipe-canon";
  add_int version;
  let name = Protocol.method_to_string method_ in
  add_int (String.length name);
  Buffer.add_string buf name;
  add_int budget;
  (match objective with
  | Instance.Min_failure { max_latency } ->
      Buffer.add_char buf 'F';
      add_float max_latency
  | Instance.Min_latency { max_failure } ->
      Buffer.add_char buf 'L';
      add_float max_failure);
  add_int n;
  add_int m;
  add_float (Pipeline.delta pipeline 0);
  for k = 1 to n do
    add_float (Pipeline.work pipeline k);
    add_float (Pipeline.delta pipeline k)
  done;
  Array.iter
    (fun u ->
      add_float (Platform.speed platform u);
      add_float (Platform.failure platform u))
    perm;
  (match common_bw with
  | Some b ->
      Buffer.add_char buf 'H';
      add_float b
  | None ->
      (* Full matrix in declared order ([perm] is the identity here): the
         one-port clique including the Pin/Pout endpoints, upper triangle
         row by row over Pin, processors 0..m-1, Pout. *)
      Buffer.add_char buf 'X';
      let endpoint i =
        if i = 0 then Platform.Pin else if i = m + 1 then Platform.Pout else Platform.Proc (i - 1)
      in
      for i = 0 to m + 1 do
        for j = i + 1 to m + 1 do
          add_float (Platform.bandwidth platform (endpoint i) (endpoint j))
        done
      done);
  let key = key_prefix ^ Digest.to_hex (Digest.string (Buffer.contents buf)) in
  { key; perm }

let same_perm a b =
  Array.length a = Array.length b && Array.for_all2 Int.equal a b

let translate ~from_perm ~to_perm ~n ~m mapping =
  if Array.length from_perm <> Array.length to_perm then
    invalid_arg "Canon.translate: permutation lengths differ";
  if same_perm from_perm to_perm then mapping
  else begin
    let inv = Array.make (Array.length from_perm) 0 in
    Array.iteri (fun position u -> inv.(u) <- position) from_perm;
    let tr u = to_perm.(inv.(u)) in
    Mapping.make ~n ~m
      (List.map
         (fun iv ->
           { iv with Mapping.procs = List.sort Int.compare (List.map tr iv.Mapping.procs) })
         (Mapping.intervals mapping))
  end
