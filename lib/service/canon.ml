open Relpipe_model

let version = 2

let quantize x =
  if Float.is_finite x then float_of_string (Printf.sprintf "%.12g" x) else x

(* The canonical serialization renders every float at the quantization
   precision, so values equal after quantization serialize identically. *)
let q x = Printf.sprintf "%.12g" x

type normalized = { key : string; perm : int array }

let canonical_perm platform ~symmetric =
  let m = Platform.size platform in
  let perm = Array.init m Fun.id in
  if symmetric then
    (* Stable order on (quantized speed, quantized failure), falling back
       to the declared index so equal processors keep a deterministic
       relative order. *)
    Array.sort
      (fun a b ->
        let c =
          Float.compare
            (quantize (Platform.speed platform a))
            (quantize (Platform.speed platform b))
        in
        if c <> 0 then c
        else
          let c =
            Float.compare
              (quantize (Platform.failure platform a))
              (quantize (Platform.failure platform b))
          in
          if c <> 0 then c else Int.compare a b)
      perm;
  perm

let normalize ~budget ~method_ instance objective =
  let pipeline = instance.Instance.pipeline in
  let platform = instance.Instance.platform in
  let n = Pipeline.length pipeline in
  let m = Platform.size platform in
  let common_bw = Classify.common_bandwidth platform in
  let symmetric = Option.is_some common_bw in
  let perm = canonical_perm platform ~symmetric in
  let buf = Buffer.create 512 in
  let addf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  addf "relpipe-canon/v%d\n" version;
  addf "method %s budget %d\n" (Protocol.method_to_string method_) budget;
  (match objective with
  | Instance.Min_failure { max_latency } ->
      addf "objective min_failure %s\n" (q max_latency)
  | Instance.Min_latency { max_failure } ->
      addf "objective min_latency %s\n" (q max_failure));
  addf "n %d m %d\n" n m;
  addf "input %s\n" (q (Pipeline.delta pipeline 0));
  for k = 1 to n do
    addf "stage %s %s\n" (q (Pipeline.work pipeline k)) (q (Pipeline.delta pipeline k))
  done;
  Array.iter
    (fun u ->
      addf "proc %s %s\n" (q (Platform.speed platform u)) (q (Platform.failure platform u)))
    perm;
  (match common_bw with
  | Some b -> addf "links homog %s\n" (q b)
  | None ->
      (* Full matrix in declared order ([perm] is the identity here): the
         one-port clique including the Pin/Pout endpoints. *)
      let endpoints =
        (Platform.Pin :: List.map (fun u -> Platform.Proc u) (Platform.procs platform))
        @ [ Platform.Pout ]
      in
      List.iteri
        (fun i a ->
          List.iteri
            (fun j b ->
              if i < j then addf "link %d %d %s\n" i j (q (Platform.bandwidth platform a b)))
            endpoints)
        endpoints);
  let key = Printf.sprintf "v%d:%s" version (Digest.to_hex (Digest.string (Buffer.contents buf))) in
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
