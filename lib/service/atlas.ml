(* Streaming atlas driver.  See atlas.mli for the contract. *)

open Relpipe_model
module Obs = Relpipe_obs.Obs
module Stream = Relpipe_obs.Stream
module Smap = Map.Make (String)

type slot = {
  sl_text : string;
  sl_objective : Instance.objective;
  sl_method : Relpipe_core.Solver.method_;
  sl_class : string;
}

type event = { ev_index : int; ev_slot : int; ev_gap_ns : int }

type source = { slots : slot array; events : (event -> unit) -> unit }

type report = {
  requests : int;
  pool : int;
  chunk : int;
  chunks : int;
  solved : int;
  infeasible : int;
  failed : int;
  cache_hits : int;
  distinct_slots : int;
  bloom_dups : int;
  bloom_bits : int;
  bloom_hashes : int;
  bloom_set_bits : int;
  latency : Stream.Quantile.t;
  gap_ewma_ns : float;
  hit_ewma : float;
  total_gap_ns : int;
  curve : (int * float) list;
  class_counts : (string * int) list;
}

(* The bloom filter keys on request content, not slot index, so it sees
   exactly what a cache in front of the service would see.  [%h] renders
   thresholds exactly (hex floats), keeping keys injective. *)
let bloom_key slot =
  let obj =
    match slot.sl_objective with
    | Instance.Min_latency { max_failure } -> Printf.sprintf "ml:%h" max_failure
    | Instance.Min_failure { max_latency } -> Printf.sprintf "mf:%h" max_latency
  in
  String.concat "\n" [ Protocol.method_to_string slot.sl_method; obj; slot.sl_text ]

let request_of_slot slot =
  Protocol.request ~method_:slot.sl_method
    ~instance:(Protocol.Inline slot.sl_text) slot.sl_objective

let run ?obs ?(chunk = 512) ?(accuracy = 0.01) ?(ewma_alpha = 0.05)
    ?(bloom_fp = 0.01) ?(bloom_expected = 65536) ~solve source =
  if Array.length source.slots = 0 then
    invalid_arg "Atlas.run: empty slot array";
  if chunk <= 0 then invalid_arg "Atlas.run: chunk must be positive";
  let pool = Array.length source.slots in
  let latency = Stream.Quantile.create ~accuracy () in
  let gap_ewma = Stream.Ewma.create ~alpha:ewma_alpha in
  let hit_ewma = Stream.Ewma.create ~alpha:ewma_alpha in
  let bloom = Stream.Bloom.create ~fp_rate:bloom_fp ~expected:bloom_expected () in
  let touched = Array.make pool false in
  let requests = ref 0 in
  let answered = ref 0 in
  let chunks = ref 0 in
  let solved = ref 0 in
  let infeasible = ref 0 in
  let failed = ref 0 in
  let cache_hits = ref 0 in
  let bloom_dups = ref 0 in
  let total_gap_ns = ref 0 in
  let curve = ref [] in
  let class_counts = ref Smap.empty in
  (* One chunk of pending requests: the only stream-length-proportional
     thing the driver ever holds is this buffer. *)
  let buf = Array.make chunk None in
  let buf_len = ref 0 in
  let next_checkpoint = ref 10 in
  let flush () =
    if !buf_len > 0 then begin
      let reqs =
        Array.init !buf_len (fun i ->
            match buf.(i) with Some r -> r | None -> assert false)
      in
      Array.fill buf 0 !buf_len None;
      let n = !buf_len in
      buf_len := 0;
      let resps = solve reqs in
      if Array.length resps <> n then
        invalid_arg "Atlas.run: solver returned wrong response count";
      incr chunks;
      Obs.incr obs "atlas.chunks";
      Array.iter
        (fun (r : Protocol.response) ->
          (match r.Protocol.r_cache with
          | Protocol.Hit ->
              incr cache_hits;
              Obs.incr obs "atlas.cache_hits";
              Stream.Ewma.observe hit_ewma 1.0
          | Protocol.Miss -> Stream.Ewma.observe hit_ewma 0.0);
          incr answered;
          if !answered = !next_checkpoint then begin
            curve :=
              (!answered, float_of_int !cache_hits /. float_of_int !answered)
              :: !curve;
            next_checkpoint := !next_checkpoint * 10
          end;
          match r.Protocol.r_outcome with
          | Protocol.Solved { latency = l; _ } ->
              incr solved;
              Obs.incr obs "atlas.solved";
              Obs.observe obs "atlas.latency" l;
              Stream.Quantile.add latency l
          | Protocol.Infeasible ->
              incr infeasible;
              Obs.incr obs "atlas.infeasible"
          | Protocol.Failed _ ->
              incr failed;
              Obs.incr obs "atlas.failed")
        resps
    end
  in
  source.events (fun ev ->
      if ev.ev_slot < 0 || ev.ev_slot >= pool then
        invalid_arg "Atlas.run: event slot out of range";
      let slot = source.slots.(ev.ev_slot) in
      incr requests;
      Obs.incr obs "atlas.requests";
      touched.(ev.ev_slot) <- true;
      if ev.ev_index > 0 then begin
        total_gap_ns := !total_gap_ns + ev.ev_gap_ns;
        Stream.Ewma.observe gap_ewma (float_of_int ev.ev_gap_ns)
      end;
      if Stream.Bloom.add bloom (bloom_key slot) then begin
        incr bloom_dups;
        Obs.incr obs "atlas.bloom_dups"
      end;
      class_counts :=
        Smap.update slot.sl_class
          (function None -> Some 1 | Some c -> Some (c + 1))
          !class_counts;
      buf.(!buf_len) <- Some (request_of_slot slot);
      incr buf_len;
      if !buf_len >= chunk then flush ());
  flush ();
  (* Final checkpoint: the stream end, whatever the length. *)
  let curve =
    let c = !curve in
    let at_end =
      match c with (p, _) :: _ when p = !answered -> true | _ -> false
    in
    let c =
      if at_end || !answered = 0 then c
      else (!answered, float_of_int !cache_hits /. float_of_int !answered) :: c
    in
    List.rev c
  in
  let distinct_slots =
    Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 touched
  in
  Obs.gauge_set obs "atlas.pool" pool;
  Obs.gauge_set obs "atlas.distinct_slots" distinct_slots;
  Obs.gauge_set obs "stream.bloom.set_bits" (Stream.Bloom.set_bits bloom);
  Obs.gauge_set obs "stream.sketch.buckets"
    (List.length (Stream.Quantile.buckets latency));
  {
    requests = !requests;
    pool;
    chunk;
    chunks = !chunks;
    solved = !solved;
    infeasible = !infeasible;
    failed = !failed;
    cache_hits = !cache_hits;
    distinct_slots;
    bloom_dups = !bloom_dups;
    bloom_bits = Stream.Bloom.bits bloom;
    bloom_hashes = Stream.Bloom.hashes bloom;
    bloom_set_bits = Stream.Bloom.set_bits bloom;
    latency;
    gap_ewma_ns = Stream.Ewma.value gap_ewma;
    hit_ewma = Stream.Ewma.value hit_ewma;
    total_gap_ns = !total_gap_ns;
    curve;
    class_counts = Smap.bindings !class_counts;
  }

let hit_rate r =
  if r.requests = 0 then 0.0
  else float_of_int r.cache_hits /. float_of_int r.requests

let render r =
  let b = Buffer.create 1024 in
  let pf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  pf "relpipe atlas report\n";
  pf "requests:       %d (pool %d, distinct %d)\n" r.requests r.pool
    r.distinct_slots;
  pf "chunks:         %d (chunk %d)\n" r.chunks r.chunk;
  pf "outcomes:       solved %d, infeasible %d, failed %d\n" r.solved
    r.infeasible r.failed;
  pf "cache:          hits %d (rate %.4f, ewma %.4f)\n" r.cache_hits
    (hit_rate r) r.hit_ewma;
  pf "bloom:          dups %d (bits %d, hashes %d, set %d)\n" r.bloom_dups
    r.bloom_bits r.bloom_hashes r.bloom_set_bits;
  let q phi = Stream.Quantile.quantile r.latency phi in
  pf "latency:        p50 %.6g, p90 %.6g, p95 %.6g, p99 %.6g (n %d, accuracy %g)\n"
    (q 0.5) (q 0.9) (q 0.95) (q 0.99)
    (Stream.Quantile.count r.latency)
    (Stream.Quantile.accuracy r.latency);
  let rate =
    if r.requests <= 1 || r.total_gap_ns = 0 then 0.0
    else
      float_of_int (r.requests - 1) *. 1e9 /. float_of_int r.total_gap_ns
  in
  pf "arrivals:       %.1f req/s offered (gap ewma %.0f ns, stream span %d ns)\n"
    rate r.gap_ewma_ns r.total_gap_ns;
  pf "hit-rate curve:";
  List.iter (fun (pos, rate) -> pf " %d:%.4f" pos rate) r.curve;
  pf "\n";
  pf "classes:       ";
  List.iter (fun (cls, n) -> pf " %s:%d" cls n) r.class_counts;
  pf "\n";
  Buffer.contents b
