open Relpipe_model
module F = Relpipe_util.Float_cmp

type evaluation = { latency : float; period : float; failure : float }

type constraints = { max_latency : float; max_period : float }

type solution = { mapping : Mapping.t; evaluation : evaluation }

let evaluate instance mapping =
  let { Instance.pipeline; platform } = instance in
  {
    latency = Latency.of_mapping pipeline platform mapping;
    period = Period.of_mapping pipeline platform mapping;
    failure = Failure.of_mapping platform mapping;
  }

let feasible ?eps c e =
  F.leq ?eps e.latency c.max_latency && F.leq ?eps e.period c.max_period

let exact_min_failure ?(budget = 5_000_000) instance constraints =
  let { Instance.pipeline; platform } = instance in
  let n = Pipeline.length pipeline and m = Platform.size platform in
  if Exact.count_mappings ~n ~m () > budget then
    raise (Exact.Too_large "Tri.exact_min_failure: over budget");
  let best = ref None in
  Exact.iter_mappings ~n ~m (fun mapping ->
      let e = evaluate instance mapping in
      if feasible constraints e then begin
        match !best with
        | Some b when b.evaluation.failure <= e.failure -> ()
        | _ -> best := Some { mapping; evaluation = e }
      end);
  !best

(* Balanced composition (same construction as Heuristics). *)
let balanced_composition pipeline p =
  let n = Pipeline.length pipeline in
  let total = Pipeline.total_work pipeline in
  let target j = float_of_int j *. total /. float_of_int p in
  let cuts = ref [] in
  let made = ref 0 in
  let acc = ref 0.0 in
  for k = 1 to n - 1 do
    acc := !acc +. Pipeline.work pipeline k;
    if !made < p - 1 && !acc >= target (!made + 1) && n - k >= p - 1 - !made
    then begin
      cuts := k :: !cuts;
      incr made
    end
  done;
  let rec force k =
    if !made < p - 1 then begin
      if not (List.mem k !cuts) then begin
        cuts := k :: !cuts;
        incr made
      end;
      force (k - 1)
    end
  in
  force (n - 1);
  let bounds = List.sort Int.compare !cuts in
  let rec build first = function
    | [] -> [ (first, n) ]
    | c :: tl -> (first, c) :: build (c + 1) tl
  in
  build 1 bounds

let greedy_min_failure instance constraints =
  let { Instance.pipeline; platform } = instance in
  let n = Pipeline.length pipeline and m = Platform.size platform in
  let best = ref None in
  let keep mapping =
    let e = evaluate instance mapping in
    if feasible constraints e then begin
      match !best with
      | Some b when b.evaluation.failure <= e.failure -> ()
      | _ -> best := Some { mapping; evaluation = e }
    end
  in
  let try_p p =
    let intervals = Array.of_list (balanced_composition pipeline p) in
    if Array.length intervals <> p then ()
    else begin
      let order_by_work =
        List.sort
          (fun i j ->
            Float.compare
              (Pipeline.work_sum pipeline ~first:(fst intervals.(j))
                 ~last:(snd intervals.(j)))
              (Pipeline.work_sum pipeline ~first:(fst intervals.(i))
                 ~last:(snd intervals.(i))))
          (List.init p Fun.id)
      in
      let fastest = Array.of_list (Mono.fastest_procs platform) in
      let sets = Array.make p [] in
      List.iteri (fun rank j -> sets.(j) <- [ fastest.(rank) ]) order_by_work;
      let used = Array.make m false in
      Array.iter (List.iter (fun u -> used.(u) <- true)) sets;
      let build () =
        Mapping.make ~n ~m
          (List.init p (fun j ->
               {
                 Mapping.first = fst intervals.(j);
                 last = snd intervals.(j);
                 procs = List.sort Int.compare sets.(j);
               }))
      in
      keep (build ());
      (* Greedy additions: take the (proc, interval) pair that most reduces
         FP while both thresholds stay satisfied. *)
      let improved = ref true in
      while !improved do
        improved := false;
        let current_best_fp =
          match !best with Some b -> b.evaluation.failure | None -> Float.infinity
        in
        let best_move = ref None in
        for u = 0 to m - 1 do
          if not used.(u) then
            for j = 0 to p - 1 do
              sets.(j) <- u :: sets.(j);
              let mapping = build () in
              let e = evaluate instance mapping in
              if feasible constraints e && e.failure < current_best_fp then begin
                match !best_move with
                | Some (fp, _, _) when fp <= e.failure -> ()
                | _ -> best_move := Some (e.failure, u, j)
              end;
              sets.(j) <- List.tl sets.(j)
            done
        done;
        match !best_move with
        | Some (_, u, j) ->
            sets.(j) <- u :: sets.(j);
            used.(u) <- true;
            keep (build ());
            improved := true
        | None -> ()
      done
    end
  in
  for p = 1 to min n m do
    try_p p
  done;
  !best

let pp_evaluation ppf e =
  Format.fprintf ppf "latency=%g period=%g failure=%g" e.latency e.period
    e.failure
