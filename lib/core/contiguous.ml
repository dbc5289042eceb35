open Relpipe_model

let solve ?(max_intervals = 3) instance objective =
  if not (Classify.links_homogeneous instance.Instance.platform) then
    invalid_arg "Contiguous.solve: links must be homogeneous";
  let { Instance.pipeline; platform } = instance in
  let n = Pipeline.length pipeline and m = Platform.size platform in
  let order = Array.of_list (Mono.fastest_procs platform) in
  let best = ref None in
  let consider mapping =
    let s = Solution.of_mapping instance mapping in
    if Instance.feasible objective s.Solution.evaluation then
      best := Solution.best objective !best (Some s)
  in
  (* Enumerate p disjoint segments [a, b] of the speed-sorted axis in
     left-to-right order, then all assignments of segments to intervals. *)
  let rec segments start p acc k =
    if p = 0 then k (List.rev acc)
    else
      for a = start to m - p do
        for b = a to m - 1 - (p - 1) do
          segments (b + 1) (p - 1) ((a, b) :: acc) k
        done
      done
  in
  let try_composition intervals =
    let p = List.length intervals in
    if p <= max_intervals && p <= m then
      segments 0 p [] (fun segs ->
          Seq.iter
            (fun perm ->
              let ivs =
                List.map2
                  (fun (first, last) (a, b) ->
                    let procs = List.init (b - a + 1) (fun i -> order.(a + i)) in
                    { Mapping.first; last; procs })
                  intervals perm
              in
              consider (Mapping.make ~n ~m ivs))
            (Relpipe_util.Combin.permutations segs))
  in
  Seq.iter try_composition (Relpipe_util.Combin.compositions n);
  !best
