open Relpipe_model
module B = Relpipe_util.Bitset
module C = Relpipe_util.Combin

exception Too_large of string

let iter_mappings ?max_intervals ~n ~m f =
  if m > B.max_width then invalid_arg "Exact.iter_mappings: too many processors";
  let cap = Option.value max_intervals ~default:(min n m) in
  let pool = B.full m in
  Seq.iter
    (fun intervals ->
      let p = List.length intervals in
      if p <= cap && p <= m then
        Seq.iter
          (fun subsets ->
            let ivs =
              List.map2
                (fun (first, last) procs ->
                  { Mapping.first; last; procs = B.elements procs })
                intervals subsets
            in
            f (Mapping.make ~n ~m ivs))
          (C.disjoint_assignments pool p))
    (C.compositions n)

(* Saturating arithmetic on non-negative ints: the count only ever meets
   a budget comparison, so [max_int] stands for "too many". *)
let sat_add a b = if a > max_int - b then max_int else a + b

let sat_mul a b =
  if a = 0 || b = 0 then 0 else if a > max_int / b then max_int else a * b

(* With p intervals there are C(n-1, p-1) compositions and p! S(m+1, p+1)
   ordered tuples of pairwise-disjoint non-empty replica sets: the extra
   element of S(m+1, .) carries the block of idle processors. *)
let count_mappings ?max_intervals ~n ~m () =
  if m > B.max_width then invalid_arg "Exact.iter_mappings: too many processors";
  let cap = min (Option.value max_intervals ~default:(min n m)) (min n m) in
  if cap < 1 then 0
  else begin
    (* stirling.(k) = S(m+1, k), built row by row from S(0, 0) = 1. *)
    let stirling = Array.make (cap + 2) 0 in
    stirling.(0) <- 1;
    for _ = 1 to m + 1 do
      for k = cap + 1 downto 1 do
        stirling.(k) <- sat_add (sat_mul k stirling.(k)) stirling.(k - 1)
      done;
      stirling.(0) <- 0
    done;
    (* binomial.(k) = C(n-1, k), Pascal's rule row by row. *)
    let binomial = Array.make cap 0 in
    binomial.(0) <- 1;
    for _ = 1 to n - 1 do
      for k = cap - 1 downto 1 do
        binomial.(k) <- sat_add binomial.(k) binomial.(k - 1)
      done
    done;
    let total = ref 0 and factorial = ref 1 in
    for p = 1 to cap do
      factorial := sat_mul !factorial p;
      total :=
        sat_add !total
          (sat_mul binomial.(p - 1) (sat_mul !factorial stirling.(p + 1)))
    done;
    !total
  end

let solve ?max_intervals ?(budget = 5_000_000) instance objective =
  let { Instance.pipeline; platform } = instance in
  let n = Pipeline.length pipeline and m = Platform.size platform in
  let space = count_mappings ?max_intervals ~n ~m () in
  if space > budget then
    raise
      (Too_large
         (Printf.sprintf "Exact.solve: more than %d mappings (n=%d m=%d)" budget
            n m));
  let best = ref None in
  iter_mappings ?max_intervals ~n ~m (fun mapping ->
      let s = Solution.of_mapping instance mapping in
      if Instance.feasible objective s.Solution.evaluation then
        best := Solution.best objective !best (Some s));
  !best

let solve_single_interval instance objective =
  let { Instance.pipeline; platform } = instance in
  let n = Pipeline.length pipeline and m = Platform.size platform in
  if m > B.max_width then
    invalid_arg "Exact.solve_single_interval: too many processors";
  let best = ref None in
  Seq.iter
    (fun subset ->
      let mapping = Mapping.single_interval ~n ~m (B.elements subset) in
      let s = Solution.of_mapping instance mapping in
      if Instance.feasible objective s.Solution.evaluation then
        best := Solution.best objective !best (Some s))
    (B.nonempty_subsets (B.full m));
  !best

let min_latency_unreplicated instance =
  let { Instance.pipeline; platform } = instance in
  let n = Pipeline.length pipeline and m = Platform.size platform in
  let best = ref None in
  Seq.iter
    (fun intervals ->
      let p = List.length intervals in
      if p <= m then
        Seq.iter
          (fun procs ->
            let ivs =
              List.map2
                (fun (first, last) u -> { Mapping.first; last; procs = [ u ] })
                intervals procs
            in
            let mapping = Mapping.make ~n ~m ivs in
            let latency = Latency.of_mapping pipeline platform mapping in
            match !best with
            | Some (bl, _) when bl <= latency -> ()
            | _ -> best := Some (latency, mapping))
          (C.injections p (Platform.procs platform)))
    (C.compositions n);
  !best

let min_latency instance =
  let { Instance.pipeline; platform } = instance in
  let n = Pipeline.length pipeline and m = Platform.size platform in
  let best = ref Float.infinity in
  iter_mappings ~n ~m (fun mapping ->
      let latency = Latency.of_mapping pipeline platform mapping in
      if latency < !best then best := latency);
  !best
