open Relpipe_model
module B = Relpipe_util.Bitset
module F = Relpipe_util.Float_cmp
module Obs = Relpipe_obs.Obs
module Pool = Relpipe_pool.Pool
module W = Relpipe_util.Workspace

type stats = { nodes : int; evaluated : int; pruned : int }

(* ------------------------------------------------------------------ *)
(* Epsilon-safe bound inflation                                        *)
(* ------------------------------------------------------------------ *)

(* The one slack constant shared by every sound-upper-bound cut: churn
   warm starts (PR 8) and the parallel probe's shared incumbent both
   inflate a known-feasible objective by [prune_slack] (relative, with an
   absolute floor of the same magnitude) before using it as
   [?prune_above].  The slack strictly dominates the eps-tolerance of
   {!Instance.better} (16 x its default eps), so an optimum that ties the
   bound within tolerance is never cut.  test/test_par_exact.ml pins the
   value. *)
let prune_slack = 16. *. F.default_eps
let inflate_bound b = b +. (prune_slack *. Float.max 1.0 (Float.abs b))

(* Lock-free monotone-min cell: the shared incumbent of the parallel
   probe.  [improve] is a CAS retry loop; losing a race only means
   re-reading a value that some other domain already lowered, so no
   published improvement is ever lost (test/test_par_exact.ml races 8
   domains over one cell to check exactly that). *)
module Bound = struct
  type t = float Atomic.t

  let create v = Atomic.make v
  let get = Atomic.get

  let rec improve t v =
    let cur = Atomic.get t in
    if v < cur && not (Atomic.compare_and_set t cur v) then improve t v
end

(* ------------------------------------------------------------------ *)
(* Search transcript (certificates)                                    *)
(* ------------------------------------------------------------------ *)

module Record = struct
  type reason = Threshold | Dominated

  type status =
    | Expanded
    | Evaluated of { latency : float; failure : float }
    | Pruned of { reason : reason; latency_lb : float; partial_failure : float }

  type node = { path : (int * int * B.t) list; status : status }
end

(* Per-mask memo tables, workspace-backed and NaN-reset at the start of
   every solve (the reset is what keeps consecutive solves independent —
   see the regression test in test/test_bb.ml).  Only allocated up to
   [memo_max_procs]: beyond that 2^m tables would dwarf the search itself,
   and the solver falls back to recomputing each term. *)
let memo_max_procs = 16
let ws_minspd = W.floats ()
let ws_input = W.floats ()
let ws_logsurv = W.floats ()

type memo = {
  minspd : float array;  (* slowest speed in the mask *)
  input : float array;  (* cost of the Pin sends to every mask member *)
  logsurv : float array;  (* log1p (-. interval failure) of the mask *)
}

(* Mutable search context. *)
type ctx = {
  instance : Instance.t;
  objective : Instance.objective;
  n : int;
  m : int;
  (* Flat snapshots of the instance, so the search never allocates
     [Platform.Proc _] endpoints or re-derives interval work sums. *)
  wp : float array;  (* work prefix sums, wp.(k) = w_1 + ... + w_k *)
  deltas : float array;  (* deltas.(k) = delta_k *)
  spd : float array;
  bw_out : float array;  (* u -> Pout *)
  bw_pp : float array;  (* u -> v at u*m+v, diagonal unused *)
  rem : float array;  (* rem.(d): remaining-work bound after stage d *)
  (* Upper bound on the objective: subtrees whose objective lower bound
     strictly exceeds it cannot contain the optimum, so cutting them
     leaves the returned solution bit-identical to an unbounded solve.
     A static [?prune_above] (PR 8 warm starts) and the probe phase's
     shared cell both live here; serial solves never write it. *)
  bound : Bound.t;
  (* Publish improvements of the local incumbent into [bound] (inflated
     by [inflate_bound]); on only inside parallel probe tasks. *)
  publish : bool;
  (* Append a transcript entry per node; on only under [Record.solve]. *)
  record : bool;
  memo : memo option;
  mutable best : Solution.t option;
  mutable log : Record.node list;
  (* Node budget: -1 is unlimited, otherwise the search stops expanding
     once the budget is spent (probe tasks and {!solve_budgeted} — a
     budgeted search is still sound as a bound source because it
     publishes nothing but fully evaluated feasible mappings). *)
  mutable fuel : int;
  mutable nodes : int;
  mutable evaluated : int;
  mutable pruned : int;
}

let incumbent_objective ctx =
  match ctx.best with
  | None -> Float.infinity
  | Some s -> Instance.objective_value ctx.objective s.Solution.evaluation

type verdict = Keep | Cut of Record.reason

let prune_ex ctx ~partial_latency ~partial_failure ~done_upto =
  (* ctx.rem.(done_upto) is the lower bound on the latency still to be
     paid for stages > done_upto: remaining work at the fastest speed
     (communications >= 0). *)
  let latency_lb = partial_latency +. ctx.rem.(done_upto) in
  let incumbent = incumbent_objective ctx in
  let bound0 = Bound.get ctx.bound in
  match ctx.objective with
  | Instance.Min_failure { max_latency } ->
      if not (F.leq latency_lb max_latency) then Cut Record.Threshold
      else if partial_failure >= incumbent || partial_failure > bound0 then
        Cut Record.Dominated
      else Keep

  | Instance.Min_latency { max_failure } ->
      if not (F.leq partial_failure max_failure) then Cut Record.Threshold
      else if latency_lb >= incumbent || latency_lb > bound0 then
        Cut Record.Dominated
      else Keep

(* Slowest speed in [procs]; memoized per mask.  Ascending scan, matching
   the reference's fold order. *)
let min_speed ctx procs =
  let mask = (procs : B.t :> int) in
  let compute () =
    let acc = ref Float.infinity in
    for u = 0 to ctx.m - 1 do
      if mask land (1 lsl u) <> 0 then acc := Float.min !acc ctx.spd.(u)
    done;
    !acc
  in
  match ctx.memo with
  | None -> compute ()
  | Some memo ->
      let cached = memo.minspd.(mask) in
      if Float.is_nan cached then begin
        let value = compute () in
        memo.minspd.(mask) <- value;
        value
      end
      else cached

(* Lower bound on a pending interval's eventual term: its computation on
   its own slowest replica (outgoing communications >= 0).  Division by a
   positive speed is antitone and rounding is monotone, so the reference's
   max over [work /. speed u] is exactly [work /. min speed] — one
   division against the memoized slowest speed. *)
let pending_bound ctx (first, last, procs) =
  let work = ctx.wp.(last) -. ctx.wp.(first - 1) in
  work /. min_speed ctx procs

(* The Eq. 2 term of a closed interval, given the replication set of its
   successor.  Targets are scanned in descending processor order — the
   order [endpoints_of] produced in the reference — so the communication
   sums round identically. *)
let interval_term ctx (first, last, procs) next_mask =
  let work = ctx.wp.(last) -. ctx.wp.(first - 1) in
  let out_size = ctx.deltas.(last) in
  let pmask = (procs : B.t :> int) in
  let acc = ref Float.neg_infinity in
  for u = 0 to ctx.m - 1 do
    if pmask land (1 lsl u) <> 0 then begin
      let compute = work /. ctx.spd.(u) in
      let comm = ref 0.0 in
      let bw_row = u * ctx.m in
      for v = ctx.m - 1 downto 0 do
        if next_mask land (1 lsl v) <> 0 then
          comm := !comm +. (out_size /. ctx.bw_pp.(bw_row + v))
      done;
      acc := Float.max !acc (compute +. !comm)
    end
  done;
  !acc

(* Same term when the successor is Pout (the final close). *)
let interval_term_out ctx (first, last, procs) =
  let work = ctx.wp.(last) -. ctx.wp.(first - 1) in
  let out_size = ctx.deltas.(last) in
  let pmask = (procs : B.t :> int) in
  let acc = ref Float.neg_infinity in
  for u = 0 to ctx.m - 1 do
    if pmask land (1 lsl u) <> 0 then begin
      let compute = work /. ctx.spd.(u) in
      let comm = 0.0 +. (out_size /. ctx.bw_out.(u)) in
      acc := Float.max !acc (compute +. comm)
    end
  done;
  !acc

(* Cost of the input sends to every member of [subset]; memoized per mask.
   Ascending accumulation, matching the reference's fold order. *)
let input_cost ctx subset =
  let mask = (subset : B.t :> int) in
  let compute () =
    let acc = ref 0.0 in
    let platform = ctx.instance.Instance.platform in
    for u = 0 to ctx.m - 1 do
      if mask land (1 lsl u) <> 0 then
        acc :=
          !acc
          +. ctx.deltas.(0)
             /. Platform.bandwidth platform Platform.Pin (Platform.Proc u)
    done;
    !acc
  in
  match ctx.memo with
  | None -> compute ()
  | Some memo ->
      let cached = memo.input.(mask) in
      if Float.is_nan cached then begin
        let value = compute () in
        memo.input.(mask) <- value;
        value
      end
      else cached

(* log1p (-. pi) of a replication set; memoized per mask. *)
let log_survival_term ctx subset =
  let compute () =
    let pi =
      Failure.interval_failure ctx.instance.Instance.platform
        (B.elements subset)
    in
    Float.log1p (-.pi)
  in
  match ctx.memo with
  | None -> compute ()
  | Some memo ->
      let mask = (subset : B.t :> int) in
      let cached = memo.logsurv.(mask) in
      if Float.is_nan cached then begin
        let value = compute () in
        memo.logsurv.(mask) <- value;
        value
      end
      else cached

(* Transcript entry for the node identified by [closed]/[pending]; only
   ever called with [ctx.record] on, so the path materialization stays
   off the ordinary hot path. *)
let record_node ctx ~closed ~pending status =
  let rpath = match pending with None -> closed | Some p -> p :: closed in
  ctx.log <- { Record.path = List.rev rpath; status } :: ctx.log

(* A spent budget refused a node: abandon the search at once. *)
exception Out_of_fuel

let rec branch (ctx : ctx) ~next_stage ~used ~closed ~pending ~latency_closed
    ~log_survival =
  (* [closed]: reversed list of finalized intervals (term already added to
     latency_closed).  [pending]: the last chosen interval, whose outgoing
     term depends on the next decision. *)
  if ctx.fuel = 0 then raise_notrace Out_of_fuel
  else begin
    if ctx.fuel > 0 then ctx.fuel <- ctx.fuel - 1;
    ctx.nodes <- ctx.nodes + 1;
    let partial_failure = -.Float.expm1 log_survival in
    let pending_lb =
      match pending with None -> 0.0 | Some iv -> pending_bound ctx iv
    in
    let partial_latency = latency_closed +. pending_lb in
    match
      prune_ex ctx ~partial_latency ~partial_failure
        ~done_upto:(next_stage - 1)
    with
    | Cut reason ->
        ctx.pruned <- ctx.pruned + 1;
        if ctx.record then
          record_node ctx ~closed ~pending
            (Record.Pruned
               {
                 reason;
                 latency_lb = partial_latency +. ctx.rem.(next_stage - 1);
                 partial_failure;
               })
    | Keep ->
        if next_stage > ctx.n then begin
          (* Close the final interval against Pout and record the
             solution. *)
          match pending with
          | None -> assert false
          | Some ((_, _, _) as iv) ->
              let total = latency_closed +. interval_term_out ctx iv in
              ctx.evaluated <- ctx.evaluated + 1;
              if ctx.record then
                record_node ctx ~closed ~pending
                  (Record.Evaluated
                     { latency = total; failure = partial_failure });
              let mapping =
                Mapping.make ~n:ctx.n ~m:ctx.m
                  (List.rev_map
                     (fun (first, last, procs) ->
                       { Mapping.first; last; procs = B.elements procs })
                     (iv :: closed))
              in
              let evaluation =
                { Instance.latency = total; failure = partial_failure }
              in
              if Instance.feasible ctx.objective evaluation then begin
                let candidate = { Solution.mapping; evaluation } in
                match ctx.best with
                | Some b
                  when not
                         (Instance.better ctx.objective evaluation
                            b.Solution.evaluation) ->
                    ()
                | _ ->
                    ctx.best <- Some candidate;
                    if ctx.publish then
                      Bound.improve ctx.bound
                        (inflate_bound
                           (Instance.objective_value ctx.objective evaluation))
              end
        end
        else begin
          if ctx.record then record_node ctx ~closed ~pending Record.Expanded;
          let unused = B.diff (B.full ctx.m) used in
          (* Choose the next interval [next_stage .. e] and its replication
             set. *)
          for e = next_stage to ctx.n do
            B.iter_nonempty_subsets
              (fun subset ->
                let iv = (next_stage, e, subset) in
                let latency_closed' =
                  match pending with
                  | None ->
                      (* First interval: pay the input sends. *)
                      latency_closed +. input_cost ctx subset
                  | Some prev ->
                      latency_closed
                      +. interval_term ctx prev (subset : B.t :> int)
                in
                let log_survival' =
                  log_survival +. log_survival_term ctx subset
                in
                let closed' =
                  match pending with None -> closed | Some p -> p :: closed
                in
                branch ctx ~next_stage:(e + 1) ~used:(B.union used subset)
                  ~closed:closed' ~pending:(Some iv)
                  ~latency_closed:latency_closed' ~log_survival:log_survival')
              unused
          done
        end
  end

let make_ctx ?(prune_above = Float.infinity) ?bound ~publish ~record instance
    objective =
  let { Instance.pipeline; platform } = instance in
  let n = Pipeline.length pipeline and m = Platform.size platform in
  if m > B.max_width then invalid_arg "Bb.solve: too many processors";
  let wp = Pipeline.work_prefixes pipeline in
  let deltas = Array.init (n + 1) (Pipeline.delta pipeline) in
  let spd = Array.init m (Platform.speed platform) in
  let bw_out =
    Array.init m (fun u ->
        Platform.bandwidth platform (Platform.Proc u) Platform.Pout)
  in
  let bw_pp = Array.make (m * m) 0.0 in
  for u = 0 to m - 1 do
    for v = 0 to m - 1 do
      if u <> v then
        bw_pp.((u * m) + v) <-
          Platform.bandwidth platform (Platform.Proc u) (Platform.Proc v)
    done
  done;
  let max_speed = Array.fold_left Float.max 0.0 (Platform.speeds platform) in
  let rem = Array.make (n + 1) 0.0 in
  for d = 0 to n - 1 do
    rem.(d) <- (wp.(n) -. wp.(d)) /. max_speed
  done;
  let memo =
    if m > memo_max_procs then None
    else begin
      let masks = 1 lsl m in
      (* NaN-fill resets every table: a hit can never be a stale value
         from a previous solve. *)
      Some
        {
          minspd = W.get_floats ws_minspd ~len:masks ~fill:Float.nan;
          input = W.get_floats ws_input ~len:masks ~fill:Float.nan;
          logsurv = W.get_floats ws_logsurv ~len:masks ~fill:Float.nan;
        }
    end
  in
  let bound =
    match bound with Some b -> b | None -> Bound.create prune_above
  in
  {
    instance;
    objective;
    n;
    m;
    wp;
    deltas;
    spd;
    bw_out;
    bw_pp;
    rem;
    bound;
    publish;
    record;
    memo;
    best = None;
    log = [];
    fuel = -1;
    nodes = 0;
    evaluated = 0;
    pruned = 0;
  }

let run_branch ctx =
  branch ctx ~next_stage:1 ~used:B.empty ~closed:[] ~pending:None
    ~latency_closed:0.0 ~log_survival:0.0

(* A counted search under [fuel]; [false] when the budget ran out first. *)
let search ?prune_above ~fuel instance objective =
  let ctx = make_ctx ?prune_above ~publish:false ~record:false instance
      objective
  in
  ctx.fuel <- fuel;
  let complete = try run_branch ctx; true with Out_of_fuel -> false in
  let obs = Obs.ambient () in
  Obs.incr obs "core.bb.solves";
  Obs.add obs "core.bb.nodes" ctx.nodes;
  Obs.add obs "core.bb.evaluated" ctx.evaluated;
  Obs.add obs "core.bb.pruned" ctx.pruned;
  if not complete then Obs.incr obs "core.bb.exhausted";
  (ctx, complete)

let solve_with_stats ?prune_above instance objective =
  let ctx, _ = search ?prune_above ~fuel:(-1) instance objective in
  (ctx.best, { nodes = ctx.nodes; evaluated = ctx.evaluated; pruned = ctx.pruned })

let solve ?prune_above instance objective =
  fst (solve_with_stats ?prune_above instance objective)

type budgeted = Complete of Solution.t option | Exhausted of Solution.t option

let solve_budgeted ~budget instance objective =
  if budget < 0 then invalid_arg "Bb.solve_budgeted: negative budget";
  let ctx, complete = search ~fuel:budget instance objective in
  (* Re-priced by the flat evaluation enumeration and the heuristics use. *)
  let reprice s = Solution.of_mapping instance s.Solution.mapping in
  let best = Option.map reprice ctx.best in
  if complete then Complete best else Exhausted best

(* ------------------------------------------------------------------ *)
(* Recorded solve (certificate emission)                               *)
(* ------------------------------------------------------------------ *)

let solve_recorded instance objective =
  (* Unbounded on purpose: every Dominated cut in the transcript is then
     justified by the local incumbent alone, whose objective is an upper
     bound on the optimum — the independent checker re-derives exactly
     that (lib/cert).  Serial, so the transcript is deterministic. *)
  let ctx = make_ctx ~publish:false ~record:true instance objective in
  run_branch ctx;
  ( ctx.best,
    { nodes = ctx.nodes; evaluated = ctx.evaluated; pruned = ctx.pruned },
    List.rev ctx.log )

(* ------------------------------------------------------------------ *)
(* Parallel solve                                                      *)
(* ------------------------------------------------------------------ *)

type par_stats = { tasks : int; probe_nodes : int; confirm : stats }

(* Probe budget: every frontier task gets a fixed node allowance carved
   from a global pool, so the probe phase costs a bounded slice of the
   search no matter how large the frontier is.  The values only shape
   how tight the probe bound gets — never the answer. *)
let probe_task_fuel = 2048
let probe_total_fuel = 1 lsl 17

(* One probe context per domain per parallel solve: frontier tasks that
   land on the same domain share its memo tables (their entries are pure
   functions of the instance, so sharing is safe and scheduling-
   independent).  The generation stamp invalidates the cache across
   solves. *)
let par_generation = Atomic.make 0

type parcache = { gen : int; pctx : ctx }

let ws_parctx : parcache option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

type task = {
  t_e : int;  (* the first interval covers stages 1..t_e *)
  t_mask : B.t;  (* its replication set *)
  t_lc : float;  (* latency after the input sends *)
  t_ls : float;  (* log survival of the first interval *)
  t_key : float;  (* best-first ordering key (objective lower bound) *)
}

let solve_par_with_stats ?(prune_above = Float.infinity) ~workers instance
    objective =
  let obs = Obs.ambient () in
  (* Phase 1 — probe: distribute the root frontier (every choice of first
     interval) over the pool in best-first order.  Tasks run budgeted
     depth-first searches against a shared epsilon-inflated incumbent
     cell: any feasible mapping a task completes publishes
     [inflate_bound objective] into the cell, root-pruning weaker
     subtrees on every domain.  Nothing the probe finds is trusted as an
     answer — it only tightens a sound upper bound. *)
  let root =
    make_ctx ~prune_above ~publish:false ~record:false instance objective
  in
  let shared = root.bound in
  let root_kept =
    prune_ex root
      ~partial_latency:(0.0 +. 0.0)
      ~partial_failure:(-.Float.expm1 0.0)
      ~done_upto:0
    = Keep
  in
  let tasks =
    if not root_kept then [||]
    else begin
      let acc = ref [] in
      for e = 1 to root.n do
        B.iter_nonempty_subsets
          (fun subset ->
            let t_lc = 0.0 +. input_cost root subset in
            let t_ls = 0.0 +. log_survival_term root subset in
            let t_key =
              match objective with
              | Instance.Min_failure _ -> -.Float.expm1 t_ls
              | Instance.Min_latency _ ->
                  (t_lc +. pending_bound root (1, e, subset)) +. root.rem.(e)
            in
            acc := { t_e = e; t_mask = subset; t_lc; t_ls; t_key } :: !acc)
          (B.full root.m)
      done;
      let arr = Array.of_list (List.rev !acc) in
      (* Stable: equal keys keep the serial enumeration order. *)
      Array.stable_sort (fun a b -> Float.compare a.t_key b.t_key) arr;
      arr
    end
  in
  let gen = 1 + Atomic.fetch_and_add par_generation 1 in
  let fuel_pool = Atomic.make probe_total_fuel in
  let probe task =
    let granted =
      Atomic.fetch_and_add fuel_pool (-probe_task_fuel) > 0
    in
    if not granted then 0
    else begin
      let cell = Domain.DLS.get ws_parctx in
      let ctx =
        match !cell with
        | Some { gen = g; pctx } when g = gen -> pctx
        | _ ->
            let pctx =
              make_ctx ~bound:shared ~publish:true ~record:false instance
                objective
            in
            cell := Some { gen; pctx };
            pctx
      in
      ctx.best <- None;
      ctx.fuel <- probe_task_fuel;
      let n0 = ctx.nodes in
      (try branch ctx ~next_stage:(task.t_e + 1) ~used:task.t_mask ~closed:[]
         ~pending:(Some (1, task.t_e, task.t_mask)) ~latency_closed:task.t_lc
         ~log_survival:task.t_ls
       with Out_of_fuel -> ());
      ctx.nodes - n0
    end
  in
  let visited, _pool_stats = Pool.map ?obs ~workers probe tasks in
  let probe_nodes = Array.fold_left ( + ) 0 visited in
  (* Phase 2 — confirm: one serial pass under the probe's bound.  The
     cell holds min(prune_above, inflate(best published objective)),
     which is a sound upper bound on the optimum, so by the
     [?prune_above] contract the pass returns the answer an unbounded
     serial solve would return, bit for bit — at every worker count.  Its
     node counts depend on how tight the probe got, so they are kept out
     of the ambient metrics (only the deterministic task/solve counters
     are recorded). *)
  let best, confirm =
    Obs.with_ambient None (fun () ->
        solve_with_stats ~prune_above:(Bound.get shared) instance objective)
  in
  Obs.incr obs "core.exact.par.bb.solves";
  Obs.add obs "core.exact.par.bb.tasks" (Array.length tasks);
  (best, { tasks = Array.length tasks; probe_nodes; confirm })

let solve_par ?prune_above ~workers instance objective =
  fst (solve_par_with_stats ?prune_above ~workers instance objective)
