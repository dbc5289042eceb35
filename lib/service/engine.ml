open Relpipe_model
module Solver = Relpipe_core.Solver
module Solution = Relpipe_core.Solution
module Lru = Relpipe_util.Lru
module Analysis = Relpipe_analysis.Analysis
module Diagnostic = Relpipe_analysis.Diagnostic
module Obs = Relpipe_obs.Obs
module Pool = Relpipe_pool.Pool

(* A cache entry is the representative's full solve outcome plus the
   permutation that canonicalized its platform, so hits on symmetric
   instances can be re-indexed. *)
type entry = {
  e_outcome : (Solution.t option, Solver.error) result;
  e_perm : int array;
}

type t = {
  eff_workers : int;
  cache : entry Lru.Sharded.t;
  obs : Obs.t option;
  mutable n_requests : int;
  mutable n_solved : int;
  mutable n_infeasible : int;
  mutable n_failed : int;
  mutable n_jobs : int;
  mutable n_shared : int;
}

let create ?obs ?workers ?(cap_to_cpus = true) ?(cache_capacity = 1024)
    ?(cache_shards = 1) () =
  let requested = match workers with Some w -> w | None -> Pool.cpu_count () in
  let cache =
    match obs with
    | Some o ->
        Lru.Sharded.create_in ~metrics:o.Obs.metrics ~name:"engine.cache"
          ~shards:cache_shards ~capacity:cache_capacity
    | None -> Lru.Sharded.create ~shards:cache_shards ~capacity:cache_capacity
  in
  {
    eff_workers = Pool.effective_workers ~cap:cap_to_cpus requested;
    cache;
    obs;
    n_requests = 0;
    n_solved = 0;
    n_infeasible = 0;
    n_failed = 0;
    n_jobs = 0;
    n_shared = 0;
  }

let workers t = t.eff_workers

(* ------------------------------------------------------------------ *)
(* Batch pipeline                                                      *)
(* ------------------------------------------------------------------ *)

(* A prepared request: parsed, canonicalized, ready to plan. *)
type ready = {
  rq : Protocol.request;
  inst : Instance.t;
  norm : Canon.normalized;
  budget : int;
}

type prepared = Bad of string option * string  (* id, message *) | Ready of ready

type plan =
  | Answer_bad of string option * string
  | From_cache of ready * entry
  | From_job of ready * int  (* index into the job array *)
  | Shared_job of ready * int

let prepare req =
  match req with
  | Error msg -> Bad (None, msg)
  | Ok rq -> (
      let text =
        match rq.Protocol.instance with
        | Protocol.Inline text -> Ok text
        | Protocol.File path -> (
            match In_channel.with_open_text path In_channel.input_all with
            | text -> Ok text
            | exception Sys_error msg -> Error msg)
      in
      match text with
      | Error msg -> Bad (rq.Protocol.id, msg)
      | Ok text -> (
          match Analysis.parse_instance_text text with
          | Error ds ->
              let file =
                match rq.Protocol.instance with
                | Protocol.File path -> Some path
                | Protocol.Inline _ -> None
              in
              Bad
                ( rq.Protocol.id,
                  String.concat "; "
                    (List.map (fun d -> Diagnostic.to_string ?file d) ds) )
          | Ok inst ->
              let budget =
                Option.value rq.Protocol.budget ~default:Solver.default_budget
              in
              let norm =
                Canon.normalize ~budget ~method_:rq.Protocol.method_ inst
                  rq.Protocol.objective
              in
              Ready { rq; inst; norm; budget }))

let solve_job (r : ready) =
  match
    Solver.run ~method_:r.rq.Protocol.method_ ~exact_budget:r.budget r.inst
      r.rq.Protocol.objective
  with
  | outcome -> outcome
  | exception e ->
      (* [Solver.run] already types its own failures; anything else
         (stack overflow on a pathological instance, ...) must still
         yield a per-request error response, not kill the batch. *)
      Error (Solver.Not_applicable (Printexc.to_string e))

let outcome_of_entry (r : ready) entry =
  match entry.e_outcome with
  | Error e -> Protocol.Failed (Solver.error_to_string e)
  | Ok None -> Protocol.Infeasible
  | Ok (Some sol) ->
      if Canon.same_perm entry.e_perm r.norm.Canon.perm then
        Protocol.Solved
          {
            mapping = Protocol.mapping_to_syntax sol.Solution.mapping;
            latency = sol.Solution.evaluation.Instance.latency;
            failure = sol.Solution.evaluation.Instance.failure;
          }
      else begin
        (* Symmetric hit: the representative's processor order differs;
           re-index its mapping and re-evaluate on this instance. *)
        let n = Pipeline.length r.inst.Instance.pipeline in
        let m = Platform.size r.inst.Instance.platform in
        let mapping =
          Canon.translate ~from_perm:entry.e_perm ~to_perm:r.norm.Canon.perm ~n
            ~m sol.Solution.mapping
        in
        let ev = Instance.evaluate r.inst mapping in
        Protocol.Solved
          {
            mapping = Protocol.mapping_to_syntax mapping;
            latency = ev.Instance.latency;
            failure = ev.Instance.failure;
          }
      end

let run_batch t reqs =
  let n_reqs = Array.length reqs in
  Obs.add t.obs "engine.requests" n_reqs;
  let prepared =
    Obs.span t.obs
      ~attrs:[ ("requests", string_of_int n_reqs) ]
      "engine.phase.prepare"
      (fun () -> Array.map prepare reqs)
  in
  (* Plan phase: sequential, in submission order, so cache decisions are
     independent of how the solve phase is scheduled. *)
  let jobs = ref [] and num_jobs = ref 0 in
  let pending = Hashtbl.create 64 in
  let plan =
    Obs.span t.obs "engine.phase.plan" (fun () ->
        Array.map
          (fun p ->
            match p with
            | Bad (id, msg) -> Answer_bad (id, msg)
            | Ready r -> (
                let key = r.norm.Canon.key in
                match Lru.Sharded.find t.cache key with
                | Some entry -> From_cache (r, entry)
                | None -> (
                    match Hashtbl.find_opt pending key with
                    | Some j ->
                        t.n_shared <- t.n_shared + 1;
                        Obs.incr t.obs "engine.shared";
                        Shared_job (r, j)
                    | None ->
                        let j = !num_jobs in
                        incr num_jobs;
                        Hashtbl.replace pending key j;
                        jobs := r :: !jobs;
                        From_job (r, j))))
          prepared)
  in
  let jobs = Array.of_list (List.rev !jobs) in
  Obs.add t.obs "engine.jobs" (Array.length jobs);
  (* Solve phase: the only parallel part; each job is a pure function of
     its own request — except for its observability context, which is a
     per-job fork (shared atomic counters, private tracer on a forked
     clock) merged back in job order below, so traces and metrics stay
     identical across worker counts. *)
  let children = Array.make (Array.length jobs) None in
  let solve_one (j, r) =
    match t.obs with
    | None -> solve_job r
    | Some o ->
        let child = Obs.fork o j in
        (* slot j is written only by job j's worker and read after Pool.map
           returns, which joins its domains *)
        (* devlint: allow RP-S301 *)
        children.(j) <- Some child;
        Obs.with_ambient (Some child) (fun () ->
            Obs.span (Some child)
              ~attrs:[ ("job", string_of_int j) ]
              "engine.job"
              (fun () -> solve_job r))
  in
  let outcomes =
    Obs.span t.obs
      ~attrs:[ ("jobs", string_of_int (Array.length jobs)) ]
      "engine.phase.solve"
      (fun () ->
        let outcomes, _pool_stats =
          Pool.map ?obs:t.obs ~workers:t.eff_workers solve_one
            (Array.mapi (fun j r -> (j, r)) jobs)
        in
        (match t.obs with
        | Some o ->
            Array.iter
              (function
                | Some child -> Obs.merge_child ~into:o child | None -> ())
              children
        | None -> ());
        outcomes)
  in
  t.n_jobs <- t.n_jobs + Array.length jobs;
  Obs.span t.obs "engine.phase.emit" (fun () ->
      (* Populate the cache in job order (deterministic). *)
      let entries =
        Array.mapi
          (fun j outcome ->
            let entry =
              { e_outcome = outcome; e_perm = jobs.(j).norm.Canon.perm }
            in
            Lru.Sharded.add t.cache jobs.(j).norm.Canon.key entry;
            entry)
          outcomes
      in
      (* Emit phase: responses in submission order. *)
      Array.mapi
        (fun i p ->
          t.n_requests <- t.n_requests + 1;
          let r_id, r_cache, r_outcome =
            match p with
            | Answer_bad (id, msg) -> (id, Protocol.Miss, Protocol.Failed msg)
            | From_job (r, j) ->
                (r.rq.Protocol.id, Protocol.Miss, outcome_of_entry r entries.(j))
            | Shared_job (r, j) ->
                (r.rq.Protocol.id, Protocol.Hit, outcome_of_entry r entries.(j))
            | From_cache (r, entry) ->
                (r.rq.Protocol.id, Protocol.Hit, outcome_of_entry r entry)
          in
          (match r_outcome with
          | Protocol.Solved _ ->
              t.n_solved <- t.n_solved + 1;
              Obs.incr t.obs "engine.solved"
          | Protocol.Infeasible ->
              t.n_infeasible <- t.n_infeasible + 1;
              Obs.incr t.obs "engine.infeasible"
          | Protocol.Failed _ ->
              t.n_failed <- t.n_failed + 1;
              Obs.incr t.obs "engine.failed");
          (* The attrs are built only when a tracer records them. *)
          (match t.obs with
          | Some { Obs.trace = Some _; _ } ->
              Obs.instant t.obs "engine.request"
                ~attrs:
                  [
                    ("index", string_of_int i);
                    ( "cache",
                      match r_cache with
                      | Protocol.Hit -> "hit"
                      | Protocol.Miss -> "miss" );
                    ( "status",
                      match r_outcome with
                      | Protocol.Solved _ -> "solved"
                      | Protocol.Infeasible -> "infeasible"
                      | Protocol.Failed _ -> "failed" );
                  ]
          | Some { Obs.trace = None; _ } | None -> ());
          { Protocol.r_id; r_index = i; r_cache; r_outcome })
        plan)

let run_requests t reqs = run_batch t (Array.map (fun r -> Ok r) reqs)

let run_lines t lines =
  let nonblank = List.filter (fun l -> String.trim l <> "") lines in
  let batch = Array.of_list (List.map Protocol.decode_request nonblank) in
  Array.to_list (Array.map Protocol.encode_response (run_batch t batch))

let solve_instance t ?method_ inst objective =
  let rq =
    Protocol.request ?method_
      ~instance:(Protocol.Inline (Textio.to_string inst))
      objective
  in
  (run_requests t [| rq |]).(0)

(* ------------------------------------------------------------------ *)
(* Statistics                                                          *)
(* ------------------------------------------------------------------ *)

type stats = {
  requests : int;
  solved : int;
  infeasible : int;
  failed : int;
  jobs : int;
  shared : int;
  cache : Lru.stats;
  cache_len : int;
  cache_capacity : int;
  effective_workers : int;
}

let stats t =
  {
    requests = t.n_requests;
    solved = t.n_solved;
    infeasible = t.n_infeasible;
    failed = t.n_failed;
    jobs = t.n_jobs;
    shared = t.n_shared;
    cache = Lru.Sharded.stats t.cache;
    cache_len = Lru.Sharded.length t.cache;
    cache_capacity = Lru.Sharded.capacity t.cache;
    effective_workers = t.eff_workers;
  }

let hit_rate s =
  if s.requests = 0 then 0.0
  else float_of_int (s.cache.Lru.hits + s.shared) /. float_of_int s.requests

let pp_stats ppf s =
  Format.fprintf ppf "workers:   %d (of %d cpus)@." s.effective_workers
    (Pool.cpu_count ());
  Format.fprintf ppf "requests:  %d (ok %d, infeasible %d, error %d)@."
    s.requests s.solved s.infeasible s.failed;
  Format.fprintf ppf "jobs:      %d solver runs@." s.jobs;
  Format.fprintf ppf
    "cache:     %d/%d entries, hits %d, shared %d, misses %d, evictions %d@."
    s.cache_len s.cache_capacity s.cache.Lru.hits s.shared s.cache.Lru.misses
    s.cache.Lru.evictions;
  Format.fprintf ppf "hit rate:  %.1f%%" (100.0 *. hit_rate s)
