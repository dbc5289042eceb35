(* The benchmark's correctness gate and answer-quality statistics.

   Every response must answer its own request.  Every solved mapping is
   parsed with Mapping_syntax, checked with Validate and re-evaluated with
   Instance.evaluate; the re-evaluated latency and failure probability
   must equal the reported ones and meet the request's threshold.  After
   the measured window, one Bb.solve per distinct slot gives the proven
   optimum: an answer better than it beyond tolerance, or a Solved answer
   on a slot B&B proves infeasible, fails the run.  Answers equal to the
   optimum within Float_cmp's tolerance count as optimal.

   Validation is memoized per (slot, answer), so a hot workload that sees
   the same cached answer thousands of times validates it once. *)

open Relpipe_model
module Solver = Relpipe_core.Solver
module Protocol = Relpipe_service.Protocol
module Float_cmp = Relpipe_util.Float_cmp

type slot = {
  text : string;
  inst : Instance.t;
  objective : Instance.objective;
  method_ : Solver.method_;
  path : string;
}

(* The solver path a request takes: its method, and for Auto the
   platform-class rules of Solver.auto (polynomial on the tractable
   classes, enumeration when n, m <= 6 fit the default budget, the
   heuristic portfolio otherwise).  Solver keeps the enumeration rule
   private, so it is restated here. *)
let paths = [ "polynomial"; "exact_enum"; "portfolio"; "heuristic" ]

let path_of method_ inst =
  match (method_ : Solver.method_) with
  | Polynomial -> "polynomial"
  | Exact_enum -> "exact_enum"
  | Portfolio -> "portfolio"
  | Heuristic _ -> "heuristic"
  | Auto ->
      let n = Pipeline.length inst.Instance.pipeline in
      let m = Platform.size inst.Instance.platform in
      if
        Relpipe_core.Fully_homog.applicable inst
        || Relpipe_core.Comm_homog.applicable inst
      then "polynomial"
      else if
        n <= 6 && m <= 6
        && Relpipe_core.Exact.count_mappings ~n ~m () <= 200_000
      then "exact_enum"
      else "portfolio"

let slot_of_entry (e : Relpipe_workload.Stream_gen.entry) =
  let inst =
    match Relpipe_analysis.Analysis.parse_instance_text e.text with
    | Ok inst -> inst
    | Error _ -> failwith "generated instance does not parse"
  in
  let method_ =
    match Protocol.method_of_string e.method_name with
    | Ok m -> m
    | Error msg -> failwith msg
  in
  { text = e.text; inst; objective = e.objective; method_; path = path_of method_ inst }

let request ?id slot =
  Protocol.request ?id ~method_:slot.method_ ~instance:(Protocol.Inline slot.text)
    slot.objective

type tally = {
  mutable values : (float * int) list;  (** objective value, answers *)
  mutable infeasible : int;
}

type t = {
  slots : (int, slot) Hashtbl.t;
  memo : (string, float) Hashtbl.t;
  tallies : (int, tally) Hashtbl.t;
  mutable answered : int;  (** Solved or Infeasible *)
  mutable failed : int;  (** Failed, refused or missing *)
  mutable hits : int;
  mutable optimal : int;  (** settled answers equal to the optimum *)
  mutable solved : int;  (** settled Solved answers *)
  mutable ratio_sum : float;  (** their summed objective / optimum *)
  mutable optima : int;
  mutable optima_s : float;
  mutable violations : int;  (** gate failures: these fail the run *)
  mutable errors : string list;  (** their first messages, newest first *)
  mutable failures : string list;  (** first Failed/refused/missing notes *)
}

let create () =
  {
    slots = Hashtbl.create 1024;
    memo = Hashtbl.create 1024;
    tallies = Hashtbl.create 1024;
    answered = 0;
    failed = 0;
    hits = 0;
    optimal = 0;
    solved = 0;
    ratio_sum = 0.0;
    optima = 0;
    optima_s = 0.0;
    violations = 0;
    errors = [];
    failures = [];
  }

let register t id slot = Hashtbl.replace t.slots id slot
let slot t id = Hashtbl.find t.slots id

let error t msg =
  t.violations <- t.violations + 1;
  if t.violations <= 20 then t.errors <- msg :: t.errors

let fail t msg =
  t.failed <- t.failed + 1;
  if t.failed <= 20 then t.failures <- msg :: t.failures

let tally t id =
  match Hashtbl.find_opt t.tallies id with
  | Some ta -> ta
  | None ->
      let ta = { values = []; infeasible = 0 } in
      Hashtbl.replace t.tallies id ta;
      ta

let add_value ta v =
  let rec go = function
    | [] -> [ (v, 1) ]
    | (x, c) :: rest when Float.equal x v -> (x, c + 1) :: rest
    | p :: rest -> p :: go rest
  in
  ta.values <- go ta.values

(* Validate one solved answer; its objective value when it passes. *)
let validate slot ~mapping ~latency ~failure =
  let inst = slot.inst in
  let n = Pipeline.length inst.Instance.pipeline in
  let m = Platform.size inst.Instance.platform in
  match Mapping_syntax.parse ~n ~m mapping with
  | Error msg -> Error ("unparsable mapping: " ^ msg)
  | Ok mp ->
      let ev = Instance.evaluate inst mp in
      let reported = { Instance.latency; failure } in
      let report =
        Relpipe_core.Validate.check ~certify_budget:0 inst slot.objective
          { Relpipe_core.Solution.mapping = mp; evaluation = reported }
      in
      if
        not
          (Float_cmp.approx_eq ev.Instance.latency latency
          && Float_cmp.approx_eq ev.Instance.failure failure)
      then
        Error
          (Printf.sprintf "reported (%h, %h) but re-evaluates to (%h, %h)"
             latency failure ev.Instance.latency ev.Instance.failure)
      else if not (Instance.feasible slot.objective ev) then
        Error "mapping misses the request's threshold"
      else if
        not
          (report.Relpipe_core.Validate.structurally_valid
          && report.evaluation_consistent && report.feasible)
      then Error ("Validate.check rejects: " ^ String.concat "; " report.messages)
      else Ok (Instance.objective_value slot.objective ev)

(* Check one response to the request for slot [id] that carried
   [expect_id] at position [expect_index]. *)
let check t ~id ~expect_index ?expect_id (r : Protocol.response) =
  if r.Protocol.r_index <> expect_index then
    error t
      (Printf.sprintf "response index %d answers request %d" r.r_index
         expect_index);
  (match (expect_id, r.r_id) with
  | None, _ -> ()
  | Some want, Some got when String.equal want got -> ()
  | Some want, _ -> error t (Printf.sprintf "request %s answered with another id" want));
  (match r.r_cache with Protocol.Hit -> t.hits <- t.hits + 1 | Miss -> ());
  match r.r_outcome with
  | Protocol.Failed msg -> fail t (Printf.sprintf "slot %d failed: %s" id msg)
  | Protocol.Infeasible ->
      t.answered <- t.answered + 1;
      let ta = tally t id in
      ta.infeasible <- ta.infeasible + 1
  | Protocol.Solved { mapping; latency; failure } -> (
      t.answered <- t.answered + 1;
      let key = Printf.sprintf "%d|%s|%h|%h" id mapping latency failure in
      match Hashtbl.find_opt t.memo key with
      | Some v -> add_value (tally t id) v
      | None -> (
          match validate (slot t id) ~mapping ~latency ~failure with
          | Ok v ->
              Hashtbl.replace t.memo key v;
              add_value (tally t id) v
          | Error msg -> error t (Printf.sprintf "slot %d: %s" id msg)))

(* Reference optima and answer quality, outside the measured window.
   [settle] scores one slot's answers against its B&B optimum and drops
   the slot, so a run over ever-new slots keeps bounded memory. *)
type quality = {
  optimal_share : float;  (** optimal answers / answered *)
  objective_ratio_mean : float;  (** mean objective / optimum over solved *)
  optima : int;  (** Bb.solve calls *)
  optima_s : float;  (** their wall time *)
}

let settle t id =
  match Hashtbl.find_opt t.tallies id with
  | None -> Hashtbl.remove t.slots id
  | Some ta ->
      let slot = slot t id in
      let t0 = Unix.gettimeofday () in
      let opt = Relpipe_core.Bb.solve slot.inst slot.objective in
      t.optima_s <- t.optima_s +. (Unix.gettimeofday () -. t0);
      t.optima <- t.optima + 1;
      (match opt with
      | None -> (
          t.optimal <- t.optimal + ta.infeasible;
          match ta.values with
          | [] -> ()
          | _ :: _ ->
              error t
                (Printf.sprintf
                   "slot %d answered Solved but B&B proves it infeasible" id))
      | Some sol ->
          let opt = Instance.objective_value slot.objective sol.evaluation in
          List.iter
            (fun (v, c) ->
              t.solved <- t.solved + c;
              if Float_cmp.approx_eq v opt then begin
                t.optimal <- t.optimal + c;
                t.ratio_sum <- t.ratio_sum +. float_of_int c
              end
              else if Float.compare v opt < 0 then
                error t
                  (Printf.sprintf "slot %d answer %h beats the B&B optimum %h" id
                     v opt)
              else
                t.ratio_sum <-
                  t.ratio_sum
                  +. (float_of_int c *. if opt > 0.0 then v /. opt else 1.0))
            ta.values);
      Hashtbl.remove t.tallies id;
      Hashtbl.remove t.slots id

let quality t =
  List.iter (settle t) (Hashtbl.fold (fun id _ acc -> id :: acc) t.tallies []);
  let share a b = if b = 0 then 1.0 else float_of_int a /. float_of_int b in
  {
    optimal_share = share t.optimal t.answered;
    objective_ratio_mean =
      (if t.solved = 0 then 1.0 else t.ratio_sum /. float_of_int t.solved);
    optima = t.optima;
    optima_s = t.optima_s;
  }

let ok t = t.violations = 0
