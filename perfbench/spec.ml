(* Workload parameters, read from perfbench/workloads.json — the one
   place that records each workload's generator spec, seeds and limits.
   Every key a workload reads is required, and a key it does not read is
   an error, so the file holds exactly the settings a run uses. *)

module Json = Relpipe_service.Json
module Stream_gen = Relpipe_workload.Stream_gen

(* serve-open's daemon and open-loop generator. *)
type serve = {
  rate_rps : float;  (** open-loop arrival rate *)
  max_late_ms : float;  (** generator lateness (p99) that voids a run *)
  session_window : int;
  queue_size : int;
  warm_slots : int;  (** hottest slots solved before the loop *)
  setup_reps : int;  (** daemon set-ups timed per run; the median is reported *)
}

type shape =
  | Hot of { chunk : int; tenants : int }
      (** closed loop; [tenants] independent pools served side by side *)
  | Cold of { chunk : int }  (** closed loop over ever-new slots *)
  | Serve of serve

type t = {
  name : string;
  stream : Stream_gen.spec;
  cache_capacity : int;
  workers : int;
  latency_limit_ms : float;  (** the limit behind slo_met_share *)
  shape : shape;
}

(* Keys that only document a workload: why it was chosen, the seed used
   while building the benchmark, the seed kept for checking claims, and
   how its latency limit was set. *)
let doc_keys = [ "why"; "seed"; "check_seed"; "latency_limit_why" ]

let load ~path name =
  let text = In_channel.with_open_text path In_channel.input_all in
  let fail fmt = Printf.ksprintf (fun s -> failwith (path ^ ": " ^ s)) fmt in
  let fields =
    match Json.parse text with
    | Error msg -> fail "%s" msg
    | Ok doc -> (
        match Json.member name doc with
        | Some (Json.Obj fields) -> fields
        | Some _ -> fail "%s is not an object" name
        | None -> fail "no workload %S" name)
  in
  let read = ref [] in
  let get conv what key =
    read := key :: !read;
    match List.assoc_opt key fields with
    | None -> fail "%s has no %s" name key
    | Some v -> (
        match conv v with Some x -> x | None -> fail "%s.%s is not %s" name key what)
  in
  let num = get Json.to_float "a number" and int = get Json.to_int "an integer" in
  let str = get Json.to_str "a string" in
  ignore (str "why", str "latency_limit_why", int "seed", int "check_seed");
  let stream =
    match name with
    | "cold-distinct" ->
        (* Only pool entries are drawn, never arrivals, so only the pool
           size matters; the arrival fields are never read. *)
        { Stream_gen.default_spec with pool = int "pool" }
    | _ ->
        {
          Stream_gen.pool = int "pool";
          zipf_s = num "zipf";
          burst = num "burst";
          intra_gap_ns = num "intra_gap_ns";
          inter_gap_ns = num "inter_gap_ns";
        }
  in
  (match Stream_gen.validate stream with
  | Ok () -> ()
  | Error msg -> fail "%s: %s" name msg);
  let shape =
    match name with
    | "hot-zipf" -> Hot { chunk = int "chunk"; tenants = int "tenants" }
    | "cold-distinct" -> Cold { chunk = int "chunk" }
    | "serve-open" ->
        Serve
          {
            rate_rps = num "rate_rps";
            max_late_ms = num "max_late_ms";
            session_window = int "session_window";
            queue_size = int "queue_size";
            warm_slots = int "warm_slots";
            setup_reps = int "setup_reps";
          }
    | _ -> fail "unknown workload %S" name
  in
  let t =
    {
      name;
      stream;
      cache_capacity = int "cache_capacity";
      workers = int "workers";
      latency_limit_ms = num "latency_limit_ms";
      shape;
    }
  in
  List.iter
    (fun (key, _) -> if not (List.mem key !read) then fail "%s.%s is not used" name key)
    fields;
  t

(* Seed of the [k]-th derived pool of a run (hot-zipf tenants,
   cold-distinct's fresh pools). *)
let derived_seed seed k = (seed * 1_000_003) + k
