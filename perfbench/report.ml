(* The result line: the metrics BENCHMARK.json lists (end_to_end with
   tracing off, per_layer with tracing on), each with the unit recorded
   there, plus the correctness verdict and request counts. *)

module Json = Relpipe_service.Json

type metrics = (string, float) Hashtbl.t

(* What a workload run hands back to relbench's main. *)
type outcome = {
  metrics : metrics;
  gate : Gate.t;
  attempted : int;
  valid : bool;  (** false when the load generator fell behind *)
  notes : string list;  (** human-readable summary lines for stderr *)
  spans : Spans.t option;  (** the traced run's spans *)
}

let create () : metrics = Hashtbl.create 64
let set (m : metrics) name v = Hashtbl.replace m name v

(* (name, unit) pairs of one BENCHMARK.json metric list. *)
let declared ~path key =
  let text = In_channel.with_open_text path In_channel.input_all in
  let doc =
    match Json.parse text with
    | Ok d -> d
    | Error msg -> failwith (Printf.sprintf "%s: %s" path msg)
  in
  let entries =
    match Option.bind (Json.member key doc) Json.to_list with
    | Some l -> l
    | None -> failwith (Printf.sprintf "%s: no %s list" path key)
  in
  List.map
    (fun e ->
      match
        ( Option.bind (Json.member "name" e) Json.to_str,
          Option.bind (Json.member "unit" e) Json.to_str )
      with
      | Some n, Some u -> (n, u)
      | _ -> failwith (Printf.sprintf "%s: malformed %s entry" path key))
    entries

let number v =
  if Float.is_finite v then Printf.sprintf "%.17g" v
  else failwith "non-finite metric value"

(* Every declared metric must have been measured: a missing one is a bug
   in the benchmark, not a zero. *)
let line ~declared ~correct ~attempted ~failed (m : metrics) =
  let fields =
    List.map
      (fun (name, unit_) ->
        match Hashtbl.find_opt m name with
        | Some v ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (number v)
              unit_
        | None -> failwith (Printf.sprintf "metric %s was not measured" name))
      declared
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", " fields)
