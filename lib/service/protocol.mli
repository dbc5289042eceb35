(** JSON-lines request/response codec of the batch-solving service.

    One request or response per line, versioned ([{"v":1,...}]).

    {b Request} fields:
    - ["v"] (required int) — protocol version, currently [1];
    - ["id"] (optional string) — opaque tag echoed in the response;
    - ["instance"] (string) — instance text inline (the {!Relpipe_model.Textio}
      grammar, newlines escaped), {e or}
    - ["instance_file"] (string) — path to an instance file, resolved by
      the engine when the batch runs;
    - ["objective"] (required object) — [{"minimize":"failure",
      "max_latency":L}] or [{"minimize":"latency","max_failure":F}];
    - ["method"] (optional string, default ["auto"]) — one of
      {!method_names};
    - ["budget"] (optional int) — branch-and-bound node budget override.

    {b Response} fields: ["v"], ["index"] (position of the request in the
    batch), ["id"] (echoed when present), ["cache"] (["hit"]/["miss"]),
    ["status"] and then per status:
    - ["ok"] — ["mapping"] (in the {!Relpipe_model.Mapping_syntax} grammar,
      so responses can be fed back to [relpipe eval]), ["latency"],
      ["failure"];
    - ["infeasible"] — no extra fields (no mapping satisfies the
      objective);
    - ["error"] — ["error"], a human-readable message (parse failure,
      inapplicable method, exceeded budget, ...). *)

open Relpipe_model
open Relpipe_core

val version : int

(** {1 Requests} *)

type instance_src =
  | Inline of string  (** instance text *)
  | File of string  (** path, read by the engine *)

type request = {
  id : string option;
  instance : instance_src;
  objective : Instance.objective;
  method_ : Solver.method_;
  budget : int option;
}

val request :
  ?id:string ->
  ?budget:int ->
  ?method_:Solver.method_ ->
  instance:instance_src ->
  Instance.objective ->
  request
(** [method_] defaults to [Solver.Auto]. *)

val method_names : (string * Solver.method_) list
(** The CLI's method vocabulary (["auto"], ["exact"], ["polynomial"],
    ["portfolio"], and the heuristic names). *)

val method_to_string : Solver.method_ -> string

val method_of_string : string -> (Solver.method_, string) result

val encode_request : request -> string
(** One JSON line (no trailing newline). *)

val decode_request : string -> (request, string) result
(** Inverse of {!encode_request}; rejects missing/foreign versions,
    malformed JSON and unknown methods with a message (never raises). *)

(** {1 Responses} *)

type outcome =
  | Solved of { mapping : string; latency : float; failure : float }
      (** [mapping] in {!Relpipe_model.Mapping_syntax} concrete syntax *)
  | Infeasible
  | Failed of string

type cache_origin = Hit | Miss

type response = {
  r_id : string option;
  r_index : int;
  r_cache : cache_origin;
  r_outcome : outcome;
}

val mapping_to_syntax : Mapping.t -> string
(** ["1-2:0,1; 3:2"] — parses back with {!Relpipe_model.Mapping_syntax}. *)

val encode_response : response -> string

val decode_response : string -> (response, string) result

(** {1 Control messages}

    The serve daemon's session vocabulary, sharing the JSONL framing and
    version field with solve requests.  A control message is any line
    whose object carries an ["op"] field:

    - [{"v":1,"op":"hello","client":C?,"protocols":[1,...]?}] — the
      mandatory handshake.  [protocols] (default [[1]]) lists the
      versions the client speaks; the server accepts when it contains
      {!version} and answers
      [{"v":1,"op":"hello","ok":true,"protocol":1}], else it refuses
      with a typed [version-mismatch] error.
    - [{"v":1,"op":"stats"}] — answered with the server's live metric
      registry, [{"v":1,"op":"stats","ok":true,"metrics":[...]}].
    - [{"v":1,"op":"shutdown"}] — asks the server to drain; answered
      [{"v":1,"op":"shutdown","ok":true,"draining":true}].

    Refusals are
    [{"v":1,"op":"error","ok":false,"code":CODE,...,"error":MSG}] with
    [code] one of [version-mismatch] (plus [offered]), [unknown-op]
    (plus [method]), [invalid-control] and [hello-required]. *)

type control =
  | Hello of { client : string option; protocols : int list }
  | Stats
  | Shutdown

val hello : ?client:string -> unit -> control
(** A handshake offering exactly [{!version}]. *)

type server_error =
  | Version_mismatch of { offered : int list }
      (** no common version; [offered] echoes the client's list (or its
          ["v"] field when that was already foreign) *)
  | Unknown_op of string
  | Invalid_control of string  (** op message with missing/ill-typed fields *)
  | Hello_required  (** a solve request arrived before the handshake *)

val error_code : server_error -> string

val server_error_to_string : server_error -> string

(** An inbound session line: a control message, or a solve request whose
    decode result is carried through so request-level errors keep being
    answered on the per-request path (like [relpipe batch]). *)
type inbound =
  | Control of control
  | Solve of (request, string) result

val decode_inbound : string -> (inbound, server_error) result
(** Classify one session line.  [Error] only for op-shaped (control)
    lines — version gate first, then op dispatch; never raises. *)

val encode_control : control -> string

(** {1 Control replies} *)

type control_reply =
  | Hello_ok of { protocol : int }
  | Stats_ok of (string * Relpipe_obs.Metric.view) list
      (** metric bindings, sorted by name as
          {!Relpipe_obs.Metric.bindings} yields them *)
  | Shutdown_ok of { draining : bool }
  | Refused of server_error

val encode_control_reply : control_reply -> string

val decode_control_reply : string -> (control_reply, string) result
(** Inverse of {!encode_control_reply} (modulo the human-readable
    [error] text of [Invalid_control], which round-trips as itself). *)
