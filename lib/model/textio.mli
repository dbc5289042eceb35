(** Line-oriented text format for problem instances.

    Grammar (one directive per line, ['#'] starts a comment):
    {v
    input <delta0>
    stage <work> <output>        # repeated, pipeline order
    proc <speed> <failure>       # repeated, processors 0,1,...
    link default <bandwidth>
    link <a> <b> <bandwidth>     # a, b: "in", "out", or processor index
    v}
    [link] directives are symmetric.  A [link default] is required unless
    every endpoint pair is listed explicitly.

    Parsing is split in two layers so static analysis can inspect inputs
    that would not survive {!Platform.make}:

    - {!parse_raw} performs only syntactic checks and returns every
      directive together with its source {!Relpipe_util.Loc.span};
    - {!build} applies the semantic checks (directive presence, endpoint
      ranges, value domains) and constructs the instance.

    {!parse} composes the two and renders errors as ["line:col: message"]
    strings. *)

(** {1 Raw layer} *)

type raw_endpoint = Rin | Rout | Rproc of int
    (** An endpoint as written; [Rproc] indices are not range-checked
        here. *)

type raw_stage = {
  stage_work : float;
  stage_output : float;
  stage_span : Relpipe_util.Loc.span;
}

type raw_proc = {
  proc_speed : float;
  proc_failure : float;
  proc_span : Relpipe_util.Loc.span;
}

type raw_link = {
  link_a : raw_endpoint;
  link_b : raw_endpoint;
  link_bw : float;
  link_span : Relpipe_util.Loc.span;
}

type raw = {
  raw_input : (float * Relpipe_util.Loc.span) option;
  raw_stages : raw_stage list;  (** pipeline order *)
  raw_procs : raw_proc list;  (** processor 0, 1, ... *)
  raw_default_bw : (float * Relpipe_util.Loc.span) option;
  raw_links : raw_link list;  (** declaration order *)
}

type error = { message : string; span : Relpipe_util.Loc.span option }

val parse_raw : string -> (raw, error) result
(** Tokenize and collect directives; fails only on malformed syntax
    (unknown directive, wrong arity, unparsable number).  Value-domain
    problems (negative speeds, probabilities outside [0,1], missing
    links, ...) are left to {!build} and to the [Relpipe_analysis] lint
    passes, which can report all of them at once with spans. *)

val endpoint_of_raw : m:int -> raw_endpoint -> (Platform.endpoint, string) result
(** Range-check a raw endpoint against a platform of [m] processors. *)

val build : raw -> (Instance.t, error) result
(** Semantic validation and construction. *)

val format_error : error -> string
(** ["line:col: message"], or just the message for spanless errors. *)

(** {1 Instance layer} *)

val parse : string -> (Instance.t, string) result
(** [parse text] is {!parse_raw} followed by {!build}; error strings carry
    the source position when one is known. *)

val to_string : Instance.t -> string
(** Canonical rendering; [parse (to_string i)] round-trips the instance up
    to float formatting. *)
