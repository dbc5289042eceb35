(** Unified solving facade.

    Dispatches a bi-criteria problem to the right algorithm for the
    platform class, mirroring the paper's complexity landscape:

    - Fully Homogeneous (speeds + links): Algorithms 1/2 — polynomial,
      optimal (including heterogeneous failures, per the paper's remark);
    - Communication Homogeneous + Failure Homogeneous: Algorithms 3/4 —
      polynomial, optimal;
    - everything else (Comm. Homogeneous + Failure Heterogeneous — open;
      Fully Heterogeneous — NP-hard): branch and bound ({!Bb}) under a
      node budget; only when it runs out, the better of the search's
      incumbent and the heuristic portfolio.  Platforms of more than
      {!Relpipe_util.Bitset.max_width} processors go to the portfolio.

    Every entry point first runs the [Relpipe_analysis] instance pass at
    [Error] level; a malformed instance yields a typed {!error} (from
    {!run}) instead of an exception escaping mid-search. *)

open Relpipe_model

type method_ =
  | Auto  (** the dispatch described above *)
  | Exact_enum  (** that branch and bound alone; [Too_large] past its budget *)
  | Polynomial  (** Algorithms 1-4; [Not_applicable] otherwise *)
  | Heuristic of Heuristics.name
  | Portfolio  (** {!Heuristics.best_of} *)

type error =
  | Invalid_instance of Relpipe_analysis.Diagnostic.t list
      (** the [Error]-level lint findings, worst first *)
  | Invalid_objective of string  (** e.g. a NaN threshold *)
  | Not_applicable of string
      (** [Polynomial] on an intractable class, [Exact_enum] on more than
          {!Relpipe_util.Bitset.max_width} processors *)
  | Too_large of string  (** [Exact_enum] ran out of its node budget *)

val pp_error : Format.formatter -> error -> unit

val error_to_string : error -> string

val default_budget : int
(** The branch-and-bound node budget when none is given: [1_000_000]. *)

val check_instance : Instance.t -> (unit, error) result
(** The guard by itself: [Error (Invalid_instance _)] when the instance
    pass reports [Error]-level findings. *)

val run :
  ?method_:method_ ->
  ?exact_budget:int ->
  Instance.t ->
  Instance.objective ->
  (Solution.t option, error) result
(** Solve with a typed outcome.  [Ok None] means no feasible mapping was
    found (a definitive answer for the optimal methods, best effort for
    heuristics).  [exact_budget] (default {!default_budget}) caps the
    branch-and-bound nodes [Auto] and [Exact_enum] may expand. *)

val solve :
  ?method_:method_ ->
  ?exact_budget:int ->
  Instance.t ->
  Instance.objective ->
  Solution.t option
(** Legacy exception-based wrapper over {!run}: raises [Invalid_argument]
    on invalid instances/objectives and inapplicable methods, and
    {!Exact.Too_large} when [Exact_enum] runs out of its node budget. *)

val describe : Instance.t -> string
(** Human-readable platform classification and the method Auto would
    pick. *)
