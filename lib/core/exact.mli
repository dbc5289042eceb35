(** Exhaustive reference solvers.

    These enumerate the full mapping space (interval partitions times
    disjoint replication-set assignments), so they run in exponential time
    and exist to (i) certify the polynomial algorithms and heuristics on
    small instances, (ii) decide the NP-hard instances produced by the
    reductions, and (iii) cross-check {!Bb}, which [Solver] runs on the
    NP-hard and open classes.  Guard rails: enumeration size is capped
    (configurable) and exceeding the cap raises. *)

open Relpipe_model

exception Too_large of string
(** Raised when the enumeration would exceed the configured budget. *)

val iter_mappings :
  ?max_intervals:int -> n:int -> m:int -> (Mapping.t -> unit) -> unit
(** Enumerate every interval mapping with replication of an [n]-stage
    pipeline over [m] processors: all interval partitions (at most
    [max_intervals] parts, default [min n m]) combined with all assignments
    of pairwise-disjoint non-empty processor subsets.
    @raise Invalid_argument when [m] exceeds {!Relpipe_util.Bitset.max_width}. *)

val count_mappings : ?max_intervals:int -> n:int -> m:int -> unit -> int
(** Size of the space {!iter_mappings} walks, in closed form:
    [sum over p <= min(max_intervals, n, m) of C(n-1, p-1) * p! * S(m+1, p+1)]
    ([S] the Stirling numbers of the second kind), saturating at
    [max_int]; costs [O((n + m) * min(n, m))] however large the space.
    @raise Invalid_argument when [m] exceeds {!Relpipe_util.Bitset.max_width}. *)

val solve :
  ?max_intervals:int ->
  ?budget:int ->
  Instance.t ->
  Instance.objective ->
  Solution.t option
(** Optimal interval mapping for the objective by full enumeration.
    [budget] caps the size of the space (default [5_000_000]); it is
    checked with {!count_mappings} before anything is enumerated.
    @raise Too_large when the budget is exceeded. *)

val solve_single_interval :
  Instance.t -> Instance.objective -> Solution.t option
(** Optimum restricted to single-interval mappings (enumerates the [2^m - 1]
    replication sets) — the restricted space that Lemma 1 proves sufficient
    on Fully Homogeneous and Comm. Homogeneous + Failure Homogeneous
    platforms. *)

val min_latency_unreplicated : Instance.t -> (float * Mapping.t) option
(** Exact minimum-latency {e interval} mapping without replication (each
    interval on one distinct processor) — the problem the paper leaves open
    on Fully Heterogeneous platforms (Section 4.1).  Enumerates interval
    partitions times injective processor choices. *)

val min_latency : Instance.t -> float
(** Minimum latency over all interval mappings with replication (no
    failure constraint). *)
