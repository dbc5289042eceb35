(** Branch-and-bound exact bi-criteria solver.

    Explores the same mapping space as {!Exact.solve} — interval partitions
    with disjoint replication sets — but as a depth-first search over
    (next stage, replication set) decisions with admissible pruning:

    - the partial latency (plus a remaining-work lower bound at the
      fastest available speed) already exceeds the threshold, or the
      incumbent when latency is the objective;
    - the partial failure probability — which can only grow as intervals
      are appended — already exceeds the threshold, or the incumbent when
      FP is the objective.

    Both bounds are exact lower bounds, so the search returns the true
    optimum while visiting far fewer nodes than the flat enumeration
    (the E16 ablation quantifies the gap).  Still worst-case exponential:
    the problems are NP-hard (Theorem 7).

    The search prices intervals from a flat prefix-sum/bandwidth snapshot
    and memoizes per-replication-set bounds (slowest speed, input sends,
    interval failure) in workspace tables reset at every solve (PR 5).
    Node counts are an implementation detail and may drift across
    versions; the returned solution is pinned bit-for-bit to the original
    implementation kept in {!Reference}. *)

open Relpipe_model
module B = Relpipe_util.Bitset

type stats = { nodes : int; evaluated : int; pruned : int }
(** Search effort: decision nodes expanded, complete mappings evaluated,
    and subtrees cut by the admissible bounds. *)

val prune_slack : float
(** The one bound-inflation slack shared by every sound-upper-bound cut:
    [16 x Float_cmp.default_eps].  Churn warm starts and the parallel
    probe's shared incumbent both add [prune_slack] (relative, floored at
    the same absolute magnitude — see {!inflate_bound}) to a
    known-feasible objective before using it as [?prune_above], so the
    eps-tolerant acceptance in {!Instance.better} can never tie-break an
    optimum out from under the bound.  Pinned by test/test_par_exact.ml. *)

val inflate_bound : float -> float
(** [inflate_bound b = b +. prune_slack *. max 1.0 (abs b)]: the smallest
    sound [?prune_above] derived from a known-feasible objective [b].
    Monotone, and [inflate_bound b >= b] for every finite [b]. *)

module Bound : sig
  type t
  (** A lock-free monotone-min cell: the shared incumbent of the parallel
      probe phase.  Improvements race through a CAS retry loop, so no
      published value is ever lost. *)

  val create : float -> t
  val get : t -> float

  val improve : t -> float -> unit
  (** Lower the cell to [v] if [v] is smaller; no-op otherwise. *)
end

val solve :
  ?prune_above:float -> Instance.t -> Instance.objective -> Solution.t option
(** Optimal interval mapping, or [None] when infeasible.  Agrees with
    {!Exact.solve} (property-tested).

    [?prune_above] (default [infinity]) is a static upper bound on the
    objective used as an extra admissible cut: any subtree whose objective
    lower bound {e strictly} exceeds it is pruned.  When the caller
    supplies a sound bound — the evaluated objective of any known-feasible
    mapping, e.g. the surviving solution of the previous churn step,
    inflated by {!inflate_bound} for the eps-tolerant acceptance in
    {!Instance.better} — the returned solution is {e bit-identical} to an
    unbounded solve: the search visits the surviving nodes in the same
    order, and the optimum is never strictly above the bound.  Only the
    node/pruned counts change.  [test/test_churn.ml] and the
    [churn-incremental] fuzz oracle pin this contract. *)

val solve_with_stats :
  ?prune_above:float ->
  Instance.t ->
  Instance.objective ->
  Solution.t option * stats

type budgeted =
  | Complete of Solution.t option  (** {!solve}'s answer *)
  | Exhausted of Solution.t option  (** the incumbent: no optimality proof *)

val solve_budgeted : budget:int -> Instance.t -> Instance.objective -> budgeted
(** {!solve} expanding at most [budget] nodes, its answer re-priced with
    {!Solution.of_mapping} (the bits {!Exact.solve} reports).  Counts
    [core.bb.exhausted] when the budget runs out.
    @raise Invalid_argument when [budget] is negative. *)

(** {1 Parallel solve} *)

type par_stats = {
  tasks : int;  (** frontier tasks distributed to the pool (deterministic) *)
  probe_nodes : int;
      (** nodes the probe phase expanded — scheduling-dependent *)
  confirm : stats;
      (** the confirming serial pass; depends on how tight the probe's
          bound got, so also scheduling-dependent *)
}

val solve_par :
  ?prune_above:float ->
  workers:int ->
  Instance.t ->
  Instance.objective ->
  Solution.t option
(** Parallel branch and bound over the {!Relpipe_pool.Pool} domains, in
    two phases.  {b Probe}: the root frontier — every (first interval,
    replication set) decision, best-first by its objective lower bound —
    is distributed over [workers] domains; each task runs a node-budgeted
    depth-first search sharing one atomic incumbent cell ({!Bound}), into
    which every completed feasible mapping publishes its
    {!inflate_bound}-inflated objective, cutting dominated subtrees on
    all domains at once.  {b Confirm}: one serial pass under the probe's
    final bound.  Because the cell only ever holds sound inflated upper
    bounds, the [?prune_above] contract of {!solve} applies and the
    answer is {e bit-identical to the serial solve at every worker count}
    — including mapping tie-breaks — while only node counts vary.
    test/test_par_exact.ml and the [par-exact-identity] fuzz oracle pin
    this at workers 1/2/8.

    Records the deterministic [core.exact.par.bb.solves] /
    [core.exact.par.bb.tasks] counters (plus the pool's own metrics);
    the confirming pass's scheduling-dependent [core.bb.*] counts are
    deliberately suppressed so metric snapshots stay byte-identical
    across worker counts. *)

val solve_par_with_stats :
  ?prune_above:float ->
  workers:int ->
  Instance.t ->
  Instance.objective ->
  Solution.t option * par_stats

(** {1 Recorded solve (certificate emission)} *)

module Record : sig
  type reason =
    | Threshold  (** a latency/failure threshold is already unreachable *)
    | Dominated
        (** the objective lower bound cannot beat the incumbent, whose
            objective upper-bounds the optimum *)

  type status =
    | Expanded
    | Evaluated of { latency : float; failure : float }
    | Pruned of { reason : reason; latency_lb : float; partial_failure : float }

  type node = { path : (int * int * B.t) list; status : status }
  (** One search node: the (first, last, replication set) intervals chosen
      so far, in stage order, and what the search did there. *)
end

val solve_recorded :
  Instance.t ->
  Instance.objective ->
  Solution.t option * stats * Record.node list
(** Serial solve that also returns the full search transcript, one entry
    per node in depth-first preorder, with every recorded number exactly
    the float the search computed.  Runs unbounded (no [?prune_above]) so
    each [Dominated] entry is justified by the incumbent alone — which is
    what the independent certificate checker in [lib/cert] re-derives.
    The transcript is the raw material for {!Certify.bb}. *)
