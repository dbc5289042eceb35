(** The per-experiment reproduction harness (DESIGN.md, E1-E24).

    Each function regenerates one paper artefact — a worked example, a
    theorem's optimality claim, a reduction's equivalence, or one of the
    extended evaluations — and reports it as a table of paper-claim versus
    measured value.  [all] runs every experiment (deterministically, fixed
    seeds); [relpipe experiments] renders them.  EXPERIMENTS.md is the
    curated record of one such run. *)

val e1_fig34 : unit -> Relpipe_util.Table.t
(** Fig. 3/4 worked example: single-processor latency 105 vs split 7. *)

val e2_fig5 : unit -> Relpipe_util.Table.t
(** Fig. 5 worked example: FP 0.64 single interval vs < 0.2 split, at
    latency threshold 22. *)

val e3_theorem1 : unit -> Relpipe_util.Table.t
(** Min-FP optimality of replicate-everything, vs exhaustive search. *)

val e4_theorem2 : unit -> Relpipe_util.Table.t
(** Min-latency optimality of fastest-single-processor on Comm. Homog. *)

val e5_tsp_reduction : unit -> Relpipe_util.Table.t
(** Theorem 3 reduction equivalence on random TSP instances. *)

val e6_general_mapping : unit -> Relpipe_util.Table.t
(** Theorem 4: four independent algorithms agree; runtime scaling. *)

val e7_algorithms_1_2 : unit -> Relpipe_util.Table.t
(** Algorithms 1/2 vs exhaustive optimum on Fully Homogeneous. *)

val e8_algorithms_3_4 : unit -> Relpipe_util.Table.t
(** Algorithms 3/4 vs exhaustive optimum on CH + Failure Homog. *)

val e9_partition_reduction : unit -> Relpipe_util.Table.t
(** Theorem 7 reduction equivalence on random multisets. *)

val e10_open_case : unit -> Relpipe_util.Table.t
(** CH + Failure Heterogeneous (open problem): heuristic gap vs exact. *)

val e11_np_hard_case : unit -> Relpipe_util.Table.t
(** Fully Heterogeneous (NP-hard): heuristic gap vs exact. *)

val e12_simulator : unit -> Relpipe_util.Table.t
(** Monte-Carlo validation of Eq. (1)/(2) and the FP formula. *)

val e13_pareto : unit -> Relpipe_util.Table.t
(** Latency/reliability trade-off fronts for Fig. 5 and the JPEG
    encoder. *)

val e14_lemma1 : unit -> Relpipe_util.Table.t
(** Lemma 1: single-interval optimality on the homogeneous classes, and
    its failure on Fig. 5. *)

val e15_tri_criteria : unit -> Relpipe_util.Table.t
(** Paper Section 5 future work: reliability under joint latency and
    period constraints. *)

val e16_bb_ablation : unit -> Relpipe_util.Table.t
(** Branch-and-bound pruning vs flat enumeration (search-effort
    ablation). *)

val e16_optima : unit -> Relpipe_util.Table.t
(** The e16 instances' solver {e answers} (optimal FP, latency, mapping),
    printed with [%.17g].  Not part of {!all}: it exists to be pinned in a
    golden snapshot — node counts in {!e16_bb_ablation} may drift with the
    search implementation, these optima must not. *)

val e17_steady_state : unit -> Relpipe_util.Table.t
(** Steady-state simulation vs the analytic period model. *)

val e18_round_robin : unit -> Relpipe_util.Table.t
(** Round-robin replication: throughput gained vs reliability lost on the
    same resources. *)

val e19_interval_vs_general : unit -> Relpipe_util.Table.t
(** The open problem of Section 4.1: how much latency the interval
    restriction costs relative to Theorem 4's general mappings. *)

val e20_mission_scaling : unit -> Relpipe_util.Table.t
(** Failure-rate view: how the optimal mapping shifts as the workflow's
    mission length grows (replication pressure increases). *)

val e21_goodput : unit -> Relpipe_util.Table.t
(** Goodput under mid-stream failures: the reliability-optimal mapping
    completes more of the stream than the latency-optimal one. *)

val e22_contiguous : unit -> Relpipe_util.Table.t
(** The speed-contiguity hypothesis on the open case: how often restricting
    replication sets to speed-contiguous segments is lossless. *)

val e23_comm_model : unit -> Relpipe_util.Table.t
(** Ablation of the one-port assumption: under a multiport model the
    replication penalty vanishes and the Fig. 5 trade-off collapses. *)

val e24_effort_sweep : unit -> Relpipe_util.Table.t
(** Quality-versus-effort ablation of the randomized heuristics: optimum
    recovery rate as the iteration budget grows. *)

val all : unit -> (string * Relpipe_util.Table.t) list
(** Every experiment, titled, in DESIGN.md order. *)
