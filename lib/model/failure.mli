(** Global failure probability of a mapping.

    An interval fails when {e all} its replicas fail; the application fails
    when {e some} interval fails:
    {v FP = 1 - prod_j ( 1 - prod_{u in alloc(j)} fp_u ) v}

    Products of many probabilities underflow quickly, so the combinators
    work in log space internally. *)

val interval_failure : Platform.t -> int list -> float
(** [interval_failure platform procs] is [prod fp_u]: the probability that
    every processor of the replication set fails.
    @raise Invalid_argument on an empty set. *)

val of_mapping : Platform.t -> Mapping.t -> float
(** Global failure probability FP of the mapping. *)

val success : Platform.t -> Mapping.t -> float
(** [1 - FP], computed without cancellation. *)

val log_survival : Platform.t -> Mapping.t -> float
(** [log (1 - FP) = sum_j log (1 - prod fp_u)]; [neg_infinity] when some
    interval fails almost surely.  Monotone in the same direction as
    reliability, and the numerically robust quantity to compare. *)
