(** General mappings (paper Theorem 4): each stage is placed on one
    processor, with no replication and no interval restriction — the same
    processor may serve non-consecutive stages.

    Used by the polynomial shortest-path algorithm for latency minimization
    on Fully Heterogeneous platforms, and as the relaxation that interval
    mappings are compared against. *)

type t
(** A validated stage-to-processor assignment. *)

val make : m:int -> int array -> t
(** [make ~m a] where [a.(k-1)] is the processor of stage [k].
    @raise Invalid_argument on an empty array or an index outside
    [0..m-1]. *)

val of_list : m:int -> int list -> t

val length : t -> int
(** Number of stages. *)

val proc : t -> int -> int
(** [proc t k] is the processor of stage [k] (1-indexed). *)

val is_interval_based : t -> bool
(** True when every processor's stages are consecutive — i.e. the
    assignment is also a valid (unreplicated) interval mapping. *)

val to_mapping : m:int -> t -> Mapping.t option
(** The equivalent interval mapping when {!is_interval_based} holds. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
