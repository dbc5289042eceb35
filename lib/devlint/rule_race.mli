(** Family "race" — unsynchronized writes to captured mutable state
    inside closures submitted to Relpipe_pool.Pool.map or Domain.spawn. *)

val rules : Drule.t list

val check : Source.t -> (Drule.Diagnostic.t -> unit) -> unit
