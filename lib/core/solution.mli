(** Solver results: a mapping together with its evaluation. *)

open Relpipe_model

type t = { mapping : Mapping.t; evaluation : Instance.evaluation }

val of_mapping : Instance.t -> Mapping.t -> t
(** Evaluate and package. *)

val best :
  ?eps:float -> Instance.objective -> t option -> t option -> t option
(** Keep the feasible solution with the better objective value; feasibility
    of the inputs is not re-checked (callers filter first). *)

val pp : Format.formatter -> t -> unit
