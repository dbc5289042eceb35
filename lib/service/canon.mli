(** Canonicalization of solve requests into stable cache keys.

    Two requests share a key exactly when the engine may serve them from
    one solve.  The canonical form is a digest over:

    - a schema version tag (bump {!version} whenever the serialization,
      the quantization or the symmetry rules change — stale keys must
      never alias fresh ones);
    - the method and branch-and-bound node budget;
    - the objective with its threshold {e quantized} to a 40-bit
      significand, about 12 significant digits ({!quantize}), so
      thresholds differing only by float noise below that precision
      collapse;
    - the pipeline (input size and per-stage work/output, quantized);
    - the platform, {e modulo the platform class's symmetries}: on
      link-homogeneous platforms (Fully Homogeneous and Communication
      Homogeneous) processors are interchangeable, so they are sorted by
      (quantized speed, quantized failure) and the permutation is
      recorded; on Fully Heterogeneous platforms the bandwidth matrix
      breaks the symmetry and processors keep their declared order (the
      permutation is the identity).

    The digested bytes (version 3) are binary and carry no formatted
    number: the ASCII tag [relpipe-canon]; the version; the method
    name's length and bytes; the budget; ['F'] (min failure) or ['L']
    (min latency) and the threshold; [n] and [m]; the input size; each
    stage's work and output; each processor's speed and failure in
    canonical order; then ['H'] and the common bandwidth, or ['X'] and
    the upper triangle of the bandwidth matrix row by row over [Pin],
    processors [0..m-1], [Pout].  Integers are little-endian int64 and
    floats the little-endian bits of their {!quantize}d value.  Every
    field is fixed-width or preceded by its length, so the encoding is
    injective.

    A cached solution is expressed in its {e representative}'s processor
    indices; {!translate} re-indexes it for another instance with the
    same key through the two recorded permutations. *)

open Relpipe_model

val version : int
(** Schema version baked into every key (currently [3]). *)

val quantize : float -> float
(** Round the significand to 40 bits, half away from zero, on the IEEE
    bit pattern: relative error at most [2^-40] on normal values,
    idempotent and monotone.  A finite input stays finite (at the top
    binade, where rounding up would overflow, the value is truncated);
    [-0.0] maps to [0.0]; non-finite values pass through. *)

type normalized = {
  key : string;  (** ["v3:<hex digest>"] — the cache key *)
  perm : int array;
      (** canonical position -> original processor index; [perm.(p)] is
          the processor declared at index [perm.(p)] that canonicalizes
          to position [p] *)
}

val normalize :
  budget:int ->
  method_:Relpipe_core.Solver.method_ ->
  Instance.t ->
  Instance.objective ->
  normalized

val same_perm : int array -> int array -> bool

val translate :
  from_perm:int array ->
  to_perm:int array ->
  n:int ->
  m:int ->
  Mapping.t ->
  Mapping.t
(** [translate ~from_perm ~to_perm ~n ~m mapping] re-indexes a mapping
    expressed over the [from_perm] instance onto the [to_perm] instance
    (both with the same canonical key, hence the same [m]).  Returns
    [mapping] unchanged when the permutations agree.
    @raise Invalid_argument if the permutations have different lengths. *)
