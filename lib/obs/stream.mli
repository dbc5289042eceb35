(** Streaming aggregators for million-request workloads.

    Three online summaries sized for request streams that are never
    materialized: a mergeable quantile sketch, an exponential-smoothing
    rate estimator and a bloom-filter duplicate tracker (the [Remember]
    idiom).  All three hold O(1) state with respect to the stream length,
    and all are {b deterministic}: their contents are pure functions of
    the observed multiset (sketch, bloom) or sequence (ewma), never of
    timing or scheduling.

    {b Merge laws.}  {!Quantile.merge} and {!Bloom.union} combine
    per-partition summaries by pointwise integer addition / bitwise or,
    so both are {e exactly} associative and commutative: merging
    per-chunk sketches in any order yields bit-identical state to one
    sketch fed the whole stream.  [test/test_stream.ml] pins these laws
    and the accuracy guarantees below; the [stream-aggregation] fuzz
    oracle checks them end to end against batch-materialized
    references. *)

(** Mergeable quantile sketch over positive values (latencies, sizes).

    A DDSketch-style summary: geometric buckets with growth factor
    [gamma = (1 + accuracy) / (1 - accuracy)]; value [v > 0] lands in
    bucket [ceil (log_gamma v)] and non-positive values in a dedicated
    low bucket.  Bucket counts are integers in an ordered map, so two
    sketches over the same multiset are structurally equal however the
    stream was chunked or merged.

    {b Accuracy guarantee.}  {!quantile} returns the upper edge of the
    bucket holding the target rank, so for a stream of positive values
    with exact offline [phi]-quantile [x*]:

    - {e relative error}: [x* <= q <= gamma * x*] (within a ulp-level
      slack at bucket edges), i.e. a one-sided relative error of at most
      [gamma - 1 ~= 2 * accuracy];
    - {e rank bracketing}: at least [ceil (phi * n)] stream elements are
      [<= q], and fewer than [ceil (phi * n)] are below the bucket's
      lower edge [q / gamma] — the estimate's rank interval contains the
      target rank. *)
module Quantile : sig
  type t

  val create : ?accuracy:float -> unit -> t
  (** [accuracy] (default [0.01]) must be in (0, 1).
      @raise Invalid_argument otherwise. *)

  val accuracy : t -> float

  val gamma : t -> float
  (** The bucket growth factor [(1 + accuracy) / (1 - accuracy)]. *)

  val add : t -> float -> unit
  (** Record one value.  NaN counts into the low bucket (it is never a
      meaningful latency; dropping it silently would break the
      [count]-vs-stream-length identity the fuzz oracle checks). *)

  val count : t -> int
  (** Number of values recorded (merges add counts). *)

  val low_count : t -> int
  (** Values [<= 0] (and NaN) seen — reported separately because the
      geometric buckets only cover positive values. *)

  val buckets : t -> (int * int) list
  (** Non-empty buckets as [(index, count)], sorted by index — the full
      sketch state, for structural-equality tests and renderers. *)

  val merge : t -> t -> t
  (** Fresh sketch holding both operands' values (pointwise count
      addition; exactly associative and commutative).
      @raise Invalid_argument when accuracies differ. *)

  val quantile : t -> float -> float
  (** [quantile t phi] for [phi] in [\[0, 1\]]: an estimate of the
      [phi]-quantile under the guarantee above ([phi = 0.] is the
      minimum bucket, [1.] the maximum).  [0.] on an empty sketch and
      when the target rank falls into the low bucket.
      @raise Invalid_argument when [phi] is outside [\[0, 1\]]. *)
end

(** Exponentially smoothed scalar (the classic [smooth prev alpha x]):
    [s <- alpha * x + (1 - alpha) * s], seeded by the first observation.
    Used for arrival-rate and throughput estimates over a request
    stream; sequential by design (rates are not mergeable). *)
module Ewma : sig
  type t

  val create : alpha:float -> t
  (** [alpha] in (0, 1].  @raise Invalid_argument otherwise. *)

  val observe : t -> float -> unit
  val value : t -> float
  (** Current smoothed value; [0.] before the first observation. *)

  val count : t -> int
end

(** Bloom-filter membership over strings: the [Remember] idiom for
    duplicate detection in unbounded streams.  No false negatives ever;
    false positives at most [fp_rate] while at most [expected] distinct
    keys have been added (the standard [m = -n ln p / (ln 2)^2],
    [k = m/n ln 2] sizing).  Hashing is FNV-1a with a SplitMix64
    finalizer — a pure function of the key bytes, so filters are
    deterministic and {!union} is exactly associative/commutative. *)
module Bloom : sig
  type t

  val create : ?fp_rate:float -> expected:int -> unit -> t
  (** @raise Invalid_argument unless [expected > 0] and [fp_rate] is in
      (0, 1). *)

  val bits : t -> int
  (** Filter width [m] in bits. *)

  val hashes : t -> int
  (** Probe count [k]. *)

  val fnv1a64 : string -> int64
  (** The 64-bit FNV-1a hash of the key bytes (offset basis
      [0xcbf29ce484222325], prime [0x100000001b3]): the first of the
      two probe streams. *)

  val mem : t -> string -> bool
  (** [false] is definite; [true] may be a false positive. *)

  val add : t -> string -> bool
  (** Record a key; returns [mem] {e before} the insertion — [true]
      means the key was possibly seen before (the duplicate signal). *)

  val added : t -> int
  (** Keys passed to {!add} (with multiplicity). *)

  val set_bits : t -> int
  (** Population count of the bit array (load indicator). *)

  val union : t -> t -> t
  (** Fresh filter: bitwise or of both operands ({!added} adds).
      @raise Invalid_argument when the geometries ([bits], [hashes])
      differ. *)
end
