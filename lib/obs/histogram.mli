(** Log-scale histogram for latency and size distributions.

    Values land in geometric buckets — 8 sub-buckets per power of two, so
    any recorded value is at most ~12.5% away from its bucket boundary and
    the memory footprint is a few hundred ints regardless of range. That
    is the standard trade for perf telemetry (HdrHistogram-style): exact
    count/sum/min/max, approximate quantiles.

    Negative values are clamped to 0; everything below 1.0 shares the
    first bucket (the simulator's costs are ≥ 1 ns, so nothing of
    interest lives there). *)

type t

val create : unit -> t
val record : t -> float -> unit
(** Never allocates. *)

val record_int : t -> int -> unit
(** [record t (float_of_int n)] without boxing the float at the call
    site. *)

val record_elapsed : t -> since:Clock.t -> Clock.t -> unit
(** [record t (clock.ns -. since.ns)], likewise without boxing. *)

val count : t -> int
val sum : t -> float
val min_value : t -> float
(** 0.0 when empty. *)

val max_value : t -> float

val mean : t -> float
(** 0.0 when empty. *)

val percentile : t -> float -> float
(** [percentile t q] for [q] in [0,1]: linear interpolation by rank
    within the bucket holding that rank (exact for uniform in-bucket
    placement; the old bucket-midpoint answer over-reported extreme
    ranks like p999 by up to half a bucket width), clamped to the exact
    observed [min]/[max]. 0.0 when empty. *)

val merge_into : into:t -> t -> unit
(** Add [src]'s buckets and totals into [into]; [src] is unchanged. *)

val diff : after:t -> before:t -> t
(** Bucket-wise difference for window measurements ([before] must be a
    snapshot of the same histogram earlier in time). Quantiles of the
    window are exact at bucket granularity; [min]/[max] are recomputed
    from the window's occupied bucket boundaries (the tightest estimate
    available — per-bucket exact extremes are not retained), never from
    [after]'s all-time extremes. *)

val copy : t -> t

val to_json : t -> Json.t
(** [{count, sum, mean, min, max, p50, p90, p99, p999, p9999}]. *)
