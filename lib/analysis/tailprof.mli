(** Differential tail profiles over critical-path breakdowns.

    Where {!Critpath} explains {e one} request's latency, this module
    explains a {e tail}: it splits a run's completed requests into a
    p50 cohort (latency at or below the nearest-rank median) and a p99
    cohort (latency at or above the nearest-rank p99), averages each
    cohort's bucket decomposition, and ranks the buckets by how much
    more they cost the tail than the median — the {e blame} table.
    A bucket whose blame dominates names the mechanism (queueing,
    one server's service, checkpoint overhead, recovery collateral...)
    that separates the run's worst requests from its typical ones.

    Everything is integer arithmetic over {!Critpath} cycle counts —
    means are kept in tenths of a cycle — so profiles are exactly
    reproducible and byte-identical across hosts, re-runs, and any
    parallel-merge order. Quantile cuts index through
    {!Osiris_util.Stats.rank}, the repo-wide nearest-rank
    definition. *)

type bucket =
  | B_own
  | B_queue
  | B_service     (** All servers' service, collapsed. *)
  | B_checkpoint
  | B_rollback
  | B_restart
  | B_collateral

val n_buckets : int

val bucket_name : bucket -> string

val bucket_index : bucket -> int
(** Declaration-order index, inverse of {!bucket_of_index}. *)

val bucket_of_index : int -> bucket

type cohort = {
  co_n : int;           (** Requests in the cohort (>= 1). *)
  co_cut : int;         (** The latency cut that selected them. *)
  co_mean10 : int array;  (** Per-bucket mean, tenths of a cycle. *)
}

type profile = {
  tp_n : int;    (** Completed requests profiled. *)
  tp_p50 : int;  (** Nearest-rank median latency. *)
  tp_p99 : int;  (** Nearest-rank p99 latency. *)
  tp_low : cohort;   (** Latency <= [tp_p50]. *)
  tp_high : cohort;  (** Latency >= [tp_p99]. *)
  tp_blame : (bucket * int) list;
      (** [tp_high] minus [tp_low] mean (tenths), every bucket, sorted
          descending (declaration order on ties) — the tail's blame
          ranking. *)
}

val profile : Critpath.breakdown list -> profile option
(** [None] on an empty list. *)

val to_json : Buffer.t -> profile option -> unit
(** Append the profile as one JSON object — [n], [p50_cut],
    [p99_cut] and the [blame10] rows in blame order, mean fields in
    tenths of a cycle — or [null] for [None]. The [why] and
    [load --attribute] artifacts both embed it. *)

val knee : int array -> int
(** Knee of a load sweep: index of the first step whose p99 latency is
    at least twice the sweep's minimum p99, or [-1] when the sweep
    never degrades that far (or the minimum is 0). Flags where a
    stepped [osiris load] run tips from flat latency into the
    hockey-stick. *)
