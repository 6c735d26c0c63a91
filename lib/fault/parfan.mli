(** Domain-pool fan-out for embarrassingly parallel campaigns.

    A fault-injection campaign is thousands of independent
    deterministic simulations: every run boots its own kernel
    ([System.build] holds no hot-path globals — asserted by the
    slot-table freeze in [lib/kernel] and the concurrent-kernel tests
    in [test/test_parfan.ml]), so the sweep parallelizes across OCaml 5
    domains without changing a single simulated cycle. The engine is a
    classic [Mutex]/[Condition] work queue: the caller submits tasks in
    order, [jobs] worker domains drain the queue, and results are
    merged back {e in submission order} — so every JSON artifact,
    table row and [ss_*] counter downstream is byte-identical to the
    sequential path. [jobs = 1] {e is} the sequential path (a plain
    in-domain [List.map], no pool), and serves as the oracle in tests
    and benches.

    Determinism-by-merge-order: each task is a pure function of its
    inputs (the simulation is deterministic per seed), tasks share no
    state, and the output order is fixed by the caller, so scheduling
    nondeterminism inside the pool is unobservable. This is the
    Determinator contract — parallel execution, results deterministic
    by construction — applied at campaign granularity.

    Worker domains enlarge their minor heap to 4M words at startup
    (override with [OSIRIS_MINOR_HEAP], in words): at the runtime's
    default nursery size, OCaml 5's stop-the-world minor collections
    serialize allocation-heavy domains badly enough that a pool can be
    slower than sequential. The calling domain's GC settings are never
    touched. *)

type worker_stat = {
  w_tasks : int;       (** Tasks this worker completed. *)
  w_busy_ns : float;   (** Wall time spent inside tasks. *)
}

type stats = {
  pf_jobs : int;                  (** Worker count actually used. *)
  pf_tasks : int;                 (** Tasks executed. *)
  pf_wall_ns : float;             (** Wall time of the whole map. *)
  pf_workers : worker_stat array; (** Length [pf_jobs], worker id order. *)
}

val resolve_jobs : ?jobs:int -> int -> int
(** [resolve_jobs ?jobs n_tasks] is the worker count a map over
    [n_tasks] tasks will use: [jobs] when given and positive
    ([jobs <= 0] means "auto": [max 1 (recommended_domain_count - 1)],
    leaving one domain for the submitting/merging domain, overridable
    with [OSIRIS_JOBS], a positive integer; anything else is ignored),
    clamped to [n_tasks] (no idle workers) and to at least 1. *)

val map :
  ?jobs:int ->
  ?stats:(stats -> unit) ->
  ?progress:(completed:int -> total:int -> unit) ->
  ('a -> 'b) -> 'a list -> 'b list
(** [map f xs] with results in submission order. With a resolved
    worker count of 1 this is exactly [List.map f xs] run in the
    calling domain. [progress] fires after each task completes (from a
    worker domain, under the pool lock — keep it cheap); [stats]
    receives the final pool statistics. A task raising an exception
    poisons the map: remaining queued tasks are abandoned and the
    first exception in submission order is re-raised after the pool
    drains. *)

(** {1 Derived metrics} *)

val runs_per_sec : stats -> float

val imbalance_pct : stats -> float
(** [(max - min) / mean] of per-worker task counts, in percent; 0 for
    a perfectly balanced (or single-worker) pool. *)

val speedup_line : stats -> string
(** One human line: workers, tasks, wall, runs/sec, estimated speedup,
    imbalance — what [osiris survivability --jobs N] prints. *)
