(** Aligned-text report over a recorded run: per-handler latency
    quantiles, recovery latency quantiles, and a metrics table derived
    from the collected events and the kernel's own counters. The
    CLI's [osiris report] and [examples/observability.ml] render
    through this. *)

val event_counters : Kernel.event list -> (string * int) list
(** The sixteen [osiris.*] counters of an event stream, sorted by
    name: deliveries, calls, replies, window opens/closes, policy
    closes, checkpoints and their cycles, logged stores and their
    bytes, kcalls, crashes, hangs, rollbacks and bytes rolled back,
    restarts. *)

val render :
  kernel:Kernel.t -> events:Kernel.event list -> Span.t list -> string
(** All applicable sections, separated by blank lines: per (server,
    handler) virtual-cycle latency of completed request spans (count,
    p50/p95/p99 as log-bucketed estimates, exact max); quantiles over
    {!Kernel.recovery_latencies} when a recovery completed; and
    {!event_counters} (kind [counter]) next to the kernel's gauges —
    [osiris.shed_exits] and every server's {!Kernel.server_stats} as
    ["<server>.<field>"] (e.g. ["ds.rollback_bytes"]) — in one sorted
    [series / kind / value] table. *)
