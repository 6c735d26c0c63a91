(** Cycle-accounting profiler over the kernel's per-process slot
    counters.

    The kernel attributes every virtual-clock advance to a static
    attribution slot — a ({!Kernel.phase}, detail) pair — and, once
    {!attach} has called [Kernel.enable_cycle_counts], bumps a flat
    per-process counter row inline at each advance (no closure call,
    no allocation; gated in [bench/profiler_bench.ml]). This module is
    the read side: it groups the kernel's slot counters into
    per-(compartment, phase, detail) sums. Because the kernel counts
    {e every} advance, the counters reconstruct each process clock
    exactly — {!check_conservation} asserts that the attributed total
    for every process equals [Kernel.proc_vtime], turning "overhead is
    low" claims (paper Tables IV/V) into checked arithmetic rather
    than sampling estimates. *)

type t

type sample = {
  sa_ep : Endpoint.t;
  sa_ts : int;  (** Process-local clock when the sample fired. *)
  sa_phase : int array;
      (** Cumulative cycles per phase, indexed by [Kernel.phase_index]. *)
}

val create : ?sample_every:int -> unit -> t
(** [sample_every] > 0 snapshots a compartment's cumulative per-phase
    counters every time its clock advances by that many cycles —
    the input for Perfetto counter tracks ({!Flame.counter_samples}).
    0 (default) disables sampling, so attaching installs no cycle
    hook at all — only the kernel's inline counters run. *)

val attach : t -> Kernel.t -> unit
(** Enable the kernel's per-process cycle counters and point this
    profiler's queries at them (plus a sampling cycle hook when
    [sample_every] > 0). Attach before [Kernel.boot] for conservation
    to hold: a later attach misses the cycles already spent. *)

(** {1 Queries} *)

val proc_cycles : t -> Endpoint.t -> int
val phase_cycles : t -> Endpoint.t -> Kernel.phase -> int
val total_cycles : t -> int
val total_phase : t -> Kernel.phase -> int
val n_records : t -> int

val rows : t -> (Endpoint.t * Kernel.phase * string * int) list
(** Non-zero (compartment, phase, detail, cycles) rows, sorted by
    endpoint, phase index, then detail — the flamegraph input. *)

val samples : t -> sample list
(** Chronological per-compartment samples (empty unless
    [sample_every] was set). *)

val check_conservation : t -> Kernel.t -> (unit, string) result
(** For every process the kernel knows (servers and spawned users),
    attributed cycles must equal its clock — exact conservation, no
    drift tolerated. *)

(** {1 Rendering} *)

val report : t -> string
(** Compartment x phase cycle matrix with a totals row. *)

val to_json : t -> string
(** Deterministic JSON artifact: totals, per-compartment phase sums,
    and per-(phase;detail) breakdowns, all sorted. *)
