(** Drivers for the paper's performance-side experiments: recovery
    coverage (Table I), Unixbench scores (Table IV), instrumentation
    slowdown (Table V) and memory overhead (Table VI). The fault-
    injection experiments (Tables II/III, Figure 3) live in
    [osiris_fault], which builds on these. *)

(** {1 Recovery coverage — Table I} *)

type coverage_row = {
  cov_server : string;
  cov_fraction : float;  (** ops executed inside windows / total ops. *)
  cov_weight : float;    (** busy cycles, the weighting of the mean. *)
}

val coverage_run : ?seed:int -> Policy.t -> coverage_row list * Kernel.halt
(** Run the prototype test suite under the given policy and measure,
    per core server, the fraction of executed operations that fell
    inside an open recovery window. *)

val weighted_mean_coverage : coverage_row list -> float

val measured_frequencies :
  Kernel.t -> Endpoint.t -> Message.Tag.t -> float
(** Handler activation frequencies measured by the kernel, as the
    workload-weighting input to {!Static_window.server_coverage}. *)

(** {1 Unixbench — Tables IV and V} *)

type bench_result = {
  br_name : string;
  br_iters : int;
  br_cycles : int;       (** Virtual cycles consumed by the run. *)
  br_score : float;      (** Iterations per simulated second. *)
  br_halt : Kernel.halt;
}

val run_bench :
  ?arch:Kernel.arch -> ?seed:int -> Policy.t -> Unixbench.bench -> bench_result

val bench_suite :
  ?arch:Kernel.arch -> ?seed:int -> ?jobs:int ->
  ?stats:(Parfan.stats -> unit) -> Policy.t -> bench_result list
(** One freshly booted system per benchmark, fanned out across the
    {!Parfan} domain pool ([jobs] defaults to the pool's automatic
    count, see {!Parfan.resolve_jobs}; [jobs:1] runs sequentially in
    the calling domain). Scores are
    simulated-cycle ratios, so the result rows do not depend on the
    worker count. *)

(** {1 Memory overhead — Table VI} *)

type memory_row = {
  mem_server : string;
  mem_base_kb : int;       (** Image (data sections) size. *)
  mem_clone_kb : int;      (** Clone image + pre-allocation. *)
  mem_undo_kb : int;       (** Peak undo log during the workload. *)
  mem_total_overhead_kb : int;
}

val memory_overhead : ?seed:int -> unit -> memory_row list
(** Run the Unixbench workloads under the enhanced policy and report
    per-component memory overheads. *)

(** {1 Recovery data movement} *)

type recovery_bytes_row = {
  rb_server : string;
  rb_image_bytes : int;          (** Full image size, the O(image) bound. *)
  rb_rollback_bytes : int;       (** Payload bytes blitted back by undo-log rollbacks. *)
  rb_restore_bytes_saved : int;  (** Bytes dirty-region restarts did not copy. *)
  rb_restarts : int;
}

val recovery_bytes :
  ?seed:int -> ?period:int -> Policy.t -> recovery_bytes_row list * Kernel.halt
(** Run the prototype suite under a periodic crash probe (every
    [period]-th eligible fault site fires) and report how many bytes
    recovery actually moved per server — the full-system evidence that
    rollback scales with logged stores and stateless restarts with
    dirty granules, not with image size. *)
