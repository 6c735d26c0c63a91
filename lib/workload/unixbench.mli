(** Re-implementation of the twelve Unixbench workloads used in the
    paper's evaluation (Tables IV and V, Figure 3), as programs for the
    simulated OS.

    Each benchmark provides a driver program to be run as the workload
    root; the experiment harness measures the virtual time the driver
    consumes and reports iterations per simulated second. Iteration
    counts are scaled to keep simulation times practical; scores are
    only meaningful as ratios between configurations, which is how the
    paper's tables use them. *)

type bench = {
  b_name : string;
  b_iters : int;
  b_driver : unit -> unit;
  b_uses_pm : bool;
      (** Heavy PM dependence — the property Figure 3 keys on. *)
}

val all : bench list
(** In the paper's row order: dhry2reg, whetstone-double, execl, fstime,
    fsbuffer, fsdisk, pipe, context1, spawn, syscall, shell1, shell8. *)

val find : string -> bench option

val register : Registry.t -> unit
(** Register helper binaries (the execl self-chain, the mini shell and
    its utilities). *)
