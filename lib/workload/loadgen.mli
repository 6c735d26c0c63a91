(** Open-loop heavy-traffic engine.

    Every other workload in the repo is {e closed-loop}: one program
    issues a call, waits, issues the next, so offered load adapts to
    system speed and saturation is invisible.  This module models the
    way a production OS is judged: an {e open-loop} arrival process —
    request arrival times drawn up front from the arrival model,
    independent of how fast the system serves them — so queueing delay
    appears in the measured latency instead of silently throttling the
    load (no coordinated omission).

    Mechanically, each request is a user process injected with
    {!Kernel.spawn_user_at} at its nominal arrival instant: it enters
    the scheduler's run queue at that key and first runs exactly
    then.  Its program connects ({!Syscall.adopt} — PM registration
    with VM/VFS introductions), performs one service-mix action
    against the syscall surface, and exits; the kernel records the
    exit status and the process' clock at the exit call
    ({!Kernel.user_exit}), giving latency = exit − nominal arrival.
    A run ends when the last request drains
    ({!Kernel.set_halt_on_drain}).

    Everything is derived from the spec's seed through
    [Osiris_util.Rng]: arrival times, service mix, and Zipf-skewed
    target popularity are identical across re-runs and across
    [Parfan --jobs] fan-out of a sweep. *)

type arrival =
  | Poisson  (** Memoryless arrivals: exponential inter-arrival gaps. *)
  | Bursty of { on_mean : int; off_mean : int }
      (** On/off modulated Poisson: exponential ON phases (mean
          [on_mean] cycles) during which arrivals run at the
          compensated rate, separated by exponential OFF gaps (mean
          [off_mean] cycles) with no arrivals — same average offered
          load, bursty short-term intensity. *)

type mix = {
  mix_file : int;  (** VFS/MFS/bdev file round trip on a Zipf-hot path. *)
  mix_ds : int;    (** DS publish + retrieve on a Zipf-hot key. *)
  mix_pipe : int;  (** Private pipe round trip through VFS. *)
  mix_mem : int;   (** VM brk query + sbrk grow. *)
  mix_exec : int;  (** fork + exec /bin/true + waitpid through PM/VM/VFS. *)
}
(** Relative service-mix weights (need not sum to anything). *)

val default_mix : mix
(** [{file 4; ds 3; pipe 2; mem 2; exec 1}] — IPC-dense, every core
    server sees traffic. *)

type spec = {
  l_seed : int;
  l_requests : int;  (** Total arrivals to inject. *)
  l_rate : int;      (** Offered load, requests per simulated second
                         (at the 2.3 GHz scaled clock). *)
  l_arrival : arrival;
  l_mix : mix;
  l_keys : int;      (** Popularity universe (distinct files/keys). *)
  l_zipf : float;    (** Zipf skew exponent [s]; 0 = uniform. *)
}

val default_spec : spec
(** Seed 42, 200 requests at 20k req/s, Poisson, {!default_mix},
    64 keys, skew 1.1. *)

(** {1 Distributions} (exposed for tests) *)

val cycles_per_second : int
(** Virtual cycles per simulated second (2.3 GHz scaled clock, as in
    [Costs.scaled_ghz]). *)

val zipf_cdf : n:int -> s:float -> float array
(** Unnormalized cumulative Zipf weights: entry [i] is
    [sum_{r<=i+1} 1/r^s]. *)

val zipf_pick : Osiris_util.Rng.t -> float array -> int
(** Draw a 0-based rank from the cumulative weights. *)

val arrivals : spec -> int array
(** The request arrival instants (virtual cycles, nondecreasing),
    fully determined by the spec. *)

(** {1 Driving a kernel} *)

type request = {
  rq_idx : int;
  rq_arrival : int;     (** Nominal arrival instant. *)
  rq_class : string;    (** ["file"|"ds"|"pipe"|"mem"|"exec"]. *)
  rq_ep : Endpoint.t;   (** Endpoint of the injected process. *)
}

val inject : Kernel.t -> spec -> request array
(** Spawn the placeholder root (PM's pre-registered init slot must be
    occupied before any [Adopt]), then one process per request at its
    arrival instant, and arm drain-halt.  Call on a built (booted)
    kernel before [Kernel.run]. *)

type outcome = {
  o_spec_rate : int;       (** Offered rate echoed from the spec. *)
  o_requests : int;        (** Requests injected. *)
  o_completed : int;       (** Requests with a recorded exit. *)
  o_ok : int;              (** ... that exited 0 (goodput numerator). *)
  o_shed : int;            (** ... shed at connect (PM table full). *)
  o_makespan : int;        (** Last recorded exit instant. *)
  o_latencies : int array; (** Sorted exit−arrival of the ok requests. *)
  o_lat_pairs : (int * int) list;
      (** [(completion, latency)] of ok requests, any order — the
          shape [Timeline.build ~latencies] consumes. *)
}

val collect : Kernel.t -> request array -> outcome
(** Read the exit records after the run has halted. *)

val goodput_rps : outcome -> int
(** Completed-ok requests per simulated second over the makespan
    (integer arithmetic — deterministic artifacts). *)

val percentile : int array -> num:int -> den:int -> int
(** Nearest-rank percentile of a sorted array ([num]/[den] in (0,1]]:
    p99.9 is [~num:999 ~den:1000]); 0 on empty input. *)
