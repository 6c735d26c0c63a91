(** Critical-path decomposition of request latency.

    [analyze] walks each spawned user process' causal rid chain through
    the kernel event stream — live-collected or decoded from a
    flight-recorder journal; the analysis is a pure function of the
    events, so the two sources yield identical results — and
    decomposes its end-to-end latency (arrival [E_spawn] to the exit
    call through PM) into an {e exact, conserved} breakdown:

    - {b own}: the process' own compute between calls;
    - {b queue}: arrival-to-dispatch delay of each outstanding call
      (issue until the server first acts on it);
    - {b service}: per-server handling cycles on the request's behalf;
    - {b checkpoint}: window-open checkpoint intervals crossed while
      handling the request;
    - {b rollback} / {b restart}: recovery of a crash the request
      itself caused (the crashed rid shares the request's causal
      root), split at the rollback sub-interval;
    - {b collateral}: time blocked behind a recovery episode the
      request did {e not} cause — its wait intervals intersected with
      the handling server's crash->restart episodes.

    The buckets partition the latency interval by construction:
    [own + queue + sum service + checkpoint + rollback + restart +
    collateral = exit - arrival], exactly, for every completed request
    (the conservation gate of [bench/critpath_bench.ml] and the QCheck
    property in [test/test_critpath.ml]).

    Known charging conventions: a handler's time blocked on a
    dependency it reads through a Call is that server's service;
    dispatch is detected from the first per-rid activity mark (window
    open, checkpoint, kcall, logged store, child message, crash), so
    a markless handler (no recovery window, no fan-out) charges its
    whole turnaround to service rather than queue. *)

type breakdown = {
  cp_ep : Endpoint.t;    (** The request's user process. *)
  cp_rid : int;          (** First top-level call rid (0 if none). *)
  cp_injected : bool;    (** Spawned with parent 0 (harness load). *)
  cp_arrival : int;      (** [E_spawn] time — the arrival vtime. *)
  cp_exit : int;         (** Exit-call vtime (the last [T_exit] send). *)
  cp_own : int;
  cp_queue : int;
  cp_service : (Endpoint.t * int) list;  (** Ascending endpoint. *)
  cp_checkpoint : int;
  cp_rollback : int;
  cp_restart : int;
  cp_collateral : int;
  cp_path : int list;    (** Rids on the causal chain, pre-order. *)
}

val total : breakdown -> int
(** [cp_exit - cp_arrival]. *)

val service_total : breakdown -> int

val breakdown_sum : breakdown -> int
(** Sum of every bucket — equals {!total} (the conservation
    invariant). *)

type result = {
  cr_requests : breakdown list;  (** Completed requests, arrival order. *)
  cr_incomplete : int;  (** Spawned processes that never exited. *)
}

val analyze : Kernel.event list -> result
(** Decompose every spawned user process in an oldest-first event
    stream. Processes without an [E_spawn] (pre-capture) are not
    analyzed. *)

val analyze_model : Runmodel.t -> Kernel.event list -> result
(** [analyze] reusing a run model already built from the same events. *)
