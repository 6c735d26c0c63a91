(** Fault-injection campaigns (Tables II and III).

    Methodology, following the paper:
    + a profiling run (no faults) enumerates the fault sites the
      prototype test suite actually triggers after boot — boot-time-only
      and never-triggered sites are excluded by construction;
    + sites are selected once and the same faults are applied under
      every recovery policy;
    + each run boots a fresh system, arms exactly one fault, executes
      the test suite and classifies the outcome:
      - [Pass]: suite completed, all tests passed;
      - [Fail]: suite completed, some test failed — the system survived
        with degraded service (often an [E_CRASH] surfacing);
      - [Shutdown]: the recovery protocol performed a controlled
        shutdown;
      - [Crash]: uncontrolled crash, panic or hang. *)

type outcome = Pass | Fail | Shutdown | Crash

val outcome_name : outcome -> string

val profile_sites : ?seed:int -> Policy.t -> Kernel.site list
(** Distinct post-boot sites in the five core servers, in first-
    execution order (uniform spec of the policy). *)

val select_sites : ?seed:int -> sample:int -> Kernel.site list -> Kernel.site list
(** Deterministic sample of [sample] sites; pass [sample <= 0] for all
    sites. The selection is derived from site {e identity} (a seeded
    hash of each site's name), not list position, so it is stable
    under site-list growth: profiling more sites only marginally
    displaces an existing selection instead of reshuffling it.
    Selected sites are returned in rank order. *)

val run_one : ?seed:int -> Policy.t -> Kernel.site -> Kernel.fault_action -> outcome
(** One injection run under a uniform spec of the policy. *)

type row = {
  row_policy : string;
  runs : int;
  pass : int;
  fail : int;
  shutdown : int;
  crash : int;
}

val fraction : row -> outcome -> float

val survivability :
  ?seed:int -> ?sample:int -> ?jobs:int -> ?stats:(Parfan.stats -> unit) ->
  ?progress:(completed:int -> total:int -> unit) ->
  Edfi.model -> Policy.t list -> row list
(** The full experiment: profile once (under the enhanced policy, whose
    site stream is a superset of each evaluation policy's — asserted by
    the profile-superset test in [test/test_compartment.ml]), select
    the fault set for the model, and run it under each policy.
    [sample] defaults to 0 — {e every} triggered site, as in the
    paper's campaigns (757 fail-stop, 992 full-EDFI faults) — which is
    affordable because the runs fan out across a {!Parfan} domain pool
    ([jobs] defaults to the pool's automatic count, see
    {!Parfan.resolve_jobs}; [jobs:1] is the sequential oracle and
    produces byte-identical rows). Pass a
    positive [sample] for a quick sampled estimate. Equivalent to
    {!survivability_matrix} over uniform specs — Tables II/III are the
    matrix's uniform diagonal. *)

val survivability_matrix :
  ?seed:int -> ?sample:int -> ?jobs:int -> ?stats:(Parfan.stats -> unit) ->
  ?progress:(completed:int -> total:int -> unit) ->
  Edfi.model -> Sysconf.t list -> row list
(** The mixed-policy generalization (FlexOS-style configuration sweep):
    each spec may assign a different policy or restart budget per
    compartment ("enhanced everywhere except a stateless DS"). The same
    profiled fault set is applied under every spec; rows are labeled
    with {!Sysconf.name}. Runs fan out over the domain pool exactly as
    in {!survivability}; row counts are independent of [jobs]. The rows
    of {!survivability_matrix_rollup}, without the rollup. *)

(** {1 Telemetry summaries and campaign rollup}

    Each injection run can carry a compact telemetry summary — read
    from kernel introspection counters {e after} the run, so the
    simulation itself pays no observability overhead (no event hook,
    no per-event allocation). Summaries merge in submission order into
    a campaign-level rollup whose artifact is byte-identical at any
    [--jobs] (gated in [bench/timeseries_bench.ml]); only the optional
    "pool" section of {!rollup_to_json}, which reports wall-clock
    worker utilization, is allowed to vary. *)

type run_summary = {
  sm_outcome : outcome;
  sm_spec : string;                         (** [Sysconf.name]. *)
  sm_site : string;                         (** Injected site name. *)
  sm_final_vtime : int;
  sm_crashes : int;
  sm_restarts : int;
  sm_crash_times : int list;                (** Oldest first. *)
  sm_episodes : (string * int * int) list;
      (** [(server, crashed_at, recovered_at)], oldest first. *)
  sm_mttr : Histogram.t;                    (** This run's recovery
                                                latencies. *)
}

val run_one_summary :
  ?seed:int -> Sysconf.t -> Kernel.site -> Kernel.fault_action -> run_summary
(** One injection run under an arbitrary spec, returning the run's
    telemetry summary (the outcome rides in [sm_outcome]). *)

type rollup = {
  ro_runs : int;
  ro_pass : int;
  ro_fail : int;
  ro_shutdown : int;
  ro_crash : int;
  ro_crashes_total : int;
  ro_restarts_total : int;
  ro_mttr : Histogram.t;
      (** Per-run histograms merged via [Histogram.merge_into] —
          percentiles match observing the union stream. *)
  ro_mttr_by_server : (string * Histogram.t) list;
      (** Recovery latency by crashed compartment, sorted by name. *)
  ro_crash_storm : int array;
      (** Crash counts over virtual time, 64 fixed bins spanning
          [0, ro_max_vtime]. *)
  ro_bin_width : int;
  ro_max_vtime : int;
}

val survivability_matrix_rollup :
  ?seed:int -> ?sample:int -> ?jobs:int -> ?stats:(Parfan.stats -> unit) ->
  ?progress:(completed:int -> total:int -> unit) ->
  Edfi.model -> Sysconf.t list -> row list * rollup
(** {!survivability_matrix} with the telemetry rollup: the same runs,
    each additionally summarized. *)

val rollup_to_json : ?pool:Parfan.stats -> rollup -> string
(** Deterministic JSON artifact (fixed field order, sorted servers).
    [pool] appends the wall-clock worker-utilization section — the
    only part that may vary with [--jobs]. *)

val run_multi :
  ?seed:int -> Policy.t -> (Kernel.site * Kernel.fault_action) list -> outcome
(** Arm several faults in one run (each fires once, at its site's first
    execution; {!Kernel.arm} keeps list order, so of two unfired
    faults at the same site the earlier fires first). Probes the boundary of the paper's single-fault
    assumption (Section II-E). *)

val survivability_multi :
  ?seed:int -> ?sample:int -> ?jobs:int -> ?stats:(Parfan.stats -> unit) ->
  ?progress:(completed:int -> total:int -> unit) ->
  k:int -> Edfi.model -> Policy.t list -> row list
(** Like {!survivability} but arming [k] distinct faults per run.
    [sample] here is the number of fault {e groups} per policy
    (default 60), not a site count. *)
