(** The discrete-event microkernel.

    The kernel owns the virtual clock, schedules processes by virtual
    time, runs every thread as an OCaml effect fiber — a program is a
    plain [unit -> unit] function whose operations are calls into
    {!Op} — and implements the privileged mechanics of OSIRIS'
    recovery protocol (restart / rollback / reconciliation primitives
    invoked by the Recovery Server through kernel calls).

    Simulation structure:
    - every process (OS server or user process) is an event-driven
      entity with one or more cooperative threads;
    - synchronous [Call]s follow MINIX sendrec semantics — the caller
      blocks until the receiver replies;
    - recovery windows open when a handler starts and close according
      to the active {!Policy.t} and the SEEP class of outbound messages
      (multithreaded servers additionally close the window whenever the
      active thread is switched out, per paper Section IV-E);
    - every executed server operation is counted for recovery coverage
      (Table I) and, while a fault is armed or a hook is set, matched
      against fault sites (Tables II/III);
    - every operation advances the owning process' virtual time by its
      {!Costs.t} entry.

    Everything is deterministic for a fixed configuration and seed. *)

type arch = Microkernel | Monolithic

(** {1 Fault interface}

    The fault library arms sites ({!arm}) or installs a hook
    ({!set_fault_hook}); the kernel defines the vocabulary and matches
    armed sites. A {!site} identifies an executed server operation the
    way EDFI identifies a static program location: by component,
    handler, operation kind, and occurrence index within the handler
    activation. *)

type op_kind =
  | Op_compute
  | Op_load
  | Op_store
  | Op_send
  | Op_call
  | Op_reply
  | Op_receive
  | Op_kcall
  | Op_spawn
  | Op_yield

type site = {
  site_ep : Endpoint.t;
  site_handler : Message.Tag.t option;  (** None in loop/init code. *)
  site_kind : op_kind;
  site_occ : int;  (** nth op of this kind within the handler activation. *)
}

val site_to_string : site -> string
val compare_site : site -> site -> int
(** Total order: by endpoint, then handler ([None] first, then tag
    declaration order), then op kind (declaration order), then
    occurrence — the order polymorphic [compare] gives, field by field. *)

val site_key : site -> int
(** The site as one non-negative int, the key {!arm} matches on:
    injective over the sites an operation can have (endpoint >= 0,
    occurrence in [0, 16]) and ordered like {!compare_site} there;
    -1 for any other site. *)

type fault_action =
  | F_crash of string      (** Fail-stop: NULL-deref analogue. *)
  | F_hang                 (** Component stops making progress. *)
  | F_corrupt_store        (** Stored value is corrupted (fail-silent). *)
  | F_drop_store           (** Store silently dropped (fail-silent). *)
  | F_corrupt_msg          (** Outbound message corrupted (fail-silent). *)
  | F_skip_handler         (** Handler aborts early without replying. *)
  | F_benign
      (** Triggered but non-manifesting (e.g. a wrong value that is
          overwritten before use) — a large fraction of realistic
          injected faults behave this way. *)

(** {1 Server registration} *)

type server = {
  srv_ep : Endpoint.t;
  srv_name : string;
  srv_image : Memimage.t;
  srv_clone_extra_kb : int;
      (** Memory the Recovery Server pre-allocates for this component's
          clone beyond the image itself (large for VM — Table VI). *)
  srv_init : unit -> unit;
      (** Instrumented initialization, run once at boot. *)
  srv_loop : unit -> unit;
      (** The request-processing loop; also used to restart clones. *)
  srv_multithreaded : bool;
}

(** {1 Halting} *)

type halt =
  | H_completed of int
      (** The designated root process exited with this status. *)
  | H_shutdown of string
      (** Controlled shutdown performed by the recovery protocol. *)
  | H_panic of string
      (** Kernel invariant broken or unrecoverable crash. *)
  | H_hang
      (** No runnable work before completion, or op budget exhausted. *)

val halt_to_string : halt -> string

(** {1 Configuration} *)

type config = {
  arch : arch;
  policy : Policy.t;
      (** Default policy: user processes and any server without an
          entry in [policies]. *)
  policies : (Endpoint.t * Policy.t) list;
      (** Per-compartment overrides. Resolution happens once, at
          process creation ({!add_server}/{!spawn_user}): the window
          machinery, store instrumentation, SEEP window-closing, dedup
          and recovery dispatch all read the policy pinned on the
          process, never this list. *)
  costs : Costs.t;
  seed : int;
  max_ops : int;            (** Total op budget; exceeding it means hang. *)
  max_vtime : int;          (** Virtual-time deadline; past it, hang. *)
  hang_detect_cycles : int; (** Heartbeat latency for hung components. *)
  max_crashes : int;        (** Crash-storm cutoff (panic beyond it). *)
  lookup_program : string -> (int -> unit) option;
      (** Executable registry used by [K_exec]: the program run with
          the exec argument, in the exec'd process. *)
  log_sink : (string -> unit) option;
      (** Receives [Diag] lines. *)
}

val costs_of_arch : arch -> Costs.t
(** The cost table an architecture runs under — the one place an
    [arch] maps to {!Costs.microkernel} or {!Costs.monolithic}. *)

val default_config : ?arch:arch -> ?seed:int ->
  ?policies:(Endpoint.t * Policy.t) list -> Policy.t ->
  lookup_program:(string -> (int -> unit) option) -> unit -> config

type t

val create : config -> t

val add_server : t -> server -> unit
(** Register a server before {!boot}. *)

val boot : t -> unit
(** Run all server init programs and their loops until the system is
    quiescent (all servers blocked in Receive), then snapshot each
    server image as its pristine boot state (used by stateless
    restart). Site/coverage accounting starts after boot. A server's
    init must not wait in Receive: quiescence is taken to mean every
    server is at the top of its loop, and the loop starts afresh at
    its first message. *)

val spawn_user : t -> name:string -> prog:(unit -> unit) ->
  parent:Endpoint.t -> Endpoint.t
(** Create a user process (the workload root; everything else is
    forked/exec'd through PM). It must be registered in PM separately
    — the core library's boot protocol handles that. A program that
    returns exits 0 through PM; one that raises exits 255. *)

val spawn_user_at : t -> at:int -> name:string -> prog:(unit -> unit) ->
  parent:Endpoint.t -> Endpoint.t
(** {!spawn_user}, but the process first runs at virtual instant
    [at]: its clock starts there and it enters the scheduler's run
    queue at that key.  This is how the open-loop load engine drives
    arrivals — each request is a process whose start waits in the run
    queue for its nominal arrival time, independent of system state (past
    instants are clamped to now). *)

val set_halt_on_exit : t -> Endpoint.t -> unit
(** When this process exits, the run completes. *)

val set_halt_on_drain : t -> unit
(** Halt ([H_completed 0]) when the last live user process exits —
    how an open-loop run ends: all requests injected up front, the
    system drains.  No effect on runs that halt earlier. *)

val user_exit : t -> Endpoint.t -> (int * int) option
(** [(status, vtime)] recorded when the user process exited: the
    status it passed to PM and its own virtual clock at the exit
    call (i.e. when its work finished — PM teardown excluded).
    [None] while alive or for unknown endpoints. *)

val run : t -> halt
(** Run until a halt condition. On return every thread's fiber has been
    released: a kernel runs once. *)

(** {1 Operations}

    The operations a program performs, as plain calls. Each one acts
    on the thread the kernel is running — reached through a
    per-domain slot: it counts against [max_ops], is a coverage unit
    and a fault site, pays its {!Costs.t} entry, and may be preempted
    at its entry. [call], [receive] and [yield] suspend the thread's
    fiber until it can go on. Calling any of them outside a running
    thread raises [Invalid_argument]. The end of a thread's program is
    an operation too. Programs must be deterministic: randomness comes
    from [rand] (the kernel's seeded stream) and time from [now] (the
    virtual clock). *)
module Op : sig
  val compute : int -> unit
  val load : int -> int
  val store : int -> int -> unit
  val load_str : off:int -> len:int -> string
  val store_str : off:int -> len:int -> string -> unit
  val send : Endpoint.t -> Message.t -> unit

  val call : ?child:(unit -> unit) -> Endpoint.t -> Message.t -> Message.t
  (** Send a request and wait for the reply. [child] is the body of
      the process a fork request creates: it rides in the calling
      thread's record while the call waits, never in the message, and
      [K_fork] starts the child with it; a fork call without one fails
      with [EINVAL]. *)

  val receive : unit -> Endpoint.t * Message.t
  (** The oldest message in the process' inbox, waiting for one if it
      is empty; the thread handles it as its request until its next
      receive. The inbox is a ring that grows when full: a delivery
      allocates nothing once it has grown. *)

  val reply : Endpoint.t -> Message.t -> unit
  (** Resume a thread of [dst] waiting in [call] on this process: the
      one that sent the request this thread handles, if it is from
      [dst] and still waiting, else the first waiting one. A reply no
      thread waits for is counted as an orphan. *)

  val yield : unit -> unit

  val spawn : (unit -> unit) -> unit
  (** Start a cothread in the same component. *)

  val kcall : Prog.kcall -> Prog.kresult
  val rand : int -> int
  val now : unit -> int

  val fail : string -> 'a
  (** Fail-stop crash of the executing component (the NULL-deref /
      failed-assertion analogue); a user process exits 255. *)

  (** Typed memory access over layouts: costed, instrumented and
      fault-injectable loads and stores of table fields and cells. *)
  module Mem : sig
    val get_int : Layout.Table.t -> row:int -> Layout.int_field -> int
    val set_int : Layout.Table.t -> row:int -> Layout.int_field -> int -> unit
    val get_str : Layout.Table.t -> row:int -> Layout.str_field -> string
    val set_str : Layout.Table.t -> row:int -> Layout.str_field -> string -> unit
    val get_cell : Layout.Cell.t -> int
    val set_cell : Layout.Cell.t -> int -> unit

    (** {2 Row searches}

        The table walks of the C servers. A walk's predicate is a
        sequence of column tests, evaluated on each row in order: the
        row fails at the first test that fails, as C's [&&] stops, and
        matches if it reaches [Hit]. Each test but [Row_ne] is one load
        of the row's column, a {!get_int} or {!get_str} of its own. *)
    type test =
      | Hit  (** The row matches. *)
      | Int_eq of Layout.int_field * int * test
          (** Load the int column; go on if it equals the value. *)
      | Int_ne of Layout.int_field * int * test
          (** Load the int column; go on unless it equals the value. *)
      | Str_eq of Layout.str_field * string * test
          (** Load the string column; go on if it equals the string. *)
      | Row_ne of int * test
          (** No load: go on unless the row index is the value. *)

    val scan : Layout.Table.t -> rows:int -> test -> int option
    (** [scan tbl ~rows tests] is the first of rows [0..rows-1] whose
        tests pass. One call makes every load of the walk, each with
        the costs, coverage, fault sites, preemption point and
        [max_ops] budget of a single load; a row past the table raises
        at its first load, as {!get_int} does. A process that is not
        sited (no fault hook, no armed site at its endpoint) while no
        cycle hook is installed runs the rows batched, allocating
        nothing but the result; otherwise load by load. A batched walk
        preempted at a load parks as data and the kernel runs it on
        from that load without resuming the calling fiber. When the
        item due next is another process' parked walk, the kernel
        runs the two on in turn, each until its clock passes the
        other's or a third item falls due, without a pass through the
        run queue between them: the interleaving, and every counter
        and event, are those of the queued schedule. *)

    val scan_from : Layout.Table.t -> rows:int -> from:int -> test -> int option
    (** [scan_from tbl ~rows ~from tests] is {!scan} over rows
        [from..rows-1]. A loop over every matching row is a walk
        resumed past each hit: [scan_from ~from:(row + 1)] with the
        same tests makes exactly the loads, in the same order, of the
        C loop that tests each row with [&&]. *)
  end
end

(** {1 Event tracing}

    Every delivered message carries a {e causal request id} ([rid],
    positive, unique per run) and the rid of the request its sender was
    handling at the time ([parent], 0 at a root — user programs and
    kernel-originated notifications). Threading the rid through sendrec
    chains links a user syscall to its server fan-out, and a crash to
    the request whose handling triggered it: observers can rebuild the
    whole request/recovery span tree from the flat event stream (see
    [lib/obs]). Rid allocation is an unconditional int increment, so
    attaching a hook mid-run never changes the numbering. *)

type event =
  | E_msg of { time : int; src : Endpoint.t; dst : Endpoint.t;
               tag : Message.Tag.t; call : bool;
               rid : int; parent : int; cls : Seep.cls }
      (** A request or notification was delivered to [dst]'s inbox,
          SEEP-classified from the receiver's point of view. *)
  | E_reply of { time : int; src : Endpoint.t; dst : Endpoint.t;
                 tag : Message.Tag.t; rid : int }
      (** The call [rid] completed — including virtualized
          [E_CRASH] error replies injected by [K_reply_error]. *)
  | E_window_open of { time : int; ep : Endpoint.t; rid : int }
      (** A recovery window opened for handling request [rid]. *)
  | E_window_close of { time : int; ep : Endpoint.t; rid : int; policy : bool }
      (** The window closed; [policy] when a policy-forbidden SEEP (or
          graduated hardening) forced it, false at handler completion
          or thread switch. *)
  | E_checkpoint of { time : int; ep : Endpoint.t; rid : int; cycles : int }
      (** Checkpoint taken at window open ([cycles] charged — large
          for [Snapshot] instrumentation, constant for undo logging). *)
  | E_store_logged of { time : int; ep : Endpoint.t; rid : int; bytes : int }
      (** An in-window store was offered to the undo log. *)
  | E_kcall of { time : int; ep : Endpoint.t; rid : int; kc : string }
      (** A kernel call (recovery protocol steps are the interesting
          ones: mk_clone, rollback, go, ...). *)
  | E_crash of { time : int; ep : Endpoint.t; reason : string;
                 window_open : bool; rid : int; policy : string }
      (** [rid] is the request being handled when the crash hit (0 in
          loop/init code) — recovery spans nest under it. [policy]
          names the crashed compartment's policy, so traces from
          heterogeneous (mixed-policy) runs stay attributable. *)
  | E_hang_detected of { time : int; ep : Endpoint.t }
      (** The heartbeat detected a hung component (precedes the
          corresponding [E_crash]). *)
  | E_rollback_begin of { time : int; ep : Endpoint.t; rid : int }
  | E_rollback_end of { time : int; ep : Endpoint.t; rid : int; bytes : int }
      (** [bytes] actually blitted back: undo-log payload replayed, or
          the image size under [Snapshot] instrumentation. *)
  | E_restart of { time : int; ep : Endpoint.t; rid : int; policy : string }
  | E_halt of { time : int; halt : halt }
  | E_spawn of { time : int; ep : Endpoint.t; parent : int }
      (** A user process was born at virtual instant [time] (its
          arrival, possibly ahead of emission order for open-loop
          loads scheduled in the future). [parent] is the spawning
          endpoint — 0 for harness-injected load requests — so the
          analysis layer can anchor arrival -> exit latency from the
          event stream alone. *)

val set_event_hook : t -> (event -> unit) option -> unit
(** Structured observability: invoked for every IPC delivery, reply,
    window transition, checkpoint, logged store, kcall, crash,
    rollback, restart and halt, right after the event's entry is
    appended to the capture log ({!capture}), with the event decoded
    from that entry. Without a capture installed the entry goes to a
    one-entry log the kernel owns. With neither a hook nor a capture
    installed an emission site is one branch and allocates nothing (a
    bench gate in [bench/obs_bench.ml]). *)

(** Raw event capture: the flight recorder's zero-dispatch tap, and
    the only place an event is written.

    A [capture] is a consumer-owned scalar log. The emission sites
    append each event as a few plain [int] stores into [cap_buf]
    (string fields ride as shared pointers in [cap_strs] — the
    kernel's strings are immutable, so no copy): no closure call, no
    encoding. Only when an append would overflow does the kernel
    invoke [cap_drain], which must make room again — grow the arrays,
    or consume the log and reset [cap_pos]/[cap_spos] — leaving at
    least 16 free [cap_buf] slots and 2 free [cap_strs] slots (one
    entry of any kind). The journal writer's drain batch-encodes the
    log into its wire format ([Journal.capture]); deferring every
    codec byte off the emission path is what holds the <5%
    attached-recording overhead gate in [bench/journal_bench.ml].

    Entry layout — written only by the kernel's appenders (the
    emission sites and {!capture_event}), read by the event hook's
    decoder ({!iter_capture}) and the journal's transcoder. The first
    slot is the event's wire code (constructor declaration order);
    booleans are 0/1, [tag] is [Message.Tag.to_index], [cls] is 0 =
    read-only, 1 = state-modifying, 2 = reply; trailing strings ride
    in [cap_strs] in append order:

    {v
     0  E_msg            time src dst tag call rid parent cls (9 slots)
     1  E_reply          time src dst tag rid                 (6)
     2  E_window_open    time ep rid                          (4)
     3  E_window_close   time ep rid policy                   (5)
     4  E_checkpoint     time ep rid cycles                   (5)
     5  E_store_logged   time ep rid bytes                    (5)
     6  E_kcall          time ep rid             + 1 string   (4)
     7  E_crash          time ep window_open rid + 2 strings  (5)
     8  E_hang_detected  time ep                              (3)
     9  E_rollback_begin time ep rid                          (4)
    10  E_rollback_end   time ep rid bytes                    (5)
    11  E_restart        time ep rid             + 1 string   (4)
    12  E_halt           time kind status        + 1 string   (4)
          (kind 0 completed / 1 shutdown / 2 panic / 3 hang;
           the string only for kinds 1 and 2)
    13  E_spawn          time ep parent                       (4)
    v}

    A capture and an event hook can be installed together; the hook
    then decodes each entry from the capture itself, so the hook's
    events and a journal recorded through the capture are the same
    data by construction. *)
type capture = {
  mutable cap_buf : int array;
  mutable cap_pos : int;
  mutable cap_strs : string array;
  mutable cap_spos : int;
  mutable cap_drain : unit -> unit;
}

val set_capture : t -> capture option -> unit

val capture_event : capture -> event -> unit
(** Append [event]'s entry to the log, with the appenders the
    emission sites use (draining first if the entry does not fit). *)

val iter_capture : capture -> (event -> unit) -> unit
(** Decode the log's entries in order, with the decoder the event
    hook sees. Raises [Invalid_argument] on an unknown wire code or if
    the entries do not end exactly at [cap_pos] and [cap_spos]. *)

val set_vtime_sampler : t -> interval:int -> (int -> unit) option -> unit
(** Virtual-time sampling hook, the telemetry engine's tap
    ([lib/obs/timeseries.ml]). The hook fires whenever the global
    clock crosses a multiple of [interval] virtual cycles, once per
    boundary crossed, receiving the boundary time — so a run's sample
    timestamps are the fixed grid [interval, 2*interval, ...],
    independent of scheduling detail, and two runs of the same seed
    sample at identical instants. The hook runs on the clock-advance
    path and must be cheap and allocation-free (gated by
    [bench/timeseries_bench.ml]); with no sampler installed the
    clock-advance path pays a single compare. [interval] must be
    positive when installing; it is ignored when [hook] is [None]. *)

(** {1 Cycle attribution}

    Every advance of a process' virtual clock is attributed to exactly
    one phase, at one static emission point (a {!slot}). Counters
    enabled before the first advance (i.e. before {!boot}) therefore
    reconstruct each process clock exactly: summing a process' slot
    cycles yields its {!proc_vtime} — the conservation invariant
    [lib/obs/profiler] asserts. *)

type phase =
  | Ph_user        (** Executing the component's own instructions. *)
  | Ph_instr       (** Recovery-window instrumentation drag
                       ([c_instr_op] per op while stores are logged). *)
  | Ph_log         (** Undo-log write cost riding on logged stores. *)
  | Ph_checkpoint  (** Window-open checkpoint (snapshot copy or
                       constant undo-log arming cost). *)
  | Ph_rollback    (** Rolling state back after an in-window crash. *)
  | Ph_restart     (** Restart machinery: clone image transfer, state
                       clearing, crash downtime until [K_go]. *)
  | Ph_wait        (** Blocked on IPC: the clock jumped forward to a
                       peer's clock or an inbox timestamp. *)

val phase_to_string : phase -> string
(** Stable lowercase names: user, instr, undo_log, checkpoint,
    rollback, restart, ipc_wait. *)

val phase_index : phase -> int
val n_phases : int
val all_phases : phase list

type slot = int
(** An attribution slot: a static emission point of the cycle hook,
    i.e. one (phase, detail) pair — an op kind, a kcall, a checkpoint
    copy, a wait cause. Slots are dense ids in \[0, {!n_slots}), fixed
    at module init, so a consumer can count cycles in flat arrays with
    no hashing on the hot path. *)

val n_slots : int
val slot_phase : slot -> phase
val slot_detail : slot -> string
(** Constant lowercase names, e.g. "compute", "store", "snapshot",
    "downtime", "resume". Several slots may share a detail across
    different phases (a logged store charges a [Ph_user] slot and a
    [Ph_log] slot that are both named "store"). *)

val all_slots : slot list

val enable_cycle_counts : t -> unit
(** Give every process (current and future) a per-slot cycle/event
    counter row, bumped inline at each clock advance — no closure
    call, which is what keeps attached-profiler overhead inside its
    bench gate. Enable before {!boot} and the counters reconstruct
    each process clock exactly; counting cannot be disabled again. *)

val slot_cycles : t -> Endpoint.t -> slot -> int
val slot_events : t -> Endpoint.t -> slot -> int
(** Counter-row reads; 0 for unknown processes or before
    {!enable_cycle_counts}. Allocation-free (safe to call from a
    vtime-sampler hook). *)

val total_phase_cycles : t -> phase -> int
(** Kernel-global cycles attributed to the phase so far, over {e all}
    processes. Maintained incrementally on the attribution path (two
    array ops per emission while profiling), so a read is O(1) and
    allocation-free — this is what the telemetry engine samples per
    phase every tick. 0 before {!enable_cycle_counts}; unlike summing
    per-process {!slot_cycles}, the total survives process replacement
    across restarts. *)

val profiled_procs : t -> int
(** Number of processes carrying counter rows (allocation accounting
    in [bench/profiler_bench.ml]). *)

val set_cycle_hook : t -> (Endpoint.t -> slot -> int -> unit) option -> unit
(** [hook ep slot cycles] fires for every clock advance, with
    [cycles > 0] — the event-stream form of the attribution, for
    consumers that need per-advance granularity (e.g. the profiler's
    counter-track sampler). All arguments are immediate ints: a hook
    invocation allocates nothing, and with no hook installed each
    emission point pays a single branch (gated in
    [bench/profiler_bench.ml]). *)

val live_update : t -> Endpoint.t -> (unit -> unit) -> (unit, string) result
(** Replace a server's request-processing loop with a new version,
    preserving its state — a live update built from the recovery
    substrate (paper Section VII, "generality of the framework"): the
    component must be quiescent (blocked in Receive with a closed
    window); the update replaces its loop and resumes it like a
    recovered clone. Fails with a reason when the component is mid-
    request, mid-recovery, or unknown. *)

(** {1 Fault hooks} *)

val arm : t -> (site * fault_action) list -> unit
(** Arm one-shot faults as data, replacing any armed before ([arm t []]
    disarms). At every sited operation (below) the kernel matches the
    operation's site against the armed sites that have not fired, in
    list order, on integers alone — no site record, no closure, no
    allocation. The first match fires its action and is disarmed, so a
    site listed twice fires at its first two occurrences. A site
    matches operations of its own endpoint alone, so the operations
    sited are the post-boot server operations at the endpoints of the
    armed sites, together with those of the hook's scope
    ({!set_fault_hook}); once every armed site has fired, only the
    hook's remain, and with no hook set none at all. Every other server
    runs unsited — its row searches batched. A site no operation can
    have (occurrence outside [0, 16], negative endpoint) never fires.
    Use this for faults fixed before the run (EDFI campaigns); use
    {!set_fault_hook} when the condition depends on run state. *)

val set_fault_hook :
  ?scope:Endpoint.t list -> t -> (site -> fault_action option) option -> unit
(** Consulted for every post-boot server operation at an endpoint of
    [scope] (default: every server) that no armed site ({!arm}) fires
    at: armed sites are matched first, and the hook sees only the
    operations they leave. A hook sees no other endpoint's site, and
    its scope's servers alone (with the armed sites') pay for building
    site records; give the endpoints a hook can fire at when it cannot
    fire everywhere. Also the profiling tap — a hook that records its
    site and returns [None]. [set_fault_hook t None] removes the hook;
    a hook may remove itself. *)

(** {1 Introspection} *)

val now : t -> int
(** Virtual time in cycles (max over process clocks so far). *)

val total_ops : t -> int

(** {2 Fiber-runner counters}

    Cumulative over the kernel's life, boot included; reading them
    costs nothing on the hot path. *)

val fiber_parks : t -> int
(** Fibers parked ready to run on: at an operation's entry (preemption,
    halt, a stopped process), at a yield or hang, and at a preempted row
    search. The waits in receive and call, which the schedule alone
    decides, are not counted. *)

val walk_resumes : t -> int
(** Times the kernel ran a preempted row search on from its parked
    load without resuming the fiber. Inside a lockstep episode (see
    {!walk_locksteps}) each alternation that runs a batch counts one,
    though it is a turn of the episode's loop, not a call. *)

val walk_locksteps : t -> int
(** Episodes of the walk lockstep: a preempted row search whose
    successor in the run queue is another process' parked row search
    runs on in turn with it inside the kernel, in one loop over the two
    walks, until one walk ends or a queued item comes due. *)

val walk_switches : t -> int
(** Alternations of the walk lockstep, over all its episodes: each turn
    one of the two walks runs on from its parked load, without a pass
    through the run queue between them. Counted per turn although the
    episode makes no call per turn; of these, those whose walk ran
    batched are {!walk_resumes} too. *)

val walk_fallbacks : t -> int
(** Parked row searches handed back to their fiber to go on load by
    load: a load the batch cannot make (budget, bounds, a partly backed
    word), or the process became sited or a cycle hook was installed
    while the search was parked. *)

val walk_loads : t -> int * int
(** The loads row searches made: batched, and load by load. *)

type server_stats = {
  ss_name : string;
  ss_policy : string;          (** The compartment's resolved policy. *)
  ss_ops_total : int;          (** Post-boot ops executed. *)
  ss_ops_in_window : int;      (** Of which inside an open window. *)
  ss_busy_cycles : int;
  ss_logged_stores : int;
  ss_skipped_stores : int;
  ss_deduped_stores : int;
  ss_undo_peak_bytes : int;
  ss_undo_entries_lifetime : int;
  ss_rollback_bytes : int;        (** Lifetime payload bytes blitted back by rollbacks. *)
  ss_restore_bytes_saved : int;   (** Bytes dirty-region stateless restarts did not blit. *)
  ss_image_bytes : int;
  ss_image_used_bytes : int;
  ss_clone_extra_kb : int;
  ss_window_opens : int;
  ss_policy_closes : int;
  ss_restarts : int;
}

val server_stats : t -> Endpoint.t -> server_stats

val server_image : t -> Endpoint.t -> bytes option
(** Snapshot of the server's current memory image ([None] for unknown
    or image-less endpoints). Test support: lets equivalence tests
    compare post-recovery state byte-for-byte across configurations. *)

val server_resident_bytes : t -> Endpoint.t -> int option
(** Host bytes backing the server's memory image
    ({!Memimage.resident_bytes}; [None] for unknown or image-less
    endpoints). Test support: pins the sparse backing. It feeds no
    simulated figure and no printed output. *)

val handler_counts : t -> Endpoint.t -> (Message.Tag.t * int) list
(** How many times each request type was handled (post-boot), the
    workload-frequency input to the static recovery-window analysis. *)

val crash_times : t -> int list
(** Virtual instants of every crash observed (including hangs detected
    and crashes that never recovered), newest first — the raw material
    of a crash-storm timeline. *)

val recovery_episodes : t -> (Endpoint.t * int * int) list
(** Completed recovery spans [(ep, crashed_at, recovered_at)], newest
    first; [recovered_at - crashed_at] is the episode's MTTR. Crashes
    that ended in a panic or shutdown never appear here (compare
    {!crash_times}). Needs no observer; [Runmodel] derives the same
    episodes from the event stream. *)

val recovery_latencies : t -> int list
(** [recovered_at - crashed_at] of each {!recovery_episodes} entry,
    same order (newest first). *)

val server_endpoints : t -> Endpoint.t list
(** Registered servers in registration order. *)

val crashes : t -> int
(** Crash events observed (including hangs detected). *)

val restarts : t -> int

val orphaned_replies : t -> int

val messages_delivered : t -> int

val run_queue_depth : t -> int
(** Ready-to-run scheduler items currently in the heap — a load gauge
    the telemetry engine samples. Allocation-free. *)

type proc_handle
(** A stable reference to a {e server} process record. Server records
    are installed once and mutated in place across crash/recovery, so
    a handle captured at registration stays valid for the kernel's
    lifetime. User processes are replaced on respawn — do not hold
    handles to them. *)

val server_handle : t -> Endpoint.t -> proc_handle option
(** [None] for unknown endpoints. Capture once (e.g. when registering
    telemetry sources), then read through the handle. *)

val handle_alive : proc_handle -> bool
(** Direct field load — the O(1) form of {!proc_alive} the vtime
    sampler uses per tick. Allocation-free. *)

val handle_inbox_depth : proc_handle -> int
(** Pending inbox messages, by a direct field load — what the vtime
    sampler reads per tick. Allocation-free. *)

val proc_alive : t -> Endpoint.t -> bool

val proc_policy_name : t -> Endpoint.t -> string option
(** The policy the process was resolved to at creation ([None] for
    unknown endpoints). *)

val window_is_open : t -> Endpoint.t -> bool
(** Whether the component's recovery window is currently open (false
    for components without instrumentation). Used by the service-
    disruption experiment, which only injects faults inside windows. *)

val proc_vtime : t -> Endpoint.t -> int
(** The process' own clock (0 for unknown endpoints). *)

val user_count : t -> int
(** User processes created over the run's lifetime. *)

val shed_exits : t -> int
(** User processes that exited with the EAGAIN-shed status 75 — storm
    requests the session layer refused at admission. Feeds the
    [kernel.shed] timeseries source and the shed-load metric. *)
