(** Run headers: the one place a description of a run becomes a run.

    [Journal]/[Replay]/[Postmortem] (in [lib/obs]) are pure codec and
    analysis modules with no knowledge of the assembled system — this
    module supplies the missing half: a registry of named workloads, a
    crash-injection armer, and {!run}, which builds the system a
    journal header describes and runs it to halt. Every [osiris]
    subcommand that runs a workload from flags ([suite], [stress],
    [fsck], [trace], [report], [timeline], [profile], [health], [why],
    [record]) assembles a header with {!make_header} and calls {!run}
    (or {!record}, which runs the same path with a journal attached);
    [replay] re-runs a recorded header through it. Only [load]
    (Loadgen-driven, no root program) and [events] (recorder hooked
    after boot) build a system by hand.

    A run is re-executable iff everything that determines it is in the
    header: seed, arch, system spec, workload {e name} (resolved here,
    so the name must stay stable), crash-injection spec, and the cost
    table fingerprint. *)

val workloads : (string * string) list
(** Available workload names with one-line descriptions:
    ["quickstart"], ["suite"], ["workgen"]. *)

val workload : name:string -> seed:int -> (unit -> unit, string) result
(** Resolve a header's workload name (["workgen"] is seed-derived). *)

val server_of_name : string -> Endpoint.t option
(** ["pm"|"vfs"|"vm"|"ds"|"rs"] -> endpoint; anything else [None]. *)

val arm_crash : ?count:int -> Kernel.t -> Endpoint.t option -> unit
(** Install a fault hook that fail-stop crashes the given server at
    its first [count] in-window reply sites — the deterministic crash
    injection used by the tracing/obs commands and recorded in the
    journal header as [jh_crash]/[jh_crash_count]. The hook is scoped
    to that server ([Kernel.set_fault_hook ~scope]) and removes itself
    once its [count] crashes have fired; with [count <= 0] or no
    server, no hook is installed. *)

val make_header :
  ?arch:Kernel.arch ->
  ?seed:int ->
  ?spec:string ->
  ?workload:string ->
  ?crash:string ->
  ?crash_count:int ->
  unit ->
  (Journal.header, string) result
(** Validate and assemble a journal header (defaults: seed 42,
    microkernel, ["enhanced"] spec, ["quickstart"] workload, no crash).
    The cost fingerprint is derived from [arch]'s table. [Error] names
    the offending field (unknown workload, unparsable spec, unknown
    crash server). *)

type recording = {
  rec_halt : Kernel.halt;
  rec_records : int;   (** Events journaled (header excluded). *)
  rec_bytes : int;     (** Journal size on disk, framing included. *)
  rec_snapshots : int; (** Ring mode: crash snapshots taken. *)
}

val record :
  path:string ->
  ?ring:int ->
  ?costs:Costs.t ->
  ?index:bool ->
  Journal.header ->
  (recording, string) result
(** Execute the run the header describes — {!run}'s path, with the
    journal writer attached from boot — journaling to [path]. Full
    fidelity by default: every event streams to disk as it happens.
    [ring] bounds memory instead: the last-N events ride an N-slot
    ring whose contents are copied at each [E_crash] (the crash
    included, as the newest event) and spilled to [path] at halt —
    newest crash wins, and with no crash the final ring contents are
    spilled, so the tail of the run is always preserved.

    [index] (default true) writes the seekable sidecar block index to
    [path ^ Journal.index_suffix] after the journal closes — identical
    bytes to a post-hoc [osiris index] rebuild. [costs] overrides the
    execution cost table {e without} changing the header's fingerprint:
    the perturbed-cost fixture, producing a journal whose events
    diverge from what its header re-executes to. *)

val run :
  ?costs:Costs.t ->
  ?event_hook:(Kernel.event -> unit) ->
  ?profiler:Profiler.t ->
  ?telemetry:Timeseries.t ->
  Journal.header ->
  System.t * Kernel.halt
(** Build the system a header describes — spec parsed, crash injection
    armed — and run its workload to halt, returning the spent system
    for post-run inspection (kernel statistics, filesystem checks, the
    log). [event_hook], [profiler] and [telemetry] are attached before
    boot through {!System.build}, so they see the whole run; [costs]
    overrides the header arch's cost table without touching the
    header.
    @raise Invalid_argument on a header that fails {!make_header}'s
    validation (CLI paths validate first). *)

val perturbed_costs : Kernel.arch -> Costs.t
(** The arch's cost table with one entry ([c_reply]) off by one — the
    [--perturb-cost] fixture of [osiris record]/[replay]: a run under
    it diverges from its header's re-execution. *)

val replay :
  ?costs:Costs.t ->
  Journal.header ->
  Kernel.event array ->
  Replay.outcome
(** {!Replay.run} over {!run}, with the replay-side cost table
    ([costs] overrides the header arch's — the perturbation fixture)
    threaded both into the rebuilt system and into the outcome's
    fingerprint check. *)

val replay_stream :
  ?costs:Costs.t ->
  Journal.header ->
  next:(unit -> Kernel.event option) ->
  Replay.outcome
(** {!Replay.run_stream} over {!run} — the streaming CLI path: feed
    it a {!Journal.stream_next} cursor and the journal is never
    materialized as an array. *)
