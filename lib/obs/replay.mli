(** Deterministic replay with divergence detection.

    The kernel is deterministic for a fixed header (seed + spec +
    workload + cost table), so re-executing a journaled run must
    reproduce the recorded event stream {e byte for byte}. [run]
    re-executes via a caller-provided [exec] (supplied by
    [Flight.run], keeping this module free of a dependency on the
    assembled system) and diffs the live stream against the journal,
    record by record, as it is produced.

    A divergence — the first index at which the replayed event differs
    from the recorded one, or either stream ending early — is reported
    with both events and the causal rid chain of the recorded history
    at that point, which is what makes this a determinism sanitizer:
    any nondeterminism introduced into the kernel or servers (an
    unseeded RNG, wall-clock leakage, hash-order iteration) fails
    loudly here, with a pointer at the first request it skewed, instead
    of silently shifting benchmark numbers. *)

type divergence = {
  div_index : int;
      (** 0-based record index of the first mismatch. *)
  div_recorded : Kernel.event option;
      (** [None]: the replay produced more events than were recorded. *)
  div_replayed : Kernel.event option;
      (** [None]: the replay ended before the journal did. *)
  div_rid : int;
      (** Causal rid at the divergence (recorded side if present). *)
  div_chain : int list;
      (** [div_rid]'s causal chain, innermost first, ending at a root
          request (parent 0), resolved from the recorded stream. *)
}

type outcome = {
  rp_header : Journal.header;
  rp_recorded : int;     (** Journal records. *)
  rp_replayed : int;     (** Events the re-execution produced. *)
  rp_halt : Kernel.halt; (** How the re-execution halted. *)
  rp_cost_mismatch : bool;
      (** The cost table used for re-execution does not fingerprint to
          the header's — divergence is expected, and the report says
          why. *)
  rp_divergence : divergence option;
}

val rid_chain : Kernel.event array -> int -> int list
(** Walk rid -> parent through the stream's [E_msg] records: the chain
    from [rid] (inclusive, innermost first) to its root request.
    Cycles and unknown rids terminate the walk. *)

val chain_of_parents : (int -> int option) -> int -> int list
(** The same walk over a rid -> parent lookup — a prebuilt map or
    {!Runmodel.parent} — for streaming consumers ([Postmortem],
    replay's own diff) that accrue parents in one pass instead of
    rescanning an array per chain. *)

val run_stream :
  exec:(Journal.header -> hook:(Kernel.event -> unit) -> Kernel.halt) ->
  ?cost_fingerprint:int ->
  Journal.header ->
  next:(unit -> Kernel.event option) ->
  outcome
(** {!run} over a pull cursor instead of a decoded array: [next] is
    called at most once per recorded record, in order, and the whole
    journal is consumed by the time the outcome returns (the leftover
    records past a divergence are drained so [rp_recorded] and the
    causal chain still describe the full journal). [run] is this with
    an array cursor; the streaming CLI path feeds
    [Journal.stream_next]. *)

val run :
  exec:(Journal.header -> hook:(Kernel.event -> unit) -> Kernel.halt) ->
  ?cost_fingerprint:int ->
  Journal.header ->
  Kernel.event array ->
  outcome
(** Re-execute and diff. [exec] must build the system described by the
    header with [hook] installed from boot (exactly how the recording
    hook was installed) and run it to halt. [cost_fingerprint] is the
    fingerprint of the table [exec] will actually run under (defaults
    to the header's, i.e. no mismatch). *)

val pp_event : Kernel.event -> string
(** Compact one-line event rendering, shared with [Postmortem] and
    [Rundiff]. The live views render through
    [Obs_collector.pp_event] instead; the two formats stay separate
    because the replay, postmortem and diff goldens pin this one. *)

val exit_code : outcome -> int
(** 0 for a byte-identical replay, 2 on divergence — the
    [osiris replay] convention (1 is reserved for I/O and decode
    errors). *)

val render : outcome -> string
(** Multi-line human-readable report. *)

val to_json : outcome -> string
(** Deterministic JSON artifact (same journal -> same bytes). *)
