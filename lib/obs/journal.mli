(** The flight recorder's persistent event journal.

    A journal is the full-fidelity, byte-exact record of one run's
    {!Kernel.event} stream plus the header needed to re-execute it:
    seed, system spec, workload name, crash-injection spec, and a
    fingerprint of the cost table. Because the whole simulation is
    deterministic for a fixed header, a journal is a complete causal
    history — [lib/obs/replay] re-runs it and diffs record by record,
    and [lib/obs/postmortem] walks it backwards from a crash without
    re-running anything.

    Wire format (version 1):
    - 8-byte magic ["OSIRJNL1"];
    - one framed {e header record}, then one framed record per event;
    - each record is [varint payload_len ∥ payload ∥ crc32(payload)]
      (CRC-32/IEEE, little-endian), so truncation and bit flips are
      detected per record with the index of the damaged record; the
      length is a raw (not zigzag) LEB128 varint padded to at least 2
      bytes for event records and 1 for the header (readers accept any
      padding);
    - payload fields are zigzag varints; strings are length-prefixed
      raw bytes; each event payload opens with a packed lead byte:
      the constructor's wire tag (declaration order, 0–13) in the low
      4 bits, constructor flags above — [call] and the SEEP class for
      [E_msg], [policy] for [E_window_close], [window_open] for
      [E_crash], the halt kind for [E_halt];
    - [time] and [rid] are delta-coded against the previous record
      (time is monotone, rids repeat across consecutive events — both
      usually land in one byte), and [E_msg.parent] is stored as
      [rid - parent]; the reader mirrors the two-counter state.

    Recording is two-stage. While the run is live, each event costs a
    few plain int stores: the writer owns a {!Kernel.capture} raw log
    and the kernel's emission sites append scalar entries to it with
    no closure call and no encoding (install it with
    [Kernel.set_capture]; [System.build ?journal] does). The codec —
    zigzag varints, framing, batched CRC sweeps, channel writes — runs
    as one batch sweep each time the fixed 8,192-slot log fills, and
    once more in {!close}, over warm buffers, allocation-free. That
    split is what holds [bench/journal_bench.ml]'s <5%
    attached-recording overhead gate, alongside its encode
    zero-allocation and bytes-per-event gates. {!records_written} and {!bytes_written}
    force the pending encode sweep, so they are exact at any point.

    Two writer modes cover the recording spectrum:
    - {!to_file} streams every record (full fidelity, unbounded);
    - bounded-memory ring recording ([Flight.record ~ring]) keeps a
      last-N ring, copies it at each crash and serializes the newest
      copy via {!of_events} — the mid-run crash-history spill. *)

type header = {
  jh_version : int;           (** {!version} at write time. *)
  jh_seed : int;
  jh_arch : Kernel.arch;
  jh_spec : string;           (** [Sysconf.parse]-able system spec. *)
  jh_workload : string;       (** Workload name ([Flight.workloads]). *)
  jh_crash : string;          (** Crash-injection target server, or ["none"]. *)
  jh_crash_count : int;       (** Injected crashes armed at [jh_crash]. *)
  jh_cost_fingerprint : int;  (** {!Costs.fingerprint} of the run's table. *)
}

val version : int

val header_to_string : header -> string
(** One human-readable line (for reports and logs). *)

(** {1 Writing} *)

type writer

val to_file : path:string -> header -> writer
(** Stream records to [path] (buffered; {!close} flushes). *)

val to_memory : header -> writer
(** Accumulate the encoded journal in memory; read it back with
    {!contents}. Used by tests and the replay property. *)

val write : writer -> Kernel.event -> unit
(** Append one framed event record from a constructed event — its
    entry goes into the writer's capture through
    [Kernel.capture_event], the kernel's own appenders. Used by
    {!of_events} and anywhere an event value already exists. No-op
    after {!close}. *)

val capture : writer -> Kernel.capture
(** The writer's raw capture log, for [Kernel.set_capture] (this is
    what [System.build ?journal] installs): the kernel appends each
    event's scalar fields directly, and the writer's drain encodes
    them in batches off the hot path. For the same logical event
    stream, the capture path and {!write} produce byte-identical
    journals. Events captured after {!close} are discarded. *)

val close : writer -> unit
(** Flush and (for file writers) close the channel. Idempotent. *)

val contents : writer -> string
(** The encoded journal of a {!to_memory} writer.
    @raise Invalid_argument on a file writer. *)

val records_written : writer -> int
val bytes_written : writer -> int
(** Framing included; [bytes_written / records_written] is the
    bytes-per-event figure the bench gates. *)

val of_events : header -> Kernel.event list -> string
(** Encode a complete journal from an in-memory event list — the ring
    spill: [Flight.record ~ring] feeds it the last-N history captured
    at a crash. *)

(** {1 Reading}

    Reading is total: damaged input — truncation, bit flips, unknown
    tags, trailing bytes — comes back as [Error] naming the damaged
    record, never as an escaped exception.

    One deliberate exception, WAL-style: truncation {e exactly at a
    record boundary} reads as a valid shorter journal. That is what a
    crash-interrupted recorder leaves after its last completed flush —
    precisely the journal one most needs to read — and ring-mode
    journals legitimately end before the halt ([Postmortem] reports
    [pm_halt = None]). Truncation anywhere inside a record is an
    [Error]. *)

val read_string : string -> (header * Kernel.event array, string) result

val read_file : string -> (header * Kernel.event array, string) result
(** [read_string] over the file's bytes; I/O errors become [Error]. *)

(** {1 Event accessors}

    Uniform projections over the 13 constructors, shared by replay and
    postmortem. *)

val event_rid : Kernel.event -> int
(** The causal request id the event is tagged with (0 for [E_halt],
    [E_hang_detected], and root-context events). *)

val event_time : Kernel.event -> int

val event_ep : Kernel.event -> Endpoint.t option
(** The component the event belongs to: [dst] for deliveries, [src]
    for replies, the component itself elsewhere, [None] for halts. *)

val event_kind : Kernel.event -> int
(** The constructor's wire tag (declaration order, 0–13) — the stable
    "event kind" code block summaries and queries share. *)

val n_kinds : int

val kind_name : int -> string
(** ["msg"], ["reply"], ["window_open"], ... ["spawn"].
    @raise Invalid_argument out of range. *)

val kind_of_name : string -> int option

(** {1 Streaming decode}

    A pull cursor over the framed records: each {!stream_next}
    unframes, CRC-checks and decodes exactly one record, so consumers
    that fold over the stream (replay, postmortem, queries) never
    materialize the event array. Damage surfaces as [Error] at the
    damaged record, exactly like {!read_string}. *)

val header_of_string : string -> (header * int, string) result
(** Decode just the header record; also returns the byte offset of the
    first event record. *)

type stream

val stream_of_string : string -> (header * stream, string) result

val stream_next : stream -> (Kernel.event option, string) result
(** [Ok None] at end of journal (boundary truncation included,
    WAL-style); [Error] on in-record damage. *)

(** {1 Sidecar block index}

    The journal stays append-only and delta-coded; seekability comes
    from a {e sidecar} index ([journal.idx]) that segments the record
    stream into fixed-count blocks and stores, per block: the byte
    offset of its first frame, the decoder's delta-state {e restart
    bases} (time, rid) on entry — what makes a mid-file decode exact —
    the block's vtime and rid ranges, and presence bitmaps over
    endpoints, event kinds (wire tags) and message tags. Summaries are
    CRC-framed like journal records, and the index binds to its
    journal through a length + head/tail CRC fingerprint, so a
    truncated, bit-flipped or stale sidecar reads as [Error] — which
    consumers treat as "no index": silent degradation to a full scan,
    never a wrong answer. *)

type block = {
  blk_off : int;        (** Byte offset of the block's first frame. *)
  blk_count : int;      (** Records in the block (>= 1). *)
  blk_base_time : int;  (** Delta restart base entering the block. *)
  blk_base_rid : int;
  blk_time_min : int;
  blk_time_max : int;
  blk_rid_min : int;
  blk_rid_max : int;
  blk_ep_mask : int;    (** Presence bitmap over {!event_ep} ({!mask_mem}). *)
  blk_kind_mask : int;  (** Presence bitmap over {!event_kind} (exact). *)
  blk_tag_mask : int;   (** Presence bitmap over [Message.Tag.to_index]. *)
}

type index = {
  ix_journal_len : int;
  ix_head_crc : int;
  ix_tail_crc : int;
  ix_records : int;
  ix_blocks : block array;
}

val index_suffix : string
(** [".idx"] — the conventional sidecar path is [journal ^ ".idx"]. *)

val default_block_records : int

val mask_mem : int -> int -> bool
(** [mask_mem mask i]: may a value [i] be present? Exact for [i < 62];
    values at or above the clamp share a saturating bit, so the answer
    is conservative (true = maybe) — sound for pushdown either way. *)

val build_index :
  ?block_records:int -> ?verify_crc:bool -> string -> (index, string) result
(** One summary-scan pass over the journal bytes (no event
    materialization). The same function serves record-time indexing
    ([Flight.record] runs it over the bytes it just encoded) and
    post-hoc rebuilds ([osiris index]) — both produce identical
    sidecars. [verify_crc:false] (default [true]) skips the per-record
    payload checksums; it is only for bytes produced in-process that
    cannot have picked up storage corruption — rebuilds from disk must
    keep the default. *)

val index_to_string : index -> string

val index_of_string : journal:string -> string -> (index, string) result
(** Decode and validate a sidecar against the journal bytes it claims
    to describe. [Error] on damage of any kind {e or} on a fingerprint
    mismatch (stale index) — callers fall back to a full scan. *)

val write_index_file : path:string -> index -> unit

val read_index_file : journal:string -> string -> (index, string) result

(** {1 Selective fold} *)

type scan_stats = {
  mutable sc_blocks_total : int;
  mutable sc_blocks_scanned : int;
  mutable sc_blocks_skipped : int;
  mutable sc_records_decoded : int;  (** Also counted on full scans. *)
}

val scan_stats : unit -> scan_stats
(** Fresh zeroed counters. *)

val fold :
  ?index:index ->
  ?select:(block -> bool) ->
  ?stats:scan_stats ->
  string ->
  init:'a ->
  f:('a -> Kernel.event -> 'a) ->
  ('a, string) result
(** Stream every event through [f] in record order. With [index], only
    blocks for which [select] returns true are decoded (default: all);
    [select] must be conservative — return true whenever the block
    {e could} contain a matching event — and then the fold over
    matching events is identical to a full scan's. Without [index] the
    whole journal is decoded ([select] is not consulted). *)
