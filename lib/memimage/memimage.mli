(** Component memory image.

    Every OSIRIS server keeps its recoverable state in a [Memimage.t] — a
    flat, bytes-backed memory area standing in for the data sections of
    the original MINIX C servers. All mutations go through accessors that
    invoke a write hook *before* overwriting, which is where the
    checkpointing library's undo log attaches (the simulation analogue of
    the paper's LLVM store instrumentation).

    The image is sparse: its logical {!size} (the paper's Table VI
    figure, which the cost model charges) is fixed at {!create}, but the
    host backing covers only a granule-aligned prefix that grows on the
    first write past its end. Bytes past the backing read as zero, so
    every accessor behaves exactly as on a zero-filled image of {!size}
    bytes, and an image costs host memory for the state its server
    touches rather than for its logical size.

    The image additionally tracks *dirty regions* at a coarse
    {!granule} granularity (the simulated analogue of the paper's
    copy-on-write clone pages): every hook-visible or raw write marks
    the granules it covers, so restoring a component to its pristine
    {!set_baseline} state blits O(dirty) bytes instead of O(image).

    Direct accessors here are reserved for the Reliable Computing Base
    (kernel, recovery server, checkpoint library); instrumented server
    code reaches memory through the program DSL, which adds simulated
    cost and fault-injection points on top of these primitives. *)

type t

type write_hook = offset:int -> len:int -> unit
(** Called before a write with the location and length of the range
    about to be overwritten. The image still holds the *previous*
    contents when the hook runs: a hook that needs the old value reads
    it straight out of the image (the undo log copies it from the
    {!cover}ed buffer into its arena), with no intermediate copy
    materialized. *)

val granule : int
(** Dirty-tracking granularity in bytes (256). *)

val create : name:string -> size:int -> t
(** Image of logical size [size] that reads as all zeros, no granule
    dirty. No backing is allocated until the first write.
    @raise Invalid_argument if [size] is negative. *)

val name : t -> string

val size : t -> int
(** Logical size in bytes, independent of how much is backed. *)

val resident_bytes : t -> int
(** Bytes of host backing currently allocated: a granule-aligned
    prefix (or the whole image), at most twice the highest byte written
    rounded up to a granule. A host-memory measure only; it is in no
    simulated figure or printed output. *)

val alloc : t -> ?align:int -> int -> int
(** Bump-allocate [n] bytes of layout space; returns the base offset.
    Used once at server-definition time to place tables and cells.
    @raise Failure if the image is exhausted. *)

val allocated : t -> int
(** Bytes handed out by {!alloc} so far. *)

val set_write_hook : t -> write_hook option -> unit

(** {2 Word access} — words are 8 bytes, little-endian. *)

val get_word : t -> int -> int
val set_word : t -> int -> int -> unit

(** {2 Raw byte-range access} *)

val get_bytes : t -> off:int -> len:int -> bytes
val set_bytes : t -> off:int -> bytes -> unit

(** {2 Fixed-size string fields} — NUL-padded, like C char arrays. *)

val get_string : t -> off:int -> len:int -> string
(** The field's bytes up to its first NUL, in one allocation. *)

val equal_string : t -> off:int -> len:int -> string -> bool
(** [equal_string t ~off ~len s] is [String.equal (get_string t ~off
    ~len) s], compared in place without allocating. Raises exactly
    where {!get_string} does. *)

val set_string : t -> off:int -> len:int -> string -> unit
(** @raise Invalid_argument if the string exceeds the field length. *)

(** {2 RCB raw access} — allocation-free, hook-bypassing primitives for
    the checkpoint library. Not for instrumented server code. *)

val backing : t -> bytes
(** The live backing store: the image's first [Bytes.length] bytes;
    every byte past it reads as zero. For allocation-free reads on the
    kernel's hot path only: never write through it, and never keep it
    across a write to the image (a write may replace it). *)

val cover : t -> off:int -> len:int -> bytes
(** [cover t ~off ~len] backs the range [\[off, off+len)] (growing the
    backing with zeros if needed) and returns the live backing store
    itself, not a copy. A range outside the image is not backed, so the
    caller's own check against the returned buffer's length rejects
    exactly the out-of-image ranges. Strictly for the checkpoint hot
    path (undo-log record/rollback). The buffer is replaced whenever
    the backing grows: never keep it across a write, and {!cover} each
    range before touching it. Writes made through it MUST be paired
    with {!mark_dirty} or dirty-region restarts become unsound. *)

val mark_dirty : t -> off:int -> len:int -> unit
(** Mark the granules covering a range as written, for callers that
    mutate via {!cover}. The range must be in the image. *)

val write_raw : t -> off:int -> bytes -> src_off:int -> len:int -> unit
(** Overwrite a range from [src], bypassing the write hook and the
    write accounting (rollback must not re-log itself). Dirty granules
    are still marked: raw writes move the image away from its
    baseline. *)

(** {2 Whole-image operations (RCB only)} *)

val snapshot : t -> bytes
(** Copy of the full contents, all {!size} bytes (used to seed
    clones). *)

val restore : t -> bytes -> unit
(** Overwrite contents from a snapshot of equal size, bypassing the
    write hook. The snapshot has no known relation to the baseline, so
    every granule is conservatively marked dirty. *)

val set_baseline : t -> unit
(** Record the current contents as the pristine baseline (the paper's
    prepared-clone image) and mark every granule clean. Restart paths
    use {!restore_baseline} to return to this state in O(dirty). The
    baseline costs memory only for the granules written since: each is
    copied aside just before its first write, and granules not backed
    yet (baseline zero) never cost any. *)

val has_baseline : t -> bool

val restore_baseline : t -> int
(** Blit only the dirty granules back from the baseline and mark them
    clean; returns the number of bytes actually restored (O(dirty
    granules), not O(image)).
    @raise Invalid_argument if {!set_baseline} was never called. *)

val dirty_granules : t -> int
(** Granules written since the last clean point ({!create} or
    {!set_baseline}). *)

val dirty_bytes : t -> int
(** Upper bound on the bytes covered by dirty granules. *)

val clone : t -> name:string -> t
(** Fresh image with identical contents, backing and layout cursor, no
    hook, no baseline, conservatively all-dirty. *)

val clear : t -> unit
(** Zero the contents, bypassing the hook; marks everything dirty. *)

(** {2 Accounting} *)

val writes : t -> int
(** Number of hook-visible write operations since creation. *)

val bytes_written : t -> int
(** Total bytes covered by hook-visible writes. *)

val restore_bytes : t -> int
(** Total bytes blitted by {!restore} and {!restore_baseline} since
    creation. *)

val restore_bytes_saved : t -> int
(** Bytes {!restore_baseline} did *not* have to blit because their
    granules were clean — the measured savings of dirty-region
    restarts over full-image restores. *)
