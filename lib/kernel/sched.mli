(** Kernel run-queue scheduler: hierarchical timer wheel + ready ring.

    The kernel's event loop needs a priority queue over [(virtual
    instant, push sequence)] — pop the earliest instant, FIFO among
    equals.  The original implementation was a binary heap
    ([Osiris_util.Vheap], absorbed here); this module replaces it with
    a structure shaped for the actual key distribution:

    - a {e hierarchical bitmap timer wheel} for keys at or beyond the
      wheel {e cursor} (the last instant popped from the wheel):
      {!levels} levels of {!slots} slots, level [l] spanning
      [slots^l] cycles per slot, with a per-level occupancy bitmap so
      the next occupied slot is a mask-and-count-trailing-zeros away.
      Push and pop are O(1) amortized: an entry is re-scattered
      ("cascaded") to a finer level at most [levels] times over its
      lifetime.
    - a {e ready ring} for past-dated keys (strictly below the
      cursor): wakeups for processes whose virtual clocks lag the
      popped front — common, because a blocked receiver keeps the
      vtime it had when it parked.  These are due immediately; the
      ring is a compact (key, seq) binary min-heap over parallel int
      arrays, typically holding a handful of entries.
    - a {e far chain} for keys beyond the top wheel level's horizon
      ([cursor + horizon]); entries migrate onto the wheel when the
      cursor approaches.

    Keys never tie across structures (ready keys are strictly below
    the cursor, wheel keys at or above it), so the exact
    [(key, seq)] lexicographic pop order of the old heap is preserved
    bit-for-bit — [bench/sched_bench.ml] gates byte-identical run
    trajectories against the embedded old-heap oracle.

    All state lives in flat int arrays with a free-list node pool, and
    every loop is a top-level function over ints: once the pools have
    grown, {!push}, {!pop} and {!peek} allocate nothing.  The
    [sched_zero_alloc] gate in [bench/sched_bench.ml] backs this: it
    clears the queue (keeping the pools) and replays a 131k-operation
    kernel-shaped trace through wheel levels, cascades, the ready ring
    and the far chain, and requires no minor words.  Values are ints — the kernel packs
    [(endpoint, item-tag)] into one word.  Sentinel returns
    ([max_int] / [-1]) replace option boxing on the hot path. *)

type t

val levels : int
(** Wheel levels (7). *)

val slots : int
(** Slots per level (32). *)

val horizon : int
(** [slots ^ levels] — keys at [cursor + horizon] or beyond go to the
    far chain until the cursor catches up. *)

val use_oracle : bool ref
(** When true at {!create} time, the instance is backed by a faithful
    port of the old [Vheap] binary heap (boxed entries, same sift
    order) instead of the wheel.  Pop order is identical by
    construction; the bench and the trajectory-identity tests run
    whole-system workloads in both modes and compare [ss_*] counters
    and journal bytes.  Test/bench hook — not consulted after
    [create]. *)

val create : unit -> t

val is_oracle : t -> bool

val length : t -> int

val is_empty : t -> bool

val push : t -> key:int -> int -> unit
(** [push t ~key v] enqueues value [v] at virtual instant [key].
    Entries with equal [key] pop in push order (FIFO).  [key] may lie
    in the past (below the last popped key) — such entries pop before
    everything at or beyond the cursor, in exact [(key, seq)] order.
    Allocation-free after warm-up. *)

val next_key : t -> int
(** Earliest key currently queued, or [max_int] when empty.  O(1):
    the wheel-side minimum is cached exactly across pushes and
    refreshed on pop.  Allocation-free. *)

val pop : t -> int
(** Remove and return the value with the smallest [(key, seq)], or
    [-1] when empty.  The popped key is readable via {!popped_key}
    until the next pop.  Allocation-free after warm-up. *)

val peek : t -> int
(** The value {!pop} would return, or [-1] when empty, without
    removing it: the queue's order and sequence counter are unchanged
    (the wheel may cascade its front down to level 0, as {!pop} does
    before it takes it).  Allocation-free. *)

val popped_key : t -> int
(** Key of the most recent successful {!pop} (0 before any pop). *)

val clear : t -> unit
(** Empty the queue and reset the cursor and sequence counter; keeps
    the allocated pools. *)
