(** Kernel run queue: a priority queue over [(virtual instant, push
    sequence)].

    The kernel's event loop pops the earliest instant, FIFO among
    equal instants.  Because the sequence number is unique, [(key,
    seq)] is a total order: any correct priority queue pops the same
    stream, so the run queue's structure never moves a simulated
    trajectory.  Keys may lie below the last popped key (a blocked
    receiver keeps the virtual time it had when it parked) or
    arbitrarily far beyond it (alarms); both are ordinary keys here.

    The queue is one binary min-heap in three parallel int arrays
    (keys, sequence numbers, values) that double when full.  Sifts move
    a hole and write the moving entry once; every loop is a top-level
    function over ints, so {!push}, {!pop} and {!peek} allocate nothing
    once the arrays have grown.  The [sched_zero_alloc] gate in
    [bench/sched_bench.ml] backs this: it clears the queue and replays
    a 131k-operation kernel-shaped trace, and requires no minor words.
    Values are ints — the kernel packs [(endpoint, item-tag)] into one
    word.  Sentinel returns ([max_int] / [-1]) replace option boxing on
    the hot path. *)

type t

val create : unit -> t

val length : t -> int

val is_empty : t -> bool

val push : t -> key:int -> int -> unit
(** [push t ~key v] enqueues value [v] at virtual instant [key].
    Entries with equal [key] pop in push order (FIFO).  [key] may lie
    below the last popped key.  O(log n); allocation-free once the
    arrays have grown. *)

val next_key : t -> int
(** Earliest key currently queued, or [max_int] when empty.  O(1),
    allocation-free. *)

val pop : t -> int
(** Remove and return the value with the smallest [(key, seq)], or
    [-1] when empty.  The popped key is readable via {!popped_key}
    until the next pop.  O(log n), allocation-free. *)

val peek : t -> int
(** The value {!pop} would return, or [-1] when empty, without
    removing it.  O(1), allocation-free. *)

val popped_key : t -> int
(** Key of the most recent successful {!pop} (0 before any pop). *)

val clear : t -> unit
(** Empty the queue and reset the sequence counter; keeps the
    arrays. *)
