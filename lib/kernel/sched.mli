(** Kernel run queue: a priority queue over [(virtual instant, push
    sequence)].

    The kernel's event loop pops the earliest instant, FIFO among
    equal instants.  Because the sequence number is unique, [(key,
    seq)] is a total order: any correct priority queue pops the same
    stream, so the run queue's structure never moves a simulated
    trajectory.  Keys may lie below the last popped key (a blocked
    receiver keeps the virtual time it had when it parked) or
    arbitrarily far beyond it (alarms); both are ordinary keys here.

    The queue is two structures that share one sequence counter, each
    in three parallel int arrays (keys, sequence numbers, values):

    - the {e run}, an append-only sorted array with a head and a tail.
      A push joins it when the run is empty or its key is at or above
      the run's last key.  Its entries are then sorted by [(key, seq)]
      by construction.  A push or pop costs O(1); when the tail reaches
      the end of the arrays, the live part slides down to slot 0 (if
      that frees at least half of them) or the arrays double, which
      keeps pushes amortised O(1).
    - the {e heap}, a binary min-heap over [(key, seq)] that takes
      every other push: keys below the run's last key, such as
      past-dated wakeups and the near-future hops of running processes
      while later arrivals wait in the run.  O(log n) in the heap's own
      size.

    {!pop}, {!peek} and {!next_key} take the smaller [(key, seq)] of
    the run's head and the heap's top, so the pop stream is exactly the
    single heap's.  The choice between the two follows only from the
    key order of the pushes.  Under open-loop load, where about a
    thousand pending arrivals are pushed in order ahead of a few
    running processes, the arrivals sit in the run and the heap stays a
    few entries deep; a workload whose pushes come out of order puts
    them in the heap and costs what a single heap costs.

    Every loop and array move is a top-level function over ints, so
    {!push}, {!pop} and {!peek} allocate nothing once the arrays have
    grown.  The [sched_zero_alloc] gate in [bench/sched_bench.ml] backs
    this: it clears the queue and replays a kernel-shaped and a
    load-shaped trace of 131k operations each, and requires no minor
    words.  Values are ints — the kernel packs [(endpoint, item-tag)]
    into one word.  Sentinel returns ([max_int] / [-1]) replace option
    boxing on the hot path. *)

type t

val create : unit -> t

val length : t -> int

val is_empty : t -> bool

val push : t -> key:int -> int -> unit
(** [push t ~key v] enqueues value [v] at virtual instant [key].
    Entries with equal [key] pop in push order (FIFO).  [key] may lie
    below the last popped key.  O(1) amortised when [key] is at or
    above the run's last key, else O(log n) in the heap's size;
    allocation-free once the arrays have grown. *)

val next_key : t -> int
(** Earliest key currently queued, or [max_int] when empty.  O(1),
    allocation-free. *)

val pop : t -> int
(** Remove and return the value with the smallest [(key, seq)], or
    [-1] when empty.  The popped key is readable via {!popped_key}
    until the next pop.  O(1) from the run, O(log n) in the heap's
    size from the heap; allocation-free. *)

val peek : t -> int
(** The value {!pop} would return, or [-1] when empty, without
    removing it.  O(1), allocation-free. *)

val popped_key : t -> int
(** Key of the most recent successful {!pop} (0 before any pop). *)

val clear : t -> unit
(** Empty both structures and reset the sequence counter; keeps the
    arrays. *)
