(** Shared building blocks for the OS servers, in direct style: plain
    functions over {!Kernel.Op}, valid only inside a running server
    thread. Each operation they perform is one costed, instrumented,
    fault-injectable kernel operation, like a load, store or IPC call
    of the original C servers. *)

val reply_ok : Endpoint.t -> int -> unit
val reply_err : Endpoint.t -> Errno.t -> unit

val err_of_reply : Message.t -> Errno.t option
(** [Some e] if the message is an error reply (including [E_CRASH]),
    [None] for any successful reply. *)

val call_retry : Endpoint.t -> Message.t -> Message.t
(** {!Kernel.Op.call} with a bounded retry on [E_CRASH] replies: when
    the callee crashed inside its recovery window and was rolled back,
    nothing happened, so re-sending is safe — the server-side analogue
    of the libc retry. Up to three retries. Used on teardown paths that
    must not leak resources when a peer crashes mid-call. *)

val diag : string -> unit
(** Send a diagnostic line to the kernel log sink — a non-state-
    modifying SEEP (the kind that separates pessimistic from enhanced
    coverage). *)

val simple_loop : (Endpoint.t -> Message.t -> unit) -> unit -> unit
(** Single-threaded event loop: receive, dispatch, repeat. *)

val threaded_loop : (Endpoint.t -> Message.t -> unit) -> unit -> unit
(** Multithreaded event loop: each request is handled in a freshly
    spawned cooperative thread (the VFS model, paper Section IV-E).
    The handler runs entirely in the new thread. *)
