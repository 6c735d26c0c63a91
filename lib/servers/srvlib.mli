(** Shared building blocks for the OS servers: monadic helpers that
    build {!Prog.t} nodes, and their direct-style twins in {!Direct}. *)

val reply_ok : Endpoint.t -> int -> unit Prog.t
val reply_err : Endpoint.t -> Errno.t -> unit Prog.t

val err_of_reply : Message.t -> Errno.t option
(** [Some e] if the message is an error reply (including [E_CRASH]),
    [None] for any successful reply. *)

val call_retry : Endpoint.t -> Message.t -> Message.t Prog.t
(** [Prog.call] with a bounded retry on [E_CRASH] replies: when the
    callee crashed inside its recovery window and was rolled back,
    nothing happened, so re-sending is safe — the server-side analogue
    of the libc retry. Used on teardown paths that must not leak
    resources when a peer crashes mid-call. *)

val scan : rows:int -> (int -> bool Prog.t) -> int option Prog.t
(** [scan ~rows pred] evaluates [pred] on rows [0..rows-1] in order and
    returns the first row for which it holds. The scan itself costs one
    interpreted operation per predicate load, like the table walks in
    the original C servers. *)

val diag : string -> unit Prog.t
(** Send a diagnostic line to the kernel log sink — a non-state-
    modifying SEEP (the kind that separates pessimistic from enhanced
    coverage). *)

val simple_loop : (Endpoint.t -> Message.t -> unit Prog.t) -> unit Prog.t
(** Single-threaded event loop: receive, dispatch, repeat. *)

val threaded_loop : (Endpoint.t -> Message.t -> unit Prog.t) -> unit Prog.t
(** Multithreaded event loop: each request is handled in a freshly
    spawned cooperative thread (the VFS model, paper Section IV-E). *)

(** The same helpers for direct-style servers: plain functions over
    {!Kernel.Op}, valid only inside a running server thread. Each one
    performs exactly the operations of its monadic twin, in the same
    order, so converting a server leaves its operation sequence — and
    every count, cost and fault site — unchanged. *)
module Direct : sig
  val reply_ok : Endpoint.t -> int -> unit
  val reply_err : Endpoint.t -> Errno.t -> unit

  val call_retry : Endpoint.t -> Message.t -> Message.t
  (** {!Srvlib.call_retry}: a call retried up to three times on
      [E_CRASH]. *)

  val scan : rows:int -> (int -> bool) -> int option
  (** {!Srvlib.scan}: the first row in [0..rows-1] whose predicate
      holds; the predicate's loads are the scan's operations. *)

  val simple_loop : (Endpoint.t -> Message.t -> unit) -> unit Prog.t
  (** {!Srvlib.simple_loop} with a direct-style handler: receive,
      dispatch, repeat, embedded with {!Prog.direct}. *)
end
