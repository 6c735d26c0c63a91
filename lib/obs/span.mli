(** Span trees folded from the kernel's causal event stream.

    Two families of spans:
    - {e request spans}: an [E_msg] with [call = true] opens a span
      named after the message tag, running on the destination server;
      the matching-rid [E_reply] (including virtualized [E_CRASH]
      error replies) closes it. Notifications become zero-length
      [Notify] spans. Parentage follows the causal rid chain, so a
      user syscall's fan-out across PM/VFS/VM nests under it.
    - {e recovery spans}: an [E_crash] opens a [Recovery] span on the
      crashed server, parented under the request whose handling
      crashed; the server's [E_restart] closes it. Rollback begin/end
      events nest a [Rollback] child (labelled with the bytes blitted
      back) inside the current recovery span.

    Spans still open when the stream ends are closed at the last event
    time with [sp_complete = false]. A parent id that never appears in
    the stream (e.g. evicted from a ring buffer) makes the span a
    root.

    A third family, {e session spans}: an [E_spawn] opens a [Session]
    root for the new user process, anchored at its {e arrival} vtime
    (which, for open-loop load, precedes its first instruction). The
    process' top-level messages — including requests that
    session-connect via [Message.Adopt] — nest under it, and the exit
    call through PM closes it, so a storm request's whole life is one
    subtree carrying its arrival. *)

type span_kind = Request | Notify | Recovery | Rollback | Session

val kind_to_string : span_kind -> string

type t = {
  sp_id : int;
      (** The request rid, or a negative synthetic id for
          recovery/rollback spans. *)
  sp_parent : int;  (** 0 = root. *)
  sp_kind : span_kind;
  sp_name : string;
  sp_src : Endpoint.t;  (** Requester (= [sp_ep] for recovery spans). *)
  sp_ep : Endpoint.t;   (** The server the span runs on. *)
  sp_start : int;
  sp_end : int;         (** >= [sp_start]. *)
  sp_complete : bool;
  sp_children : t list; (** Ordered by start time. *)
}

val build : Kernel.event list -> t list
(** Fold an oldest-first event stream into root spans ordered by start
    time. *)

val of_model : Runmodel.t -> t list
(** [build] over a run model already built from the stream. *)

val top_requests : t list -> t list
(** Top-level request spans: [Request] roots plus [Request] children
    of [Session] roots — the spans whose durations are end-to-end
    request latencies (what the timeline's sliding percentile windows
    consume). *)

val flatten : t list -> t list
(** Pre-order traversal of the forest. *)

val count : t list -> int

val find : (t -> bool) -> t list -> t option
(** First match in pre-order. *)

val render_tree : t list -> string list
(** Indented text rendering, one line per span, for CLI output. *)
