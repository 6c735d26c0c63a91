(** The run model: one streaming pass over an oldest-first kernel event
    stream (an event hook, a decoded array, or {!Journal.fold}) that
    derives the facts the analysis views share — request deliveries and
    causal roots, recovery episodes, user sessions. {!Span},
    {!Critpath}, {!Postmortem}, {!Rundiff} and {!Health} read them here.

    {b The episode rule}, stated once: a server's [E_crash] opens a
    recovery episode. While it is open, [E_rollback_begin] opens a
    rollback sub-interval and [E_rollback_end] closes the newest open
    one with the bytes restored. The server's next [E_restart] closes
    the episode. Rollbacks outside an open episode and restarts with
    none open (live updates) belong to no episode. The closed episodes
    equal {!Kernel.recovery_episodes}, which the kernel keeps without
    an observer.

    Positions are 0-based indices into the observed stream. *)

type rollback = private {
  rb_pos : int;           (** Position of the [E_rollback_begin]. *)
  rb_begin : int;
  mutable rb_end : int;   (** [-1] while open. *)
  mutable rb_bytes : int;
}

type episode = private {
  e_pos : int;            (** Position of the [E_crash]. *)
  e_ep : Endpoint.t;
  e_crash : int;          (** Crash time. *)
  e_rid : int;            (** Request being handled, 0 in loop/init code. *)
  e_root : int;           (** Causal root of [e_rid] at the crash. *)
  e_reason : string;
  e_policy : string;
  e_window_open : bool;
  mutable e_rollbacks : rollback list;  (** Newest first. *)
  mutable e_restart : int;  (** Restart time, [max_int] while open. *)
  mutable e_restart_policy : string;
}

type session = private {
  s_pos : int;            (** Position of the [E_spawn]. *)
  s_ep : Endpoint.t;
  s_arrival : int;
  s_parent : int;         (** Spawning endpoint, 0 for injected load. *)
  mutable s_exit : int;
      (** Issue time of the last top-level [T_exit] call ([-1] before
          any): a PM crash can force the exit call to be retried. *)
}

type t

val create : unit -> t

val observe : t -> Kernel.event -> unit
(** Feed the next event; fits an event hook.
    @raise Invalid_argument after {!finish}. *)

val finish : t -> t
(** End the stream, fixing the oldest-first order of the episode and
    session lists once. Idempotent. Before it, those accessors copy. *)

val of_list : Kernel.event list -> t
val of_array : Kernel.event array -> t

val of_iter : ((Kernel.event -> unit) -> unit) -> t
(** Observe every event [iter] yields, then finish. *)

val delivery : t -> int -> Kernel.event option
(** The [E_msg] that delivered a rid. *)

val parent : t -> int -> int option
(** A delivered rid's parent: the lookup {!Replay.chain_of_parents}
    walks. *)

val root : t -> int -> int
(** Causal root: the root of the parent at delivery, the rid itself when
    top-level or undelivered, 0 for rid 0. *)

val reply_time : t -> int -> int option
(** Time of the first [E_reply] to a rid. *)

val iter_deliveries : t -> (int -> Kernel.event -> unit) -> unit
(** Every delivered rid with its [E_msg], in the slot order of the
    model's rid table ({!Osiris_util.Inttbl}): neither stream nor rid
    order, and it may change with the table's size. No output may
    depend on it; a consumer sorts what it prints ({!Span} orders
    spans by start and id). *)

val episodes : t -> episode list
(** Every episode, open or closed, oldest first. *)

val server_episodes : t -> Endpoint.t -> episode list
(** One server's episodes, oldest first. *)

val closed : episode -> bool

val restarts : t -> Endpoint.t -> int
(** Every [E_restart] of the server, live updates included. *)

val sessions : t -> session list
(** Every spawned user process, oldest first. *)

val length : t -> int
(** Events observed. *)

val truncation : t -> int
(** Latest non-spawn event time, where spans still open are capped
    (open-loop arrivals sit ahead of emission order). *)
