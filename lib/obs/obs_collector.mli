(** Live event recorder: the one place a running kernel's event stream
    is kept.

    Install {!record} as the kernel's event hook
    ([System.build ?event_hook], or [Kernel.set_event_hook] after
    build to skip boot traffic) and the collector keeps the whole
    stream in a growable array, so span trees, the report's metrics
    table, the critical path and the rendered timelines all read the
    same events. The record path is an array append — no per-event
    allocation beyond amortized array growth. *)

type t

val create : unit -> t

val record : t -> Kernel.event -> unit
(** The hook body. *)

val events : t -> Kernel.event list
(** Everything recorded, oldest first. *)

val count : t -> int

val clear : t -> unit

val pp_event : Kernel.event -> string
(** One aligned line per event ([osiris suite --trace], {!timeline}).
    The journal views render through [Replay.pp_event], whose format
    their goldens pin. *)

val timeline : ?only:Endpoint.t -> last:int -> t -> string list
(** Render the newest [last] events, oldest first, one line each;
    [only] then keeps the lines of events touching that endpoint. The
    filter deliberately always lets [E_halt] through: a halt is a
    system-wide event that terminates every per-endpoint story, so a
    filtered timeline still ends with the run's outcome. *)
