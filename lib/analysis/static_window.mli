(** Static recovery-window analysis.

    The compile-time half of OSIRIS: given a server's per-handler
    interaction summary ({!Summary.t}) and a recovery policy, compute —
    without running anything — where each handler's recovery window
    closes and what fraction of its work is recoverable. This is the
    decision procedure behind the SEEP engraving: the same conservative
    rules the kernel applies dynamically, evaluated over the static
    interaction skeleton.

    The analysis is conservative in two ways, matching the paper:
    - a conditional interaction ([out_maybe]) is assumed to happen;
    - any interaction the policy forbids closes the window permanently
      for the rest of the handler (no re-opening).

    Predictions are checked against dynamically measured coverage in
    the test suite; agreement is structural (same ordering, same
    policy sensitivities), not exact, since static weights approximate
    dynamic op counts. *)

type handler_report = {
  hr_tag : Message.Tag.t;
  hr_coverage : float;
      (** Fraction of the handler's weight inside the window. *)
  hr_closes_at : Message.Tag.t option;
      (** The interaction that closes the window, if any before the
          reply. [None] means the window survives until the reply. *)
}

type server_report = {
  sr_ep : Endpoint.t;
  sr_handlers : handler_report list;
  sr_coverage : float;
      (** Weight-averaged coverage over handlers (uniform handler
          frequency unless weighted). *)
}

val handler_coverage :
  ?multithreaded:bool -> Policy.t -> Summary.handler -> handler_report
(** [multithreaded] (default false): in a multithreaded server every
    synchronous outbound interaction parks the thread, which forcefully
    closes the window regardless of SEEP class (Section IV-E). *)

val server_coverage :
  ?frequency:(Message.Tag.t -> float) -> ?multithreaded:bool -> Policy.t ->
  Summary.t -> server_report
(** [frequency] weights handlers by how often the workload invokes
    them (default: uniform). *)

val report :
  ?frequency:(Message.Tag.t -> float) ->
  ?multithreaded:(Endpoint.t -> bool) -> Policy.t -> Summary.t list ->
  server_report list
(** [multithreaded] defaults to flagging VFS, the prototype's threaded
    server. *)
