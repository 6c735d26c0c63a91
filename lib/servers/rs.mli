(** RS — the Recovery Server (paper Sections III-C, IV-C).

    RS is notified by the kernel whenever a component crashes (or a hang
    is detected) and drives the three recovery phases:

    + {b restart} — a fresh clone takes over the dead component's
      endpoint with its state transferred ([K_mk_clone]);
    + {b rollback} — the clone's initialization applies the undo log,
      restoring the checkpoint taken at the top of the request loop
      ([K_rollback]) — only if the recovery window was open;
    + {b reconciliation} — per the active policy: error virtualization
      (an [E_CRASH] reply to the requester, [K_reply_error]) when the
      window was open, or a controlled shutdown ([K_shutdown]) when
      consistent recovery cannot be guaranteed.

    The baseline policies reuse the same phases: stateless restart
    resets the clone to its boot image and skips reconciliation; naive
    restart keeps the crashed state and always virtualizes the error.

    RS is itself recoverable; if RS crashes, the kernel applies the same
    protocol using a clone prepared ahead of time. *)

type t

val create :
  ?policies:(Endpoint.t * Policy.t) list ->
  ?budgets:(Endpoint.t * int) list ->
  Policy.t -> t
(** [create policy] recovers every compartment under [policy] (the old
    global behavior). [policies] overrides the recovery decision per
    compartment; [budgets] caps completed restarts per compartment —
    once a crash-looping component has been restarted that many times,
    the next crash triggers a controlled shutdown instead of another
    restart. Unbudgeted compartments execute the exact pre-budget
    instruction stream (the budget check performs no operation). *)

val server : t -> Kernel.server

val summary : Summary.t
