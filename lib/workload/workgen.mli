(** Deterministic random-workload generator.

    Generates syscall-level user programs from a seed: file round trips,
    directory churn, key-value traffic, pipes, process trees, execs.
    Used for stress testing (the [osiris_cli stress] command) and for
    the differential properties in the test suite (identical observable
    behaviour across recovery policies and architectures).

    Programs are self-contained: they clean up what they create, never
    block indefinitely, and exit 0 when every operation behaved as
    expected (nonzero otherwise). For a fixed seed the generated
    program — and therefore the whole simulated run — is identical
    across processes and machines. *)

type spec = {
  g_actions : int;       (** Top-level actions (default 12). *)
  g_fork_depth : int;    (** Maximum process-tree nesting (default 2). *)
}

val default_spec : spec

val generate : ?spec:spec -> seed:int -> unit -> unit -> unit
(** A runnable workload-root program; the actions are drawn when it is
    built. *)

val describe : ?spec:spec -> seed:int -> unit -> string list
(** Human-readable action list of the same generation (for logs). *)

val quickstart : unit -> unit
(** The fixed README quickstart workload (file round trip, fork/exec,
    data store; exits 0 when all behaved). [osiris trace] and the
    observability tests run it so traces in the docs are
    reproducible. *)
