(** The prototype test suite (paper Section VI): a set of user programs
    written to maximize handler coverage in the five core servers. It
    doubles as the workload for the recovery-coverage measurement
    (Table I) and the fault-injection campaigns (Tables II/III).

    Each test runs as a fork+exec'd child of the suite driver and
    reports through its exit status (0 = pass). The driver prints
    ["RESULT <name> <status>"] lines and finally ["SUITE_DONE"] on the
    kernel log sink; {!parse_results} decodes them. *)

val tests : (string * (unit -> unit)) list
(** All tests, in execution order. Each program terminates via exit. *)

val names : string list

val register : Registry.t -> unit
(** Register each test under ["/bin/t_<name>"]. *)

val driver : unit -> unit
(** The suite driver, to be run as the workload root: forks and execs
    every test, waits for it, reports, and exits 0. *)

type results = {
  passed : int;
  failed : int;
  complete : bool;  (** SUITE_DONE seen. *)
  failures : (string * int) list;
}

val parse_results : string list -> results
(** Decode the log lines produced by {!driver}. *)
