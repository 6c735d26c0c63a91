(** Causal postmortem: root-cause analysis from a journal, without
    re-executing anything.

    For every crash in the recorded stream, walk {e backwards} through
    the rid/parent causal chain to the root request whose handling led
    to the injected fault, and {e forwards} to how recovery resolved it
    (rollback bytes, restart, latency). The report answers the
    questions a kernel developer asks at a crash site: which
    compartment, under which policy, was the recovery window open, how
    much undo-log state was at risk, which request chain got us here,
    and did recovery actually restore service. *)

type crash_report = {
  cr_index : int;           (** Record index of the [E_crash]. *)
  cr_time : int;
  cr_ep : Endpoint.t;
  cr_server : string;       (** Compartment name. *)
  cr_reason : string;
  cr_policy : string;       (** The compartment's recovery policy. *)
  cr_window_open : bool;    (** Recovery window state at the crash. *)
  cr_rid : int;             (** Request being handled (0 = loop/init). *)
  cr_chain : int list;
      (** Causal rid chain from [cr_rid] to the root request,
          innermost first ({!Replay.rid_chain}). *)
  cr_chain_msgs : Kernel.event list;
      (** The [E_msg] delivery for each chain rid that has one, in
          chain order — the request path that reached the fault. *)
  cr_undo_bytes : int;
      (** Undo-log bytes accumulated in the compartment's current
          window at the moment of the crash (0 when the window was
          closed — exactly the state the rollback must restore). *)
  cr_rollback_bytes : int option;
      (** Bytes restored by the recovery rollback, when one ran. *)
  cr_restart : (int * string) option;
      (** Time and policy of the compartment's post-crash [E_restart]. *)
  cr_recovery_latency : int option;
      (** Virtual time from the crash to service restoration (restart
          if one happened, else rollback completion). *)
}

type report = {
  pm_header : Journal.header;
  pm_records : int;
  pm_halt : Kernel.halt option;  (** [None]: journal ends before halt
                                     (e.g. a ring spill). *)
  pm_crashes : crash_report list;  (** In record order. *)
}

val analyze : Journal.header -> Kernel.event array -> report
(** Pure analysis over the decoded journal. *)

val analyze_journal : string -> (report, string) result
(** The same analysis, streamed over encoded journal bytes
    ({!Journal.fold}) without materializing the event array: one
    forward pass feeding a {!Runmodel} (deliveries and recovery
    episodes) plus per-compartment undo-window state. Byte-identical
    reports to [analyze (read_string ...)] — the e2e tests assert
    it. *)

val attribution : Journal.header -> crash_report -> string
(** One-sentence root cause: ties the crash to the armed fault
    injection when the crashed compartment matches the header's
    [jh_crash] target, otherwise reports the causal root request. *)

val render : Journal.header -> report -> string
(** Multi-line human-readable postmortem. *)

val to_json : report -> string
(** Deterministic JSON artifact (same journal -> same bytes). *)
