(** The privileged kernel-call vocabulary shared by the kernel and the
    servers.

    Programs themselves are plain OCaml: a server or user process is a
    [unit -> unit] function whose memory accesses, IPC, computation and
    kernel calls go through [Kernel.Op], just as the original OSIRIS
    instruments only the loads, stores and IPC call sites of C
    programs. This module keeps only the kernel-call request and result
    types, which [Kernel.Op.kcall] takes and returns. *)

(** Privileged kernel calls, available to PM (process lifecycle) and RS
    (the recovery protocol). See the kernel for semantics. *)
type kcall =
  | K_fork of { parent : Endpoint.t }
      (** Create a stalled child of [parent] that will run the body
          [parent]'s pending fork call carries ([Kernel.Op.call
          ~child]); [EINVAL] when that call carries none. *)
  | K_exec of { proc : Endpoint.t; path : string; arg : int }
      (** Replace [proc]'s program with the one registered at [path],
          run with [arg] in [proc]'s own fiber. *)
  | K_kill of { proc : Endpoint.t; status : int }
  | K_crash_context of Endpoint.t
  | K_mk_clone of Endpoint.t
  | K_rollback of Endpoint.t
  | K_clear_state of Endpoint.t
  | K_go of Endpoint.t
  | K_reply_error of { proc : Endpoint.t; err : Errno.t }
  | K_shutdown of string
  | K_alarm of { ticks : int }
  | K_mmu of { proc : Endpoint.t }
      (** MMU/page-table update on behalf of a process — VM's
          state-modifying interaction with the kernel (sys_vmctl in
          MINIX terms). Semantically a costed no-op in the simulation,
          but it closes VM's recovery window like any state-modifying
          SEEP. *)
  | K_replay of Endpoint.t
      (** Replay reconciliation (extension): re-deliver the request the
          component crashed on to its recovered clone. *)
  | K_kill_requester of { proc : Endpoint.t }
      (** Kill-requester reconciliation (extension): terminate the
          requester through the normal exit path, cleaning up its
          requester-local state everywhere. *)
  | K_live_update of { proc : Endpoint.t; loop : unit -> unit }
      (** Live component update (extension, Section VII generality):
          atomically replace a quiescent server's request loop with new
          code over its preserved state, using the clone/state-transfer
          machinery. Fails with [EAGAIN] when the target is
          mid-request. *)

and kresult =
  | Kr_ok
  | Kr_err of Errno.t
  | Kr_ep of Endpoint.t
  | Kr_context of {
      window_open : bool;
      requester : Endpoint.t option;
      reason : string;
      rlocal : bool;
          (* a requester-local SEEP was crossed inside the window *)
    }
