type kcall =
  | K_fork of { parent : Endpoint.t }
  | K_exec of { proc : Endpoint.t; path : string; arg : int }
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
  | K_replay of Endpoint.t
  | K_kill_requester of { proc : Endpoint.t }
  | K_live_update of { proc : Endpoint.t; loop : unit -> unit }

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
