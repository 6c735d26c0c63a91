let max_services = 8

(* Heartbeat period, simulated cycles. *)
let heartbeat_ticks = 1_000_000

(* Table VI: RS base usage 1,696 kB (it holds prepared clones). *)
let image_kb = 1696

type t = {
  policy_for : Endpoint.t -> Policy.t;
  budget_for : Endpoint.t -> int option;
  image : Memimage.t;
  services : Layout.Table.t;
  s_used : Layout.int_field;
  s_ep : Layout.int_field;
  s_label : Layout.str_field;
  s_restarts : Layout.int_field;
  c_restarts : Layout.Cell.t;
  c_shutdowns : Layout.Cell.t;
  c_notices : Layout.Cell.t;
  c_heartbeats : Layout.Cell.t;
}

let create ?(policies = []) ?(budgets = []) policy =
  let policy_for ep =
    match List.assoc_opt ep policies with Some p -> p | None -> policy
  in
  let budget_for ep = List.assoc_opt ep budgets in
  let image = Memimage.create ~name:"rs" ~size:(image_kb * 1024) in
  let spec = Layout.spec () in
  let s_used = Layout.int spec "used" in
  let s_ep = Layout.int spec "ep" in
  let s_label = Layout.str spec "label" ~len:16 in
  let s_restarts = Layout.int spec "restarts" in
  Layout.seal spec;
  let services = Layout.Table.alloc image ~spec ~rows:max_services in
  let c_restarts = Layout.Cell.alloc_int image "restarts" in
  let c_shutdowns = Layout.Cell.alloc_int image "shutdowns" in
  let c_notices = Layout.Cell.alloc_int image "notices" in
  let c_heartbeats = Layout.Cell.alloc_int image "heartbeats" in
  { policy_for; budget_for; image; services; s_used; s_ep; s_label;
    s_restarts; c_restarts; c_shutdowns; c_notices; c_heartbeats }

module Op = Kernel.Op
module Mem = Kernel.Op.Mem

let find_service t ep =
  Mem.(scan t.services ~rows:max_services
         (Int_ne (t.s_used, 0, Int_eq (t.s_ep, ep, Hit))))

(* The first unused service row: the number of registered services. *)
let count_services t =
  match
    Mem.(scan t.services ~rows:max_services (Int_eq (t.s_used, 0, Hit)))
  with
  | Some n -> n
  | None -> max_services

let bump_restarts t ep =
  (match find_service t ep with
   | None -> ()
   | Some row ->
     let n = Mem.get_int t.services ~row t.s_restarts in
     Mem.set_int t.services ~row t.s_restarts (n + 1));
  let total = Mem.get_cell t.c_restarts in
  Mem.set_cell t.c_restarts (total + 1)

(* Restart-budget enforcement. Compartments without a budget perform no
   operation here, so unbudgeted recoveries execute the exact
   instruction stream they always did. Only budgeted compartments pay
   the service-table scan. *)
let budget_exhausted t ep =
  match t.budget_for ep with
  | None -> false
  | Some b ->
    (match find_service t ep with
     | None -> false
     | Some row -> Mem.get_int t.services ~row t.s_restarts >= b)

let kcall kc = ignore (Op.kcall kc)

let controlled_shutdown t reason =
  let n = Mem.get_cell t.c_shutdowns in
  Mem.set_cell t.c_shutdowns (n + 1);
  kcall (Prog.K_shutdown reason)

(* The recovery procedure. Phases: restart, rollback, reconciliation.
   Every decision is per compartment: the crashed component's own
   policy picks the recovery action, and a crash-looping compartment
   that exhausts its restart budget is taken down in a controlled
   shutdown instead of being restarted forever. *)
let recover t ep reason =
  Srvlib.diag (Printf.sprintf "rs: recovering %s (%s)"
                 (Endpoint.server_name ep) reason);
  match Op.kcall (Prog.K_crash_context ep) with
  | Prog.Kr_context { window_open; requester; reason = _; rlocal } ->
    if budget_exhausted t ep then
      controlled_shutdown t
        (Printf.sprintf "%s exhausted its restart budget"
           (Endpoint.server_name ep))
    else
    (match (t.policy_for ep).Policy.recovery with
     | Policy.No_recovery ->
       (* Unreachable: the kernel panics before notifying RS. *)
       ()
     | Policy.Restart_fresh ->
       (* Stateless restart: pristine boot image, accumulated state and
          queued requests are lost; no error virtualization. *)
       kcall (Prog.K_mk_clone ep);
       kcall (Prog.K_clear_state ep);
       bump_restarts t ep;
       kcall (Prog.K_go ep)
     | Policy.Restart_keep_state ->
       (* Naive restart: resume with the crashed state as-is. No
          consistency reasoning and no error virtualization — an
          in-flight requester is simply left waiting, like the
          best-effort restart systems this baseline stands for. *)
       ignore requester;
       kcall (Prog.K_mk_clone ep);
       bump_restarts t ep;
       kcall (Prog.K_go ep)
     | Policy.Rollback_or_shutdown ->
       if window_open then begin
         kcall (Prog.K_mk_clone ep);
         kcall (Prog.K_rollback ep);
         bump_restarts t ep;
         (match requester with
          | Some req when rlocal ->
            (* A requester-local SEEP was crossed: its effects live in
               state owned by the requester, so terminating the
               requester through the normal exit path reconciles them
               (extension, paper Section VII). *)
            kcall (Prog.K_kill_requester { proc = req })
          | Some req ->
            kcall (Prog.K_reply_error { proc = req; err = Errno.E_CRASH })
          | None -> ());
         kcall (Prog.K_go ep)
       end
       else
         (* The crash happened past the recovery window: rolling back
            would orphan state changes other components already saw.
            Controlled shutdown preserves consistency (Section III-C). *)
         controlled_shutdown t
           (Printf.sprintf "%s crashed outside recovery window"
              (Endpoint.server_name ep))
     | Policy.Rollback_replay ->
       if window_open then begin
         kcall (Prog.K_mk_clone ep);
         kcall (Prog.K_rollback ep);
         bump_restarts t ep;
         (* Replay reconciliation: re-deliver the crashed request
            instead of virtualizing the error. Transparent for
            transient faults; loops on persistent ones. *)
         kcall (Prog.K_replay ep);
         kcall (Prog.K_go ep)
       end
       else
         controlled_shutdown t
           (Printf.sprintf "%s crashed outside recovery window"
              (Endpoint.server_name ep)))
  | _ ->
    (* Stale notification (component already recovered or gone). *)
    ()

let handle t src msg =
  match msg with
  | Message.Crash_notify { ep; reason } when src = Endpoint.kernel ->
    let n = Mem.get_cell t.c_notices in
    Mem.set_cell t.c_notices (n + 1);
    recover t ep reason
  | Message.Crash_notify _ -> Srvlib.reply_err src Errno.EPERM
  | Message.Rs_status ->
    let restarts = Mem.get_cell t.c_restarts in
    let shutdowns = Mem.get_cell t.c_shutdowns in
    let services = count_services t in
    Op.reply src (Message.R_rs_status { restarts; shutdowns; services })
  | Message.Rs_lookup { label } ->
    (match
       Mem.(scan t.services ~rows:max_services
              (Int_ne (t.s_used, 0, Str_eq (t.s_label, label, Hit))))
     with
     | None -> Srvlib.reply_err src Errno.ENOENT
     | Some row -> Srvlib.reply_ok src (Mem.get_int t.services ~row t.s_ep))
  | Message.Alarm ->
    (* Periodic housekeeping: account the beat, audit the service table,
       log, publish liveness to DS (asynchronously — a synchronous call
       could deadlock against a DS recovery in progress), audit again,
       and re-arm the timer. Hang *detection* is the kernel's heartbeat
       machinery; this handler is RS's bookkeeping half. *)
    let n = Mem.get_cell t.c_heartbeats in
    Mem.set_cell t.c_heartbeats (n + 1);
    let count1 = count_services t in
    Srvlib.diag (Printf.sprintf "rs: heartbeat %d" (n + 1));
    Op.send Endpoint.ds (Message.Ds_publish { key = "rs.heartbeat"; value = n + 1 });
    let count2 = count_services t in
    if count1 <> count2 then Op.fail "assertion failed: rs service table stable";
    kcall (Prog.K_alarm { ticks = heartbeat_ticks })
  | Message.Ping -> Op.reply src Message.R_pong
  | _ -> Srvlib.reply_err src Errno.ENOSYS

let init t () =
  List.iteri
    (fun row (ep, label) ->
       Mem.set_int t.services ~row t.s_used 1;
       Mem.set_int t.services ~row t.s_ep ep;
       Mem.set_str t.services ~row t.s_label label;
       Mem.set_int t.services ~row t.s_restarts 0)
    [ (Endpoint.pm, "pm"); (Endpoint.vfs, "vfs"); (Endpoint.vm, "vm");
      (Endpoint.ds, "ds"); (Endpoint.rs, "rs"); (Endpoint.mfs, "mfs") ];
  Mem.set_cell t.c_restarts 0;
  Mem.set_cell t.c_shutdowns 0;
  Mem.set_cell t.c_notices 0;
  Mem.set_cell t.c_heartbeats 0;
  kcall (Prog.K_alarm { ticks = heartbeat_ticks })

let server t =
  { Kernel.srv_ep = Endpoint.rs;
    srv_name = "rs";
    srv_image = t.image;
    srv_clone_extra_kb = 3308;
    srv_init = init t;
    srv_loop = Srvlib.simple_loop (handle t);
    srv_multithreaded = false }

let summary =
  let diag_out = (Endpoint.kernel, Message.Tag.T_diag) in
  Summary.make Endpoint.rs
    [ Summary.handler ~replies:false Message.Tag.T_crash_notify
        [ Summary.seg ~out:diag_out 5;
          Summary.seg 3;  (* K_crash_context is read-only *)
          Summary.seg 60 ];
      Summary.handler Message.Tag.T_rs_status [ Summary.seg 20 ];
      Summary.handler Message.Tag.T_rs_lookup [ Summary.seg 15 ];
      Summary.handler ~replies:false Message.Tag.T_alarm
        [ Summary.seg ~out:diag_out 28;
          Summary.seg ~out:(Endpoint.ds, Message.Tag.T_ds_publish) 2;
          Summary.seg ~out:(Endpoint.kernel, Message.Tag.T_kcall) 28 ];
      Summary.handler Message.Tag.T_ping [ Summary.seg 1 ] ]
