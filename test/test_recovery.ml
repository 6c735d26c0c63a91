(* End-to-end recovery tests on the full OS: targeted fault injection
   verifying the paper's central behaviors — consistent in-window
   recovery, controlled shutdown past the window, persistent-fault
   handling via error virtualization, and survival of parked VFS
   threads across a VFS recovery (Section IV-E). *)

let halt_t = Alcotest.testable (Fmt.of_to_string Kernel.halt_to_string) ( = )

(* Build a system with a hook that arms one fault at [site_pred]'s first
   match ([persistent] re-arms it forever). *)
let with_fault ?(policy = Policy.enhanced) ?(persistent = false) site_pred
    action root =
  let sys = System.build (Sysconf.uniform policy) in
  let fired = ref false in
  Kernel.set_fault_hook (System.kernel sys)
    (Some
       (fun site ->
          if (persistent || not !fired) && site_pred site then begin
            fired := true;
            Some action
          end
          else None));
  let halt = System.run sys ~root in
  (sys, halt)

let site_in ep tag (site : Kernel.site) =
  site.Kernel.site_ep = ep && site.Kernel.site_handler = Some tag

(* ---------------- in-window recovery on the real servers ---------- *)

let test_pm_fork_crash_recovers_transparently () =
  (* Crash PM at the very start of fork handling (inside the window).
     The libc retry makes the failure invisible to the caller. *)
  let root () =
    let pid = Syscall.fork (fun () -> Syscall.exit 0) in
    if pid < 0 then Syscall.exit 1;
    let _, status = Syscall.waitpid pid in
    Syscall.exit status
  in
  let sys, halt =
    with_fault (site_in Endpoint.pm Message.Tag.T_fork)
      (Kernel.F_crash "injected") root
  in
  Alcotest.check halt_t "fork retried transparently" (Kernel.H_completed 0) halt;
  Alcotest.(check int) "pm restarted once" 1 (Kernel.restarts (System.kernel sys))

let test_ds_retrieve_crash_recovers () =
  let root () =
    let _ = Syscall.ds_publish ~key:"rk" ~value:9 in
    match Syscall.ds_retrieve ~key:"rk" with
    | Ok 9 -> Syscall.exit 0
    | _ -> Syscall.exit 1
  in
  let sys, halt =
    with_fault (site_in Endpoint.ds Message.Tag.T_ds_retrieve)
      (Kernel.F_crash "injected") root
  in
  Alcotest.check halt_t "value survives DS recovery" (Kernel.H_completed 0) halt;
  Alcotest.(check bool) "ds restarted" true (Kernel.restarts (System.kernel sys) >= 1)

let test_rollback_preserves_pre_checkpoint_state () =
  (* Publish a value, then crash DS *while it handles a later publish*
     (in-window). The rollback must keep the first value and discard the
     partial second one; the second publish is then retried by libc. *)
  let root () =
    if Syscall.ds_publish ~key:"stable" ~value:1 < 0 then Syscall.exit 1;
    if Syscall.ds_publish ~key:"victim" ~value:2 < 0 then Syscall.exit 2;
    let a = Syscall.ds_retrieve ~key:"stable" in
    let b = Syscall.ds_retrieve ~key:"victim" in
    match a, b with
    | Ok 1, Ok 2 -> Syscall.exit 0
    | _ -> Syscall.exit 3
  in
  let fired = ref false in
  let pred (site : Kernel.site) =
    (* Second publish only: skip the first activation. *)
    if site_in Endpoint.ds Message.Tag.T_ds_publish site
       && site.Kernel.site_kind = Kernel.Op_store
    then
      if !fired then true
      else begin
        fired := true;
        false
      end
    else false
  in
  (* Arm at the second publish's first store. *)
  let sys = System.build (Sysconf.uniform Policy.enhanced) in
  let shot = ref false in
  let seen_first = ref false in
  ignore pred;
  Kernel.set_fault_hook (System.kernel sys)
    (Some
       (fun site ->
          if site_in Endpoint.ds Message.Tag.T_ds_publish site
             && site.Kernel.site_kind = Kernel.Op_store
             && site.Kernel.site_occ = 0
          then
            if not !seen_first then begin
              seen_first := true;
              None
            end
            else if not !shot then begin
              shot := true;
              Some (Kernel.F_crash "injected mid-publish")
            end
            else None
          else None))
  |> ignore;
  let halt = System.run sys ~root in
  Alcotest.check halt_t "both values correct after rollback"
    (Kernel.H_completed 0) halt

let test_vfs_parked_threads_survive_recovery () =
  (* A child blocks reading an empty pipe (its VFS thread is parked on
     the internal wait). VFS then crashes handling an unrelated stat
     (in its window) and is recovered. The parked request must survive:
     when the parent finally writes, the child's read completes. *)
  let root () =
    match Syscall.pipe () with
    | Error _ -> Syscall.exit 1
    | Ok (rfd, wfd) ->
      let pid =
        Syscall.fork (fun () ->
            let r = Syscall.read ~fd:rfd ~len:4 in
            Syscall.exit (match r with Ok "data" -> 0 | _ -> 2))
      in
      (* Give the child time to block, then crash VFS via stat. *)
      Kernel.Op.compute 200_000;
      let _ = Syscall.stat "/etc/data" in
      Kernel.Op.compute 200_000;
      if Syscall.write ~fd:wfd "data" <> 4 then Syscall.exit 3;
      let _, status = Syscall.waitpid pid in
      Syscall.exit status
  in
  let sys, halt =
    with_fault (site_in Endpoint.vfs Message.Tag.T_stat)
      (Kernel.F_crash "injected in stat") root
  in
  Alcotest.check halt_t "parked pipe read survived VFS recovery"
    (Kernel.H_completed 0) halt;
  Alcotest.(check bool) "vfs restarted" true
    (Kernel.restarts (System.kernel sys) >= 1)

(* ---------------- out-of-window: controlled shutdown -------------- *)

let test_out_of_window_crash_controlled_shutdown () =
  (* VFS file-write handler: the first store (position update) happens
     after the MFS call, i.e. after the thread switch closed the
     window. Crashing there is not provably recoverable. *)
  let root () =
    let fd = Syscall.open_ "/tmp/oow" Message.creat in
    if fd < 0 then Syscall.exit 1;
    let _ = Syscall.write ~fd "xyz" in
    Syscall.exit 0
  in
  let _, halt =
    with_fault
      (fun site ->
         site_in Endpoint.vfs Message.Tag.T_write site
         && site.Kernel.site_kind = Kernel.Op_store)
      (Kernel.F_crash "injected after mfs call") root
  in
  (match halt with
   | Kernel.H_shutdown _ -> ()
   | other ->
     Alcotest.fail ("expected controlled shutdown, got " ^ Kernel.halt_to_string other))

let test_pessimistic_shuts_down_where_enhanced_recovers () =
  (* DS publish emits a diagnostic before mutating. Pessimistic closes
     the window at that read-only SEEP; enhanced keeps it open. A crash
     right after the diagnostic separates the two policies. *)
  let root () =
    let r = Syscall.ds_publish ~key:"split.key" ~value:5 in
    Syscall.exit (if r >= 0 then 0 else 10)
  in
  let pred site =
    site_in Endpoint.ds Message.Tag.T_ds_publish site
    && site.Kernel.site_kind = Kernel.Op_store
  in
  let _, enhanced_halt =
    with_fault ~policy:Policy.enhanced pred (Kernel.F_crash "post-diag") root
  in
  let _, pessimistic_halt =
    with_fault ~policy:Policy.pessimistic pred (Kernel.F_crash "post-diag") root
  in
  Alcotest.check halt_t "enhanced recovers" (Kernel.H_completed 0) enhanced_halt;
  (match pessimistic_halt with
   | Kernel.H_shutdown _ -> ()
   | other ->
     Alcotest.fail
       ("pessimistic should shut down, got " ^ Kernel.halt_to_string other))

(* ---------------- persistent faults ------------------------------- *)

let test_persistent_fault_survived_via_error_virtualization () =
  (* The fault re-fires on every execution of the site: replay would
     loop forever; error virtualization surfaces a persistent E_CRASH
     which the caller handles like any error (paper Section III-C). *)
  let root () =
    match Syscall.ds_retrieve ~key:"nope" with
    | Error Errno.E_CRASH -> Syscall.exit 0   (* persistent failure, survived *)
    | Error Errno.ENOENT -> Syscall.exit 7    (* fault failed to re-fire *)
    | _ -> Syscall.exit 8
  in
  let sys, halt =
    with_fault ~persistent:true (site_in Endpoint.ds Message.Tag.T_ds_retrieve)
      (Kernel.F_crash "persistent bug") root
  in
  Alcotest.check halt_t "persistent fault surfaced as E_CRASH"
    (Kernel.H_completed 0) halt;
  Alcotest.(check bool) "multiple recoveries" true
    (Kernel.restarts (System.kernel sys) >= 2)

let test_crash_storm_panics () =
  (* A persistent fault hammered forever must eventually trip the
     crash-storm cutoff rather than livelock, if the caller keeps
     retrying. *)
  let root () =
    for _ = 1 to 100 do
      ignore (Syscall.ds_retrieve ~key:"nope")
    done;
    Syscall.exit 0
  in
  let _, halt =
    with_fault ~persistent:true (site_in Endpoint.ds Message.Tag.T_ds_retrieve)
      (Kernel.F_crash "persistent bug") root
  in
  match halt with
  | Kernel.H_panic _ -> ()
  | Kernel.H_completed _ -> ()  (* bounded retries may outlast the storm *)
  | other ->
    Alcotest.fail ("expected panic or completion, got " ^ Kernel.halt_to_string other)

(* ---------------- inter-server error propagation ------------------ *)

let test_e_crash_propagates_through_pm () =
  (* Crash VFS while it serves PM's Vfs_fork: PM sees E_CRASH from its
     own call, cleans up, and fails the fork; the user's libc retries
     the fork, which then succeeds. *)
  let root () =
    let pid = Syscall.fork (fun () -> Syscall.exit 0) in
    if pid < 0 then Syscall.exit 1;
    let _, status = Syscall.waitpid pid in
    Syscall.exit status
  in
  let sys, halt =
    with_fault (site_in Endpoint.vfs Message.Tag.T_vfs_fork)
      (Kernel.F_crash "injected in vfs_fork") root
  in
  Alcotest.check halt_t "fork eventually succeeds" (Kernel.H_completed 0) halt;
  Alcotest.(check bool) "vfs recovered" true (Kernel.restarts (System.kernel sys) >= 1)

let test_mfs_crash_recovers_through_two_layers () =
  (* MFS is below VFS: an in-window MFS crash surfaces to VFS as
     E_CRASH on its call, VFS forwards the error to the user, and the
     libc retry makes the second attempt succeed — recovery composes
     across server layers. *)
  let root () =
    let fd = Syscall.open_ "/etc/data" Message.rdonly in
    if fd < 0 then Syscall.exit 1;
    let r = Syscall.read ~fd ~len:16 in
    let _ = Syscall.close fd in
    match r with
    | Ok s when String.length s = 16 -> Syscall.exit 0
    | _ -> Syscall.exit 2
  in
  let sys, halt =
    with_fault (site_in Endpoint.mfs Message.Tag.T_mfs_lookup)
      (Kernel.F_crash "injected in mfs lookup") root
  in
  Alcotest.check halt_t "read succeeded across the MFS recovery"
    (Kernel.H_completed 0) halt;
  Alcotest.(check bool) "mfs restarted" true
    (Kernel.restarts (System.kernel sys) >= 1)

let test_exit_teardown_does_not_leak_on_crash () =
  (* Crash VFS while it handles PM's Vfs_exit: PM retries the teardown
     call, so the dead process's descriptors are still reclaimed. *)
  let root () =
    match Syscall.pipe () with
    | Error _ -> Syscall.exit 1
    | Ok (rfd, wfd) ->
      (* The child exits, triggering Vfs_exit. *)
      let pid = Syscall.fork (fun () -> Syscall.exit 0) in
      let _, _ = Syscall.waitpid pid in
      let _ = Syscall.close rfd in
      let _ = Syscall.close wfd in
      Syscall.exit 0
  in
  let sys, halt =
    with_fault (site_in Endpoint.vfs Message.Tag.T_vfs_exit)
      (Kernel.F_crash "injected in vfs_exit") root
  in
  Alcotest.check halt_t "teardown completed" (Kernel.H_completed 0) halt;
  Alcotest.(check bool) "vfs recovered" true
    (Kernel.restarts (System.kernel sys) >= 1);
  (* All pipe/file rows must be gone: nothing leaked. *)
  let leftovers =
    List.filter
      (fun line -> String.length line >= 4 && String.sub line 0 4 = "pipe")
      (Vfs.dump_state (System.vfs sys))
  in
  Alcotest.(check (list string)) "no pipe rows leaked" [] leftovers

let test_queued_requests_survive_recovery () =
  (* Two children each make a DS request; DS crashes while serving the
     first — the second request, queued in the stalled inbox, must be
     served by the clone. *)
  let root () =
    let _ = Syscall.ds_publish ~key:"q1" ~value:1 in
    let _ = Syscall.ds_publish ~key:"q2" ~value:2 in
    let a =
      Syscall.fork (fun () ->
          let v = Syscall.ds_retrieve ~key:"q1" in
          Syscall.exit (match v with Ok 1 -> 0 | _ -> 1))
    in
    let b =
      Syscall.fork (fun () ->
          let v = Syscall.ds_retrieve ~key:"q2" in
          Syscall.exit (match v with Ok 2 -> 0 | _ -> 2))
    in
    let _, s1 = Syscall.waitpid a in
    let _, s2 = Syscall.waitpid b in
    Syscall.exit (s1 + s2)
  in
  let sys, halt =
    with_fault (site_in Endpoint.ds Message.Tag.T_ds_retrieve)
      (Kernel.F_crash "injected") root
  in
  Alcotest.check halt_t "both requests served" (Kernel.H_completed 0) halt;
  Alcotest.(check bool) "ds recovered" true
    (Kernel.restarts (System.kernel sys) >= 1)

let test_notification_context_crash_recovers_silently () =
  (* The crashing request is an async notification (no caller blocked):
     reconciliation has no one to reply to; the component still
     recovers, its partial state rolled back. *)
  let root () =
    Kernel.Op.send Endpoint.ds (Message.Ds_publish { key = "async"; value = 9 });
    Kernel.Op.compute 500_000;
    (* Rolled back: the async publish never committed. *)
    match Syscall.ds_retrieve ~key:"async" with
    | Error Errno.ENOENT -> Syscall.exit 0
    | Ok _ -> Syscall.exit 1
    | Error _ -> Syscall.exit 2
  in
  let sys, halt =
    with_fault
      (fun site ->
         site_in Endpoint.ds Message.Tag.T_ds_publish site
         && site.Kernel.site_kind = Kernel.Op_store)
      (Kernel.F_crash "injected in async publish") root
  in
  Alcotest.check halt_t "silent recovery, state rolled back"
    (Kernel.H_completed 0) halt;
  Alcotest.(check bool) "recovered" true (Kernel.restarts (System.kernel sys) >= 1)

let test_rs_self_recovery () =
  (* Crash RS in its own status handler; the kernel recovers RS with a
     prepared clone and the system continues. *)
  let root () =
    match Syscall.rs_status () with
    | Ok _ | Error Errno.E_CRASH ->
      (* Either the retried call succeeded or the error surfaced; in
         both cases RS must be alive again. *)
      (match Syscall.rs_status () with
       | Ok _ -> Syscall.exit 0
       | _ -> Syscall.exit 2)
    | Error _ -> Syscall.exit 3
  in
  let sys, halt =
    with_fault (site_in Endpoint.rs Message.Tag.T_rs_status)
      (Kernel.F_crash "injected in rs") root
  in
  Alcotest.check halt_t "rs recovered itself" (Kernel.H_completed 0) halt;
  Alcotest.(check bool) "rs alive" true
    (Kernel.proc_alive (System.kernel sys) Endpoint.rs)

let test_suite_survives_fail_silent_corruption () =
  (* A corrupted store is fail-silent: the system must not wedge the
     kernel; any of the four outcomes is legal, but the run must halt. *)
  let sys = System.build (Sysconf.uniform Policy.enhanced) in
  let fired = ref false in
  Kernel.set_fault_hook (System.kernel sys)
    (Some
       (fun site ->
          if (not !fired) && site.Kernel.site_ep = Endpoint.pm
             && site.Kernel.site_kind = Kernel.Op_store
          then begin
            fired := true;
            Some Kernel.F_corrupt_store
          end
          else None));
  let halt = System.run sys ~root:Testsuite.driver in
  match halt with
  | Kernel.H_completed _ | Kernel.H_shutdown _ | Kernel.H_hang
  | Kernel.H_panic _ -> ()

(* ---------------- write coalescing is recovery-invariant ----------- *)

let test_coalescing_preserves_recovery_semantics () =
  (* Run the same crash-and-recover scenario with write coalescing off
     (enhanced) and on (enhanced-dedup). Coalescing only changes the
     undo log's *representation* — rollback must restore the same
     bytes, so both runs must halt identically and leave every core
     server with a byte-identical post-recovery image. *)
  let root = Testsuite.driver in
  let run policy =
    let sys, halt =
      with_fault ~policy
        (fun site ->
           site_in Endpoint.ds Message.Tag.T_ds_publish site
           && site.Kernel.site_kind = Kernel.Op_store)
        (Kernel.F_crash "injected mid-publish") root
    in
    let kernel = System.kernel sys in
    let images =
      List.map (fun ep -> Kernel.server_image kernel ep) System.core_servers
    in
    let deduped =
      List.fold_left
        (fun acc ep -> acc + (Kernel.server_stats kernel ep).Kernel.ss_deduped_stores)
        0 System.core_servers
    in
    (halt, images, Kernel.restarts kernel, deduped)
  in
  let halt_plain, images_plain, restarts_plain, _ = run Policy.enhanced in
  let halt_coal, images_coal, restarts_coal, deduped_coal =
    run Policy.enhanced_dedup
  in
  Alcotest.check halt_t "plain run recovers" (Kernel.H_completed 0) halt_plain;
  Alcotest.check halt_t "identical halt" halt_plain halt_coal;
  Alcotest.(check int) "identical recovery count" restarts_plain restarts_coal;
  List.iteri
    (fun i (a, b) ->
       let name = Endpoint.server_name (List.nth System.core_servers i) in
       Alcotest.(check bool)
         (name ^ " post-recovery image identical") true (a = b))
    (List.combine images_plain images_coal);
  (* The comparison must not be vacuous: the coalesced run has to have
     actually elided stores somewhere. *)
  Alcotest.(check bool) "coalescing actually elided stores" true
    (deduped_coal > 0)

let () =
  Alcotest.run "osiris_recovery"
    [ ( "in-window",
        [ Alcotest.test_case "pm fork crash" `Quick
            test_pm_fork_crash_recovers_transparently;
          Alcotest.test_case "ds retrieve crash" `Quick
            test_ds_retrieve_crash_recovers;
          Alcotest.test_case "rollback preserves state" `Quick
            test_rollback_preserves_pre_checkpoint_state;
          Alcotest.test_case "vfs parked threads survive" `Quick
            test_vfs_parked_threads_survive_recovery ] );
      ( "out-of-window",
        [ Alcotest.test_case "controlled shutdown" `Quick
            test_out_of_window_crash_controlled_shutdown;
          Alcotest.test_case "policy split" `Quick
            test_pessimistic_shuts_down_where_enhanced_recovers ] );
      ( "persistent",
        [ Alcotest.test_case "error virtualization" `Quick
            test_persistent_fault_survived_via_error_virtualization;
          Alcotest.test_case "crash storm bounded" `Quick test_crash_storm_panics ] );
      ( "propagation",
        [ Alcotest.test_case "through pm" `Quick test_e_crash_propagates_through_pm;
          Alcotest.test_case "through vfs to mfs" `Quick
            test_mfs_crash_recovers_through_two_layers;
          Alcotest.test_case "teardown does not leak" `Quick
            test_exit_teardown_does_not_leak_on_crash;
          Alcotest.test_case "queued requests survive" `Quick
            test_queued_requests_survive_recovery;
          Alcotest.test_case "notification crash silent" `Quick
            test_notification_context_crash_recovers_silently;
          Alcotest.test_case "rs self-recovery" `Quick test_rs_self_recovery;
          Alcotest.test_case "fail-silent halts" `Quick
            test_suite_survives_fail_silent_corruption ] );
      ( "coalescing",
        [ Alcotest.test_case "recovery semantics invariant" `Quick
            test_coalescing_preserves_recovery_semantics ] ) ]
