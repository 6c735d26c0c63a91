(* System-level functional tests of the assembled OS: the full prototype
   test suite under every policy and architecture, plus targeted
   cross-server scenarios driven by custom root programs. *)

let halt_t = Alcotest.testable (Fmt.of_to_string Kernel.halt_to_string) ( = )

let run_root ?(policy = Policy.enhanced) ?(arch = Kernel.Microkernel) root =
  let sys = System.build ~arch (Sysconf.uniform policy) in
  let halt = System.run sys ~root in
  (sys, halt)

(* ---------------- full suite everywhere --------------------------- *)

let suite_passes ?(arch = Kernel.Microkernel) policy () =
  let sys = System.build ~arch (Sysconf.uniform policy) in
  let halt = System.run sys ~root:Testsuite.driver in
  let r = Testsuite.parse_results (System.log_lines sys) in
  Alcotest.check halt_t "completed" (Kernel.H_completed 0) halt;
  Alcotest.(check bool) "suite complete" true r.Testsuite.complete;
  Alcotest.(check int) "all tests pass" (List.length Testsuite.tests)
    r.Testsuite.passed;
  Alcotest.(check int) "no failures" 0 r.Testsuite.failed

let test_boot_deterministic () =
  let sys1 = System.build (Sysconf.uniform Policy.enhanced) in
  let sys2 = System.build (Sysconf.uniform Policy.enhanced) in
  let h1 = System.run sys1 ~root:Testsuite.driver in
  let h2 = System.run sys2 ~root:Testsuite.driver in
  Alcotest.check halt_t "same halt" h1 h2;
  Alcotest.(check (list string)) "same log" (System.log_lines sys1)
    (System.log_lines sys2);
  Alcotest.(check int) "same vtime" (Kernel.now (System.kernel sys1))
    (Kernel.now (System.kernel sys2))

let test_seed_changes_nothing_functional () =
  (* A different seed must not change functional outcomes (the RNG only
     feeds explicitly random programs and fault choices). *)
  let sys = System.build ~seed:777 (Sysconf.uniform Policy.enhanced) in
  let halt = System.run sys ~root:Testsuite.driver in
  let r = Testsuite.parse_results (System.log_lines sys) in
  Alcotest.check halt_t "completed" (Kernel.H_completed 0) halt;
  Alcotest.(check int) "all pass" (List.length Testsuite.tests) r.Testsuite.passed

(* ---------------- cross-server scenarios -------------------------- *)

let test_ds_shared_between_processes () =
  (* A value published by a child is visible to the parent. *)
  let root () =
    let pid =
      Syscall.fork (fun () ->
          let r = Syscall.ds_publish ~key:"shared.key" ~value:1234 in
          Syscall.exit (if r >= 0 then 0 else 1))
    in
    let _, status = Syscall.waitpid pid in
    if status <> 0 then Syscall.exit 1;
    match Syscall.ds_retrieve ~key:"shared.key" with
    | Ok 1234 -> Syscall.exit 0
    | _ -> Syscall.exit 2
  in
  let _, halt = run_root root in
  Alcotest.check halt_t "shared" (Kernel.H_completed 0) halt

let test_file_survives_process () =
  (* Data written by an exec'd child persists in the filesystem. *)
  let root () =
    let pid =
      Syscall.fork (fun () ->
          (* /bin/sortish copies /etc/data to /tmp/sort.<pid> and unlinks
             it; use a direct write instead. *)
          let fd = Syscall.open_ "/tmp/persist" Message.creat in
          if fd < 0 then Syscall.exit 1;
          let _ = Syscall.write ~fd "legacy" in
          let _ = Syscall.close fd in
          Syscall.exit 0)
    in
    let _, status = Syscall.waitpid pid in
    if status <> 0 then Syscall.exit 1;
    let fd = Syscall.open_ "/tmp/persist" Message.rdonly in
    if fd < 0 then Syscall.exit 2;
    let r = Syscall.read ~fd ~len:16 in
    let _ = Syscall.close fd in
    let _ = Syscall.unlink "/tmp/persist" in
    match r with Ok "legacy" -> Syscall.exit 0 | _ -> Syscall.exit 3
  in
  let _, halt = run_root root in
  Alcotest.check halt_t "persisted" (Kernel.H_completed 0) halt

let test_exec_binary_exists_in_fs () =
  (* The boot protocol creates a file per registered executable. *)
  let root () =
    match Syscall.stat "/bin/true" with
    | Ok { Message.st_is_dir = false; st_size; _ } when st_size > 0 ->
      Syscall.exit 0
    | _ -> Syscall.exit 1
  in
  let _, halt = run_root root in
  Alcotest.check halt_t "binary present" (Kernel.H_completed 0) halt

let test_rs_status_reports_services () =
  let root () =
    match Syscall.rs_status () with
    | Ok (0, 0, services) when services >= 5 -> Syscall.exit 0
    | Ok _ -> Syscall.exit 1
    | Error _ -> Syscall.exit 2
  in
  let _, halt = run_root root in
  Alcotest.check halt_t "rs status" (Kernel.H_completed 0) halt

let test_vm_accounting_balanced_after_suite () =
  (* After the whole suite, every exited process must have released its
     pages: only the root remains. *)
  let sys = System.build (Sysconf.uniform Policy.enhanced) in
  let root () =
    for _ = 1 to 10 do
      let pid = Syscall.fork (fun () -> Syscall.exit 0) in
      let _, _ = Syscall.waitpid pid in
      ()
    done;
    let used, _ = Syscall.vm_info () in
    Syscall.exit (min used 200)
  in
  let halt = System.run sys ~root in
  match halt with
  | Kernel.H_completed used ->
    (* Exactly the root's own footprint. *)
    Alcotest.(check int) "only root's pages" 16 used
  | other -> Alcotest.fail (Kernel.halt_to_string other)

let test_pipe_across_exec () =
  (* fds survive exec: /bin/readfd reads from an inherited pipe fd. *)
  let root () =
    match Syscall.pipe () with
    | Error _ -> Syscall.exit 1
    | Ok (rfd, wfd) ->
      let _ = Syscall.write ~fd:wfd "mark" in
      let pid =
        Syscall.fork (fun () ->
            let _ = Syscall.exec "/bin/readfd" rfd in
            Syscall.exit 9)
      in
      let _, status = Syscall.waitpid pid in
      let _ = Syscall.close rfd in
      let _ = Syscall.close wfd in
      Syscall.exit status
  in
  let _, halt = run_root root in
  Alcotest.check halt_t "pipe across exec" (Kernel.H_completed 0) halt

let test_orphan_replies_are_rare () =
  let sys = System.build (Sysconf.uniform Policy.enhanced) in
  let (_ : Kernel.halt) = System.run sys ~root:Testsuite.driver in
  (* DS notifications to already-exited subscribers are legitimately
     dropped; anything beyond that handful would indicate a protocol
     bug. *)
  Alcotest.(check bool) "only a few dropped notifications" true
    (Kernel.orphaned_replies (System.kernel sys) < 30)

let test_monolithic_faster_than_microkernel () =
  let bench = Option.get (Unixbench.find "pipe") in
  let mono = Experiment.run_bench ~arch:Kernel.Monolithic Policy.none bench in
  let micro = Experiment.run_bench ~arch:Kernel.Microkernel Policy.none bench in
  Alcotest.(check bool) "monolithic wins on IPC-bound work" true
    (mono.Experiment.br_score > micro.Experiment.br_score)

let test_instrumentation_costs_cycles () =
  let bench = Option.get (Unixbench.find "fstime") in
  let base = Experiment.run_bench Policy.none bench in
  let noopt = Experiment.run_bench Policy.enhanced_unoptimized bench in
  Alcotest.(check bool) "always-on logging is slower" true
    (noopt.Experiment.br_score < base.Experiment.br_score)

let test_all_benches_complete () =
  List.iter
    (fun bench ->
       let r = Experiment.run_bench Policy.enhanced bench in
       Alcotest.check halt_t
         (bench.Unixbench.b_name ^ " completes")
         (Kernel.H_completed 0) r.Experiment.br_halt)
    Unixbench.all

(* Each server image keeps its paper Table VI logical size (the figure
   the cost model charges), while the host backs only the state the
   server touches: at most twice its allocated layout, rounded up to a
   granule. A dense (full-size) backing fails this. *)
let table_vi_kb =
  [ (Endpoint.pm, 628); (Endpoint.vfs, 1252); (Endpoint.vm, 4532);
    (Endpoint.ds, 248); (Endpoint.rs, 1696); (Endpoint.mfs, 512) ]

let check_images ~stage sys =
  let k = System.kernel sys in
  List.iter
    (fun ep ->
       let st = Kernel.server_stats k ep in
       let what = Printf.sprintf "%s %s %s" (System.policy sys).Policy.name
           stage (Endpoint.server_name ep) in
       (match List.assoc_opt ep table_vi_kb with
        | Some kb ->
          Alcotest.(check int) (what ^ " logical size") (kb * 1024)
            st.Kernel.ss_image_bytes
        | None -> ());
       match Kernel.server_resident_bytes k ep with
       | None -> ()
       | Some resident ->
         let g = Memimage.granule in
         let bound = (2 * st.Kernel.ss_image_used_bytes + g - 1) / g * g in
         if resident > bound then
           Alcotest.failf "%s: %d bytes backed, bound %d (layout %d)" what
             resident bound st.Kernel.ss_image_used_bytes)
    (Kernel.server_endpoints k)

let test_images_sparse () =
  List.iter
    (fun policy ->
       let sys = System.build (Sysconf.uniform policy) in
       check_images ~stage:"boot" sys;
       let (_ : Kernel.halt) = System.run sys ~root:Testsuite.driver in
       check_images ~stage:"suite" sys)
    Policy.all_evaluated

let () =
  Alcotest.run "osiris_system"
    [ ( "suite",
        [ Alcotest.test_case "baseline policy" `Quick (suite_passes Policy.none);
          Alcotest.test_case "stateless policy" `Quick (suite_passes Policy.stateless);
          Alcotest.test_case "naive policy" `Quick (suite_passes Policy.naive);
          Alcotest.test_case "pessimistic policy" `Quick
            (suite_passes Policy.pessimistic);
          Alcotest.test_case "enhanced policy" `Quick (suite_passes Policy.enhanced);
          Alcotest.test_case "unoptimized instrumentation" `Quick
            (suite_passes Policy.enhanced_unoptimized);
          Alcotest.test_case "monolithic arch" `Quick
            (suite_passes ~arch:Kernel.Monolithic Policy.enhanced);
          Alcotest.test_case "boot deterministic" `Quick test_boot_deterministic;
          Alcotest.test_case "seed-insensitive" `Quick
            test_seed_changes_nothing_functional ] );
      ( "scenarios",
        [ Alcotest.test_case "ds shared" `Quick test_ds_shared_between_processes;
          Alcotest.test_case "file persists" `Quick test_file_survives_process;
          Alcotest.test_case "exec binaries in fs" `Quick
            test_exec_binary_exists_in_fs;
          Alcotest.test_case "rs status" `Quick test_rs_status_reports_services;
          Alcotest.test_case "vm accounting balanced" `Quick
            test_vm_accounting_balanced_after_suite;
          Alcotest.test_case "pipe across exec" `Quick test_pipe_across_exec;
          Alcotest.test_case "no orphan replies" `Quick test_orphan_replies_are_rare ] );
      ( "memory",
        [ Alcotest.test_case "images sparse, Table VI sizes" `Quick
            test_images_sparse ] );
      ( "performance",
        [ Alcotest.test_case "monolithic faster" `Quick
            test_monolithic_faster_than_microkernel;
          Alcotest.test_case "instrumentation costs" `Quick
            test_instrumentation_costs_cycles;
          Alcotest.test_case "all benches complete" `Slow test_all_benches_complete ] ) ]
