(* Edge cases and resource-exhaustion paths of the individual servers —
   behaviours the prototype suite does not reach (it stays within
   limits by design). Each test drives the real system with a targeted
   root program. *)

let halt_t = Alcotest.testable (Fmt.of_to_string Kernel.halt_to_string) ( = )

let run root =
  let sys = System.build (Sysconf.uniform Policy.enhanced) in
  (sys, System.run sys ~root)

let expect_exit name root expected =
  let _, halt = run root in
  Alcotest.check halt_t name (Kernel.H_completed expected) halt

(* ---------------- PM ------------------------------------------------ *)

let test_pm_table_exhaustion () =
  (* Spawn children that never exit until fork fails with EAGAIN;
     PM's table (64 rows) must fill and the error must be clean. *)
  let rec spin () =
    Kernel.Op.compute 10_000;
    spin ()
  in
  let root () =
    let rec spawn n =
      if n > Pm.max_procs + 4 then Syscall.exit 1 (* never hit the limit *)
      else
        let pid = Syscall.fork spin in
        if pid = Errno.to_code Errno.EAGAIN then Syscall.exit 0
        else if pid < 0 then Syscall.exit 2
        else spawn (n + 1)
    in
    spawn 0
  in
  expect_exit "fork exhausts cleanly" root 0

let test_pm_waitpid_for_non_child () =
  (* Waiting on a process that exists but is not our child. *)
  let root () =
    let pid =
      Syscall.fork (fun () ->
          (* grandchild, so the middle child can target a live non-child *)
          let gp =
            Syscall.fork (fun () ->
                Kernel.Op.compute 300_000;
                Syscall.exit 0)
          in
          let ppid = Syscall.getppid () in
          let p, _ = Syscall.waitpid ppid in
          (* the parent is alive but not our child *)
          let _, _ = Syscall.waitpid gp in
          Syscall.exit (if p = Errno.to_code Errno.ECHILD then 0 else 1))
    in
    let _, status = Syscall.waitpid pid in
    Syscall.exit status
  in
  expect_exit "ECHILD for non-child" root 0

let test_pm_kill_invalid_signal_range () =
  let root () =
    let r = Syscall.signal_ignore ~signal:99 true in
    Syscall.exit (if r = Errno.to_code Errno.EINVAL then 0 else 1)
  in
  expect_exit "signal range checked" root 0

let test_pm_getppid_of_orphan () =
  let root () =
    let pid =
      Syscall.fork (fun () ->
          let _ =
            Syscall.fork (fun () ->
                Kernel.Op.compute 300_000;
                let ppid = Syscall.getppid () in
                (* reparented to "nobody" after the parent died *)
                Syscall.exit (if ppid = 0 then 0 else 1))
          in
          Syscall.exit 0)
    in
    let _, _ = Syscall.waitpid pid in
    Kernel.Op.compute 600_000;
    Syscall.exit 0
  in
  (* The orphan's status is unobservable (no one waits); completion of
     the root with status 0 is the assertion. *)
  expect_exit "orphan reparenting" root 0

(* ---------------- VFS ----------------------------------------------- *)

let test_vfs_pipe_table_exhaustion () =
  let root () =
    let rec mk n acc =
      if n > Vfs.max_pipes then Syscall.exit 1
      else
        match Syscall.pipe () with
        | Ok (r, w) -> mk (n + 1) ((r, w) :: acc)
        | Error Errno.ENFILE | Error Errno.EMFILE ->
          (* Clean exhaustion; close everything and confirm reuse. *)
          List.iter
            (fun (r, w) ->
               let _ = Syscall.close r in
               let _ = Syscall.close w in
               ())
            acc;
          (match Syscall.pipe () with
           | Ok _ -> Syscall.exit 0
           | Error _ -> Syscall.exit 2)
        | Error _ -> Syscall.exit 3
    in
    mk 0 []
  in
  expect_exit "pipe slots recycle" root 0

let test_vfs_cwd_too_long () =
  let root () =
    (* Build nested dirs until the cwd string field (64 bytes) rejects. *)
    let rec deepen path n =
      if n = 0 then Syscall.exit 1
      else
        let next = path ^ "/d23456789" in
        if Syscall.mkdir next < 0 then Syscall.exit 2
        else
          let c = Syscall.chdir next in
          if c = Errno.to_code Errno.ENAMETOOLONG then Syscall.exit 0
          else if c < 0 then Syscall.exit 3
          else deepen next (n - 1)
    in
    deepen "/tmp" 10
  in
  expect_exit "cwd length guarded" root 0

let test_vfs_write_to_pipe_read_end () =
  let root () =
    match Syscall.pipe () with
    | Error _ -> Syscall.exit 1
    | Ok (rfd, wfd) ->
      let w = Syscall.write ~fd:rfd "nope" in
      let r = Syscall.read ~fd:wfd ~len:4 in
      let _ = Syscall.close rfd in
      let _ = Syscall.close wfd in
      Syscall.exit
        (if w = Errno.to_code Errno.EBADF
            && r = Error Errno.EBADF
         then 0
         else 2)
  in
  expect_exit "pipe ends direction-checked" root 0

let test_vfs_lseek_negative_cur () =
  let root () =
    let fd = Syscall.open_ "/tmp/u_neg" Message.creat in
    let _ = Syscall.write ~fd "abc" in
    let bad = Syscall.lseek ~fd ~off:(-10) Message.Seek_cur in
    let _ = Syscall.close fd in
    let _ = Syscall.unlink "/tmp/u_neg" in
    Syscall.exit (if bad = Errno.to_code Errno.EINVAL then 0 else 1)
  in
  expect_exit "negative position rejected" root 0

(* ---------------- VM ------------------------------------------------ *)

let test_vm_region_exhaustion_and_reuse () =
  let root () =
    let rec grab n acc =
      if n > 200 then Syscall.exit 1
      else
        let id = Syscall.mmap ~len:4096 in
        if id >= 0 then grab (n + 1) (id :: acc)
        else if id = Errno.to_code Errno.ENOMEM then begin
          List.iter (fun id -> ignore (Syscall.munmap ~id)) acc;
          let again = Syscall.mmap ~len:4096 in
          if again < 0 then Syscall.exit 2;
          let _ = Syscall.munmap ~id:again in
          Syscall.exit 0
        end
        else Syscall.exit 3
    in
    grab 0 []
  in
  expect_exit "regions recycle" root 0

let test_vm_page_budget () =
  (* One mmap bigger than the whole pool must fail without disturbing
     accounting. *)
  let root () =
    let used0, _ = Syscall.vm_info () in
    let id = Syscall.mmap ~len:(Vm.total_pages * Vm.page_size * 2) in
    let used1, _ = Syscall.vm_info () in
    Syscall.exit
      (if id = Errno.to_code Errno.ENOMEM && used0 = used1 then 0 else 1)
  in
  expect_exit "pool overcommit refused" root 0

(* ---------------- DS ------------------------------------------------ *)

let test_ds_capacity_exhaustion () =
  let root () =
    let rec fill n =
      if n > Ds.capacity + 4 then Syscall.exit 1
      else
        let r = Syscall.ds_publish ~key:(Printf.sprintf "ux.%d" n) ~value:n in
        if r >= 0 then fill (n + 1)
        else if r = Errno.to_code Errno.ENOSPC then begin
          (* free one and confirm the slot is reusable *)
          let _ = Syscall.ds_delete ~key:"ux.0" in
          let r2 = Syscall.ds_publish ~key:"ux.again" ~value:1 in
          Syscall.exit (if r2 >= 0 then 0 else 2)
        end
        else Syscall.exit 3
    in
    fill 0
  in
  expect_exit "kv slots recycle" root 0

let test_ds_key_length_guard () =
  let root () =
    let r = Syscall.ds_publish ~key:(String.make 64 'k') ~value:1 in
    Syscall.exit (if r = Errno.to_code Errno.EINVAL then 0 else 1)
  in
  expect_exit "long keys rejected" root 0

(* ---------------- MFS ----------------------------------------------- *)

let test_mfs_component_too_long () =
  let root () =
    let path = "/tmp/" ^ String.make 40 'n' in
    let fd = Syscall.open_ path Message.creat in
    Syscall.exit (if fd = Errno.to_code Errno.ENAMETOOLONG then 0 else 1)
  in
  expect_exit "long components rejected" root 0

let test_mfs_inode_exhaustion () =
  (* The boot image already holds ~110 files; creating until ENFILE
     must be clean, and unlinking must free inodes for reuse. *)
  let root () =
    let rec fill n =
      if n > Mfs.max_inodes then Syscall.exit 1
      else
        let path = Printf.sprintf "/tmp/ino%d" n in
        let fd = Syscall.open_ path Message.creat in
        if fd >= 0 then begin
          let _ = Syscall.close fd in
          fill (n + 1)
        end
        else if fd = Errno.to_code Errno.ENFILE then begin
          let _ = Syscall.unlink "/tmp/ino0" in
          let fd2 = Syscall.open_ "/tmp/ino_again" Message.creat in
          if fd2 < 0 then Syscall.exit 2;
          let _ = Syscall.close fd2 in
          Syscall.exit 0
        end
        else Syscall.exit 3
    in
    fill 0
  in
  let sys, halt = run root in
  Alcotest.check halt_t "inodes recycle" (Kernel.H_completed 0) halt;
  (* and the block accounting survived the churn *)
  Alcotest.(check bool) "fsck clean" true
    (Mfs.check_invariants (System.mfs sys) ~bdev:(System.bdev sys) = Ok ())

let test_mfs_deep_nesting () =
  let root () =
    let rec deepen base n =
      if n = 0 then begin
        let fd = Syscall.open_ (base ^ "/leaf") Message.creat in
        if fd < 0 then Syscall.exit 2;
        let _ = Syscall.write ~fd "deep" in
        let _ = Syscall.close fd in
        match Syscall.stat (base ^ "/leaf") with
        | Ok { Message.st_size = 4; _ } -> Syscall.exit 0
        | _ -> Syscall.exit 3
      end
      else
        let next = Printf.sprintf "%s/n%d" base n in
        if Syscall.mkdir next < 0 then Syscall.exit 4 else deepen next (n - 1)
    in
    deepen "/tmp" 6
  in
  expect_exit "six levels deep" root 0

(* ---------------- RS ------------------------------------------------ *)

let test_rs_lookup_labels () =
  let root () =
    match Kernel.Op.call Endpoint.rs (Message.Rs_lookup { label = "vm" }) with
    | Message.R_ok ep when ep = Endpoint.vm ->
      (match Kernel.Op.call Endpoint.rs (Message.Rs_lookup { label = "nope" }) with
       | Message.R_err Errno.ENOENT -> Syscall.exit 0
       | _ -> Syscall.exit 2)
    | _ -> Syscall.exit 1
  in
  expect_exit "service registry lookup" root 0

let () =
  Alcotest.run "osiris_servers_unit"
    [ ( "pm",
        [ Alcotest.test_case "table exhaustion" `Quick test_pm_table_exhaustion;
          Alcotest.test_case "waitpid non-child" `Quick
            test_pm_waitpid_for_non_child;
          Alcotest.test_case "signal range" `Quick
            test_pm_kill_invalid_signal_range;
          Alcotest.test_case "orphan getppid" `Quick test_pm_getppid_of_orphan ] );
      ( "vfs",
        [ Alcotest.test_case "pipe exhaustion" `Quick
            test_vfs_pipe_table_exhaustion;
          Alcotest.test_case "cwd too long" `Quick test_vfs_cwd_too_long;
          Alcotest.test_case "pipe direction" `Quick
            test_vfs_write_to_pipe_read_end;
          Alcotest.test_case "negative lseek" `Quick test_vfs_lseek_negative_cur ] );
      ( "vm",
        [ Alcotest.test_case "region exhaustion" `Quick
            test_vm_region_exhaustion_and_reuse;
          Alcotest.test_case "page budget" `Quick test_vm_page_budget ] );
      ( "ds",
        [ Alcotest.test_case "capacity exhaustion" `Quick
            test_ds_capacity_exhaustion;
          Alcotest.test_case "key length" `Quick test_ds_key_length_guard ] );
      ( "mfs",
        [ Alcotest.test_case "component too long" `Quick
            test_mfs_component_too_long;
          Alcotest.test_case "inode exhaustion" `Quick test_mfs_inode_exhaustion;
          Alcotest.test_case "deep nesting" `Quick test_mfs_deep_nesting ] );
      ( "rs",
        [ Alcotest.test_case "lookup" `Quick test_rs_lookup_labels ] ) ]
