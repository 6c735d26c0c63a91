(* Test-programs are written defensively: every syscall result is
   checked and the first unexpected value terminates the test with a
   distinct nonzero status. Under fault injection a recovered server
   answers E_CRASH (-999), which surfaces here as a failed — but
   cleanly terminated — test, the "fail" bucket of Tables II/III. *)

let ok () = Syscall.exit 0

let fail n = Syscall.exit n

(* Go on if [cond] holds, else exit with [code]. *)
let require cond code = if not cond then fail code

let require_ok v code = require (v >= 0) code

let compute = Kernel.Op.compute

(* ------------------------------------------------------------------ *)
(* Process management                                                  *)
(* ------------------------------------------------------------------ *)

let t_fork_basic () =
  let pid = Syscall.fork ok in
  require_ok pid 1;
  let p, status = Syscall.waitpid pid in
  require (p = pid) 2;
  require (status = 0) 3;
  ok ()

let t_fork_status () =
  let pid = Syscall.fork (fun () -> fail 42) in
  let _, status = Syscall.waitpid pid in
  require (status = 42) 1;
  ok ()

let t_fork_many () =
  (* Several live children at once, reaped in order. *)
  let rec spawn n acc =
    if n = 0 then List.rev acc
    else
      let pid = Syscall.fork (fun () -> Syscall.exit (10 + n)) in
      if pid < 0 then List.rev acc else spawn (n - 1) (pid :: acc)
  in
  let pids = spawn 4 [] in
  require (List.length pids = 4) 1;
  List.iteri
    (fun i pid ->
       let p, status = Syscall.waitpid pid in
       require (p = pid) 2;
       require (status = 10 + 4 - i) 3)
    pids;
  ok ()

let t_wait_any () =
  let pid = Syscall.fork ok in
  let p, _ = Syscall.wait () in
  require (p = pid) 1;
  ok ()

let t_wait_blocks () =
  (* Parent waits before the child exits: the deferred-reply path. *)
  let pid =
    Syscall.fork (fun () ->
        (* Burn time so the parent reaches waitpid first. *)
        compute 50_000;
        Syscall.exit 7)
  in
  let p, status = Syscall.waitpid pid in
  require (p = pid) 1;
  require (status = 7) 2;
  ok ()

let t_wait_no_child () =
  let p, _ = Syscall.wait () in
  require (p = Errno.to_code Errno.ECHILD) 1;
  ok ()

let t_wait_wrong_pid () =
  let p, _ = Syscall.waitpid 99999 in
  require (p = Errno.to_code Errno.ECHILD) 1;
  ok ()

let t_zombie_reap () =
  let pid = Syscall.fork (fun () -> Syscall.exit 3) in
  (* Let the child become a zombie before waiting. *)
  compute 100_000;
  let p, status = Syscall.waitpid pid in
  require (p = pid) 1;
  require (status = 3) 2;
  ok ()

let t_getpid () =
  let pid = Syscall.getpid () in
  require_ok pid 1;
  let pid2 = Syscall.getpid () in
  require (pid = pid2) 2;
  ok ()

let t_getppid () =
  let pid =
    Syscall.fork (fun () ->
        let ppid = Syscall.getppid () in
        if not (ppid > 0) then Kernel.Op.fail "assertion failed: ppid positive";
        Syscall.exit 0)
  in
  let _, status = Syscall.waitpid pid in
  require (status = 0) 1;
  ok ()

let t_fork_pid_differs () =
  let mypid = Syscall.getpid () in
  let pid =
    Syscall.fork (fun () ->
        let cpid = Syscall.getpid () in
        Syscall.exit (if cpid <> mypid then 0 else 1))
  in
  let _, status = Syscall.waitpid pid in
  require (pid <> mypid) 1;
  require (status = 0) 2;
  ok ()

(* A child that computes until it is killed. *)
let rec spin () =
  compute 1000;
  spin ()

let t_kill_child () =
  let pid = Syscall.fork spin in
  let r = Syscall.kill ~pid ~signal:9 in
  require_ok r 1;
  let p, status = Syscall.waitpid pid in
  require (p = pid) 2;
  require (status = 128 + 9) 3;
  ok ()

let t_kill_no_target () =
  let r = Syscall.kill ~pid:99999 ~signal:9 in
  require (r = Errno.to_code Errno.ESRCH) 1;
  ok ()

(* A child that execs [path] with [arg], exiting 9 if exec returns. *)
let exec_child path arg () =
  let _ = Syscall.exec path arg in
  fail 9

(* Fork [child] and exit 0 if it exits with [expected], else 1. *)
let expect_child_status child expected =
  let pid = Syscall.fork child in
  let _, status = Syscall.waitpid pid in
  require (status = expected) 1;
  ok ()

let t_exec_child () =
  (* /bin/true exits 0; /bin/false exits 1. *)
  expect_child_status (exec_child "/bin/true" 0) 0

let t_exec_status () = expect_child_status (exec_child "/bin/false" 0) 1

let t_exec_arg () =
  (* /bin/exitarg exits with its argument. *)
  expect_child_status (exec_child "/bin/exitarg" 23) 23

let t_exec_enoent () =
  let r = Syscall.exec "/bin/no_such_program" 0 in
  require (r = Errno.to_code Errno.ENOENT) 1;
  ok ()

let t_exec_chain () =
  (* /bin/chain execs itself recursively, decrementing its argument. *)
  expect_child_status (exec_child "/bin/chain" 3) 0

let t_orphan () =
  (* Child outlives parent; the orphan is reparented and reaped by PM. *)
  expect_child_status
    (fun () ->
       let _ =
         Syscall.fork (fun () ->
             compute 200_000;
             ok ())
       in
       ok () (* exits immediately, orphaning the grandchild *))
    0

(* ------------------------------------------------------------------ *)
(* Files                                                               *)
(* ------------------------------------------------------------------ *)

let with_new_file path body =
  let fd = Syscall.open_ path Message.creat in
  require_ok fd 81;
  body fd

let t_creat_write_read () =
  with_new_file "/tmp/f_cwr" (fun fd ->
      let n = Syscall.write ~fd "hello world" in
      require (n = 11) 1;
      let p = Syscall.lseek ~fd ~off:0 Message.Seek_set in
      require (p = 0) 2;
      match Syscall.read ~fd ~len:32 with
      | Ok "hello world" ->
        let _ = Syscall.close fd in
        let _ = Syscall.unlink "/tmp/f_cwr" in
        ok ()
      | Ok _ -> fail 3
      | Error _ -> fail 4)

let t_open_enoent () =
  let fd = Syscall.open_ "/tmp/does_not_exist" Message.rdonly in
  require (fd = Errno.to_code Errno.ENOENT) 1;
  ok ()

let t_read_eof () =
  with_new_file "/tmp/f_eof" (fun fd ->
      let _ = Syscall.write ~fd "abc" in
      let _ = Syscall.lseek ~fd ~off:0 Message.Seek_set in
      let r1 = Syscall.read ~fd ~len:3 in
      let r2 = Syscall.read ~fd ~len:3 in
      match r1, r2 with
      | Ok "abc", Ok "" ->
        let _ = Syscall.close fd in
        let _ = Syscall.unlink "/tmp/f_eof" in
        ok ()
      | _ -> fail 1)

let t_lseek_modes () =
  with_new_file "/tmp/f_seek" (fun fd ->
      let _ = Syscall.write ~fd "0123456789" in
      let p1 = Syscall.lseek ~fd ~off:4 Message.Seek_set in
      let p2 = Syscall.lseek ~fd ~off:2 Message.Seek_cur in
      let p3 = Syscall.lseek ~fd ~off:(-3) Message.Seek_end in
      let bad = Syscall.lseek ~fd ~off:(-99) Message.Seek_set in
      let _ = Syscall.close fd in
      let _ = Syscall.unlink "/tmp/f_seek" in
      require (p1 = 4) 1;
      require (p2 = 6) 2;
      require (p3 = 7) 3;
      require (bad = Errno.to_code Errno.EINVAL) 4;
      ok ())

let t_sparse_read () =
  (* Write past a hole; the hole reads back as NULs. *)
  with_new_file "/tmp/f_hole" (fun fd ->
      let _ = Syscall.lseek ~fd ~off:100 Message.Seek_set in
      let _ = Syscall.write ~fd "x" in
      let _ = Syscall.lseek ~fd ~off:98 Message.Seek_set in
      let r = Syscall.read ~fd ~len:3 in
      let _ = Syscall.close fd in
      let _ = Syscall.unlink "/tmp/f_hole" in
      match r with
      | Ok s when String.length s = 3 && s.[0] = '\000' && s.[2] = 'x' -> ok ()
      | _ -> fail 1)

let t_trunc_on_open () =
  with_new_file "/tmp/f_trunc" (fun fd ->
      let _ = Syscall.write ~fd "old contents" in
      let _ = Syscall.close fd in
      let fd2 = Syscall.open_ "/tmp/f_trunc" Message.creat in
      require_ok fd2 1;
      let r = Syscall.stat "/tmp/f_trunc" in
      let _ = Syscall.close fd2 in
      let _ = Syscall.unlink "/tmp/f_trunc" in
      match r with
      | Ok { Message.st_size = 0; _ } -> ok ()
      | _ -> fail 2)

let t_append () =
  with_new_file "/tmp/f_app" (fun fd ->
      let _ = Syscall.write ~fd "abc" in
      let _ = Syscall.close fd in
      let flags =
        { Message.o_create = false; o_trunc = false; o_append = true }
      in
      let fd2 = Syscall.open_ "/tmp/f_app" flags in
      require_ok fd2 1;
      let _ = Syscall.write ~fd:fd2 "def" in
      let _ = Syscall.lseek ~fd:fd2 ~off:0 Message.Seek_set in
      let r = Syscall.read ~fd:fd2 ~len:10 in
      let _ = Syscall.close fd2 in
      let _ = Syscall.unlink "/tmp/f_app" in
      match r with Ok "abcdef" -> ok () | _ -> fail 2)

let t_unlink_then_open () =
  with_new_file "/tmp/f_gone" (fun fd ->
      let _ = Syscall.close fd in
      let r = Syscall.unlink "/tmp/f_gone" in
      require_ok r 1;
      let fd2 = Syscall.open_ "/tmp/f_gone" Message.rdonly in
      require (fd2 = Errno.to_code Errno.ENOENT) 2;
      ok ())

let t_unlink_enoent () =
  let r = Syscall.unlink "/tmp/never_created" in
  require (r = Errno.to_code Errno.ENOENT) 1;
  ok ()

let t_stat_file () =
  with_new_file "/tmp/f_stat" (fun fd ->
      let _ = Syscall.write ~fd (String.make 100 'a') in
      let r = Syscall.stat "/tmp/f_stat" in
      let _ = Syscall.close fd in
      let _ = Syscall.unlink "/tmp/f_stat" in
      match r with
      | Ok { Message.st_size = 100; st_is_dir = false; _ } -> ok ()
      | _ -> fail 1)

let t_fstat () =
  with_new_file "/tmp/f_fstat" (fun fd ->
      let _ = Syscall.write ~fd "12345" in
      let r = Syscall.fstat fd in
      let _ = Syscall.close fd in
      let _ = Syscall.unlink "/tmp/f_fstat" in
      match r with Ok { Message.st_size = 5; _ } -> ok () | _ -> fail 1)

let t_close_ebadf () =
  let r = Syscall.close 13 in
  require (r = Errno.to_code Errno.EBADF) 1;
  match Syscall.read ~fd:13 ~len:1 with
  | Error Errno.EBADF -> ok ()
  | _ -> fail 2

let t_dup_shares_offset () =
  with_new_file "/tmp/f_dup" (fun fd ->
      let _ = Syscall.write ~fd "abcdef" in
      let fd2 = Syscall.dup fd in
      require_ok fd2 1;
      let _ = Syscall.lseek ~fd ~off:1 Message.Seek_set in
      let r = Syscall.read ~fd:fd2 ~len:2 in
      let _ = Syscall.close fd in
      let _ = Syscall.close fd2 in
      let _ = Syscall.unlink "/tmp/f_dup" in
      match r with Ok "bc" -> ok () | _ -> fail 2)

let t_fd_exhaustion () =
  (* Open until EMFILE, then close everything. *)
  let rec open_all acc n =
    if n > Vfs.max_fds + 2 then (acc, Errno.to_code Errno.EMFILE)
    else
      let fd = Syscall.open_ "/etc/data" Message.rdonly in
      if fd >= 0 then open_all (fd :: acc) (n + 1) else (acc, fd)
  in
  let fds, last = open_all [] 0 in
  List.iter (fun fd -> ignore (Syscall.close fd)) fds;
  require (last = Errno.to_code Errno.EMFILE) 1;
  require (List.length fds > 0) 2;
  ok ()

let t_rename () =
  with_new_file "/tmp/f_ren_a" (fun fd ->
      let _ = Syscall.write ~fd "payload" in
      let _ = Syscall.close fd in
      let r = Syscall.rename ~src:"/tmp/f_ren_a" ~dst:"/tmp/f_ren_b" in
      require_ok r 1;
      let gone = Syscall.open_ "/tmp/f_ren_a" Message.rdonly in
      require (gone = Errno.to_code Errno.ENOENT) 2;
      let fd2 = Syscall.open_ "/tmp/f_ren_b" Message.rdonly in
      require_ok fd2 3;
      let r = Syscall.read ~fd:fd2 ~len:10 in
      let _ = Syscall.close fd2 in
      let _ = Syscall.unlink "/tmp/f_ren_b" in
      match r with Ok "payload" -> ok () | _ -> fail 4)

let t_rename_overwrites () =
  with_new_file "/tmp/f_ro_a" (fun fd ->
      let _ = Syscall.write ~fd "new" in
      let _ = Syscall.close fd in
      with_new_file "/tmp/f_ro_b" (fun fd2 ->
          let _ = Syscall.write ~fd:fd2 "old" in
          let _ = Syscall.close fd2 in
          let r = Syscall.rename ~src:"/tmp/f_ro_a" ~dst:"/tmp/f_ro_b" in
          require_ok r 1;
          let fd3 = Syscall.open_ "/tmp/f_ro_b" Message.rdonly in
          let c = Syscall.read ~fd:fd3 ~len:8 in
          let _ = Syscall.close fd3 in
          let _ = Syscall.unlink "/tmp/f_ro_b" in
          match c with Ok "new" -> ok () | _ -> fail 2))

(* Write [n] [chunk]s: whether every write took the whole chunk (the
   writes stop at the first that does not). *)
let rec fill ~fd chunk n =
  n = 0
  || (Syscall.write ~fd chunk = String.length chunk && fill ~fd chunk (n - 1))

let t_big_file () =
  (* Fill a file to the 8-block maximum and verify both ends. *)
  with_new_file "/tmp/f_big" (fun fd ->
      let full = fill ~fd (String.make 1024 'z') (Mfs.max_file_size / 1024) in
      require full 1;
      let over = Syscall.write ~fd "x" in
      require (over = Errno.to_code Errno.ENOSPC) 2;
      let _ = Syscall.lseek ~fd ~off:(-1) Message.Seek_end in
      let r = Syscall.read ~fd ~len:1 in
      let _ = Syscall.close fd in
      let _ = Syscall.unlink "/tmp/f_big" in
      match r with Ok "z" -> ok () | _ -> fail 3)

let t_write_cross_block () =
  (* A write spanning a block boundary must read-modify-write. *)
  with_new_file "/tmp/f_cross" (fun fd ->
      let _ = Syscall.write ~fd (String.make 1020 '.') in
      let _ = Syscall.write ~fd "ABCDEFGH" in
      let _ = Syscall.lseek ~fd ~off:1018 Message.Seek_set in
      let r = Syscall.read ~fd ~len:6 in
      let _ = Syscall.close fd in
      let _ = Syscall.unlink "/tmp/f_cross" in
      match r with Ok "..ABCD" -> ok () | _ -> fail 1)

let t_sync () =
  let r = Syscall.sync () in
  require_ok r 1;
  ok ()

(* ------------------------------------------------------------------ *)
(* Directories                                                         *)
(* ------------------------------------------------------------------ *)

let t_mkdir_rmdir () =
  let r = Syscall.mkdir "/tmp/d_mk" in
  require_ok r 1;
  match Syscall.stat "/tmp/d_mk" with
  | Ok { Message.st_is_dir = true; _ } ->
    let r2 = Syscall.rmdir "/tmp/d_mk" in
    require_ok r2 2;
    (match Syscall.stat "/tmp/d_mk" with
     | Error Errno.ENOENT -> ok ()
     | _ -> fail 3)
  | _ -> fail 4

let t_mkdir_eexist () =
  let _ = Syscall.mkdir "/tmp/d_dup" in
  let r = Syscall.mkdir "/tmp/d_dup" in
  let _ = Syscall.rmdir "/tmp/d_dup" in
  require (r = Errno.to_code Errno.EEXIST) 1;
  ok ()

let t_rmdir_notempty () =
  let _ = Syscall.mkdir "/tmp/d_full" in
  let fd = Syscall.open_ "/tmp/d_full/child" Message.creat in
  require_ok fd 1;
  let _ = Syscall.close fd in
  let r = Syscall.rmdir "/tmp/d_full" in
  require (r = Errno.to_code Errno.ENOTEMPTY) 2;
  let _ = Syscall.unlink "/tmp/d_full/child" in
  let r2 = Syscall.rmdir "/tmp/d_full" in
  require_ok r2 3;
  ok ()

let t_nested_dirs () =
  let _ = Syscall.mkdir "/tmp/d_n1" in
  let _ = Syscall.mkdir "/tmp/d_n1/d_n2" in
  let fd = Syscall.open_ "/tmp/d_n1/d_n2/leaf" Message.creat in
  require_ok fd 1;
  let _ = Syscall.write ~fd "deep" in
  let _ = Syscall.close fd in
  let r = Syscall.stat "/tmp/d_n1/d_n2/leaf" in
  let _ = Syscall.unlink "/tmp/d_n1/d_n2/leaf" in
  let _ = Syscall.rmdir "/tmp/d_n1/d_n2" in
  let _ = Syscall.rmdir "/tmp/d_n1" in
  match r with Ok { Message.st_size = 4; _ } -> ok () | _ -> fail 2

let t_chdir_relative () =
  let _ = Syscall.mkdir "/tmp/d_cwd" in
  let r = Syscall.chdir "/tmp/d_cwd" in
  require_ok r 1;
  let fd = Syscall.open_ "relfile" Message.creat in
  require_ok fd 2;
  let _ = Syscall.write ~fd "rel" in
  let _ = Syscall.close fd in
  let s = Syscall.stat "/tmp/d_cwd/relfile" in
  let _ = Syscall.chdir "/" in
  let _ = Syscall.unlink "/tmp/d_cwd/relfile" in
  let _ = Syscall.rmdir "/tmp/d_cwd" in
  match s with Ok { Message.st_size = 3; _ } -> ok () | _ -> fail 3

let t_chdir_enotdir () =
  with_new_file "/tmp/f_nd" (fun fd ->
      let _ = Syscall.close fd in
      let r = Syscall.chdir "/tmp/f_nd" in
      let _ = Syscall.unlink "/tmp/f_nd" in
      require (r = Errno.to_code Errno.ENOTDIR) 1;
      ok ())

let t_open_dir_fails () =
  let _ = Syscall.mkdir "/tmp/d_open" in
  let fd = Syscall.open_ "/tmp/d_open" Message.rdonly in
  let _ = Syscall.rmdir "/tmp/d_open" in
  require (fd = Errno.to_code Errno.EISDIR) 1;
  ok ()

let t_cwd_inherited () =
  let _ = Syscall.mkdir "/tmp/d_inh" in
  let _ = Syscall.chdir "/tmp/d_inh" in
  let pid =
    Syscall.fork (fun () ->
        let fd = Syscall.open_ "childfile" Message.creat in
        let _ = Syscall.close fd in
        Syscall.exit (if fd >= 0 then 0 else 1))
  in
  let _, status = Syscall.waitpid pid in
  let s = Syscall.stat "/tmp/d_inh/childfile" in
  let _ = Syscall.chdir "/" in
  let _ = Syscall.unlink "/tmp/d_inh/childfile" in
  let _ = Syscall.rmdir "/tmp/d_inh" in
  require (status = 0) 1;
  match s with Ok _ -> ok () | Error _ -> fail 2

(* ------------------------------------------------------------------ *)
(* Pipes                                                               *)
(* ------------------------------------------------------------------ *)

(* Run [body] on a fresh pipe's read and write ends; exit 1 if the
   pipe cannot be made. *)
let with_pipe body =
  match Syscall.pipe () with
  | Error _ -> fail 1
  | Ok (rfd, wfd) -> body rfd wfd

let t_pipe_basic () =
  with_pipe (fun rfd wfd ->
      let n = Syscall.write ~fd:wfd "ping" in
      require (n = 4) 2;
      let r = Syscall.read ~fd:rfd ~len:8 in
      let _ = Syscall.close rfd in
      let _ = Syscall.close wfd in
      match r with Ok "ping" -> ok () | _ -> fail 3)

let t_pipe_eof () =
  with_pipe (fun rfd wfd ->
      let _ = Syscall.write ~fd:wfd "zz" in
      let _ = Syscall.close wfd in
      let r1 = Syscall.read ~fd:rfd ~len:8 in
      let r2 = Syscall.read ~fd:rfd ~len:8 in
      let _ = Syscall.close rfd in
      match r1, r2 with Ok "zz", Ok "" -> ok () | _ -> fail 2)

let t_pipe_epipe () =
  with_pipe (fun rfd wfd ->
      let _ = Syscall.close rfd in
      let n = Syscall.write ~fd:wfd "doomed" in
      let _ = Syscall.close wfd in
      require (n = Errno.to_code Errno.EPIPE) 2;
      ok ())

let t_pipe_blocking_read () =
  (* Child reads before the parent writes: exercises the yield-retry
     path in VFS (and the forced window close on yield). *)
  with_pipe (fun rfd wfd ->
      let pid =
        Syscall.fork (fun () ->
            let r = Syscall.read ~fd:rfd ~len:4 in
            Syscall.exit (match r with Ok "data" -> 0 | _ -> 1))
      in
      compute 100_000;
      let _ = Syscall.write ~fd:wfd "data" in
      let _, status = Syscall.waitpid pid in
      let _ = Syscall.close rfd in
      let _ = Syscall.close wfd in
      require (status = 0) 2;
      ok ())

let t_pipe_fill_drain () =
  (* Writer fills beyond capacity and blocks until the reader drains. *)
  with_pipe (fun rfd wfd ->
      let payload = String.make (Vfs.pipe_capacity + 100) 'q' in
      let rec drain got =
        if got >= String.length payload then Syscall.exit 0
        else
          match Syscall.read ~fd:rfd ~len:200 with
          | Ok "" -> Syscall.exit 1
          | Ok s -> drain (got + String.length s)
          | Error _ -> Syscall.exit 2
      in
      let pid = Syscall.fork (fun () -> drain 0) in
      let n = Syscall.write ~fd:wfd payload in
      let _, status = Syscall.waitpid pid in
      let _ = Syscall.close rfd in
      let _ = Syscall.close wfd in
      require (n = String.length payload) 2;
      require (status = 0) 3;
      ok ())

let t_pipe_inherited () =
  (* Classic parent-to-child pipe across fork. *)
  with_pipe (fun rfd wfd ->
      let pid =
        Syscall.fork (fun () ->
            let _ = Syscall.close wfd in
            let r = Syscall.read ~fd:rfd ~len:16 in
            Syscall.exit (match r with Ok "from parent" -> 0 | _ -> 1))
      in
      let _ = Syscall.close rfd in
      let _ = Syscall.write ~fd:wfd "from parent" in
      let _ = Syscall.close wfd in
      let _, status = Syscall.waitpid pid in
      require (status = 0) 2;
      ok ())

let t_pipe_fstat () =
  with_pipe (fun rfd wfd ->
      let _ = Syscall.write ~fd:wfd "1234567" in
      let r = Syscall.fstat rfd in
      let _ = Syscall.close rfd in
      let _ = Syscall.close wfd in
      match r with Ok { Message.st_size = 7; _ } -> ok () | _ -> fail 2)

(* ------------------------------------------------------------------ *)
(* Memory (VM)                                                         *)
(* ------------------------------------------------------------------ *)

let t_sbrk_grow () =
  let b0 = Syscall.brk_current () in
  require_ok b0 1;
  let b1 = Syscall.sbrk 10_000 in
  require (b1 = b0 + 10_000) 2;
  let b2 = Syscall.brk_current () in
  require (b2 = b1) 3;
  ok ()

let t_sbrk_shrink () =
  let b0 = Syscall.brk_current () in
  let _ = Syscall.sbrk 8192 in
  let b1 = Syscall.sbrk (-8192) in
  require (b1 = b0) 1;
  ok ()

let t_sbrk_negative_break () =
  let b0 = Syscall.brk_current () in
  let r = Syscall.sbrk (-(b0 + 4096)) in
  require (r = Errno.to_code Errno.EINVAL) 1;
  ok ()

let t_mmap_munmap () =
  let id = Syscall.mmap ~len:65536 in
  require_ok id 1;
  let used0, _ = Syscall.vm_info () in
  let r = Syscall.munmap ~id in
  require_ok r 2;
  let used1, _ = Syscall.vm_info () in
  require (used1 = used0 - (65536 / Vm.page_size)) 3;
  ok ()

let t_munmap_einval () =
  let r = Syscall.munmap ~id:77 in
  require (r = Errno.to_code Errno.EINVAL) 1;
  ok ()

let t_mmap_zero () =
  let r = Syscall.mmap ~len:0 in
  require (r = Errno.to_code Errno.EINVAL) 1;
  ok ()

let t_vm_fork_accounting () =
  (* Fork doubles the address-space pages; exit releases them. *)
  let used0, _ = Syscall.vm_info () in
  let pid = Syscall.fork ok in
  let _, _ = Syscall.waitpid pid in
  let used1, _ = Syscall.vm_info () in
  require (used1 = used0) 1;
  ok ()

let t_brk_inherited () =
  let _ = Syscall.sbrk 20_000 in
  let b = Syscall.brk_current () in
  let pid =
    Syscall.fork (fun () ->
        let cb = Syscall.brk_current () in
        Syscall.exit (if cb = b then 0 else 1))
  in
  let _, status = Syscall.waitpid pid in
  require (status = 0) 1;
  ok ()

(* ------------------------------------------------------------------ *)
(* Data store                                                          *)
(* ------------------------------------------------------------------ *)

let t_ds_roundtrip () =
  let r = Syscall.ds_publish ~key:"t.round" ~value:12345 in
  require_ok r 1;
  let v = Syscall.ds_retrieve ~key:"t.round" in
  let _ = Syscall.ds_delete ~key:"t.round" in
  match v with Ok 12345 -> ok () | _ -> fail 2

let t_ds_overwrite () =
  let _ = Syscall.ds_publish ~key:"t.ow" ~value:1 in
  let _ = Syscall.ds_publish ~key:"t.ow" ~value:2 in
  let v = Syscall.ds_retrieve ~key:"t.ow" in
  let _ = Syscall.ds_delete ~key:"t.ow" in
  match v with Ok 2 -> ok () | _ -> fail 1

let t_ds_missing () =
  match Syscall.ds_retrieve ~key:"t.absent" with
  | Error Errno.ENOENT -> ok ()
  | _ -> fail 1

let t_ds_delete_missing () =
  let r = Syscall.ds_delete ~key:"t.absent2" in
  require (r = Errno.to_code Errno.ENOENT) 1;
  ok ()

let t_ds_bad_key () =
  let r = Syscall.ds_publish ~key:"" ~value:1 in
  require (r = Errno.to_code Errno.EINVAL) 1;
  ok ()

let t_ds_many_keys () =
  let rec publish n =
    n = 0
    || (Syscall.ds_publish ~key:(Printf.sprintf "t.many%d" n) ~value:n >= 0
        && publish (n - 1))
  in
  let all = publish 20 in
  require all 1;
  let rec verify n =
    if n = 0 then ok ()
    else
      match Syscall.ds_retrieve ~key:(Printf.sprintf "t.many%d" n) with
      | Ok x when x = n ->
        let _ = Syscall.ds_delete ~key:(Printf.sprintf "t.many%d" n) in
        verify (n - 1)
      | _ -> fail 2
  in
  verify 20

let t_ds_subscribe_notify () =
  (* Subscription generates a DS notification on matching publishes;
     the notification is fire-and-forget, so here we only verify the
     subscribe+publish path stays healthy. *)
  let r = Syscall.ds_subscribe ~prefix:"t.sub" in
  require_ok r 1;
  let r2 = Syscall.ds_publish ~key:"t.sub.x" ~value:5 in
  require_ok r2 2;
  let v = Syscall.ds_retrieve ~key:"t.sub.x" in
  let _ = Syscall.ds_delete ~key:"t.sub.x" in
  match v with Ok 5 -> ok () | _ -> fail 3

(* ------------------------------------------------------------------ *)
(* RS                                                                  *)
(* ------------------------------------------------------------------ *)

let t_rs_status () =
  match Syscall.rs_status () with
  | Ok (restarts, shutdowns, _) ->
    require (restarts >= 0 && shutdowns >= 0) 1;
    ok ()
  | Error _ -> fail 2

(* ------------------------------------------------------------------ *)
(* Cross-cutting scenarios                                             *)
(* ------------------------------------------------------------------ *)

let t_fork_fd_isolation () =
  (* Closing an fd in the child must not close it in the parent. *)
  with_new_file "/tmp/f_iso" (fun fd ->
      let _ = Syscall.write ~fd "keep" in
      let pid =
        Syscall.fork (fun () ->
            let _ = Syscall.close fd in
            ok ())
      in
      let _, _ = Syscall.waitpid pid in
      let p = Syscall.lseek ~fd ~off:0 Message.Seek_set in
      require (p = 0) 1;
      let r = Syscall.read ~fd ~len:8 in
      let _ = Syscall.close fd in
      let _ = Syscall.unlink "/tmp/f_iso" in
      match r with Ok "keep" -> ok () | _ -> fail 2)

let t_exec_keeps_fds () =
  (* /bin/readfd reads from fd given as arg and exits 0 on "mark". *)
  with_new_file "/tmp/f_execfd" (fun fd ->
      let _ = Syscall.write ~fd "mark" in
      let _ = Syscall.lseek ~fd ~off:0 Message.Seek_set in
      let pid = Syscall.fork (exec_child "/bin/readfd" fd) in
      let _, status = Syscall.waitpid pid in
      let _ = Syscall.close fd in
      let _ = Syscall.unlink "/tmp/f_execfd" in
      require (status = 0) 1;
      ok ())

let t_double_fork () =
  expect_child_status
    (fun () ->
       let pid2 = Syscall.fork (fun () -> Syscall.exit 5) in
       let _, status = Syscall.waitpid pid2 in
       Syscall.exit (if status = 5 then 0 else 1))
    0

let t_fork_file_positions () =
  (* Parent and child share the open-file offset (POSIX). *)
  with_new_file "/tmp/f_share" (fun fd ->
      let _ = Syscall.write ~fd "0123456789" in
      let _ = Syscall.lseek ~fd ~off:0 Message.Seek_set in
      let pid =
        Syscall.fork (fun () ->
            let r = Syscall.read ~fd ~len:3 in
            Syscall.exit (match r with Ok "012" -> 0 | _ -> 1))
      in
      let _, status = Syscall.waitpid pid in
      let r = Syscall.read ~fd ~len:3 in
      let _ = Syscall.close fd in
      let _ = Syscall.unlink "/tmp/f_share" in
      require (status = 0) 1;
      match r with Ok "345" -> ok () | _ -> fail 2)

let t_many_procs () =
  (* Grandchildren under several children: PM table churn. *)
  let rec spawn_tree depth () =
    if depth = 0 then ok ()
    else
      let pid = Syscall.fork (spawn_tree (depth - 1)) in
      let _, status = Syscall.waitpid pid in
      Syscall.exit status
  in
  expect_child_status (spawn_tree 5) 0

let t_file_via_ds_name () =
  (* A file whose name is coordinated through DS. *)
  let _ = Syscall.ds_publish ~key:"t.fname" ~value:4242 in
  match Syscall.ds_retrieve ~key:"t.fname" with
  | Ok tag ->
    let path = Printf.sprintf "/tmp/f_viads_%d" tag in
    with_new_file path (fun fd ->
        let _ = Syscall.write ~fd "indirect" in
        let _ = Syscall.close fd in
        let r = Syscall.stat path in
        let _ = Syscall.unlink path in
        let _ = Syscall.ds_delete ~key:"t.fname" in
        match r with Ok { Message.st_size = 8; _ } -> ok () | _ -> fail 1)
  | Error _ -> fail 2

let t_exec_missing_after_unlink () =
  (* Unlinking a binary makes exec fail path validation in VFS. *)
  let fd = Syscall.open_ "/bin/ephemeral" Message.creat in
  require_ok fd 1;
  let _ = Syscall.close fd in
  let _ = Syscall.unlink "/bin/ephemeral" in
  let pid =
    Syscall.fork (fun () ->
        let r = Syscall.exec "/bin/ephemeral" 0 in
        Syscall.exit (if r = Errno.to_code Errno.ENOENT then 0 else 1))
  in
  let _, status = Syscall.waitpid pid in
  require (status = 0) 2;
  ok ()

let t_pipeline_two_stage () =
  (* producer | consumer through a pipe, like a tiny shell pipeline. *)
  with_pipe (fun rfd wfd ->
      let producer =
        Syscall.fork (fun () ->
            let _ = Syscall.close rfd in
            for _ = 1 to 50 do
              ignore (Syscall.write ~fd:wfd "x")
            done;
            let _ = Syscall.close wfd in
            ok ())
      in
      let consumer =
        Syscall.fork (fun () ->
            let _ = Syscall.close wfd in
            let rec consume got =
              match Syscall.read ~fd:rfd ~len:16 with
              | Ok "" -> Syscall.exit (if got = 50 then 0 else 1)
              | Ok s -> consume (got + String.length s)
              | Error _ -> Syscall.exit 2
            in
            consume 0)
      in
      let _ = Syscall.close rfd in
      let _ = Syscall.close wfd in
      let _, s1 = Syscall.waitpid producer in
      let _, s2 = Syscall.waitpid consumer in
      require (s1 = 0) 2;
      require (s2 = 0) 3;
      ok ())

(* ------------------------------------------------------------------ *)
(* Additional coverage programs                                        *)
(* ------------------------------------------------------------------ *)

let t_dup_after_close () =
  (* A dup'd descriptor keeps the file alive after the original close. *)
  with_new_file "/tmp/f_dac" (fun fd ->
      let _ = Syscall.write ~fd "live" in
      let fd2 = Syscall.dup fd in
      let _ = Syscall.close fd in
      let p = Syscall.lseek ~fd:fd2 ~off:0 Message.Seek_set in
      require (p = 0) 1;
      let r = Syscall.read ~fd:fd2 ~len:8 in
      let _ = Syscall.close fd2 in
      let _ = Syscall.unlink "/tmp/f_dac" in
      match r with Ok "live" -> ok () | _ -> fail 2)

let t_rename_into_dir () =
  let _ = Syscall.mkdir "/tmp/d_rid" in
  with_new_file "/tmp/f_rid" (fun fd ->
      let _ = Syscall.write ~fd "mv" in
      let _ = Syscall.close fd in
      let r = Syscall.rename ~src:"/tmp/f_rid" ~dst:"/tmp/d_rid/f_rid" in
      require_ok r 1;
      let st = Syscall.stat "/tmp/d_rid/f_rid" in
      let _ = Syscall.unlink "/tmp/d_rid/f_rid" in
      let _ = Syscall.rmdir "/tmp/d_rid" in
      match st with Ok { Message.st_size = 2; _ } -> ok () | _ -> fail 2)

let t_lseek_past_eof_write () =
  (* Seeking past EOF and writing creates a sparse extension. *)
  with_new_file "/tmp/f_peof" (fun fd ->
      let _ = Syscall.write ~fd "ab" in
      let p = Syscall.lseek ~fd ~off:10 Message.Seek_end in
      require (p = 12) 1;
      let _ = Syscall.write ~fd "z" in
      let st = Syscall.fstat fd in
      let _ = Syscall.close fd in
      let _ = Syscall.unlink "/tmp/f_peof" in
      match st with Ok { Message.st_size = 13; _ } -> ok () | _ -> fail 2)

let t_stat_dir () =
  match Syscall.stat "/bin" with
  | Ok { Message.st_is_dir = true; _ } -> ok ()
  | _ -> fail 1

let t_stat_root () =
  match Syscall.stat "/" with
  | Ok { Message.st_ino = 0; st_is_dir = true; _ } -> ok ()
  | _ -> fail 1

let t_chdir_then_unlink_relative () =
  let _ = Syscall.mkdir "/tmp/d_rel" in
  let _ = Syscall.chdir "/tmp/d_rel" in
  let fd = Syscall.open_ "victim" Message.creat in
  require_ok fd 1;
  let _ = Syscall.close fd in
  let r = Syscall.unlink "victim" in
  let _ = Syscall.chdir "/" in
  let _ = Syscall.rmdir "/tmp/d_rel" in
  require_ok r 2;
  ok ()

let t_pipe_write_after_reader_exits () =
  (* EPIPE must also fire when the reading *process* exits, not only on
     an explicit close. *)
  with_pipe (fun rfd wfd ->
      let pid =
        Syscall.fork (fun () ->
            let _ = Syscall.close rfd in
            let _ = Syscall.close wfd in
            ok ())
      in
      let _, _ = Syscall.waitpid pid in
      let _ = Syscall.close rfd in
      let n = Syscall.write ~fd:wfd "dead" in
      let _ = Syscall.close wfd in
      require (n = Errno.to_code Errno.EPIPE) 2;
      ok ())

let t_exec_preserves_pid () =
  (* exec replaces the image but not the process identity: the parent
     waits on the same pid. *)
  let pid = Syscall.fork (exec_child "/bin/exitarg" 17) in
  let reaped, status = Syscall.waitpid pid in
  require (reaped = pid) 1;
  require (status = 17) 2;
  ok ()

let t_kill_self () =
  expect_child_status
    (fun () ->
       let me = Syscall.getpid () in
       let _ = Syscall.kill ~pid:me ~signal:15 in
       fail 9 (* unreachable: kill of self terminates *))
    (128 + 15)

let t_brk_reset_on_exec () =
  (* /bin/exitarg runs with a fresh image; our break must not leak into
     it. Verified indirectly: grow the break, exec, and the child's
     clean exit implies a sane address space. *)
  let pid =
    Syscall.fork (fun () ->
        let _ = Syscall.sbrk 100_000 in
        exec_child "/bin/exitarg" 0 ())
  in
  let _, status = Syscall.waitpid pid in
  require (status = 0) 1;
  let used, _ = Syscall.vm_info () in
  require (used < Vm.total_pages) 2;
  ok ()

let t_mmap_two_regions () =
  let id1 = Syscall.mmap ~len:8192 in
  let id2 = Syscall.mmap ~len:8192 in
  require_ok id1 1;
  require_ok id2 2;
  require (id1 <> id2) 3;
  let r1 = Syscall.munmap ~id:id1 in
  let r2 = Syscall.munmap ~id:id2 in
  require_ok r1 4;
  require_ok r2 5;
  ok ()

let t_munmap_foreign_region () =
  (* A region mapped by the child must not be unmappable by the parent. *)
  let id = Syscall.mmap ~len:4096 in
  require_ok id 1;
  let pid =
    Syscall.fork (fun () ->
        let r = Syscall.munmap ~id in
        Syscall.exit (if r = Errno.to_code Errno.EINVAL then 0 else 1))
  in
  let _, status = Syscall.waitpid pid in
  let _ = Syscall.munmap ~id in
  require (status = 0) 2;
  ok ()

let t_ds_capacity_pressure () =
  (* Fill a good chunk of DS and drain it again; capacity accounting
     must hold. *)
  let n = 24 in
  let rec fill i =
    i = 0
    || (Syscall.ds_publish ~key:(Printf.sprintf "t.cap%d" i) ~value:i >= 0
        && fill (i - 1))
  in
  let full = fill n in
  require full 1;
  for i = n downto 1 do
    let r = Syscall.ds_delete ~key:(Printf.sprintf "t.cap%d" i) in
    require_ok r 2
  done;
  ok ()

let t_signal_ignore () =
  (* An ignored SIGTERM does not kill; SIGKILL always does. *)
  let pid =
    Syscall.fork (fun () ->
        let r = Syscall.signal_ignore ~signal:15 true in
        if r < 0 then Syscall.exit 9 else spin ())
  in
  compute 100_000;
  let r1 = Syscall.kill ~pid ~signal:15 in
  require_ok r1 1;
  compute 50_000;
  (* still alive: SIGKILL it *)
  let r2 = Syscall.kill ~pid ~signal:9 in
  require_ok r2 2;
  let _, status = Syscall.waitpid pid in
  require (status = 128 + 9) 3;
  ok ()

let t_signal_prev_disposition () =
  let p0 = Syscall.signal_ignore ~signal:10 true in
  require (p0 = 0) 1;
  let p1 = Syscall.signal_ignore ~signal:10 false in
  require (p1 = 1) 2;
  let p2 = Syscall.signal_ignore ~signal:10 false in
  require (p2 = 0) 3;
  ok ()

let t_sigkill_not_ignorable () =
  let r = Syscall.signal_ignore ~signal:9 true in
  require (r = Errno.to_code Errno.EINVAL) 1;
  ok ()

let t_signal_mask_inherited () =
  let _ = Syscall.signal_ignore ~signal:15 true in
  let pid =
    Syscall.fork (fun () ->
        (* The child inherited the disposition: clearing it reports 1. *)
        let prev = Syscall.signal_ignore ~signal:15 false in
        Syscall.exit (if prev = 1 then 0 else 1))
  in
  let _, status = Syscall.waitpid pid in
  let _ = Syscall.signal_ignore ~signal:15 false in
  require (status = 0) 1;
  ok ()

let t_readdir_lists_children () =
  let _ = Syscall.mkdir "/tmp/d_ls" in
  let fd = Syscall.open_ "/tmp/d_ls/alpha" Message.creat in
  let _ = Syscall.close fd in
  let fd2 = Syscall.open_ "/tmp/d_ls/beta" Message.creat in
  let _ = Syscall.close fd2 in
  let names = Syscall.readdir "/tmp/d_ls" in
  let _ = Syscall.unlink "/tmp/d_ls/alpha" in
  let _ = Syscall.unlink "/tmp/d_ls/beta" in
  let _ = Syscall.rmdir "/tmp/d_ls" in
  match names with
  | Ok names ->
    require (List.mem "alpha" names && List.mem "beta" names
             && List.length names = 2) 1;
    ok ()
  | Error _ -> fail 2

let t_readdir_of_file_fails () =
  match Syscall.readdir "/etc/data" with
  | Error Errno.ENOTDIR -> ok ()
  | _ -> fail 1

let t_readdir_bin_nonempty () =
  match Syscall.readdir "/bin" with
  | Ok names ->
    require (List.length names > 50) 1;
    ok ()
  | Error _ -> fail 2

let t_dup2_basic () =
  with_new_file "/tmp/f_d2" (fun fd ->
      let _ = Syscall.write ~fd "second" in
      let r = Syscall.dup2 ~fd ~tofd:9 in
      require (r = 9) 1;
      let _ = Syscall.lseek ~fd:9 ~off:0 Message.Seek_set in
      let c = Syscall.read ~fd:9 ~len:8 in
      let _ = Syscall.close fd in
      let _ = Syscall.close 9 in
      let _ = Syscall.unlink "/tmp/f_d2" in
      match c with Ok "second" -> ok () | _ -> fail 2)

let t_dup2_closes_target () =
  with_new_file "/tmp/f_d2a" (fun fd_a ->
      let fd_b = Syscall.open_ "/tmp/f_d2b" Message.creat in
      require_ok fd_b 1;
      let _ = Syscall.write ~fd:fd_b "bee" in
      let r = Syscall.dup2 ~fd:fd_a ~tofd:fd_b in
      require (r = fd_b) 2;
      (* fd_b now refers to file A; writing through it must land in A *)
      let _ = Syscall.write ~fd:fd_b "aaa" in
      let st = Syscall.stat "/tmp/f_d2b" in
      let _ = Syscall.close fd_a in
      let _ = Syscall.close fd_b in
      let _ = Syscall.unlink "/tmp/f_d2a" in
      let _ = Syscall.unlink "/tmp/f_d2b" in
      match st with
      | Ok { Message.st_size = 3; _ } -> ok () (* B unchanged after close *)
      | _ -> fail 3)

let t_dup2_same_fd () =
  with_new_file "/tmp/f_d2s" (fun fd ->
      let r = Syscall.dup2 ~fd ~tofd:fd in
      let _ = Syscall.close fd in
      let _ = Syscall.unlink "/tmp/f_d2s" in
      require (r = fd) 1;
      ok ())

let t_indirect_blocks_file () =
  (* Cross the direct-block boundary (8 KiB with 1 KiB blocks) and read
     back both sides of it. *)
  with_new_file "/tmp/f_big2" (fun fd ->
      (* 20 KiB: 8 direct + 12 indirect blocks *)
      let okw = fill ~fd (String.make 1024 'i') 20 in
      require okw 1;
      match Syscall.fstat fd with
      | Ok { Message.st_size = 20480; _ } ->
        let _ = Syscall.lseek ~fd ~off:10_000 Message.Seek_set in
        let r = Syscall.read ~fd ~len:4 in
        let _ = Syscall.close fd in
        let _ = Syscall.unlink "/tmp/f_big2" in
        (match r with Ok "iiii" -> ok () | _ -> fail 2)
      | _ -> fail 3)

let t_indirect_blocks_freed () =
  (* Blocks of a large file must return to the free pool on unlink:
     write/delete twice and confirm the second pass still succeeds. *)
  let pass () =
    let fd = Syscall.open_ "/tmp/f_bigfree" Message.creat in
    if fd < 0 then false
    else
      let okw = fill ~fd (String.make 1024 'f') 30 in
      let _ = Syscall.close fd in
      let _ = Syscall.unlink "/tmp/f_bigfree" in
      okw
  in
  let ok1 = pass () in
  require ok1 1;
  let ok2 = pass () in
  require ok2 2;
  ok ()

(* ------------------------------------------------------------------ *)
(* Registry of all tests                                               *)
(* ------------------------------------------------------------------ *)

(* Auxiliary programs used by exec-based tests. *)
let aux_programs =
  [ ("/bin/true", fun _ -> Syscall.exit 0);
    ("/bin/false", fun _ -> Syscall.exit 1);
    ("/bin/exitarg", fun arg -> Syscall.exit arg);
    ("/bin/chain",
     fun arg ->
       if arg = 0 then Syscall.exit 0
       else
         let r = Syscall.exec "/bin/chain" (arg - 1) in
         Syscall.exit (if r < 0 then 9 else 8));
    ("/bin/readfd",
     fun fd ->
       let r = Syscall.read ~fd ~len:4 in
       Syscall.exit (match r with Ok "mark" -> 0 | _ -> 1)) ]

let tests =
  [ ("fork_basic", t_fork_basic);
    ("fork_status", t_fork_status);
    ("fork_many", t_fork_many);
    ("wait_any", t_wait_any);
    ("wait_blocks", t_wait_blocks);
    ("wait_no_child", t_wait_no_child);
    ("wait_wrong_pid", t_wait_wrong_pid);
    ("zombie_reap", t_zombie_reap);
    ("getpid", t_getpid);
    ("getppid", t_getppid);
    ("fork_pid_differs", t_fork_pid_differs);
    ("kill_child", t_kill_child);
    ("kill_no_target", t_kill_no_target);
    ("exec_child", t_exec_child);
    ("exec_status", t_exec_status);
    ("exec_arg", t_exec_arg);
    ("exec_enoent", t_exec_enoent);
    ("exec_chain", t_exec_chain);
    ("orphan", t_orphan);
    ("creat_write_read", t_creat_write_read);
    ("open_enoent", t_open_enoent);
    ("read_eof", t_read_eof);
    ("lseek_modes", t_lseek_modes);
    ("sparse_read", t_sparse_read);
    ("trunc_on_open", t_trunc_on_open);
    ("append", t_append);
    ("unlink_then_open", t_unlink_then_open);
    ("unlink_enoent", t_unlink_enoent);
    ("stat_file", t_stat_file);
    ("fstat", t_fstat);
    ("close_ebadf", t_close_ebadf);
    ("dup_shares_offset", t_dup_shares_offset);
    ("fd_exhaustion", t_fd_exhaustion);
    ("rename", t_rename);
    ("rename_overwrites", t_rename_overwrites);
    ("big_file", t_big_file);
    ("write_cross_block", t_write_cross_block);
    ("sync", t_sync);
    ("mkdir_rmdir", t_mkdir_rmdir);
    ("mkdir_eexist", t_mkdir_eexist);
    ("rmdir_notempty", t_rmdir_notempty);
    ("nested_dirs", t_nested_dirs);
    ("chdir_relative", t_chdir_relative);
    ("chdir_enotdir", t_chdir_enotdir);
    ("open_dir_fails", t_open_dir_fails);
    ("cwd_inherited", t_cwd_inherited);
    ("pipe_basic", t_pipe_basic);
    ("pipe_eof", t_pipe_eof);
    ("pipe_epipe", t_pipe_epipe);
    ("pipe_blocking_read", t_pipe_blocking_read);
    ("pipe_fill_drain", t_pipe_fill_drain);
    ("pipe_inherited", t_pipe_inherited);
    ("pipe_fstat", t_pipe_fstat);
    ("sbrk_grow", t_sbrk_grow);
    ("sbrk_shrink", t_sbrk_shrink);
    ("sbrk_negative_break", t_sbrk_negative_break);
    ("mmap_munmap", t_mmap_munmap);
    ("munmap_einval", t_munmap_einval);
    ("mmap_zero", t_mmap_zero);
    ("vm_fork_accounting", t_vm_fork_accounting);
    ("brk_inherited", t_brk_inherited);
    ("ds_roundtrip", t_ds_roundtrip);
    ("ds_overwrite", t_ds_overwrite);
    ("ds_missing", t_ds_missing);
    ("ds_delete_missing", t_ds_delete_missing);
    ("ds_bad_key", t_ds_bad_key);
    ("ds_many_keys", t_ds_many_keys);
    ("ds_subscribe_notify", t_ds_subscribe_notify);
    ("rs_status", t_rs_status);
    ("fork_fd_isolation", t_fork_fd_isolation);
    ("exec_keeps_fds", t_exec_keeps_fds);
    ("double_fork", t_double_fork);
    ("fork_file_positions", t_fork_file_positions);
    ("many_procs", t_many_procs);
    ("file_via_ds_name", t_file_via_ds_name);
    ("exec_missing_after_unlink", t_exec_missing_after_unlink);
    ("pipeline_two_stage", t_pipeline_two_stage);
    ("dup_after_close", t_dup_after_close);
    ("rename_into_dir", t_rename_into_dir);
    ("lseek_past_eof_write", t_lseek_past_eof_write);
    ("stat_dir", t_stat_dir);
    ("stat_root", t_stat_root);
    ("chdir_then_unlink_relative", t_chdir_then_unlink_relative);
    ("pipe_write_after_reader_exits", t_pipe_write_after_reader_exits);
    ("exec_preserves_pid", t_exec_preserves_pid);
    ("kill_self", t_kill_self);
    ("brk_reset_on_exec", t_brk_reset_on_exec);
    ("mmap_two_regions", t_mmap_two_regions);
    ("munmap_foreign_region", t_munmap_foreign_region);
    ("ds_capacity_pressure", t_ds_capacity_pressure);
    ("signal_ignore", t_signal_ignore);
    ("signal_prev_disposition", t_signal_prev_disposition);
    ("sigkill_not_ignorable", t_sigkill_not_ignorable);
    ("signal_mask_inherited", t_signal_mask_inherited);
    ("readdir_lists_children", t_readdir_lists_children);
    ("readdir_of_file_fails", t_readdir_of_file_fails);
    ("readdir_bin_nonempty", t_readdir_bin_nonempty);
    ("dup2_basic", t_dup2_basic);
    ("dup2_closes_target", t_dup2_closes_target);
    ("dup2_same_fd", t_dup2_same_fd);
    ("indirect_blocks_file", t_indirect_blocks_file);
    ("indirect_blocks_freed", t_indirect_blocks_freed) ]

let names = List.map fst tests

let register reg =
  List.iter (fun (path, f) -> Registry.register reg path f) aux_programs;
  List.iter
    (fun (name, prog) -> Registry.register reg ("/bin/t_" ^ name) (fun _ -> prog ()))
    tests

let driver () =
  List.iter
    (fun (name, _) ->
       let pid =
         Syscall.fork (fun () ->
             let r = Syscall.exec ("/bin/t_" ^ name) 0 in
             Syscall.exit (if r < 0 then 120 else 121))
       in
       let status = if pid < 0 then 125 else snd (Syscall.waitpid pid) in
       Syscall.print (Printf.sprintf "RESULT %s %d" name status))
    tests;
  Syscall.print "SUITE_DONE";
  Syscall.exit 0

type results = {
  passed : int;
  failed : int;
  complete : bool;
  failures : (string * int) list;
}

let parse_results lines =
  let passed = ref 0 and failed = ref 0 and complete = ref false in
  let failures = ref [] in
  List.iter
    (fun line ->
       if line = "SUITE_DONE" then complete := true
       else
         match String.split_on_char ' ' line with
         | [ "RESULT"; name; status ] ->
           (match int_of_string_opt status with
            | Some 0 -> incr passed
            | Some s ->
              incr failed;
              failures := (name, s) :: !failures
            | None -> ())
         | _ -> ())
    lines;
  { passed = !passed; failed = !failed; complete = !complete;
    failures = List.rev !failures }
