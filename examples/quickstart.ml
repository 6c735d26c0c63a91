(* Quickstart: boot the simulated compartmentalized OS, run a small
   user program against it, and look at what the servers did.

     dune exec examples/quickstart.exe

   The program is the simulation's "init": it forks a child, execs a
   shell pipeline, exercises files and the key-value store, and exits.
   Everything is deterministic — run it twice and you get the same
   virtual timeline. *)

let my_program () =
  (* 1. A file: create, write, read back. *)
  let fd = Syscall.open_ "/tmp/greeting" Message.creat in
  let _ = Syscall.write ~fd "hello from userland" in
  let _ = Syscall.lseek ~fd ~off:0 Message.Seek_set in
  let contents = Syscall.read ~fd ~len:64 in
  let _ = Syscall.close fd in
  Syscall.print
    (match contents with
     | Ok s -> "read back: " ^ s
     | Error e -> "read failed: " ^ Errno.to_string e);
  (* 2. A child process running a registered binary. *)
  let pid =
    Syscall.fork (fun () ->
        let _ = Syscall.exec "/bin/sh" 0 in
        Syscall.exit 9)
  in
  let _, status = Syscall.waitpid pid in
  Syscall.print (Printf.sprintf "shell child exited with %d" status);
  (* 3. The data store. *)
  let _ = Syscall.ds_publish ~key:"example.answer" ~value:42 in
  let v = Syscall.ds_retrieve ~key:"example.answer" in
  Syscall.print
    (match v with
     | Ok v -> Printf.sprintf "ds says: %d" v
     | Error e -> "ds error: " ^ Errno.to_string e);
  Syscall.exit 0

let () =
  print_endline "booting OSIRIS (enhanced recovery policy)...";
  let sys = System.build (Sysconf.uniform Policy.enhanced) in
  let halt = System.run sys ~root:my_program in
  List.iter (fun line -> print_endline ("  [console] " ^ line)) (System.log_lines sys);
  Printf.printf "halted: %s after %d simulated cycles (%.3f ms of virtual time)\n"
    (Kernel.halt_to_string halt)
    (Kernel.now (System.kernel sys))
    (1000. *. Costs.cycles_to_seconds (Kernel.now (System.kernel sys)));
  print_endline "per-server activity:";
  List.iter
    (fun ep ->
       let s = Kernel.server_stats (System.kernel sys) ep in
       Printf.printf "  %-4s %6d ops, %5.1f%% inside recovery windows, %d checkpoints\n"
         s.Kernel.ss_name s.Kernel.ss_ops_total
         (100.
          *. float_of_int s.Kernel.ss_ops_in_window
          /. float_of_int (max 1 s.Kernel.ss_ops_total))
         s.Kernel.ss_window_opens)
    System.core_servers
