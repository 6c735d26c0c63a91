let max_procs = 64
let name_len = 16

let st_free = 0
let st_alive = 1
let st_zombie = 2

(* Table VI: PM base usage 628 kB. *)
let image_kb = 628

(* Size passed to VM on exec; our simulated binaries are small. *)
let exec_image_bytes = 65536

type t = {
  image : Memimage.t;
  procs : Layout.Table.t;
  f_state : Layout.int_field;
  f_ep : Layout.int_field;
  f_parent : Layout.int_field;
  f_status : Layout.int_field;
  f_wait_for : Layout.int_field;  (* 0 none, -1 any child, >0 that pid *)
  f_ignmask : Layout.int_field;   (* bit s set = signal s ignored *)
  f_name : Layout.str_field;
  c_forks : Layout.Cell.t;
  c_execs : Layout.Cell.t;
  c_exits : Layout.Cell.t;
}

let create () =
  let image = Memimage.create ~name:"pm" ~size:(image_kb * 1024) in
  let spec = Layout.spec () in
  let f_state = Layout.int spec "state" in
  let f_ep = Layout.int spec "ep" in
  let f_parent = Layout.int spec "parent" in
  let f_status = Layout.int spec "status" in
  let f_wait_for = Layout.int spec "wait_for" in
  let f_ignmask = Layout.int spec "ignmask" in
  let f_name = Layout.str spec "name" ~len:name_len in
  Layout.seal spec;
  let procs = Layout.Table.alloc image ~spec ~rows:max_procs in
  let c_forks = Layout.Cell.alloc_int image "forks" in
  let c_execs = Layout.Cell.alloc_int image "execs" in
  let c_exits = Layout.Cell.alloc_int image "exits" in
  { image; procs; f_state; f_ep; f_parent; f_status; f_wait_for; f_ignmask;
    f_name; c_forks; c_execs; c_exits }

module Op = Kernel.Op
module Mem = Kernel.Op.Mem

let find_by_ep t ?(state = st_alive) ep =
  Mem.(scan t.procs ~rows:max_procs
         (Int_eq (t.f_state, state, Int_eq (t.f_ep, ep, Hit))))

let find_free t =
  Mem.(scan t.procs ~rows:max_procs (Int_eq (t.f_state, st_free, Hit)))

let set_row t ~row ~state ~ep ~parent ~name =
  Mem.set_int t.procs ~row t.f_state state;
  Mem.set_int t.procs ~row t.f_ep ep;
  Mem.set_int t.procs ~row t.f_parent parent;
  Mem.set_int t.procs ~row t.f_status 0;
  Mem.set_int t.procs ~row t.f_wait_for 0;
  Mem.set_int t.procs ~row t.f_ignmask 0;
  Mem.set_str t.procs ~row t.f_name name

(* Deliver the exit status of [child_ep] to its parent: either wake a
   parent blocked in waitpid (deferred reply) or leave a zombie. Orphans
   (parent gone) are reaped immediately. *)
let settle_exit t ~child_row ~child_ep ~status =
  let parent = Mem.get_int t.procs ~row:child_row t.f_parent in
  match if parent = 0 then None else find_by_ep t parent with
  | None ->
    (* No live parent: reap immediately. *)
    Mem.set_int t.procs ~row:child_row t.f_state st_free
  | Some prow ->
    let wait_for = Mem.get_int t.procs ~row:prow t.f_wait_for in
    if wait_for = -1 || wait_for = child_ep then begin
      Mem.set_int t.procs ~row:prow t.f_wait_for 0;
      Mem.set_int t.procs ~row:child_row t.f_state st_free;
      Op.reply parent (Message.R_wait { pid = child_ep; status })
    end
    else begin
      Mem.set_int t.procs ~row:child_row t.f_state st_zombie;
      Mem.set_int t.procs ~row:child_row t.f_status status
    end

(* Reparent children of a dying process to "nobody" and reap any that
   were already zombies (no one can wait for them anymore). *)
let reparent_children t ~dead_ep =
  let children = Mem.(Int_ne (t.f_state, st_free, Int_eq (t.f_parent, dead_ep, Hit))) in
  let from = ref 0 in
  while !from < max_procs do
    match Mem.scan_from t.procs ~rows:max_procs ~from:!from children with
    | None -> from := max_procs
    | Some row ->
      (* The state the walk loaded: the C loop holds it in a register,
         so reading it back is no simulated load. *)
      if Layout.Table.get_int t.procs ~row t.f_state = st_zombie then
        Mem.set_int t.procs ~row t.f_state st_free
      else Mem.set_int t.procs ~row t.f_parent 0;
      from := row + 1
  done

(* Full exit path: VM teardown, VFS teardown, kernel destruction, and
   parent notification. Used by exit(), kill() and abnormal
   termination. *)
let do_exit t ~target_ep ~row ~status =
  (* Local bookkeeping first (recoverable while the window is open),
     then the teardown calls that make the exit visible to VM/VFS. *)
  let n = Mem.get_cell t.c_exits in
  Mem.set_cell t.c_exits (n + 1);
  reparent_children t ~dead_ep:target_ep;
  Srvlib.diag "pm: exit";
  (* Teardown must not leak when a peer crashes mid-call: an E_CRASH
     reply means the rolled-back peer did nothing, so retry. *)
  ignore (Srvlib.call_retry Endpoint.vm (Message.Vm_exit { proc = target_ep }));
  ignore (Srvlib.call_retry Endpoint.vfs (Message.Vfs_exit { proc = target_ep }));
  ignore (Op.kcall (Prog.K_kill { proc = target_ep; status }));
  settle_exit t ~child_row:row ~child_ep:target_ep ~status

(* The first zombie (or live) child of [parent]. *)
let find_child t ~state ~parent =
  Mem.(scan t.procs ~rows:max_procs
         (Int_eq (t.f_state, state, Int_eq (t.f_parent, parent, Hit))))

let handle t src msg =
  match msg with
  | Message.Fork ->
    let urow = find_by_ep t src in
    Srvlib.diag "pm: fork";
    (match urow with
     | None -> Srvlib.reply_err src Errno.ESRCH
     | Some urow ->
       match find_free t with
       | None -> Srvlib.reply_err src Errno.EAGAIN
       | Some row ->
         match Op.kcall (Prog.K_fork { parent = src }) with
         | Prog.Kr_ep child ->
           let pname = Mem.get_str t.procs ~row:urow t.f_name in
           set_row t ~row ~state:st_alive ~ep:child ~parent:src ~name:pname;
           (* POSIX: the child inherits signal dispositions. *)
           let pmask = Mem.get_int t.procs ~row:urow t.f_ignmask in
           Mem.set_int t.procs ~row t.f_ignmask pmask;
           let n = Mem.get_cell t.c_forks in
           Mem.set_cell t.c_forks (n + 1);
           let vr = Op.call Endpoint.vm (Message.Vm_fork { parent = src; child }) in
           (match Srvlib.err_of_reply vr with
            | Some e ->
              Mem.set_int t.procs ~row t.f_state st_free;
              ignore (Op.kcall (Prog.K_kill { proc = child; status = 0 }));
              Srvlib.reply_err src e
            | None ->
              let fr =
                Op.call Endpoint.vfs (Message.Vfs_fork { parent = src; child })
              in
              match Srvlib.err_of_reply fr with
              | Some e ->
                ignore (Op.call Endpoint.vm (Message.Vm_exit { proc = child }));
                Mem.set_int t.procs ~row t.f_state st_free;
                ignore (Op.kcall (Prog.K_kill { proc = child; status = 0 }));
                Srvlib.reply_err src e
              | None ->
                ignore (Op.kcall (Prog.K_go child));
                Op.reply src (Message.R_fork { child }))
         | _ -> Srvlib.reply_err src Errno.EAGAIN)
  | Message.Adopt ->
    (* Open-loop load engine: a kernel-spawned request process
       introduces itself before issuing syscalls — the session-connect
       step.  Registered as a primordial orphan (parent 0) so its exit
       reaps the row immediately; a full table sheds the request with
       EAGAIN, which is what saturation looks like to an open-loop
       client. *)
    let urow = find_by_ep t src in
    Srvlib.diag "pm: adopt";
    (match urow with
     | Some _ -> Srvlib.reply_err src Errno.EEXIST
     | None ->
       match find_free t with
       | None -> Srvlib.reply_err src Errno.EAGAIN
       | Some row ->
         set_row t ~row ~state:st_alive ~ep:src ~parent:0 ~name:"load";
         let vr = Op.call Endpoint.vm (Message.Vm_fork { parent = 0; child = src }) in
         (match Srvlib.err_of_reply vr with
          | Some e ->
            Mem.set_int t.procs ~row t.f_state st_free;
            Srvlib.reply_err src e
          | None ->
            let fr =
              Op.call Endpoint.vfs (Message.Vfs_fork { parent = 0; child = src })
            in
            match Srvlib.err_of_reply fr with
            | Some e ->
              ignore (Op.call Endpoint.vm (Message.Vm_exit { proc = src }));
              Mem.set_int t.procs ~row t.f_state st_free;
              Srvlib.reply_err src e
            | None -> Srvlib.reply_ok src 0))
  | Message.Exec { path; arg } ->
    let urow = find_by_ep t src in
    Srvlib.diag "pm: exec";
    (match urow with
     | None -> Srvlib.reply_err src Errno.ESRCH
     | Some row ->
       let vr = Op.call Endpoint.vfs (Message.Vfs_exec { proc = src; path }) in
       match Srvlib.err_of_reply vr with
       | Some e -> Srvlib.reply_err src e
       | None ->
         let mr =
           Op.call Endpoint.vm (Message.Vm_exec { proc = src; size = exec_image_bytes })
         in
         match Srvlib.err_of_reply mr with
         | Some e -> Srvlib.reply_err src e
         | None ->
           match Op.kcall (Prog.K_exec { proc = src; path; arg }) with
           | Prog.Kr_ok ->
             let base = Filename.basename path in
             let base =
               if String.length base >= name_len then String.sub base 0 (name_len - 1)
               else base
             in
             Mem.set_str t.procs ~row t.f_name base;
             let n = Mem.get_cell t.c_execs in
             Mem.set_cell t.c_execs (n + 1)
             (* No reply: the new program image is now running. *)
           | _ -> Srvlib.reply_err src Errno.ENOENT)
  | Message.Exit { status } ->
    (match find_by_ep t src with
     | None ->
       (* Unknown caller (e.g. after stateless PM recovery lost the
          table): destroy it anyway so it does not linger. *)
       ignore (Op.kcall (Prog.K_kill { proc = src; status }))
     | Some row -> do_exit t ~target_ep:src ~row ~status)
  | Message.Waitpid { pid } ->
    (match find_by_ep t src with
     | None -> Srvlib.reply_err src Errno.ESRCH
     | Some urow ->
       if pid = -1 then
         match find_child t ~state:st_zombie ~parent:src with
         | Some row ->
           let child = Mem.get_int t.procs ~row t.f_ep in
           let status = Mem.get_int t.procs ~row t.f_status in
           Mem.set_int t.procs ~row t.f_state st_free;
           Op.reply src (Message.R_wait { pid = child; status })
         | None ->
           match find_child t ~state:st_alive ~parent:src with
           | None -> Srvlib.reply_err src Errno.ECHILD
           | Some _ ->
             (* Block the caller until a child exits. *)
             Mem.set_int t.procs ~row:urow t.f_wait_for (-1)
       else
         let crow = find_by_ep t pid in
         let zrow = find_by_ep t ~state:st_zombie pid in
         match crow, zrow with
         | None, None -> Srvlib.reply_err src Errno.ECHILD
         | _, Some row ->
           if Mem.get_int t.procs ~row t.f_parent <> src then
             Srvlib.reply_err src Errno.ECHILD
           else begin
             let status = Mem.get_int t.procs ~row t.f_status in
             Mem.set_int t.procs ~row t.f_state st_free;
             Op.reply src (Message.R_wait { pid; status })
           end
         | Some row, None ->
           if Mem.get_int t.procs ~row t.f_parent <> src then
             Srvlib.reply_err src Errno.ECHILD
           else Mem.set_int t.procs ~row:urow t.f_wait_for pid)
  | Message.Getpid ->
    (match find_by_ep t src with
     | None -> Srvlib.reply_err src Errno.ESRCH
     | Some _ -> Srvlib.reply_ok src src)
  | Message.Getppid ->
    (match find_by_ep t src with
     | None -> Srvlib.reply_err src Errno.ESRCH
     | Some row -> Srvlib.reply_ok src (Mem.get_int t.procs ~row t.f_parent))
  | Message.Kill { pid; signal } ->
    let urow = find_by_ep t src in
    Srvlib.diag "pm: kill";
    (match urow with
     | None -> Srvlib.reply_err src Errno.ESRCH
     | Some _ ->
       match find_by_ep t pid with
       | None -> Srvlib.reply_err src Errno.ESRCH
       | Some row ->
         let ignmask = Mem.get_int t.procs ~row t.f_ignmask in
         if signal <> 9 && signal >= 0 && signal < 62
            && ignmask land (1 lsl signal) <> 0
         then
           (* Target ignores this signal; delivery is a no-op.
              SIGKILL is never ignorable. *)
           Srvlib.reply_ok src 0
         else
           let status = 128 + signal in
           if pid = src then do_exit t ~target_ep:src ~row ~status
           else begin
             ignore (Op.kcall (Prog.K_kill { proc = pid; status }));
             do_exit t ~target_ep:pid ~row ~status;
             Srvlib.reply_ok src 0
           end)
  | Message.Signal_set { signal; ignore } ->
    (match find_by_ep t src with
     | None -> Srvlib.reply_err src Errno.ESRCH
     | Some row ->
       if signal = 9 || signal < 1 || signal >= 62 then
         Srvlib.reply_err src Errno.EINVAL
       else begin
         let mask = Mem.get_int t.procs ~row t.f_ignmask in
         let prev = if mask land (1 lsl signal) <> 0 then 1 else 0 in
         let nmask =
           if ignore then mask lor (1 lsl signal) else mask land lnot (1 lsl signal)
         in
         Mem.set_int t.procs ~row t.f_ignmask nmask;
         Srvlib.reply_ok src prev
       end)
  | Message.Ping -> Op.reply src Message.R_pong
  | _ -> Srvlib.reply_err src Errno.ENOSYS

(* Boot: install the primordial workload root in the process table and
   make it known to VM and VFS. *)
let init t () =
  let root = Endpoint.first_user in
  set_row t ~row:0 ~state:st_alive ~ep:root ~parent:0 ~name:"init";
  Mem.set_cell t.c_forks 0;
  Mem.set_cell t.c_execs 0;
  Mem.set_cell t.c_exits 0;
  ignore (Op.call Endpoint.vm (Message.Vm_fork { parent = 0; child = root }));
  ignore (Op.call Endpoint.vfs (Message.Vfs_fork { parent = 0; child = root }))

let server t =
  { Kernel.srv_ep = Endpoint.pm;
    srv_name = "pm";
    srv_image = t.image;
    srv_clone_extra_kb = 316;
    srv_init = init t;
    srv_loop = Srvlib.simple_loop (handle t);
    srv_multithreaded = false }

let summary =
  let diag_out = (Endpoint.kernel, Message.Tag.T_diag) in
  let vm_fork = (Endpoint.vm, Message.Tag.T_vm_fork) in
  let vm_exec = (Endpoint.vm, Message.Tag.T_vm_exec) in
  let vm_exit = (Endpoint.vm, Message.Tag.T_vm_exit) in
  let vfs_fork = (Endpoint.vfs, Message.Tag.T_vfs_fork) in
  let vfs_exec = (Endpoint.vfs, Message.Tag.T_vfs_exec) in
  let vfs_exit = (Endpoint.vfs, Message.Tag.T_vfs_exit) in
  Summary.make Endpoint.pm
    [ Summary.handler Message.Tag.T_fork
        [ Summary.seg ~out:diag_out 70; Summary.seg 70;
          Summary.seg ~out:vm_fork 20; Summary.seg ~out:vfs_fork 5;
          Summary.seg 10 ];
      Summary.handler Message.Tag.T_exec
        [ Summary.seg ~out:diag_out 70; Summary.seg ~out:vfs_exec 2;
          Summary.seg ~out:vm_exec 5; Summary.seg 10 ];
      Summary.handler ~replies:false Message.Tag.T_exit
        [ Summary.seg ~out:diag_out 205; Summary.seg ~out:vm_exit 2;
          Summary.seg ~out:vfs_exit 5; Summary.seg 90 ];
      Summary.handler Message.Tag.T_adopt
        [ Summary.seg ~out:diag_out 70; Summary.seg 70;
          Summary.seg ~out:vm_fork 20; Summary.seg ~out:vfs_fork 5;
          Summary.seg 10 ];
      Summary.handler Message.Tag.T_waitpid [ Summary.seg 180 ];
      Summary.handler Message.Tag.T_getpid [ Summary.seg 70 ];
      Summary.handler Message.Tag.T_signal_set [ Summary.seg 75 ];
      Summary.handler Message.Tag.T_getppid [ Summary.seg 72 ];
      Summary.handler Message.Tag.T_kill
        [ Summary.seg ~out:diag_out 70; Summary.seg 70;
          Summary.seg ~out:vm_exit 5; Summary.seg ~out:vfs_exit 5;
          Summary.seg 200 ];
      Summary.handler Message.Tag.T_ping [ Summary.seg 1 ] ]
