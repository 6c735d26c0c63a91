module Op = Kernel.Op

(* libc-level error-virtualization awareness: an E_CRASH reply means
   the serving component crashed inside an open recovery window and was
   rolled back; no state changed, so one transparent retry is safe and
   is what a well-written MINIX libc would do (cf. EINTR restart
   semantics). A second E_CRASH is surfaced to the caller. *)
let sys_call ?child dst msg =
  match Op.call ?child dst msg with
  | Message.R_err Errno.E_CRASH -> Op.call ?child dst msg
  | other -> other

let code_of_reply = function
  | Message.R_ok v -> v
  | Message.R_err e -> Errno.to_code e
  | _ -> Errno.to_code Errno.EIO

let code dst msg = code_of_reply (sys_call dst msg)

let fork child =
  match sys_call ~child Endpoint.pm Message.Fork with
  | Message.R_fork { child } -> child
  | other -> code_of_reply other

(* Only returns on failure: success replaces this program. *)
let exec path arg = code Endpoint.pm (Message.Exec { path; arg })

let exit status =
  (* Normally unreachable beyond the call: the kernel destroys the
     process before a reply could arrive. A reply can only mean PM
     crashed inside its recovery window while handling the exit — the
     rollback guarantees no side effects, so retrying is safe. *)
  let rec go () =
    ignore (Op.call Endpoint.pm (Message.Exit { status }));
    go ()
  in
  go ()

let waitpid pid =
  match sys_call Endpoint.pm (Message.Waitpid { pid }) with
  | Message.R_wait { pid; status } -> (pid, status)
  | other -> (code_of_reply other, 0)

let wait () = waitpid (-1)
let getpid () = code Endpoint.pm Message.Getpid
let getppid () = code Endpoint.pm Message.Getppid
let kill ~pid ~signal = code Endpoint.pm (Message.Kill { pid; signal })

let signal_ignore ~signal ignore =
  code Endpoint.pm (Message.Signal_set { signal; ignore })

let adopt () = code Endpoint.pm Message.Adopt
let open_ path flags = code Endpoint.vfs (Message.Open { path; flags })
let close fd = code Endpoint.vfs (Message.Close { fd })

let read ~fd ~len =
  match sys_call Endpoint.vfs (Message.Read { fd; len }) with
  | Message.R_read { data } -> Ok data
  | Message.R_err e -> Error e
  | _ -> Error Errno.EIO

let write ~fd data = code Endpoint.vfs (Message.Write { fd; data })

let lseek ~fd ~off whence =
  code Endpoint.vfs (Message.Lseek { fd; off; whence })

let pipe () =
  match sys_call Endpoint.vfs Message.Pipe with
  | Message.R_pipe { rfd; wfd } -> Ok (rfd, wfd)
  | Message.R_err e -> Error e
  | _ -> Error Errno.EIO

let dup fd = code Endpoint.vfs (Message.Dup { fd })
let dup2 ~fd ~tofd = code Endpoint.vfs (Message.Dup2 { fd; tofd })

let readdir path =
  match sys_call Endpoint.vfs (Message.Readdir { path }) with
  | Message.R_names { names } -> Ok names
  | Message.R_err e -> Error e
  | _ -> Error Errno.EIO

let unlink path = code Endpoint.vfs (Message.Unlink { path })
let mkdir path = code Endpoint.vfs (Message.Mkdir { path })
let rmdir path = code Endpoint.vfs (Message.Rmdir { path })
let rename ~src ~dst = code Endpoint.vfs (Message.Rename { src; dst })

let stat_reply = function
  | Message.R_stat info -> Ok info
  | Message.R_err e -> Error e
  | _ -> Error Errno.EIO

let stat path = stat_reply (sys_call Endpoint.vfs (Message.Stat { path }))
let fstat fd = stat_reply (sys_call Endpoint.vfs (Message.Fstat { fd }))
let chdir path = code Endpoint.vfs (Message.Chdir { path })
let sync () = code Endpoint.vfs Message.Sync

let brk_reply = function
  | Message.R_brk { break } -> break
  | other -> code_of_reply other

let sbrk delta = brk_reply (sys_call Endpoint.vm (Message.Brk { delta }))
let brk_current () = brk_reply (sys_call Endpoint.vm Message.Brk_query)

let mmap ~len =
  match sys_call Endpoint.vm (Message.Mmap { len }) with
  | Message.R_mmap { id } -> id
  | other -> code_of_reply other

let munmap ~id = code Endpoint.vm (Message.Munmap { id })

let vm_info () =
  match sys_call Endpoint.vm Message.Vm_info with
  | Message.R_vm_info { pages_used; pages_free } -> (pages_used, pages_free)
  | other -> (code_of_reply other, 0)

let ds_publish ~key ~value =
  code Endpoint.ds (Message.Ds_publish { key; value })

let ds_retrieve ~key =
  match sys_call Endpoint.ds (Message.Ds_retrieve { key }) with
  | Message.R_ds_value { value } -> Ok value
  | Message.R_err e -> Error e
  | _ -> Error Errno.EIO

let ds_delete ~key = code Endpoint.ds (Message.Ds_delete { key })
let ds_subscribe ~prefix = code Endpoint.ds (Message.Ds_subscribe { prefix })

let rs_status () =
  match sys_call Endpoint.rs Message.Rs_status with
  | Message.R_rs_status { restarts; shutdowns; services } ->
    Ok (restarts, shutdowns, services)
  | Message.R_err e -> Error e
  | _ -> Error Errno.EIO

let print line = Op.send Endpoint.kernel (Message.Diag { line })
