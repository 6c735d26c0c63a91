type whence = Seek_set | Seek_cur | Seek_end [@@deriving show, eq]

type open_flags = { o_create : bool; o_trunc : bool; o_append : bool }
[@@deriving show, eq]

let rdonly = { o_create = false; o_trunc = false; o_append = false }
let creat = { o_create = true; o_trunc = true; o_append = false }

type stat_info = { st_ino : int; st_size : int; st_is_dir : bool }
[@@deriving show, eq]

type t =
  | Fork
  | Exec of { path : string; arg : int }
  | Exit of { status : int }
  | Waitpid of { pid : int }
  | Getpid
  | Getppid
  | Kill of { pid : int; signal : int }
  | Signal_set of { signal : int; ignore : bool }
  | Adopt
  | Vm_fork of { parent : int; child : int }
  | Vm_exec of { proc : int; size : int }
  | Vm_exit of { proc : int }
  | Vfs_fork of { parent : int; child : int }
  | Vfs_exec of { proc : int; path : string }
  | Vfs_exit of { proc : int }
  | Open of { path : string; flags : open_flags }
  | Close of { fd : int }
  | Read of { fd : int; len : int }
  | Write of { fd : int; data : string }
  | Lseek of { fd : int; off : int; whence : whence }
  | Pipe
  | Dup of { fd : int }
  | Unlink of { path : string }
  | Mkdir of { path : string }
  | Rmdir of { path : string }
  | Stat of { path : string }
  | Fstat of { fd : int }
  | Rename of { src : string; dst : string }
  | Chdir of { path : string }
  | Readdir of { path : string }
  | Dup2 of { fd : int; tofd : int }
  | Sync
  | Mfs_lookup of { path : string }
  | Mfs_create of { path : string }
  | Mfs_read of { ino : int; off : int; len : int }
  | Mfs_write of { ino : int; off : int; data : string }
  | Mfs_trunc of { ino : int; len : int }
  | Mfs_unlink of { path : string }
  | Mfs_mkdir of { path : string }
  | Mfs_rmdir of { path : string }
  | Mfs_stat of { ino : int }
  | Mfs_readdir of { ino : int }
  | Mfs_rename of { src : string; dst : string }
  | Mfs_sync
  | Bdev_read of { block : int }
  | Bdev_write of { block : int; data : string }
  | Brk of { delta : int }
  | Brk_query
  | Mmap of { len : int }
  | Munmap of { id : int }
  | Vm_info
  | Ds_publish of { key : string; value : int }
  | Ds_retrieve of { key : string }
  | Ds_delete of { key : string }
  | Ds_subscribe of { prefix : string }
  | Ds_notify of { key : string }
  | Rs_status
  | Rs_lookup of { label : string }
  | Ping
  | Crash_notify of { ep : int; reason : string }
  | Alarm
  | Diag of { line : string }
  | R_ok of int
  | R_err of Errno.t
  | R_fork of { child : int }
  | R_wait of { pid : int; status : int }
  | R_read of { data : string }
  | R_pipe of { rfd : int; wfd : int }
  | R_stat of stat_info
  | R_lookup of { ino : int; size : int; is_dir : bool }
  | R_ds_value of { value : int }
  | R_brk of { break : int }
  | R_mmap of { id : int }
  | R_vm_info of { pages_used : int; pages_free : int }
  | R_rs_status of { restarts : int; shutdowns : int; services : int }
  | R_names of { names : string list }
  | R_pong
[@@deriving show, eq]

module Tag = struct
  type msg = t

  type t =
    | T_fork | T_exec | T_exit | T_waitpid | T_getpid | T_getppid | T_kill
    | T_signal_set | T_adopt
    | T_vm_fork | T_vm_exec | T_vm_exit
    | T_vfs_fork | T_vfs_exec | T_vfs_exit
    | T_open | T_close | T_read | T_write | T_lseek | T_pipe | T_dup
    | T_unlink | T_mkdir | T_rmdir | T_stat | T_fstat | T_rename | T_chdir
    | T_readdir | T_dup2
    | T_sync
    | T_mfs_lookup | T_mfs_create | T_mfs_read | T_mfs_write | T_mfs_trunc
    | T_mfs_unlink | T_mfs_mkdir | T_mfs_rmdir | T_mfs_stat | T_mfs_readdir
    | T_mfs_rename
    | T_mfs_sync
    | T_bdev_read | T_bdev_write
    | T_brk | T_brk_query | T_mmap | T_munmap | T_vm_info
    | T_ds_publish | T_ds_retrieve | T_ds_delete | T_ds_subscribe | T_ds_notify
    | T_rs_status | T_rs_lookup | T_ping
    | T_crash_notify | T_alarm | T_diag
    | T_kcall  (* pseudo-tag: privileged kernel call (no message form) *)
    | T_reply
  [@@deriving show, eq]

  let of_msg = function
    | Fork -> T_fork
    | Exec _ -> T_exec
    | Exit _ -> T_exit
    | Waitpid _ -> T_waitpid
    | Getpid -> T_getpid
    | Getppid -> T_getppid
    | Kill _ -> T_kill
    | Signal_set _ -> T_signal_set
    | Adopt -> T_adopt
    | Vm_fork _ -> T_vm_fork
    | Vm_exec _ -> T_vm_exec
    | Vm_exit _ -> T_vm_exit
    | Vfs_fork _ -> T_vfs_fork
    | Vfs_exec _ -> T_vfs_exec
    | Vfs_exit _ -> T_vfs_exit
    | Open _ -> T_open
    | Close _ -> T_close
    | Read _ -> T_read
    | Write _ -> T_write
    | Lseek _ -> T_lseek
    | Pipe -> T_pipe
    | Dup _ -> T_dup
    | Unlink _ -> T_unlink
    | Mkdir _ -> T_mkdir
    | Rmdir _ -> T_rmdir
    | Stat _ -> T_stat
    | Fstat _ -> T_fstat
    | Rename _ -> T_rename
    | Chdir _ -> T_chdir
    | Readdir _ -> T_readdir
    | Dup2 _ -> T_dup2
    | Sync -> T_sync
    | Mfs_lookup _ -> T_mfs_lookup
    | Mfs_create _ -> T_mfs_create
    | Mfs_read _ -> T_mfs_read
    | Mfs_write _ -> T_mfs_write
    | Mfs_trunc _ -> T_mfs_trunc
    | Mfs_unlink _ -> T_mfs_unlink
    | Mfs_mkdir _ -> T_mfs_mkdir
    | Mfs_rmdir _ -> T_mfs_rmdir
    | Mfs_stat _ -> T_mfs_stat
    | Mfs_readdir _ -> T_mfs_readdir
    | Mfs_rename _ -> T_mfs_rename
    | Mfs_sync -> T_mfs_sync
    | Bdev_read _ -> T_bdev_read
    | Bdev_write _ -> T_bdev_write
    | Brk _ -> T_brk
    | Brk_query -> T_brk_query
    | Mmap _ -> T_mmap
    | Munmap _ -> T_munmap
    | Vm_info -> T_vm_info
    | Ds_publish _ -> T_ds_publish
    | Ds_retrieve _ -> T_ds_retrieve
    | Ds_delete _ -> T_ds_delete
    | Ds_subscribe _ -> T_ds_subscribe
    | Ds_notify _ -> T_ds_notify
    | Rs_status -> T_rs_status
    | Rs_lookup _ -> T_rs_lookup
    | Ping -> T_ping
    | Crash_notify _ -> T_crash_notify
    | Alarm -> T_alarm
    | Diag _ -> T_diag
    | R_ok _ | R_err _ | R_fork _ | R_wait _ | R_read _ | R_pipe _ | R_stat _
    | R_lookup _ | R_ds_value _ | R_brk _ | R_mmap _ | R_vm_info _
    | R_rs_status _ | R_names _ | R_pong -> T_reply

  let all =
    [ T_fork; T_exec; T_exit; T_waitpid; T_getpid; T_getppid; T_kill;
      T_signal_set; T_adopt;
      T_vm_fork; T_vm_exec; T_vm_exit;
      T_vfs_fork; T_vfs_exec; T_vfs_exit;
      T_open; T_close; T_read; T_write; T_lseek; T_pipe; T_dup;
      T_unlink; T_mkdir; T_rmdir; T_stat; T_fstat; T_rename; T_chdir;
      T_readdir; T_dup2;
      T_sync;
      T_mfs_lookup; T_mfs_create; T_mfs_read; T_mfs_write; T_mfs_trunc;
      T_mfs_unlink; T_mfs_mkdir; T_mfs_rmdir; T_mfs_stat; T_mfs_readdir;
      T_mfs_rename;
      T_mfs_sync;
      T_bdev_read; T_bdev_write;
      T_brk; T_brk_query; T_mmap; T_munmap; T_vm_info;
      T_ds_publish; T_ds_retrieve; T_ds_delete; T_ds_subscribe; T_ds_notify;
      T_rs_status; T_rs_lookup; T_ping;
      T_crash_notify; T_alarm; T_diag;
      T_kcall;
      T_reply ]

  (* Dense codec ids, declaration order. Tags are nullary constructors,
     so the runtime already represents them as exactly these ids; the
     cast makes [to_index] free on the journal's encode hot path, and
     the init-time check below fails loudly if a constructor is ever
     added out of order or given an argument. *)
  let by_index : t array = Array.of_list all

  let n_tags = Array.length by_index

  let to_index (tag : t) : int = Obj.magic tag

  let () =
    Array.iteri
      (fun i tag ->
         if to_index tag <> i then
           failwith "Message.Tag: constructor representation skew")
      by_index

  let of_index i =
    if i >= 0 && i < n_tags then Some by_index.(i) else None

  (* Each tag's name, built once: [show] goes through [Format]. *)
  let names =
    Array.map
      (fun t ->
         (* show produces "Message.Tag.T_fork"; strip to "fork". *)
         let s = show t in
         let s =
           match String.rindex_opt s '.' with
           | Some i -> String.sub s (i + 1) (String.length s - i - 1)
           | None -> s
         in
         if String.length s > 2 && String.sub s 0 2 = "T_" then
           String.sub s 2 (String.length s - 2)
         else s)
      by_index

  let to_string t = names.(to_index t)
end

let is_reply m = Tag.of_msg m = Tag.T_reply

(* Deterministic, structure-preserving corruption for the full-EDFI
   fault model. Integers are skewed (off-by-one or sign flip), strings
   are truncated or get a character flipped. *)
let corrupt rng m =
  let ci v =
    match Osiris_util.Rng.int rng 3 with
    | 0 -> v + 1
    | 1 -> v - 1
    | _ -> -v
  in
  let cs s =
    if String.length s = 0 then "x"
    else
      match Osiris_util.Rng.int rng 2 with
      | 0 -> String.sub s 0 (String.length s - 1)
      | _ ->
        let b = Bytes.of_string s in
        let i = Osiris_util.Rng.int rng (Bytes.length b) in
        Bytes.set b i (Char.chr ((Char.code (Bytes.get b i) + 1) land 0x7f));
        Bytes.to_string b
  in
  match m with
  | Fork -> Fork
  | Exec { path; arg } ->
    if Osiris_util.Rng.bool rng then Exec { path = cs path; arg }
    else Exec { path; arg = ci arg }
  | Exit { status } -> Exit { status = ci status }
  | Waitpid { pid } -> Waitpid { pid = ci pid }
  | Getpid -> Getpid
  | Getppid -> Getppid
  | Kill { pid; signal } ->
    if Osiris_util.Rng.bool rng then Kill { pid = ci pid; signal }
    else Kill { pid; signal = ci signal }
  | Signal_set { signal; ignore } -> Signal_set { signal = ci signal; ignore }
  | Adopt -> Adopt
  | Vm_fork { parent; child } -> Vm_fork { parent = ci parent; child }
  | Vm_exec { proc; size } -> Vm_exec { proc; size = ci size }
  | Vm_exit { proc } -> Vm_exit { proc = ci proc }
  | Vfs_fork { parent; child } -> Vfs_fork { parent; child = ci child }
  | Vfs_exec { proc; path } -> Vfs_exec { proc; path = cs path }
  | Vfs_exit { proc } -> Vfs_exit { proc = ci proc }
  | Open { path; flags } -> Open { path = cs path; flags }
  | Close { fd } -> Close { fd = ci fd }
  | Read { fd; len } ->
    if Osiris_util.Rng.bool rng then Read { fd = ci fd; len }
    else Read { fd; len = ci len }
  | Write { fd; data } ->
    if Osiris_util.Rng.bool rng then Write { fd = ci fd; data }
    else Write { fd; data = cs data }
  | Lseek { fd; off; whence } -> Lseek { fd; off = ci off; whence }
  | Pipe -> Pipe
  | Dup { fd } -> Dup { fd = ci fd }
  | Unlink { path } -> Unlink { path = cs path }
  | Mkdir { path } -> Mkdir { path = cs path }
  | Rmdir { path } -> Rmdir { path = cs path }
  | Stat { path } -> Stat { path = cs path }
  | Fstat { fd } -> Fstat { fd = ci fd }
  | Rename { src; dst } -> Rename { src = cs src; dst }
  | Chdir { path } -> Chdir { path = cs path }
  | Readdir { path } -> Readdir { path = cs path }
  | Dup2 { fd; tofd } ->
    if Osiris_util.Rng.bool rng then Dup2 { fd = ci fd; tofd }
    else Dup2 { fd; tofd = ci tofd }
  | Sync -> Sync
  | Mfs_lookup { path } -> Mfs_lookup { path = cs path }
  | Mfs_create { path } -> Mfs_create { path = cs path }
  | Mfs_read { ino; off; len } -> Mfs_read { ino = ci ino; off; len }
  | Mfs_write { ino; off; data } ->
    if Osiris_util.Rng.bool rng then Mfs_write { ino; off = ci off; data }
    else Mfs_write { ino; off; data = cs data }
  | Mfs_trunc { ino; len } -> Mfs_trunc { ino; len = ci len }
  | Mfs_unlink { path } -> Mfs_unlink { path = cs path }
  | Mfs_mkdir { path } -> Mfs_mkdir { path = cs path }
  | Mfs_rmdir { path } -> Mfs_rmdir { path = cs path }
  | Mfs_stat { ino } -> Mfs_stat { ino = ci ino }
  | Mfs_readdir { ino } -> Mfs_readdir { ino = ci ino }
  | Mfs_rename { src; dst } -> Mfs_rename { src; dst = cs dst }
  | Mfs_sync -> Mfs_sync
  | Bdev_read { block } -> Bdev_read { block = ci block }
  | Bdev_write { block; data } ->
    if Osiris_util.Rng.bool rng then Bdev_write { block = ci block; data }
    else Bdev_write { block; data = cs data }
  | Brk { delta } -> Brk { delta = ci delta }
  | Brk_query -> Brk_query
  | Mmap { len } -> Mmap { len = ci len }
  | Munmap { id } -> Munmap { id = ci id }
  | Vm_info -> Vm_info
  | Ds_publish { key; value } ->
    if Osiris_util.Rng.bool rng then Ds_publish { key = cs key; value }
    else Ds_publish { key; value = ci value }
  | Ds_retrieve { key } -> Ds_retrieve { key = cs key }
  | Ds_delete { key } -> Ds_delete { key = cs key }
  | Ds_subscribe { prefix } -> Ds_subscribe { prefix = cs prefix }
  | Ds_notify { key } -> Ds_notify { key = cs key }
  | Rs_status -> Rs_status
  | Rs_lookup { label } -> Rs_lookup { label = cs label }
  | Ping -> Ping
  | Crash_notify { ep; reason } -> Crash_notify { ep = ci ep; reason }
  | Alarm -> Alarm
  | Diag { line } -> Diag { line = cs line }
  | R_ok v -> R_ok (ci v)
  | R_err e -> R_err e
  | R_fork { child } -> R_fork { child = ci child }
  | R_wait { pid; status } -> R_wait { pid = ci pid; status }
  | R_read { data } -> R_read { data = cs data }
  | R_pipe { rfd; wfd } -> R_pipe { rfd = ci rfd; wfd }
  | R_stat s -> R_stat { s with st_size = ci s.st_size }
  | R_lookup { ino; size; is_dir } -> R_lookup { ino = ci ino; size; is_dir }
  | R_ds_value { value } -> R_ds_value { value = ci value }
  | R_brk { break } -> R_brk { break = ci break }
  | R_mmap { id } -> R_mmap { id = ci id }
  | R_vm_info { pages_used; pages_free } ->
    R_vm_info { pages_used = ci pages_used; pages_free }
  | R_rs_status r -> R_rs_status { r with restarts = ci r.restarts }
  | R_names { names } ->
    R_names { names = (match names with [] -> [ "x" ] | _ :: rest -> rest) }
  | R_pong -> R_pong
