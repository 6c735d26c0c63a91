let max_procs = 64
let max_fds = 16
let max_files = 128
let max_pipes = 16
let pipe_capacity = 512
let cwd_len = 64

let k_free = 0
let k_file = 1
let k_pipe_r = 2
let k_pipe_w = 3

(* Table VI: VFS base usage 1,252 kB. *)
let image_kb = 1252

type t = {
  image : Memimage.t;
  procs : Layout.Table.t;
  p_used : Layout.int_field;
  p_ep : Layout.int_field;
  p_cwd : Layout.str_field;
  p_fds : Layout.int_field array;   (* file row + 1; 0 = closed *)
  files : Layout.Table.t;
  fi_kind : Layout.int_field;
  fi_ino : Layout.int_field;
  fi_pos : Layout.int_field;
  fi_refs : Layout.int_field;
  fi_pipe : Layout.int_field;
  pipes : Layout.Table.t;
  pi_used : Layout.int_field;
  pi_count : Layout.int_field;
  pi_rstart : Layout.int_field;
  pi_readers : Layout.int_field;
  pi_writers : Layout.int_field;
  pi_buf : Layout.str_field;
  c_opens : Layout.Cell.t;
}

let create () =
  let image = Memimage.create ~name:"vfs" ~size:(image_kb * 1024) in
  let spec = Layout.spec () in
  let p_used = Layout.int spec "used" in
  let p_ep = Layout.int spec "ep" in
  let p_cwd = Layout.str spec "cwd" ~len:cwd_len in
  let p_fds = Array.init max_fds (fun i -> Layout.int spec (Printf.sprintf "fd%d" i)) in
  Layout.seal spec;
  let procs = Layout.Table.alloc image ~spec ~rows:max_procs in
  let fspec = Layout.spec () in
  let fi_kind = Layout.int fspec "kind" in
  let fi_ino = Layout.int fspec "ino" in
  let fi_pos = Layout.int fspec "pos" in
  let fi_refs = Layout.int fspec "refs" in
  let fi_pipe = Layout.int fspec "pipe" in
  Layout.seal fspec;
  let files = Layout.Table.alloc image ~spec:fspec ~rows:max_files in
  let pspec = Layout.spec () in
  let pi_used = Layout.int pspec "used" in
  let pi_count = Layout.int pspec "count" in
  let pi_rstart = Layout.int pspec "rstart" in
  let pi_readers = Layout.int pspec "readers" in
  let pi_writers = Layout.int pspec "writers" in
  let pi_buf = Layout.str pspec "buf" ~len:pipe_capacity in
  Layout.seal pspec;
  let pipes = Layout.Table.alloc image ~spec:pspec ~rows:max_pipes in
  let c_opens = Layout.Cell.alloc_int image "opens" in
  { image; procs; p_used; p_ep; p_cwd; p_fds; files; fi_kind; fi_ino; fi_pos;
    fi_refs; fi_pipe; pipes; pi_used; pi_count; pi_rstart; pi_readers;
    pi_writers; pi_buf; c_opens }

(* ---------------- row helpers -------------------------------------- *)

module Op = Kernel.Op
module Mem = Kernel.Op.Mem

let find_proc t ep =
  Mem.(scan t.procs ~rows:max_procs (Int_ne (t.p_used, 0, Int_eq (t.p_ep, ep, Hit))))

let with_proc t src k =
  match find_proc t src with
  | None -> Srvlib.reply_err src Errno.ESRCH
  | Some row -> k row

let find_free_file t =
  Mem.(scan t.files ~rows:max_files (Int_eq (t.fi_kind, k_free, Hit)))

let find_free_fd t ~prow =
  (* One row's fd columns: a walk no column test expresses. *)
  let rec go fd =
    if fd >= max_fds then None
    else if Mem.get_int t.procs ~row:prow t.p_fds.(fd) = 0 then Some fd
    else go (fd + 1)
  in
  go 0

(* File row index for an fd, or None. *)
let file_of_fd t ~prow ~fd =
  if fd < 0 || fd >= max_fds then None
  else
    let v = Mem.get_int t.procs ~row:prow t.p_fds.(fd) in
    if v = 0 then None else Some (v - 1)

let abs_path t ~prow path =
  if String.length path > 0 && path.[0] = '/' then path
  else
    let cwd = Mem.get_str t.procs ~row:prow t.p_cwd in
    if cwd = "/" then "/" ^ path else cwd ^ "/" ^ path

(* Drop one reference to a file row, releasing it (and updating pipe
   endpoint counts) when the last reference goes. *)
let deref_file t ~frow =
  let refs = Mem.get_int t.files ~row:frow t.fi_refs in
  if refs > 1 then Mem.set_int t.files ~row:frow t.fi_refs (refs - 1)
  else begin
    let kind = Mem.get_int t.files ~row:frow t.fi_kind in
    if kind = k_pipe_r || kind = k_pipe_w then begin
      let pipe = Mem.get_int t.files ~row:frow t.fi_pipe in
      let field = if kind = k_pipe_r then t.pi_readers else t.pi_writers in
      let n = Mem.get_int t.pipes ~row:pipe field in
      Mem.set_int t.pipes ~row:pipe field (n - 1);
      (* Free the pipe when both sides are gone. *)
      let r = Mem.get_int t.pipes ~row:pipe t.pi_readers in
      let w = Mem.get_int t.pipes ~row:pipe t.pi_writers in
      if r = 0 && w = 0 then Mem.set_int t.pipes ~row:pipe t.pi_used 0
    end;
    Mem.set_int t.files ~row:frow t.fi_kind k_free
  end

let close_fd t ~prow ~fd =
  match file_of_fd t ~prow ~fd with
  | None -> Error Errno.EBADF
  | Some frow ->
    Mem.set_int t.procs ~row:prow t.p_fds.(fd) 0;
    deref_file t ~frow;
    Ok ()

(* ---------------- circular pipe buffer (pure helpers) -------------- *)

let circ_read buf ~rstart ~n =
  let cap = String.length buf in
  if rstart + n <= cap then String.sub buf rstart n
  else String.sub buf rstart (cap - rstart) ^ String.sub buf 0 (n - (cap - rstart))

let circ_write buf ~wstart data =
  let cap = String.length buf in
  let b = Bytes.of_string buf in
  let n = String.length data in
  let first = min n (cap - wstart) in
  Bytes.blit_string data 0 b wstart first;
  if n > first then Bytes.blit_string data first b 0 (n - first);
  Bytes.to_string b

let pad_buf s =
  if String.length s >= pipe_capacity then s
  else s ^ String.make (pipe_capacity - String.length s) '\000'

(* ---------------- pipe I/O ----------------------------------------- *)

(* A blocked pipe operation yields and tries again. The code between
   the yield and the retry's first load runs after the thread resumes;
   it cannot raise, because the retry's first load is at a row the
   previous attempt already read. *)
let pipe_read t src ~pipe ~len =
  let rec attempt () =
    if Mem.get_int t.pipes ~row:pipe t.pi_used = 0 then
      Srvlib.reply_err src Errno.EBADF
    else
      let count = Mem.get_int t.pipes ~row:pipe t.pi_count in
      if count > 0 then begin
        let n = min len count in
        let buf = Mem.get_str t.pipes ~row:pipe t.pi_buf in
        let rstart = Mem.get_int t.pipes ~row:pipe t.pi_rstart in
        let data = circ_read (pad_buf buf) ~rstart ~n in
        Mem.set_int t.pipes ~row:pipe t.pi_rstart ((rstart + n) mod pipe_capacity);
        Mem.set_int t.pipes ~row:pipe t.pi_count (count - n);
        Op.reply src (Message.R_read { data })
      end
      else if Mem.get_int t.pipes ~row:pipe t.pi_writers = 0 then
        Op.reply src (Message.R_read { data = "" })
      else begin
        (* Block: yield lets the writer's thread (or another process)
           run; the yield closes the recovery window. *)
        Op.yield ();
        attempt ()
      end
  in
  attempt ()

let pipe_write t src ~pipe ~data =
  let total = String.length data in
  let rec push written =
    if written >= total then Srvlib.reply_ok src total
    else if Mem.get_int t.pipes ~row:pipe t.pi_used = 0 then
      Srvlib.reply_err src Errno.EBADF
    else if Mem.get_int t.pipes ~row:pipe t.pi_readers = 0 then
      Srvlib.reply_err src Errno.EPIPE
    else
      let count = Mem.get_int t.pipes ~row:pipe t.pi_count in
      let space = pipe_capacity - count in
      if space = 0 then begin
        Op.yield ();
        push written
      end
      else begin
        let n = min space (total - written) in
        let chunk = String.sub data written n in
        let buf = Mem.get_str t.pipes ~row:pipe t.pi_buf in
        let rstart = Mem.get_int t.pipes ~row:pipe t.pi_rstart in
        let wstart = (rstart + count) mod pipe_capacity in
        let nbuf = circ_write (pad_buf buf) ~wstart chunk in
        Op.store_str
          ~off:(Layout.Table.addr_str t.pipes ~row:pipe t.pi_buf)
          ~len:pipe_capacity nbuf;
        Mem.set_int t.pipes ~row:pipe t.pi_count (count + n);
        push (written + n)
      end
  in
  push 0

(* ---------------- handlers ----------------------------------------- *)

let lookup_result = function
  | Message.R_lookup { ino; size; is_dir } -> Ok (ino, size, is_dir)
  | Message.R_err e -> Error e
  | _ -> Error Errno.EIO

let mfs_lookup t ~prow path =
  let path = abs_path t ~prow path in
  lookup_result (Op.call Endpoint.mfs (Message.Mfs_lookup { path }))

let do_open t src ~prow ~path ~flags =
  let open Message in
  let created =
    match mfs_lookup t ~prow path with
    | Error Errno.ENOENT when flags.o_create ->
      let path = abs_path t ~prow path in
      lookup_result (Op.call Endpoint.mfs (Mfs_create { path }))
    | other -> other
  in
  match created with
  | Error e -> Srvlib.reply_err src e
  | Ok (_, _, true) -> Srvlib.reply_err src Errno.EISDIR
  | Ok (ino, size, false) ->
    if flags.o_trunc && size > 0 then
      ignore (Op.call Endpoint.mfs (Mfs_trunc { ino; len = 0 }));
    match find_free_file t with
    | None -> Srvlib.reply_err src Errno.ENFILE
    | Some frow ->
      match find_free_fd t ~prow with
      | None -> Srvlib.reply_err src Errno.EMFILE
      | Some fd ->
        let pos = if flags.o_append then size else 0 in
        Mem.set_int t.files ~row:frow t.fi_kind k_file;
        Mem.set_int t.files ~row:frow t.fi_ino ino;
        Mem.set_int t.files ~row:frow t.fi_pos (if flags.o_trunc then 0 else pos);
        Mem.set_int t.files ~row:frow t.fi_refs 1;
        Mem.set_int t.files ~row:frow t.fi_pipe 0;
        Mem.set_int t.procs ~row:prow t.p_fds.(fd) (frow + 1);
        let n = Mem.get_cell t.c_opens in
        Mem.set_cell t.c_opens (n + 1);
        Srvlib.reply_ok src fd

(* Forward a path request to MFS and reply 0 or its error. *)
let forward_to_mfs t src ~prow msg_of_path path =
  let path = abs_path t ~prow path in
  match Srvlib.err_of_reply (Op.call Endpoint.mfs (msg_of_path path)) with
  | Some e -> Srvlib.reply_err src e
  | None -> Srvlib.reply_ok src 0

(* Handlers run in a freshly spawned thread (see [Srvlib.threaded_loop]):
   up to its first operation, each one below only matches on the
   message. *)
let handle t src msg =
  match msg with
  | Message.Open { path; flags } ->
    with_proc t src (fun prow -> do_open t src ~prow ~path ~flags)
  | Message.Close { fd } ->
    with_proc t src (fun prow ->
        match close_fd t ~prow ~fd with
        | Error e -> Srvlib.reply_err src e
        | Ok () -> Srvlib.reply_ok src 0)
  | Message.Read { fd; len } ->
    with_proc t src (fun prow ->
        match file_of_fd t ~prow ~fd with
        | None -> Srvlib.reply_err src Errno.EBADF
        | Some frow ->
          let kind = Mem.get_int t.files ~row:frow t.fi_kind in
          if kind = k_file then
            let ino = Mem.get_int t.files ~row:frow t.fi_ino in
            let pos = Mem.get_int t.files ~row:frow t.fi_pos in
            match Op.call Endpoint.mfs (Message.Mfs_read { ino; off = pos; len }) with
            | Message.R_read { data } ->
              Mem.set_int t.files ~row:frow t.fi_pos (pos + String.length data);
              Op.reply src (Message.R_read { data })
            | Message.R_err e -> Srvlib.reply_err src e
            | _ -> Srvlib.reply_err src Errno.EIO
          else if kind = k_pipe_r then
            let pipe = Mem.get_int t.files ~row:frow t.fi_pipe in
            pipe_read t src ~pipe ~len
          else Srvlib.reply_err src Errno.EBADF)
  | Message.Write { fd; data } ->
    with_proc t src (fun prow ->
        match file_of_fd t ~prow ~fd with
        | None -> Srvlib.reply_err src Errno.EBADF
        | Some frow ->
          let kind = Mem.get_int t.files ~row:frow t.fi_kind in
          if kind = k_file then
            let ino = Mem.get_int t.files ~row:frow t.fi_ino in
            let pos = Mem.get_int t.files ~row:frow t.fi_pos in
            match Op.call Endpoint.mfs (Message.Mfs_write { ino; off = pos; data }) with
            | Message.R_ok n ->
              Mem.set_int t.files ~row:frow t.fi_pos (pos + n);
              Srvlib.reply_ok src n
            | Message.R_err e -> Srvlib.reply_err src e
            | _ -> Srvlib.reply_err src Errno.EIO
          else if kind = k_pipe_w then
            let pipe = Mem.get_int t.files ~row:frow t.fi_pipe in
            pipe_write t src ~pipe ~data
          else Srvlib.reply_err src Errno.EBADF)
  | Message.Lseek { fd; off; whence } ->
    with_proc t src (fun prow ->
        match file_of_fd t ~prow ~fd with
        | None -> Srvlib.reply_err src Errno.EBADF
        | Some frow ->
          if Mem.get_int t.files ~row:frow t.fi_kind <> k_file then
            Srvlib.reply_err src Errno.EINVAL
          else
            let pos = Mem.get_int t.files ~row:frow t.fi_pos in
            let base =
              match whence with
              | Message.Seek_set -> 0
              | Message.Seek_cur -> pos
              | Message.Seek_end ->
                let ino = Mem.get_int t.files ~row:frow t.fi_ino in
                (match Op.call Endpoint.mfs (Message.Mfs_stat { ino }) with
                 | Message.R_stat { st_size; _ } -> st_size
                 | _ -> 0)
            in
            let npos = base + off in
            if npos < 0 then Srvlib.reply_err src Errno.EINVAL
            else begin
              Mem.set_int t.files ~row:frow t.fi_pos npos;
              Srvlib.reply_ok src npos
            end)
  | Message.Pipe ->
    with_proc t src (fun prow ->
        match
          Mem.(scan t.pipes ~rows:max_pipes (Int_eq (t.pi_used, 0, Hit)))
        with
        | None -> Srvlib.reply_err src Errno.ENFILE
        | Some pipe ->
          match find_free_file t with
          | None -> Srvlib.reply_err src Errno.ENFILE
          | Some fr ->
            (* Reserve the read end before searching for the write
               end's slot. *)
            Mem.set_int t.files ~row:fr t.fi_kind k_pipe_r;
            match find_free_file t with
            | None ->
              Mem.set_int t.files ~row:fr t.fi_kind k_free;
              Srvlib.reply_err src Errno.ENFILE
            | Some fw ->
              match find_free_fd t ~prow with
              | None ->
                Mem.set_int t.files ~row:fr t.fi_kind k_free;
                Srvlib.reply_err src Errno.EMFILE
              | Some rfd ->
                Mem.set_int t.procs ~row:prow t.p_fds.(rfd) (fr + 1);
                match find_free_fd t ~prow with
                | None ->
                  Mem.set_int t.procs ~row:prow t.p_fds.(rfd) 0;
                  Mem.set_int t.files ~row:fr t.fi_kind k_free;
                  Srvlib.reply_err src Errno.EMFILE
                | Some wfd ->
                  Mem.set_int t.pipes ~row:pipe t.pi_used 1;
                  Mem.set_int t.pipes ~row:pipe t.pi_count 0;
                  Mem.set_int t.pipes ~row:pipe t.pi_rstart 0;
                  Mem.set_int t.pipes ~row:pipe t.pi_readers 1;
                  Mem.set_int t.pipes ~row:pipe t.pi_writers 1;
                  Mem.set_int t.files ~row:fr t.fi_refs 1;
                  Mem.set_int t.files ~row:fr t.fi_pipe pipe;
                  Mem.set_int t.files ~row:fw t.fi_kind k_pipe_w;
                  Mem.set_int t.files ~row:fw t.fi_refs 1;
                  Mem.set_int t.files ~row:fw t.fi_pipe pipe;
                  Mem.set_int t.procs ~row:prow t.p_fds.(wfd) (fw + 1);
                  Op.reply src (Message.R_pipe { rfd; wfd }))
  | Message.Dup { fd } ->
    with_proc t src (fun prow ->
        match file_of_fd t ~prow ~fd with
        | None -> Srvlib.reply_err src Errno.EBADF
        | Some frow ->
          match find_free_fd t ~prow with
          | None -> Srvlib.reply_err src Errno.EMFILE
          | Some nfd ->
            let refs = Mem.get_int t.files ~row:frow t.fi_refs in
            Mem.set_int t.files ~row:frow t.fi_refs (refs + 1);
            Mem.set_int t.procs ~row:prow t.p_fds.(nfd) (frow + 1);
            Srvlib.reply_ok src nfd)
  | Message.Unlink { path } ->
    with_proc t src (fun prow ->
        forward_to_mfs t src ~prow (fun path -> Message.Mfs_unlink { path }) path)
  | Message.Mkdir { path } ->
    with_proc t src (fun prow ->
        forward_to_mfs t src ~prow (fun path -> Message.Mfs_mkdir { path }) path)
  | Message.Rmdir { path } ->
    with_proc t src (fun prow ->
        forward_to_mfs t src ~prow (fun path -> Message.Mfs_rmdir { path }) path)
  | Message.Rename { src = s; dst = d } ->
    with_proc t src (fun prow ->
        let s = abs_path t ~prow s in
        let d = abs_path t ~prow d in
        match
          Srvlib.err_of_reply
            (Op.call Endpoint.mfs (Message.Mfs_rename { src = s; dst = d }))
        with
        | Some e -> Srvlib.reply_err src e
        | None -> Srvlib.reply_ok src 0)
  | Message.Stat { path } ->
    with_proc t src (fun prow ->
        match mfs_lookup t ~prow path with
        | Error e -> Srvlib.reply_err src e
        | Ok (ino, size, is_dir) ->
          Op.reply src
            (Message.R_stat { st_ino = ino; st_size = size; st_is_dir = is_dir }))
  | Message.Fstat { fd } ->
    with_proc t src (fun prow ->
        match file_of_fd t ~prow ~fd with
        | None -> Srvlib.reply_err src Errno.EBADF
        | Some frow ->
          if Mem.get_int t.files ~row:frow t.fi_kind = k_file then
            let ino = Mem.get_int t.files ~row:frow t.fi_ino in
            match Op.call Endpoint.mfs (Message.Mfs_stat { ino }) with
            | Message.R_stat _ as st -> Op.reply src st
            | Message.R_err e -> Srvlib.reply_err src e
            | _ -> Srvlib.reply_err src Errno.EIO
          else
            let pipe = Mem.get_int t.files ~row:frow t.fi_pipe in
            let count = Mem.get_int t.pipes ~row:pipe t.pi_count in
            Op.reply src
              (Message.R_stat { st_ino = -1; st_size = count; st_is_dir = false }))
  | Message.Readdir { path } ->
    with_proc t src (fun prow ->
        match mfs_lookup t ~prow path with
        | Error e -> Srvlib.reply_err src e
        | Ok (_, _, false) -> Srvlib.reply_err src Errno.ENOTDIR
        | Ok (ino, _, true) ->
          match Op.call Endpoint.mfs (Message.Mfs_readdir { ino }) with
          | Message.R_names _ as names -> Op.reply src names
          | Message.R_err e -> Srvlib.reply_err src e
          | _ -> Srvlib.reply_err src Errno.EIO)
  | Message.Dup2 { fd; tofd } ->
    with_proc t src (fun prow ->
        match file_of_fd t ~prow ~fd with
        | None -> Srvlib.reply_err src Errno.EBADF
        | Some frow ->
          if tofd < 0 || tofd >= max_fds then Srvlib.reply_err src Errno.EBADF
          else if tofd = fd then Srvlib.reply_ok src tofd
          else begin
            (* Close the target slot first, POSIX-style. *)
            if Option.is_some (file_of_fd t ~prow ~fd:tofd) then
              ignore (close_fd t ~prow ~fd:tofd);
            let refs = Mem.get_int t.files ~row:frow t.fi_refs in
            Mem.set_int t.files ~row:frow t.fi_refs (refs + 1);
            Mem.set_int t.procs ~row:prow t.p_fds.(tofd) (frow + 1);
            Srvlib.reply_ok src tofd
          end)
  | Message.Chdir { path } ->
    with_proc t src (fun prow ->
        let apath = abs_path t ~prow path in
        if String.length apath >= cwd_len then Srvlib.reply_err src Errno.ENAMETOOLONG
        else
          match mfs_lookup t ~prow apath with
          | Error e -> Srvlib.reply_err src e
          | Ok (_, _, false) -> Srvlib.reply_err src Errno.ENOTDIR
          | Ok (_, _, true) ->
            Mem.set_str t.procs ~row:prow t.p_cwd apath;
            Srvlib.reply_ok src 0)
  | Message.Sync ->
    (match Srvlib.err_of_reply (Op.call Endpoint.mfs Message.Mfs_sync) with
     | Some e -> Srvlib.reply_err src e
     | None -> Srvlib.reply_ok src 0)
  | Message.Vfs_fork { parent; child } when src = Endpoint.pm ->
    (match
       Mem.(scan t.procs ~rows:max_procs (Int_eq (t.p_used, 0, Hit)))
     with
     | None -> Srvlib.reply_err src Errno.EAGAIN
     | Some row ->
       Mem.set_int t.procs ~row t.p_used 1;
       Mem.set_int t.procs ~row t.p_ep child;
       (match if parent = 0 then None else find_proc t parent with
        | None ->
          Mem.set_str t.procs ~row t.p_cwd "/";
          for fd = 0 to max_fds - 1 do
            Mem.set_int t.procs ~row t.p_fds.(fd) 0
          done
        | Some prow ->
          let cwd = Mem.get_str t.procs ~row:prow t.p_cwd in
          Mem.set_str t.procs ~row t.p_cwd cwd;
          for fd = 0 to max_fds - 1 do
            let v = Mem.get_int t.procs ~row:prow t.p_fds.(fd) in
            Mem.set_int t.procs ~row t.p_fds.(fd) v;
            if v <> 0 then begin
              (* Parent and child share the open-file description:
                 bump its refcount. Pipe endpoint counts track
                 descriptions, not descriptors, so they are NOT
                 bumped here (EOF semantics). *)
              let frow = v - 1 in
              let refs = Mem.get_int t.files ~row:frow t.fi_refs in
              Mem.set_int t.files ~row:frow t.fi_refs (refs + 1)
            end
          done);
       Srvlib.reply_ok src 0)
  | Message.Vfs_exec { proc; path } when src = Endpoint.pm ->
    (match find_proc t proc with
     | None -> Srvlib.reply_err src Errno.ESRCH
     | Some prow ->
       match mfs_lookup t ~prow path with
       | Error e -> Srvlib.reply_err src e
       | Ok (_, _, true) -> Srvlib.reply_err src Errno.EISDIR
       | Ok _ -> Srvlib.reply_ok src 0)
  | Message.Vfs_exit { proc } when src = Endpoint.pm ->
    (match find_proc t proc with
     | None -> Srvlib.reply_err src Errno.ESRCH
     | Some prow ->
       for fd = 0 to max_fds - 1 do
         if Mem.get_int t.procs ~row:prow t.p_fds.(fd) <> 0 then
           ignore (close_fd t ~prow ~fd)
       done;
       Mem.set_int t.procs ~row:prow t.p_used 0;
       Srvlib.reply_ok src 0)
  | Message.Vfs_fork _ | Message.Vfs_exec _ | Message.Vfs_exit _ ->
    Srvlib.reply_err src Errno.EPERM
  | Message.Ping -> Op.reply src Message.R_pong
  | _ -> Srvlib.reply_err src Errno.ENOSYS

let dump_state t =
  let out = ref [] in
  for row = 0 to max_pipes - 1 do
    if Layout.Table.get_int t.pipes ~row t.pi_used = 1 then
      out :=
        Printf.sprintf "pipe %d: count=%d readers=%d writers=%d" row
          (Layout.Table.get_int t.pipes ~row t.pi_count)
          (Layout.Table.get_int t.pipes ~row t.pi_readers)
          (Layout.Table.get_int t.pipes ~row t.pi_writers)
        :: !out
  done;
  for row = 0 to max_files - 1 do
    let kind = Layout.Table.get_int t.files ~row t.fi_kind in
    if kind <> k_free then
      out :=
        Printf.sprintf "file %d: kind=%d refs=%d pipe=%d ino=%d" row kind
          (Layout.Table.get_int t.files ~row t.fi_refs)
          (Layout.Table.get_int t.files ~row t.fi_pipe)
          (Layout.Table.get_int t.files ~row t.fi_ino)
        :: !out
  done;
  List.rev !out

let init t () = Mem.set_cell t.c_opens 0

let server t =
  { Kernel.srv_ep = Endpoint.vfs;
    srv_name = "vfs";
    srv_image = t.image;
    srv_clone_extra_kb = 348;
    srv_init = init t;
    srv_loop = Srvlib.threaded_loop (handle t);
    srv_multithreaded = true }

let summary =
  let mfs t = (Endpoint.mfs, t) in
  Summary.make Endpoint.vfs
    [ Summary.handler Message.Tag.T_open
        [ Summary.seg ~out:(mfs Message.Tag.T_mfs_lookup) 75;
          Summary.seg ~out:(mfs Message.Tag.T_mfs_create) ~maybe:true 5;
          Summary.seg 150 ];
      Summary.handler Message.Tag.T_close [ Summary.seg 80 ];
      Summary.handler Message.Tag.T_read
        [ Summary.seg ~out:(mfs Message.Tag.T_mfs_read) 80; Summary.seg 10 ];
      Summary.handler Message.Tag.T_write
        [ Summary.seg 80; Summary.seg ~out:(mfs Message.Tag.T_mfs_write) 5;
          Summary.seg 10 ];
      Summary.handler Message.Tag.T_lseek
        [ Summary.seg ~out:(mfs Message.Tag.T_mfs_stat) ~maybe:true 80;
          Summary.seg 10 ];
      Summary.handler Message.Tag.T_pipe [ Summary.seg 300 ];
      Summary.handler Message.Tag.T_dup [ Summary.seg 90 ];
      Summary.handler Message.Tag.T_unlink
        [ Summary.seg ~out:(mfs Message.Tag.T_mfs_unlink) 70; Summary.seg 5 ];
      Summary.handler Message.Tag.T_mkdir
        [ Summary.seg ~out:(mfs Message.Tag.T_mfs_mkdir) 70; Summary.seg 5 ];
      Summary.handler Message.Tag.T_rmdir
        [ Summary.seg ~out:(mfs Message.Tag.T_mfs_rmdir) 70; Summary.seg 5 ];
      Summary.handler Message.Tag.T_stat
        [ Summary.seg ~out:(mfs Message.Tag.T_mfs_lookup) 70; Summary.seg 10 ];
      Summary.handler Message.Tag.T_fstat
        [ Summary.seg ~out:(mfs Message.Tag.T_mfs_stat) 80; Summary.seg 5 ];
      Summary.handler Message.Tag.T_rename
        [ Summary.seg ~out:(mfs Message.Tag.T_mfs_rename) 70; Summary.seg 5 ];
      Summary.handler Message.Tag.T_chdir
        [ Summary.seg ~out:(mfs Message.Tag.T_mfs_lookup) 75; Summary.seg 10 ];
      Summary.handler Message.Tag.T_readdir
        [ Summary.seg ~out:(mfs Message.Tag.T_mfs_lookup) 75;
          Summary.seg ~out:(mfs Message.Tag.T_mfs_readdir) 3; Summary.seg 5 ];
      Summary.handler Message.Tag.T_dup2 [ Summary.seg 120 ];
      Summary.handler Message.Tag.T_sync
        [ Summary.seg ~out:(mfs Message.Tag.T_mfs_sync) 2; Summary.seg 2 ];
      Summary.handler Message.Tag.T_vfs_fork [ Summary.seg 250 ];
      Summary.handler Message.Tag.T_vfs_exec
        [ Summary.seg ~out:(mfs Message.Tag.T_mfs_lookup) 75; Summary.seg 5 ];
      Summary.handler Message.Tag.T_vfs_exit [ Summary.seg 200 ];
      Summary.handler Message.Tag.T_ping [ Summary.seg 1 ] ]
