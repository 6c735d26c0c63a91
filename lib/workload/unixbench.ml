type bench = {
  b_name : string;
  b_iters : int;
  b_driver : unit -> unit;
  b_uses_pm : bool;
}

(* E_CRASH resilience: an [E_CRASH] result means the serving component
   crashed inside an open recovery window and was rolled back — by
   construction no state changed, so retrying is safe (this is the
   at-most-once property the windows buy). The drivers retry so the
   service-disruption experiment (Figure 3) can run benchmarks to
   completion under a sustained fault load. *)
let e_crash = Errno.to_code Errno.E_CRASH

let retry_crash call =
  let rec go n =
    let r = call () in
    if r = e_crash && n > 0 then go (n - 1) else r
  in
  go 64

let fork_r child = retry_crash (fun () -> Syscall.fork child)

let waitpid_r pid =
  let rec go n =
    let p, status = Syscall.waitpid pid in
    if p = e_crash && n > 0 then go (n - 1) else (p, status)
  in
  go 64

let exec_r path arg = retry_crash (fun () -> Syscall.exec path arg)

(* ------------------------------------------------------------------ *)
(* Helper binaries                                                     *)
(* ------------------------------------------------------------------ *)

(* The execl benchmark program: exec itself until the counter runs out
   (this is exactly how Unixbench's execl test works). *)
let execl_loop arg =
  if arg <= 0 then Syscall.exit 0
  else
    let r = exec_r "/bin/execl_loop" (arg - 1) in
    Syscall.exit (if r < 0 then 9 else 8)

(* Shell utilities: small read-compute-write programs standing in for
   the sort/grep/wc invocations of the Unixbench shell scripts. Each
   reads /etc/data, computes [per_byte] cycles per byte read, then
   runs [finish] on the data. *)
let util ~per_byte finish =
  let fd = Syscall.open_ "/etc/data" Message.rdonly in
  if fd < 0 then Syscall.exit 1
  else
    let r = Syscall.read ~fd ~len:1024 in
    let _ = Syscall.close fd in
    match r with
    | Error _ -> Syscall.exit 2
    | Ok data ->
      Kernel.Op.compute (String.length data * per_byte);
      finish data

let util_sortish _ =
  util ~per_byte:8 (fun data ->
      let pid = Syscall.getpid () in
      let path = Printf.sprintf "/tmp/sort.%d" pid in
      let ofd = Syscall.open_ path Message.creat in
      if ofd < 0 then Syscall.exit 3
      else
        let _ = Syscall.write ~fd:ofd data in
        let _ = Syscall.close ofd in
        let _ = Syscall.unlink path in
        Syscall.exit 0)

let util_grepish _ = util ~per_byte:4 (fun _ -> Syscall.exit 0)

let util_wcish _ = util ~per_byte:2 (fun _ -> Syscall.exit 0)

(* The mini shell: runs the three utilities sequentially. *)
let shell _ =
  let run_util path =
    let pid =
      fork_r (fun () ->
          let _ = exec_r path 0 in
          Syscall.exit 9)
    in
    if pid < 0 then -1
    else
      let _, status = waitpid_r pid in
      status
  in
  let s1 = run_util "/bin/sortish" in
  let s2 = run_util "/bin/grepish" in
  let s3 = run_util "/bin/wcish" in
  Syscall.exit (if s1 = 0 && s2 = 0 && s3 = 0 then 0 else 1)

let register_helpers reg =
  Registry.register reg "/bin/execl_loop" execl_loop;
  Registry.register reg "/bin/sortish" util_sortish;
  Registry.register reg "/bin/grepish" util_grepish;
  Registry.register reg "/bin/wcish" util_wcish;
  Registry.register reg "/bin/sh" shell

(* ------------------------------------------------------------------ *)
(* Drivers                                                             *)
(* ------------------------------------------------------------------ *)

(* Run [body] [n] times while it succeeds, then exit 0; exit 1 at the
   first failure. *)
let iterate n body () =
  let rec go n =
    if n = 0 then Syscall.exit 0 else if body () then go (n - 1)
    else Syscall.exit 1
  in
  go n

let computing n cycles () =
  for _ = 1 to n do
    Kernel.Op.compute cycles
  done;
  Syscall.exit 0

let dhry_iters = 3000

(* Pure integer compute, no syscalls: register-pressure dhrystone. *)
let dhry2reg = computing dhry_iters 1000

let whet_iters = 800

let whetstone = computing whet_iters 5000

let execl_iters = 50

let execl_driver () =
  let pid =
    fork_r (fun () ->
        let _ = exec_r "/bin/execl_loop" execl_iters in
        Syscall.exit 9)
  in
  let _, status = waitpid_r pid in
  Syscall.exit status

(* File workload shared shape: write a file in [chunk]-sized pieces,
   read it back, unlink. *)
let file_pass ~path ~chunk ~total =
  let data = String.make chunk 'u' in
  let fd = Syscall.open_ path Message.creat in
  if fd < 0 then false
  else
    let rec wr n =
      n <= 0 || (Syscall.write ~fd data = chunk && wr (n - chunk))
    in
    if not (wr total) then false
    else
      let _ = Syscall.lseek ~fd ~off:0 Message.Seek_set in
      let rec rd n =
        n <= 0
        || (match Syscall.read ~fd ~len:chunk with
            | Ok s when String.length s = chunk -> rd (n - chunk)
            | _ -> false)
      in
      let okr = rd total in
      let _ = Syscall.close fd in
      let _ = Syscall.unlink path in
      okr

let fstime_iters = 15

let fstime =
  iterate fstime_iters (fun () ->
      file_pass ~path:"/tmp/ub_fstime" ~chunk:1024 ~total:8192)

let fsbuffer_iters = 15

(* Small buffers: many more VFS/MFS crossings per byte. *)
let fsbuffer =
  iterate fsbuffer_iters (fun () ->
      file_pass ~path:"/tmp/ub_fsbuf" ~chunk:256 ~total:4096)

let fsdisk_iters = 8

let fsdisk =
  let rec files k =
    k = 0
    || (file_pass ~path:(Printf.sprintf "/tmp/ub_fsd%d" k) ~chunk:1024
          ~total:4096
        && files (k - 1))
  in
  iterate fsdisk_iters (fun () -> files 4)

let pipe_iters = 400

let pipe_driver () =
  match Syscall.pipe () with
  | Error _ -> Syscall.exit 1
  | Ok (rfd, wfd) ->
    let payload = String.make 512 'p' in
    let rec go n =
      if n = 0 then Syscall.exit 0
      else if Syscall.write ~fd:wfd payload <> 512 then Syscall.exit 2
      else
        match Syscall.read ~fd:rfd ~len:512 with
        | Ok s when String.length s = 512 -> go (n - 1)
        | _ -> Syscall.exit 3
    in
    go pipe_iters

let context1_iters = 150

let context1 () =
  (* Two processes bouncing a token through two pipes. *)
  let p1 = Syscall.pipe () in
  let p2 = Syscall.pipe () in
  match p1, p2 with
  | Ok (r1, w1), Ok (r2, w2) ->
    let rec child n =
      if n = 0 then Syscall.exit 0
      else
        match Syscall.read ~fd:r1 ~len:8 with
        | Ok "token---" ->
          let _ = Syscall.write ~fd:w2 "token---" in
          child (n - 1)
        | _ -> Syscall.exit 1
    in
    let pid = Syscall.fork (fun () -> child context1_iters) in
    let rec parent n =
      if n = 0 then
        let _, status = Syscall.waitpid pid in
        Syscall.exit status
      else
        let _ = Syscall.write ~fd:w1 "token---" in
        match Syscall.read ~fd:r2 ~len:8 with
        | Ok "token---" -> parent (n - 1)
        | _ -> Syscall.exit 2
    in
    parent context1_iters
  | _ -> Syscall.exit 3

let spawn_iters = 80

let spawn_driver =
  iterate spawn_iters (fun () ->
      let pid = fork_r (fun () -> Syscall.exit 0) in
      if pid < 0 then Syscall.exit 1
      else
        let _, status = waitpid_r pid in
        status = 0 || Syscall.exit 2)

let syscall_iters = 800

let syscall_driver =
  iterate syscall_iters (fun () -> retry_crash Syscall.getpid >= 0)

let run_shells ~concurrent =
  let rec spawn k acc =
    if k = 0 then acc
    else
      let pid =
        fork_r (fun () ->
            let _ = exec_r "/bin/sh" 0 in
            Syscall.exit 9)
      in
      if pid < 0 then acc else spawn (k - 1) (pid :: acc)
  in
  let pids = spawn concurrent [] in
  List.fold_left
    (fun ok pid ->
       let _, status = waitpid_r pid in
       ok && status = 0)
    (List.length pids = concurrent) pids

let shell1_iters = 8

let shell1 = iterate shell1_iters (fun () -> run_shells ~concurrent:1)

let shell8_iters = 3

let shell8 = iterate shell8_iters (fun () -> run_shells ~concurrent:8)

let all =
  [ { b_name = "dhry2reg"; b_iters = dhry_iters; b_driver = dhry2reg;
      b_uses_pm = false };
    { b_name = "whetstone-double"; b_iters = whet_iters; b_driver = whetstone;
      b_uses_pm = false };
    { b_name = "execl"; b_iters = execl_iters; b_driver = execl_driver;
      b_uses_pm = true };
    { b_name = "fstime"; b_iters = fstime_iters; b_driver = fstime;
      b_uses_pm = false };
    { b_name = "fsbuffer"; b_iters = fsbuffer_iters; b_driver = fsbuffer;
      b_uses_pm = false };
    { b_name = "fsdisk"; b_iters = fsdisk_iters; b_driver = fsdisk;
      b_uses_pm = false };
    { b_name = "pipe"; b_iters = pipe_iters; b_driver = pipe_driver;
      b_uses_pm = false };
    { b_name = "context1"; b_iters = context1_iters; b_driver = context1;
      b_uses_pm = false };
    { b_name = "spawn"; b_iters = spawn_iters; b_driver = spawn_driver;
      b_uses_pm = true };
    { b_name = "syscall"; b_iters = syscall_iters; b_driver = syscall_driver;
      b_uses_pm = true };
    { b_name = "shell1"; b_iters = shell1_iters; b_driver = shell1;
      b_uses_pm = true };
    { b_name = "shell8"; b_iters = shell8_iters; b_driver = shell8;
      b_uses_pm = true } ]

let find name = List.find_opt (fun b -> b.b_name = name) all

let register reg =
  register_helpers reg;
  (* Each driver is also an executable, so composite workloads (e.g.
     the Table VI memory run) can fork+exec whole benchmarks. *)
  List.iter
    (fun b -> Registry.register reg ("/bin/ub_" ^ b.b_name) (fun _ -> b.b_driver ()))
    all
