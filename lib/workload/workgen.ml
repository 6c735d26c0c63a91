module Rng = Osiris_util.Rng

type spec = {
  g_actions : int;
  g_fork_depth : int;
}

let default_spec = { g_actions = 12; g_fork_depth = 2 }

type act =
  | G_file of int * string
  | G_dir of int
  | G_ds of int * int
  | G_pipe of int
  | G_sbrk of int
  | G_exec
  | G_readdir
  | G_fork of act list

let payload rng n =
  String.init n (fun _ -> Char.chr (Char.code 'a' + Rng.int rng 26))

let rec gen_act rng depth =
  match Rng.int rng (if depth > 0 then 8 else 7) with
  | 0 -> G_file (Rng.int rng 8, payload rng (1 + Rng.int rng 48))
  | 1 -> G_dir (Rng.int rng 8)
  | 2 -> G_ds (Rng.int rng 8, Rng.int rng 10_000)
  | 3 -> G_pipe (1 + Rng.int rng 200)
  | 4 -> G_sbrk (Rng.int rng 8 * 1024)
  | 5 -> G_exec
  | 6 -> G_readdir
  | _ ->
    let n = 1 + Rng.int rng 3 in
    G_fork (List.init n (fun _ -> gen_act rng (depth - 1)))

let gen_acts ?(spec = default_spec) ~seed () =
  let rng = Rng.create seed in
  List.init spec.g_actions (fun _ -> gen_act rng spec.g_fork_depth)

let rec describe_act = function
  | G_file (i, p) -> Printf.sprintf "file #%d (%dB)" i (String.length p)
  | G_dir i -> Printf.sprintf "mkdir/rmdir #%d" i
  | G_ds (k, v) -> Printf.sprintf "ds %d:=%d" k v
  | G_pipe n -> Printf.sprintf "pipe roundtrip (%dB)" n
  | G_sbrk n -> Printf.sprintf "sbrk %d" n
  | G_exec -> "fork+exec /bin/true"
  | G_readdir -> "readdir /bin"
  | G_fork acts ->
    Printf.sprintf "fork{%s}" (String.concat "; " (List.map describe_act acts))

(* Run an action: 0 when every result was as expected, else a code
   naming the first unexpected one. *)
let rec run_act act =
  match act with
  | G_file (i, data) ->
    let path = Printf.sprintf "/tmp/wg%d" i in
    let fd = Syscall.open_ path Message.creat in
    if fd < 0 then 1
    else begin
      let w = Syscall.write ~fd data in
      let _ = Syscall.lseek ~fd ~off:0 Message.Seek_set in
      let r = Syscall.read ~fd ~len:(String.length data) in
      let _ = Syscall.close fd in
      let _ = Syscall.unlink path in
      match r with
      | Ok s when s = data && w = String.length data -> 0
      | _ -> 2
    end
  | G_dir i ->
    let path = Printf.sprintf "/tmp/wgd%d" i in
    let a = Syscall.mkdir path in
    let b = Syscall.rmdir path in
    (* EEXIST is possible when a concurrent child races the same id. *)
    if (a >= 0 || a = Errno.to_code Errno.EEXIST) && b <= 0 then 0 else 3
  | G_ds (k, v) ->
    let key = Printf.sprintf "wg.%d" k in
    let p = Syscall.ds_publish ~key ~value:v in
    let r = Syscall.ds_retrieve ~key in
    (match r with Ok _ when p >= 0 -> 0 | _ -> 4)
  | G_pipe n ->
    let data = String.make n 'w' in
    (match Syscall.pipe () with
     | Error _ -> 5
     | Ok (rfd, wfd) ->
       let _ = Syscall.write ~fd:wfd data in
       let rec drain got =
         if got >= n then 0
         else
           match Syscall.read ~fd:rfd ~len:(n - got) with
           | Ok "" -> 6
           | Ok s -> drain (got + String.length s)
           | Error _ -> 7
       in
       let code = drain 0 in
       let _ = Syscall.close rfd in
       let _ = Syscall.close wfd in
       code)
  | G_sbrk n ->
    let b0 = Syscall.brk_current () in
    let b1 = Syscall.sbrk n in
    if b1 = b0 + n then 0 else 8
  | G_exec ->
    let pid =
      Syscall.fork (fun () ->
          let _ = Syscall.exec "/bin/true" 0 in
          Syscall.exit 9)
    in
    if pid < 0 then 9
    else
      let _, status = Syscall.waitpid pid in
      if status = 0 then 0 else 10
  | G_readdir ->
    (match Syscall.readdir "/bin" with Ok (_ :: _) -> 0 | _ -> 11)
  | G_fork acts ->
    let pid = Syscall.fork (fun () -> Syscall.exit (run_all acts)) in
    if pid < 0 then 12
    else
      let _, status = Syscall.waitpid pid in
      status

and run_all acts =
  List.fold_left
    (fun code act ->
       let c = run_act act in
       if code <> 0 then code else c)
    0 acts

let generate ?spec ~seed () =
  let acts = gen_acts ?spec ~seed () in
  fun () -> Syscall.exit (run_all acts)

let describe ?spec ~seed () = List.map describe_act (gen_acts ?spec ~seed ())

(* The README quickstart program as a reusable workload root: a file
   round trip through VFS/MFS/bdev, a fork/exec/wait through PM and VM,
   and a DS publish/retrieve — every core server sees traffic. *)
let quickstart () =
  let fd = Syscall.open_ "/tmp/greeting" Message.creat in
  let _ = Syscall.write ~fd "hello from userland" in
  let _ = Syscall.lseek ~fd ~off:0 Message.Seek_set in
  let contents = Syscall.read ~fd ~len:64 in
  let _ = Syscall.close fd in
  let pid =
    Syscall.fork (fun () ->
        let _ = Syscall.exec "/bin/sh" 0 in
        Syscall.exit 9)
  in
  if pid < 0 then Syscall.exit 1
  else
    let _, status = Syscall.waitpid pid in
    let p = Syscall.ds_publish ~key:"example.answer" ~value:42 in
    let v = Syscall.ds_retrieve ~key:"example.answer" in
    Syscall.exit
      (match contents, v with
       | Ok "hello from userland", Ok 42 when status = 0 && p >= 0 -> 0
       | _ -> 1)
