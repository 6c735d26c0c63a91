(* Model-based differential testing: random operation sequences run both
   against the simulated OS (through the full user→VFS→MFS→disk path)
   and against pure OCaml reference models; every observable result must
   agree. This catches semantic drift anywhere in the stack — path
   resolution, offsets, EOF behaviour, errno choices, DS replacement
   semantics. *)

module Rng = Osiris_util.Rng

(* ------------------------------------------------------------------ *)
(* Filesystem model: path -> contents, plus a directory set.           *)
(* ------------------------------------------------------------------ *)

type fs_op =
  | F_create_write of int * string   (* file id, contents (whole file) *)
  | F_append of int * string
  | F_read_at of int * int * int     (* file id, offset, length *)
  | F_unlink of int
  | F_stat of int
  | F_mkdir of int
  | F_rmdir of int
  | F_rename of int * int

let file_path i = Printf.sprintf "/tmp/m%d" (i mod 6)
let dir_path i = Printf.sprintf "/tmp/md%d" (i mod 4)

let gen_fs_op rng =
  let s n = String.init n (fun _ -> Char.chr (Char.code 'a' + Rng.int rng 26)) in
  match Rng.int rng 8 with
  | 0 -> F_create_write (Rng.int rng 100, s (1 + Rng.int rng 60))
  | 1 -> F_append (Rng.int rng 100, s (1 + Rng.int rng 30))
  | 2 -> F_read_at (Rng.int rng 100, Rng.int rng 80, 1 + Rng.int rng 40)
  | 3 -> F_unlink (Rng.int rng 100)
  | 4 -> F_stat (Rng.int rng 100)
  | 5 -> F_mkdir (Rng.int rng 100)
  | 6 -> F_rmdir (Rng.int rng 100)
  | _ -> F_rename (Rng.int rng 100, Rng.int rng 100)

(* The reference model. *)
module Model = struct
  type t = {
    mutable files : (string * string) list;  (* path -> contents *)
    mutable dirs : string list;
  }

  let create () = { files = []; dirs = [] }

  let observe m op =
    match op with
    | F_create_write (i, data) ->
      let p = file_path i in
      m.files <- (p, data) :: List.remove_assoc p m.files;
      Printf.sprintf "write %d" (String.length data)
    | F_append (i, data) ->
      let p = file_path i in
      (match List.assoc_opt p m.files with
       | None ->
         m.files <- (p, data) :: m.files;
         Printf.sprintf "append-new %d" (String.length data)
       | Some old ->
         m.files <- (p, old ^ data) :: List.remove_assoc p m.files;
         Printf.sprintf "append %d" (String.length (old ^ data)))
    | F_read_at (i, off, len) ->
      let p = file_path i in
      (match List.assoc_opt p m.files with
       | None -> "read ENOENT"
       | Some data ->
         let n = max 0 (min len (String.length data - off)) in
         let chunk = if n = 0 then "" else String.sub data off n in
         Printf.sprintf "read %S" chunk)
    | F_unlink i ->
      let p = file_path i in
      if List.mem_assoc p m.files then begin
        m.files <- List.remove_assoc p m.files;
        "unlink ok"
      end
      else "unlink ENOENT"
    | F_stat i ->
      let p = file_path i in
      (match List.assoc_opt p m.files with
       | Some data -> Printf.sprintf "stat %d" (String.length data)
       | None -> "stat ENOENT")
    | F_mkdir i ->
      let p = dir_path i in
      if List.mem p m.dirs then "mkdir EEXIST"
      else begin
        m.dirs <- p :: m.dirs;
        "mkdir ok"
      end
    | F_rmdir i ->
      let p = dir_path i in
      if List.mem p m.dirs then begin
        m.dirs <- List.filter (fun d -> d <> p) m.dirs;
        "rmdir ok"
      end
      else "rmdir ENOENT"
    | F_rename (a, b) ->
      let pa = file_path a and pb = file_path b in
      (match List.assoc_opt pa m.files with
       | None -> "rename ENOENT"
       | Some data ->
         if pa = pb then "rename ok"
         else begin
           m.files <-
             (pb, data) :: List.remove_assoc pb (List.remove_assoc pa m.files);
           "rename ok"
         end)
end

(* The same observation through the real system. *)
let run_fs_op op =
  match op with
  | F_create_write (i, data) ->
    let fd = Syscall.open_ (file_path i) Message.creat in
    if fd < 0 then "open failed"
    else
      let w = Syscall.write ~fd data in
      let _ = Syscall.close fd in
      Printf.sprintf "write %d" w
  | F_append (i, data) ->
    let flags = { Message.o_create = true; o_trunc = false; o_append = true } in
    let fd = Syscall.open_ (file_path i) flags in
    if fd < 0 then "open failed"
    else begin
      let _ = Syscall.write ~fd data in
      let st = Syscall.fstat fd in
      let _ = Syscall.close fd in
      match st with
      | Ok { Message.st_size; _ } ->
        if st_size = String.length data then
          Printf.sprintf "append-new %d" st_size
        else Printf.sprintf "append %d" st_size
      | Error _ -> "append fstat failed"
    end
  | F_read_at (i, off, len) ->
    let fd = Syscall.open_ (file_path i) Message.rdonly in
    if fd = Errno.to_code Errno.ENOENT then "read ENOENT"
    else if fd < 0 then "open failed"
    else begin
      let _ = Syscall.lseek ~fd ~off Message.Seek_set in
      let r = Syscall.read ~fd ~len in
      let _ = Syscall.close fd in
      match r with
      | Ok chunk -> Printf.sprintf "read %S" chunk
      | Error e -> "read " ^ Errno.to_string e
    end
  | F_unlink i ->
    let r = Syscall.unlink (file_path i) in
    if r >= 0 then "unlink ok"
    else if r = Errno.to_code Errno.ENOENT then "unlink ENOENT"
    else "unlink ?"
  | F_stat i ->
    (match Syscall.stat (file_path i) with
     | Ok { Message.st_size; _ } -> Printf.sprintf "stat %d" st_size
     | Error Errno.ENOENT -> "stat ENOENT"
     | Error e -> "stat " ^ Errno.to_string e)
  | F_mkdir i ->
    let r = Syscall.mkdir (dir_path i) in
    if r >= 0 then "mkdir ok"
    else if r = Errno.to_code Errno.EEXIST then "mkdir EEXIST"
    else "mkdir ?"
  | F_rmdir i ->
    let r = Syscall.rmdir (dir_path i) in
    if r >= 0 then "rmdir ok"
    else if r = Errno.to_code Errno.ENOENT then "rmdir ENOENT"
    else "rmdir ?"
  | F_rename (a, b) ->
    let r = Syscall.rename ~src:(file_path a) ~dst:(file_path b) in
    if r >= 0 then "rename ok"
    else if r = Errno.to_code Errno.ENOENT then "rename ENOENT"
    else "rename ?"

(* Run [observe] on each op in a root program, printing each result,
   and collect the printed observations. *)
let observe_in_system observe ops =
  let sys = System.build (Sysconf.uniform Policy.enhanced) in
  let root () =
    List.iter (fun op -> Syscall.print ("OBS " ^ observe op)) ops;
    Syscall.exit 0
  in
  let halt = System.run sys ~root in
  let collected =
    List.filter_map
      (fun line ->
         if String.length line > 4 && String.sub line 0 4 = "OBS " then
           Some (String.sub line 4 (String.length line - 4))
         else None)
      (System.log_lines sys)
  in
  (halt, collected)

let observe_system ops = observe_in_system run_fs_op ops

let observe_model ops =
  let m = Model.create () in
  List.map (Model.observe m) ops

let fs_ops_gen =
  QCheck.Gen.(
    let* seed = small_nat in
    let* n = int_range 1 25 in
    let rng = Rng.create (seed + 77) in
    return (List.init n (fun _ -> gen_fs_op rng)))

let show_ops ops = Printf.sprintf "<%d fs ops>" (List.length ops)

let prop_fs_matches_model =
  QCheck.Test.make ~name:"filesystem agrees with the reference model"
    ~count:40
    (QCheck.make ~print:show_ops fs_ops_gen)
    (fun ops ->
       let halt, got = observe_system ops in
       let expected = observe_model ops in
       if halt <> Kernel.H_completed 0 then false
       else if got <> expected then begin
         List.iter2
           (fun g e ->
              if g <> e then Printf.printf "  system=%S model=%S\n%!" g e)
           got expected;
         false
       end
       else true)

(* ------------------------------------------------------------------ *)
(* DS model                                                             *)
(* ------------------------------------------------------------------ *)

type ds_op = D_pub of int * int | D_get of int | D_del of int

let gen_ds_op rng =
  match Rng.int rng 3 with
  | 0 -> D_pub (Rng.int rng 6, Rng.int rng 1000)
  | 1 -> D_get (Rng.int rng 6)
  | _ -> D_del (Rng.int rng 6)

let ds_key i = Printf.sprintf "model.%d" i

let observe_ds_model ops =
  let tbl = Hashtbl.create 8 in
  List.map
    (function
      | D_pub (k, v) ->
        Hashtbl.replace tbl k v;
        "pub ok"
      | D_get k ->
        (match Hashtbl.find_opt tbl k with
         | Some v -> Printf.sprintf "get %d" v
         | None -> "get ENOENT")
      | D_del k ->
        if Hashtbl.mem tbl k then begin
          Hashtbl.remove tbl k;
          "del ok"
        end
        else "del ENOENT")
    ops

let run_ds_op = function
  | D_pub (k, v) ->
    if Syscall.ds_publish ~key:(ds_key k) ~value:v >= 0 then "pub ok"
    else "pub ?"
  | D_get k ->
    (match Syscall.ds_retrieve ~key:(ds_key k) with
     | Ok v -> Printf.sprintf "get %d" v
     | Error Errno.ENOENT -> "get ENOENT"
     | Error e -> "get " ^ Errno.to_string e)
  | D_del k ->
    let r = Syscall.ds_delete ~key:(ds_key k) in
    if r >= 0 then "del ok"
    else if r = Errno.to_code Errno.ENOENT then "del ENOENT"
    else "del ?"

let observe_ds_system ops = snd (observe_in_system run_ds_op ops)

let ds_ops_gen =
  QCheck.Gen.(
    let* seed = small_nat in
    let* n = int_range 1 30 in
    let rng = Rng.create (seed + 99) in
    return (List.init n (fun _ -> gen_ds_op rng)))

let prop_ds_matches_model =
  QCheck.Test.make ~name:"data store agrees with the reference model"
    ~count:40
    (QCheck.make ~print:(fun ops -> Printf.sprintf "<%d ds ops>" (List.length ops))
       ds_ops_gen)
    (fun ops -> observe_ds_system ops = observe_ds_model ops)

let () =
  Alcotest.run "osiris_model"
    [ ( "differential",
        [ QCheck_alcotest.to_alcotest prop_fs_matches_model;
          QCheck_alcotest.to_alcotest prop_ds_matches_model ] ) ]
