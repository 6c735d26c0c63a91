let max_inodes = 256
let direct_blocks = 8
(* One single-indirect block of pointers extends a file to
   direct + block_size/8 blocks (8 KiB + 128 KiB with 1 KiB blocks). *)
let indirect_slots = Bdev.block_size / 8
let max_blocks_per_file = direct_blocks + indirect_slots
let name_len = 32
let max_file_size = max_blocks_per_file * Bdev.block_size

let kind_free = 0
let kind_file = 1
let kind_dir = 2

let image_kb = 512

type t = {
  image : Memimage.t;
  inodes : Layout.Table.t;
  i_kind : Layout.int_field;
  i_size : Layout.int_field;
  i_parent : Layout.int_field;
  i_name : Layout.str_field;
  i_blocks : Layout.int_field array;  (* direct: block+1; 0 = unallocated *)
  i_indirect : Layout.int_field;      (* indirect block+1; 0 = none *)
  freelist : Layout.Table.t;          (* per-block next pointer *)
  b_next : Layout.int_field;
  c_free_head : Layout.Cell.t;        (* block+1; 0 = exhausted *)
  c_n_files : Layout.Cell.t;
  (* Buffer cache: file data is staged through the server image on its
     way to/from the device (MINIX keeps the cache in MFS's data
     segment). The staging stores are what the checkpointing
     instrumentation logs on the data path. *)
  cache : Layout.Table.t;
  cb_tag : Layout.int_field;
  cb_data : Layout.str_field;
  c_cache_next : Layout.Cell.t;
}

let cache_slots = 8

let create_raw () =
  let image = Memimage.create ~name:"mfs" ~size:(image_kb * 1024) in
  let spec = Layout.spec () in
  let i_kind = Layout.int spec "kind" in
  let i_size = Layout.int spec "size" in
  let i_parent = Layout.int spec "parent" in
  let i_name = Layout.str spec "name" ~len:name_len in
  let i_blocks =
    Array.init direct_blocks (fun i -> Layout.int spec (Printf.sprintf "b%d" i))
  in
  let i_indirect = Layout.int spec "indirect" in
  Layout.seal spec;
  let inodes = Layout.Table.alloc image ~spec ~rows:max_inodes in
  let bspec = Layout.spec () in
  let b_next = Layout.int bspec "next" in
  Layout.seal bspec;
  let freelist = Layout.Table.alloc image ~spec:bspec ~rows:Bdev.block_count in
  let c_free_head = Layout.Cell.alloc_int image "free_head" in
  let c_n_files = Layout.Cell.alloc_int image "n_files" in
  let cspec = Layout.spec () in
  let cb_tag = Layout.int cspec "tag" in
  let cb_data = Layout.str cspec "data" ~len:Bdev.block_size in
  Layout.seal cspec;
  let cache = Layout.Table.alloc image ~spec:cspec ~rows:8 in
  let c_cache_next = Layout.Cell.alloc_int image "cache_next" in
  { image; inodes; i_kind; i_size; i_parent; i_name; i_blocks; i_indirect;
    freelist; b_next; c_free_head; c_n_files; cache; cb_tag; cb_data;
    c_cache_next }

(* ---------------- path handling (pure helpers) -------------------- *)

let split_path path =
  List.filter (fun c -> c <> "") (String.split_on_char '/' path)

(* ---------------- inode helpers ----------------------------------- *)

(* Server logic is direct style: every table access below is a
   [Kernel.Op] call, i.e. one costed, instrumented, fault-injectable
   operation, like a load or store of the original C server. *)
module Mem = Kernel.Op.Mem

let find_child t ~parent ~name =
  Mem.(scan t.inodes ~rows:max_inodes
         (Int_ne (t.i_kind, kind_free,
                  Row_ne (0, Int_eq (t.i_parent, parent,
                                     Str_eq (t.i_name, name, Hit))))))

let resolve t path =
  let rec walk cur = function
    | [] -> Ok cur
    | comp :: rest ->
      if String.length comp >= name_len then Error Errno.ENAMETOOLONG
      else if Mem.get_int t.inodes ~row:cur t.i_kind <> kind_dir then
        Error Errno.ENOTDIR
      else
        match find_child t ~parent:cur ~name:comp with
        | None -> Error Errno.ENOENT
        | Some ino -> walk ino rest
  in
  walk 0 (split_path path)

(* Split "/a/b/leaf" into the inode of "/a/b" and "leaf". *)
let resolve_parent t path =
  match List.rev (split_path path) with
  | [] -> Error Errno.EINVAL
  | leaf :: rev_dir ->
    if String.length leaf >= name_len then Error Errno.ENAMETOOLONG
    else
      let dir_path = String.concat "/" (List.rev rev_dir) in
      Result.map (fun dir_ino -> (dir_ino, leaf)) (resolve t ("/" ^ dir_path))

let find_free_inode t =
  Mem.(scan t.inodes ~rows:max_inodes (Row_ne (0, Int_eq (t.i_kind, kind_free, Hit))))

(* ---------------- block allocation -------------------------------- *)

let alloc_block t =
  let head = Mem.get_cell t.c_free_head in
  if head = 0 then None
  else begin
    let block = head - 1 in
    let next = Mem.get_int t.freelist ~row:block t.b_next in
    Mem.set_cell t.c_free_head next;
    Some block
  end

let free_block t block =
  let head = Mem.get_cell t.c_free_head in
  Mem.set_int t.freelist ~row:block t.b_next head;
  Mem.set_cell t.c_free_head (block + 1)

(* ---------------- data path --------------------------------------- *)

(* The indirect block stores 8-byte little-endian pointers (block+1). *)
let ind_slot data slot =
  if String.length data >= (slot + 1) * 8 then
    Int64.to_int (Bytes.get_int64_le (Bytes.of_string data) (slot * 8))
  else 0

let ind_set data slot v =
  let b = Bytes.make Bdev.block_size '\000' in
  Bytes.blit_string data 0 b 0 (min (String.length data) Bdev.block_size);
  Bytes.set_int64_le b (slot * 8) (Int64.of_int v);
  Bytes.to_string b

let bdev_read block = Kernel.Op.call Endpoint.bdev (Message.Bdev_read { block })

let bdev_write block data =
  Kernel.Op.call Endpoint.bdev (Message.Bdev_write { block; data })

let fetch_block block =
  match bdev_read block with
  | Message.R_read { data } -> data
  | _ -> ""

(* A device block padded with NULs to the full block size. *)
let pad_block data =
  if String.length data < Bdev.block_size then
    data ^ String.make (Bdev.block_size - String.length data) '\000'
  else data

(* Pointer to the idx-th block of a file (block+1; 0 = hole). Indexes
   past the direct range go through the single-indirect block, costing
   a device read. *)
let block_of t ~ino ~idx =
  if idx < direct_blocks then Mem.get_int t.inodes ~row:ino t.i_blocks.(idx)
  else
    let ind = Mem.get_int t.inodes ~row:ino t.i_indirect in
    if ind = 0 then 0 else ind_slot (fetch_block (ind - 1)) (idx - direct_blocks)

(* Record a freshly allocated block pointer, creating the indirect
   block on demand. Returns false if the indirect block cannot be
   allocated. *)
let set_block t ~ino ~idx v =
  if idx < direct_blocks then begin
    Mem.set_int t.inodes ~row:ino t.i_blocks.(idx) v;
    true
  end
  else
    let ind = Mem.get_int t.inodes ~row:ino t.i_indirect in
    let ind_block =
      if ind <> 0 then Some (ind - 1, false)
      else
        match alloc_block t with
        | None -> None
        | Some b ->
          Mem.set_int t.inodes ~row:ino t.i_indirect (b + 1);
          Some (b, true)
    in
    match ind_block with
    | None -> false
    | Some (ib, fresh) ->
      (* A recycled block still holds its previous contents on the
         device; a brand-new pointer block must start zeroed. *)
      let data = if fresh then "" else fetch_block ib in
      ignore (bdev_write ib (ind_set data (idx - direct_blocks) v));
      true

(* Stage a block's contents in the next cache slot (round-robin). *)
let stage_block t ~block data =
  let slot = Mem.get_cell t.c_cache_next in
  let row = slot mod cache_slots in
  Mem.set_cell t.c_cache_next (slot + 1);
  Mem.set_int t.cache ~row t.cb_tag (block + 1);
  Mem.set_str t.cache ~row t.cb_data data

(* Read [len] bytes at [off]; holes read as NULs, reads past the size
   are clamped. *)
let read_data t ~ino ~off ~len =
  let size = Mem.get_int t.inodes ~row:ino t.i_size in
  let len = max 0 (min len (size - off)) in
  if len <= 0 then ""
  else begin
    let buf = Buffer.create len in
    let pos = ref off in
    while !pos < off + len do
      let idx = !pos / Bdev.block_size in
      let boff = !pos mod Bdev.block_size in
      let chunk = min (Bdev.block_size - boff) (off + len - !pos) in
      let bptr = block_of t ~ino ~idx in
      (if bptr = 0 then Buffer.add_string buf (String.make chunk '\000')
       else
         match bdev_read (bptr - 1) with
         | Message.R_read { data } ->
           stage_block t ~block:(bptr - 1) data;
           Buffer.add_string buf (String.sub (pad_block data) boff chunk)
         | _ -> Buffer.add_string buf (String.make chunk '\000'));
      pos := !pos + chunk
    done;
    Buffer.contents buf
  end

(* Write [data] at [off], allocating blocks on demand and growing the
   size. Partial-block updates read-modify-write through the device. *)
let write_data t ~ino ~off ~data =
  let len = String.length data in
  if off < 0 || off + len > max_file_size then Error Errno.ENOSPC
  else begin
    let rec go pos =
      if pos >= len then begin
        let size = Mem.get_int t.inodes ~row:ino t.i_size in
        if off + len > size then Mem.set_int t.inodes ~row:ino t.i_size (off + len);
        Ok len
      end
      else begin
        let fpos = off + pos in
        let idx = fpos / Bdev.block_size in
        let boff = fpos mod Bdev.block_size in
        let chunk = min (Bdev.block_size - boff) (len - pos) in
        let bptr = block_of t ~ino ~idx in
        let balloc =
          if bptr <> 0 then Some (bptr - 1)
          else
            match alloc_block t with
            | None -> None
            | Some b ->
              if set_block t ~ino ~idx (b + 1) then Some b
              else begin
                free_block t b;
                None
              end
        in
        match balloc with
        | None -> Error Errno.ENOSPC
        | Some block ->
          let merged =
            if boff = 0 && chunk = Bdev.block_size then String.sub data pos chunk
            else begin
              let old =
                match bdev_read block with
                | Message.R_read { data = d } -> pad_block d
                | _ -> String.make Bdev.block_size '\000'
              in
              let b = Bytes.of_string old in
              Bytes.blit_string data pos b boff chunk;
              Bytes.to_string b
            end
          in
          let r = bdev_write block merged in
          (* Refresh the cache copy once the device has the block. *)
          stage_block t ~block merged;
          match Srvlib.err_of_reply r with
          | Some e -> Error e
          | None -> go (pos + chunk)
      end
    in
    go 0
  end

let free_inode_blocks t ~ino ~from_idx =
  for idx = from_idx to direct_blocks - 1 do
    let bptr = Mem.get_int t.inodes ~row:ino t.i_blocks.(idx) in
    if bptr <> 0 then begin
      free_block t (bptr - 1);
      Mem.set_int t.inodes ~row:ino t.i_blocks.(idx) 0
    end
  done;
  let ind = Mem.get_int t.inodes ~row:ino t.i_indirect in
  if ind <> 0 then begin
    let keep_from = max 0 (from_idx - direct_blocks) in
    let data = fetch_block (ind - 1) in
    for slot = keep_from to indirect_slots - 1 do
      let bptr = ind_slot data slot in
      if bptr <> 0 then free_block t (bptr - 1)
    done;
    if keep_from = 0 then begin
      (* The whole indirect range is gone: release the pointer block. *)
      free_block t (ind - 1);
      Mem.set_int t.inodes ~row:ino t.i_indirect 0
    end
    else begin
      (* Zero the freed tail of the pointer block. *)
      let rec zero data slot =
        if slot >= indirect_slots then data else zero (ind_set data slot 0) (slot + 1)
      in
      ignore (bdev_write (ind - 1) (zero data keep_from))
    end
  end

let dir_is_empty t ~ino =
  Mem.(scan t.inodes ~rows:max_inodes
         (Row_ne (0, Int_ne (t.i_kind, kind_free, Int_eq (t.i_parent, ino, Hit)))))
  = None

let lookup_reply t src ino =
  let kind = Mem.get_int t.inodes ~row:ino t.i_kind in
  let size = Mem.get_int t.inodes ~row:ino t.i_size in
  Kernel.Op.reply src (Message.R_lookup { ino; size; is_dir = kind = kind_dir })

let create_node t src path ~kind =
  match resolve_parent t path with
  | Error e -> Srvlib.reply_err src e
  | Ok (parent, leaf) ->
    if Option.is_some (find_child t ~parent ~name:leaf) then
      Srvlib.reply_err src Errno.EEXIST
    else
      match find_free_inode t with
      | None -> Srvlib.reply_err src Errno.ENFILE
      | Some ino ->
        Mem.set_int t.inodes ~row:ino t.i_kind kind;
        Mem.set_int t.inodes ~row:ino t.i_size 0;
        Mem.set_int t.inodes ~row:ino t.i_parent parent;
        Mem.set_str t.inodes ~row:ino t.i_name leaf;
        let n = Mem.get_cell t.c_n_files in
        Mem.set_cell t.c_n_files (n + 1);
        lookup_reply t src ino

(* Inode numbers in a request are range-checked before any table
   access. *)
let valid_ino ino = ino >= 0 && ino < max_inodes

let handle t src msg =
  match msg with
  | Message.Mfs_lookup { path } ->
    (match resolve t path with
     | Error e -> Srvlib.reply_err src e
     | Ok ino -> lookup_reply t src ino)
  | Message.Mfs_create { path } -> create_node t src path ~kind:kind_file
  | Message.Mfs_mkdir { path } -> create_node t src path ~kind:kind_dir
  | Message.Mfs_read { ino; off; len } ->
    if (not (valid_ino ino)) || off < 0 || len < 0 then
      Srvlib.reply_err src Errno.EINVAL
    else if Mem.get_int t.inodes ~row:ino t.i_kind <> kind_file then
      Srvlib.reply_err src Errno.EISDIR
    else
      let data = read_data t ~ino ~off ~len in
      Kernel.Op.reply src (Message.R_read { data })
  | Message.Mfs_write { ino; off; data } ->
    if (not (valid_ino ino)) || off < 0 then Srvlib.reply_err src Errno.EINVAL
    else if Mem.get_int t.inodes ~row:ino t.i_kind <> kind_file then
      Srvlib.reply_err src Errno.EISDIR
    else (
      match write_data t ~ino ~off ~data with
      | Error e -> Srvlib.reply_err src e
      | Ok n -> Srvlib.reply_ok src n)
  | Message.Mfs_trunc { ino; len } ->
    if (not (valid_ino ino)) || len < 0 || len > max_file_size then
      Srvlib.reply_err src Errno.EINVAL
    else if Mem.get_int t.inodes ~row:ino t.i_kind <> kind_file then
      Srvlib.reply_err src Errno.EISDIR
    else begin
      let keep = (len + Bdev.block_size - 1) / Bdev.block_size in
      free_inode_blocks t ~ino ~from_idx:keep;
      Mem.set_int t.inodes ~row:ino t.i_size len;
      Srvlib.reply_ok src 0
    end
  | Message.Mfs_unlink { path } ->
    (match resolve t path with
     | Error e -> Srvlib.reply_err src e
     | Ok 0 -> Srvlib.reply_err src Errno.EPERM
     | Ok ino ->
       if Mem.get_int t.inodes ~row:ino t.i_kind = kind_dir then
         Srvlib.reply_err src Errno.EISDIR
       else begin
         free_inode_blocks t ~ino ~from_idx:0;
         Mem.set_int t.inodes ~row:ino t.i_kind kind_free;
         let n = Mem.get_cell t.c_n_files in
         Mem.set_cell t.c_n_files (n - 1);
         Srvlib.reply_ok src 0
       end)
  | Message.Mfs_rmdir { path } ->
    (match resolve t path with
     | Error e -> Srvlib.reply_err src e
     | Ok 0 -> Srvlib.reply_err src Errno.EPERM
     | Ok ino ->
       if Mem.get_int t.inodes ~row:ino t.i_kind <> kind_dir then
         Srvlib.reply_err src Errno.ENOTDIR
       else if not (dir_is_empty t ~ino) then Srvlib.reply_err src Errno.ENOTEMPTY
       else begin
         Mem.set_int t.inodes ~row:ino t.i_kind kind_free;
         Srvlib.reply_ok src 0
       end)
  | Message.Mfs_stat { ino } ->
    if not (valid_ino ino) then Srvlib.reply_err src Errno.EINVAL
    else
      let kind = Mem.get_int t.inodes ~row:ino t.i_kind in
      if kind = kind_free then Srvlib.reply_err src Errno.ENOENT
      else
        let size = Mem.get_int t.inodes ~row:ino t.i_size in
        Kernel.Op.reply src
          (Message.R_stat { st_ino = ino; st_size = size; st_is_dir = kind = kind_dir })
  | Message.Mfs_rename { src = from_path; dst = to_path } ->
    (match resolve t from_path with
     | Error e -> Srvlib.reply_err src e
     | Ok 0 -> Srvlib.reply_err src Errno.EPERM
     | Ok ino ->
       match resolve_parent t to_path with
       | Error e -> Srvlib.reply_err src e
       | Ok (nparent, nleaf) ->
         let clear =
           match find_child t ~parent:nparent ~name:nleaf with
           | Some old when old <> ino ->
             if Mem.get_int t.inodes ~row:old t.i_kind = kind_dir then
               Error Errno.EISDIR
             else begin
               free_inode_blocks t ~ino:old ~from_idx:0;
               Mem.set_int t.inodes ~row:old t.i_kind kind_free;
               Ok ()
             end
           | _ -> Ok ()
         in
         (match clear with
          | Error e -> Srvlib.reply_err src e
          | Ok () ->
            Mem.set_int t.inodes ~row:ino t.i_parent nparent;
            Mem.set_str t.inodes ~row:ino t.i_name nleaf;
            Srvlib.reply_ok src 0))
  | Message.Mfs_readdir { ino } ->
    if not (valid_ino ino) then Srvlib.reply_err src Errno.EINVAL
    else if Mem.get_int t.inodes ~row:ino t.i_kind <> kind_dir then
      Srvlib.reply_err src Errno.ENOTDIR
    else begin
      let entries = Mem.(Int_ne (t.i_kind, kind_free, Int_eq (t.i_parent, ino, Hit))) in
      let names = ref [] and from = ref 1 in
      while !from < max_inodes do
        match Mem.scan_from t.inodes ~rows:max_inodes ~from:!from entries with
        | None -> from := max_inodes
        | Some row ->
          names := Mem.get_str t.inodes ~row t.i_name :: !names;
          from := row + 1
      done;
      Kernel.Op.reply src (Message.R_names { names = List.rev !names })
    end
  | Message.Mfs_sync ->
    (* The RAM disk is always consistent; sync is a costed no-op. *)
    Kernel.Op.compute 50;
    Srvlib.reply_ok src 0
  | Message.Ping -> Kernel.Op.reply src Message.R_pong
  | _ -> Srvlib.reply_err src Errno.ENOSYS

(* mkfs: root directory at inode 0 and a free list chaining all blocks.
   Done directly (pre-boot, uninstrumented), like building a disk image
   offline. *)
let mkfs t =
  Layout.Table.set_int t.inodes ~row:0 t.i_kind kind_dir;
  Layout.Table.set_int t.inodes ~row:0 t.i_parent 0;
  Layout.Table.set_str t.inodes ~row:0 t.i_name "";
  for b = 0 to Bdev.block_count - 1 do
    Layout.Table.set_int t.freelist ~row:b t.b_next
      (if b + 1 < Bdev.block_count then b + 2 else 0)
  done;
  Layout.Cell.set t.c_free_head 1;
  Layout.Cell.set t.c_n_files 0

(* ---------------- direct pre-boot population ---------------------- *)

let direct_split_resolve t path =
  let rec walk cur = function
    | [] -> Some cur
    | comp :: rest ->
      let rec find row =
        if row >= max_inodes then None
        else if
          row <> 0
          && Layout.Table.get_int t.inodes ~row t.i_kind <> kind_free
          && Layout.Table.get_int t.inodes ~row t.i_parent = cur
          && String.equal (Layout.Table.get_str t.inodes ~row t.i_name) comp
        then Some row
        else find (row + 1)
      in
      (match find 1 with None -> None | Some ino -> walk ino rest)
  in
  walk 0 (split_path path)

let direct_free_inode t =
  let rec find row =
    if row >= max_inodes then failwith "mfs preload: inode table full"
    else if Layout.Table.get_int t.inodes ~row t.i_kind = kind_free then row
    else find (row + 1)
  in
  find 1

let direct_new_node t path kind =
  match List.rev (split_path path) with
  | [] -> failwith "mfs preload: empty path"
  | leaf :: rev_dir ->
    let dir = "/" ^ String.concat "/" (List.rev rev_dir) in
    (match direct_split_resolve t dir with
     | None -> failwith ("mfs preload: missing parent for " ^ path)
     | Some parent ->
       let ino = direct_free_inode t in
       Layout.Table.set_int t.inodes ~row:ino t.i_kind kind;
       Layout.Table.set_int t.inodes ~row:ino t.i_size 0;
       Layout.Table.set_int t.inodes ~row:ino t.i_parent parent;
       Layout.Table.set_str t.inodes ~row:ino t.i_name leaf;
       Layout.Cell.set t.c_n_files (Layout.Cell.get t.c_n_files + 1);
       ino)

let add_dir t path =
  match direct_split_resolve t path with
  | Some _ -> ()
  | None -> ignore (direct_new_node t path kind_dir)

let add_file t ~bdev ~path ~content =
  if String.length content > direct_blocks * Bdev.block_size then
    failwith ("mfs preload: file exceeds the direct range: " ^ path);
  let ino = direct_new_node t path kind_file in
  let len = String.length content in
  let nblocks = (len + Bdev.block_size - 1) / Bdev.block_size in
  for idx = 0 to nblocks - 1 do
    let head = Layout.Cell.get t.c_free_head in
    if head = 0 then failwith "mfs preload: out of blocks";
    let block = head - 1 in
    Layout.Cell.set t.c_free_head
      (Layout.Table.get_int t.freelist ~row:block t.b_next);
    Layout.Table.set_int t.inodes ~row:ino t.i_blocks.(idx) (block + 1);
    let off = idx * Bdev.block_size in
    let chunk = min Bdev.block_size (len - off) in
    Bdev.poke_block bdev block (String.sub content off chunk)
  done;
  Layout.Table.set_int t.inodes ~row:ino t.i_size len

let init _t () = ()

let corrupt_for_test t =
  (* Point the free-list head at the root of an allocated chain: the
     first allocated block found in the inode table. *)
  let rec find ino =
    if ino >= max_inodes then 1
    else
      let b = Layout.Table.get_int t.inodes ~row:ino t.i_blocks.(0) in
      if b <> 0 then b else find (ino + 1)
  in
  Layout.Cell.set t.c_free_head (find 0)

(* fsck (tests only): direct-table block conservation check. *)
let check_invariants t ~bdev =
  let err fmt = Printf.ksprintf (fun m -> Error m) fmt in
  let seen = Array.make Bdev.block_count 0 in
  let claim what block =
    if block < 0 || block >= Bdev.block_count then
      err "%s: block %d out of range" what block
    else begin
      seen.(block) <- seen.(block) + 1;
      if seen.(block) > 1 then err "%s: block %d multiply referenced" what block
      else Ok ()
    end
  in
  let ( let$ ) r k = match r with Error _ as e -> e | Ok () -> k () in
  (* 1. Free list: no cycles, claims each block once. *)
  let rec walk_free head steps =
    if head = 0 then Ok ()
    else if steps > Bdev.block_count then Error "free list cycle"
    else
      let$ () = claim "free list" (head - 1) in
      walk_free (Layout.Table.get_int t.freelist ~row:(head - 1) t.b_next)
        (steps + 1)
  in
  let$ () = walk_free (Layout.Cell.get t.c_free_head) 0 in
  (* 2. Inodes: directs, indirect pointer block, indirect slots. *)
  let rec walk_inodes ino =
    if ino >= max_inodes then Ok ()
    else begin
      let kind = Layout.Table.get_int t.inodes ~row:ino t.i_kind in
      if kind = kind_free then walk_inodes (ino + 1)
      else begin
        let parent = Layout.Table.get_int t.inodes ~row:ino t.i_parent in
        if ino <> 0
           && Layout.Table.get_int t.inodes ~row:parent t.i_kind <> kind_dir
        then err "inode %d: parent %d is not a directory" ino parent
        else begin
          let rec directs idx =
            if idx >= direct_blocks then Ok ()
            else
              let bptr = Layout.Table.get_int t.inodes ~row:ino t.i_blocks.(idx) in
              if bptr = 0 then directs (idx + 1)
              else
                let$ () = claim (Printf.sprintf "inode %d direct" ino) (bptr - 1) in
                directs (idx + 1)
          in
          let$ () = directs 0 in
          let ind = Layout.Table.get_int t.inodes ~row:ino t.i_indirect in
          let$ () =
            if ind = 0 then Ok ()
            else
              let$ () = claim (Printf.sprintf "inode %d indirect ptr" ino) (ind - 1) in
              let data = Bdev.peek_block bdev (ind - 1) in
              let rec slots slot =
                if slot >= indirect_slots then Ok ()
                else
                  let bptr = ind_slot data slot in
                  if bptr = 0 then slots (slot + 1)
                  else
                    let$ () =
                      claim (Printf.sprintf "inode %d indirect slot" ino) (bptr - 1)
                    in
                    slots (slot + 1)
              in
              slots 0
          in
          walk_inodes (ino + 1)
        end
      end
    end
  in
  let$ () = walk_inodes 0 in
  (* 3. Conservation: every block accounted for exactly once. *)
  let missing = ref [] in
  Array.iteri (fun b n -> if n = 0 then missing := b :: !missing) seen;
  match !missing with
  | [] -> Ok ()
  | b :: _ ->
    err "%d blocks leaked (neither free nor referenced), e.g. %d"
      (List.length !missing) b

let create () =
  let t = create_raw () in
  mkfs t;
  t

let server t =
  { Kernel.srv_ep = Endpoint.mfs;
    srv_name = "mfs";
    srv_image = t.image;
    srv_clone_extra_kb = 512;
    srv_init = init t;
    srv_loop = Srvlib.simple_loop (handle t);
    srv_multithreaded = false }

let summary =
  let bdev_r = (Endpoint.bdev, Message.Tag.T_bdev_read) in
  let bdev_w = (Endpoint.bdev, Message.Tag.T_bdev_write) in
  Summary.make Endpoint.mfs
    [ Summary.handler Message.Tag.T_mfs_lookup [ Summary.seg 500 ];
      Summary.handler Message.Tag.T_mfs_create [ Summary.seg 800 ];
      Summary.handler Message.Tag.T_mfs_read
        [ Summary.seg ~out:bdev_r 20; Summary.seg ~out:bdev_r ~maybe:true 10;
          Summary.seg 10 ];
      Summary.handler Message.Tag.T_mfs_write
        [ Summary.seg ~out:bdev_r ~maybe:true 20; Summary.seg ~out:bdev_w 10;
          Summary.seg 10 ];
      Summary.handler Message.Tag.T_mfs_trunc [ Summary.seg 40 ];
      Summary.handler Message.Tag.T_mfs_unlink [ Summary.seg 600 ];
      Summary.handler Message.Tag.T_mfs_mkdir [ Summary.seg 800 ];
      Summary.handler Message.Tag.T_mfs_rmdir [ Summary.seg 800 ];
      Summary.handler Message.Tag.T_mfs_stat [ Summary.seg 5 ];
      Summary.handler Message.Tag.T_mfs_readdir [ Summary.seg 600 ];
      Summary.handler Message.Tag.T_mfs_rename [ Summary.seg 1200 ];
      Summary.handler Message.Tag.T_mfs_sync [ Summary.seg 2 ];
      Summary.handler Message.Tag.T_ping [ Summary.seg 1 ] ]
