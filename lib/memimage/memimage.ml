type write_hook = offset:int -> len:int -> unit

(* Dirty-region granularity: 256-byte granules, tracked one byte per
   granule so marking is a single unsafe store on the hot path. *)
let granule_shift = 8
let granule = 1 lsl granule_shift

type t = {
  img_name : string;
  data : Bytes.t;
  mutable cursor : int;
  mutable hook : write_hook option;
  mutable writes : int;
  mutable bytes_written : int;
  dirty : Bytes.t;                 (* '\001' = granule written since last clean point *)
  mutable n_dirty : int;
  (* The baseline, kept granule by granule: a granule's baseline
     contents are copied into [base_arena] just before its first write
     after [set_baseline], at offset [base_slot.(g)]; -1 while the image
     still holds them. [base_slot] is empty when no baseline is set. *)
  mutable base_slot : int array;
  mutable base_arena : Bytes.t;
  mutable base_used : int;
  mutable restore_ops : int;
  mutable restore_bytes : int;
  mutable restore_bytes_saved : int;
}

let n_granules size = (size + granule - 1) lsr granule_shift

let create ~name ~size =
  { img_name = name;
    data = Bytes.make size '\000';
    cursor = 0;
    hook = None;
    writes = 0;
    bytes_written = 0;
    dirty = Bytes.make (n_granules size) '\000';
    n_dirty = 0;
    base_slot = [||];
    base_arena = Bytes.empty;
    base_used = 0;
    restore_ops = 0;
    restore_bytes = 0;
    restore_bytes_saved = 0 }

let name t = t.img_name

let size t = Bytes.length t.data

let alloc t ?(align = 8) n =
  let base = (t.cursor + align - 1) / align * align in
  if base + n > Bytes.length t.data then
    failwith (Printf.sprintf "Memimage.alloc: %s exhausted (%d + %d > %d)"
                t.img_name base n (Bytes.length t.data));
  t.cursor <- base + n;
  base

let allocated t = t.cursor

let set_write_hook t hook = t.hook <- hook

(* Copy granule [g]'s baseline contents aside unless already saved.
   Called before the granule first changes, while it still holds them.
   A granule outside the image is left to the write's own bounds
   check. *)
let save_granule t g =
  if g < Array.length t.base_slot && Array.unsafe_get t.base_slot g < 0 then begin
    let off = g lsl granule_shift in
    let glen = min granule (Bytes.length t.data - off) in
    if t.base_used + granule > Bytes.length t.base_arena then begin
      let a = Bytes.create (max 4096 (2 * Bytes.length t.base_arena)) in
      Bytes.blit t.base_arena 0 a 0 t.base_used;
      t.base_arena <- a
    end;
    Bytes.blit t.data off t.base_arena t.base_used glen;
    Array.unsafe_set t.base_slot g t.base_used;
    t.base_used <- t.base_used + granule
  end

let save_all t =
  for g = 0 to Array.length t.base_slot - 1 do
    save_granule t g
  done

let mark_dirty t ~off ~len =
  let g1 = (off + len - 1) lsr granule_shift in
  let g = ref (off lsr granule_shift) in
  while !g <= g1 do
    if Bytes.unsafe_get t.dirty !g <> '\001' then begin
      save_granule t !g;
      Bytes.unsafe_set t.dirty !g '\001';
      t.n_dirty <- t.n_dirty + 1
    end;
    incr g
  done

let mark_all_dirty t =
  let n = Bytes.length t.dirty in
  Bytes.fill t.dirty 0 n '\001';
  t.n_dirty <- n

let pre_write t ~off ~len =
  t.writes <- t.writes + 1;
  t.bytes_written <- t.bytes_written + len;
  mark_dirty t ~off ~len;
  (* The hook runs *before* the overwrite: the image still holds the
     previous contents, which the undo log blits out directly. *)
  match t.hook with
  | None -> ()
  | Some hook -> hook ~offset:off ~len

let get_word t off = Int64.to_int (Bytes.get_int64_le t.data off)

let set_word t off v =
  pre_write t ~off ~len:8;
  Bytes.set_int64_le t.data off (Int64.of_int v)

let get_bytes t ~off ~len = Bytes.sub t.data off len

let set_bytes t ~off b =
  pre_write t ~off ~len:(Bytes.length b);
  Bytes.blit b 0 t.data off (Bytes.length b)

let get_string t ~off ~len =
  let raw = Bytes.sub_string t.data off len in
  match String.index_opt raw '\000' with
  | None -> raw
  | Some i -> String.sub raw 0 i

let set_string t ~off ~len s =
  if String.length s > len then
    invalid_arg
      (Printf.sprintf "Memimage.set_string: %S exceeds field of %d bytes" s len);
  pre_write t ~off ~len;
  Bytes.fill t.data off len '\000';
  Bytes.blit_string s 0 t.data off (String.length s)

(* ---------------- RCB raw access (checkpoint library) -------------- *)

let raw_bytes t = t.data

(* Stores are overwhelmingly word-sized: for small ranges a hand-rolled
   copy (one bounds check, then unsafe byte moves) beats the out-of-line
   [Bytes.blit] C call that dominates the checkpoint hot path. *)
let small_copy_max = 16

let blit_out t ~off ~len dst dst_off =
  if len <= small_copy_max then begin
    if off < 0 || len < 0
       || off > Bytes.length t.data - len
       || dst_off < 0
       || dst_off > Bytes.length dst - len
    then invalid_arg "Memimage.blit_out";
    for k = 0 to len - 1 do
      Bytes.unsafe_set dst (dst_off + k) (Bytes.unsafe_get t.data (off + k))
    done
  end
  else Bytes.blit t.data off dst dst_off len

let write_raw t ~off src ~src_off ~len =
  mark_dirty t ~off ~len;
  if len <= small_copy_max then begin
    if off < 0 || len < 0
       || off > Bytes.length t.data - len
       || src_off < 0
       || src_off > Bytes.length src - len
    then invalid_arg "Memimage.write_raw";
    for k = 0 to len - 1 do
      Bytes.unsafe_set t.data (off + k) (Bytes.unsafe_get src (src_off + k))
    done
  end
  else Bytes.blit src src_off t.data off len

(* ---------------- whole-image operations --------------------------- *)

let snapshot t = Bytes.copy t.data

let restore t snap =
  if Bytes.length snap <> Bytes.length t.data then
    invalid_arg "Memimage.restore: size mismatch";
  save_all t;
  Bytes.blit snap 0 t.data 0 (Bytes.length snap);
  (* An arbitrary snapshot has no known relation to the baseline:
     conservatively consider everything modified. *)
  mark_all_dirty t;
  t.restore_ops <- t.restore_ops + 1;
  t.restore_bytes <- t.restore_bytes + Bytes.length snap

let set_baseline t =
  t.base_slot <- Array.make (Bytes.length t.dirty) (-1);
  t.base_used <- 0;
  Bytes.fill t.dirty 0 (Bytes.length t.dirty) '\000';
  t.n_dirty <- 0

let has_baseline t = Array.length t.base_slot > 0

let restore_baseline t =
  if not (has_baseline t) then
    invalid_arg "Memimage.restore_baseline: no baseline set";
  let len = Bytes.length t.data in
  let restored = ref 0 in
  if t.n_dirty > 0 then begin
    let ng = Bytes.length t.dirty in
    for g = 0 to ng - 1 do
      if Bytes.unsafe_get t.dirty g = '\001' then begin
        let off = g lsl granule_shift in
        let glen = min granule (len - off) in
        Bytes.blit t.base_arena (Array.unsafe_get t.base_slot g) t.data off glen;
        Bytes.unsafe_set t.dirty g '\000';
        restored := !restored + glen
      end
    done;
    t.n_dirty <- 0
  end;
  t.restore_ops <- t.restore_ops + 1;
  t.restore_bytes <- t.restore_bytes + !restored;
  t.restore_bytes_saved <- t.restore_bytes_saved + (len - !restored);
  !restored

let dirty_granules t = t.n_dirty

let dirty_bytes t =
  (* Upper bound: the last granule may be partial. *)
  let len = Bytes.length t.data in
  let full = t.n_dirty * granule in
  if full > len then len else full

let clone t ~name =
  { img_name = name;
    data = Bytes.copy t.data;
    cursor = t.cursor;
    hook = None;
    writes = 0;
    bytes_written = 0;
    (* The clone's contents bear no relation to a zero/baseline state:
       start conservatively all-dirty until a baseline is set. *)
    dirty = Bytes.make (n_granules (Bytes.length t.data)) '\001';
    n_dirty = n_granules (Bytes.length t.data);
    base_slot = [||];
    base_arena = Bytes.empty;
    base_used = 0;
    restore_ops = 0;
    restore_bytes = 0;
    restore_bytes_saved = 0 }

let clear t =
  save_all t;
  Bytes.fill t.data 0 (Bytes.length t.data) '\000';
  mark_all_dirty t

let writes t = t.writes

let bytes_written t = t.bytes_written

let restore_bytes t = t.restore_bytes

let restore_bytes_saved t = t.restore_bytes_saved
