type write_hook = offset:int -> len:int -> unit

(* Dirty-region granularity: 256-byte granules, tracked one byte per
   granule so marking is a single unsafe store on the hot path. *)
let granule_shift = 8
let granule = 1 lsl granule_shift

(* Sparse backing: [data] holds only a granule-aligned prefix of the
   [size]-byte image and every byte past it reads as zero. The prefix
   grows (zero-filled, at least doubling) on the first write past its
   end, so an image costs host memory for the state its server touches,
   not for its logical size. Every accessor checks against [size], so
   out-of-image accesses fail exactly as they would on a dense image. *)
type t = {
  img_name : string;
  size : int;
  mutable data : Bytes.t;
  mutable cursor : int;
  mutable hook : write_hook option;
  mutable writes : int;
  mutable bytes_written : int;
  dirty : Bytes.t;                 (* '\001' = granule written since last clean point *)
  mutable n_dirty : int;
  (* The baseline, kept granule by granule: a granule's baseline
     contents are copied into [base_arena] just before its first write
     after [set_baseline], at offset [base_slot.(g)]; -1 while the image
     still holds them. [base_slot] covers the granules backed at
     [set_baseline]; the baseline of every later granule is zero, so
     none of its bytes is ever kept. *)
  mutable base_set : bool;
  mutable base_slot : int array;
  mutable base_arena : Bytes.t;
  mutable base_used : int;
  mutable restore_ops : int;
  mutable restore_bytes : int;
  mutable restore_bytes_saved : int;
}

let n_granules size = (size + granule - 1) lsr granule_shift

let create ~name ~size =
  if size < 0 then invalid_arg "Memimage.create: negative size";
  { img_name = name;
    size;
    data = Bytes.empty;
    cursor = 0;
    hook = None;
    writes = 0;
    bytes_written = 0;
    dirty = Bytes.make (n_granules size) '\000';
    n_dirty = 0;
    base_set = false;
    base_slot = [||];
    base_arena = Bytes.empty;
    base_used = 0;
    restore_ops = 0;
    restore_bytes = 0;
    restore_bytes_saved = 0 }

let name t = t.img_name

let size t = t.size

let resident_bytes t = Bytes.length t.data

let alloc t ?(align = 8) n =
  let base = (t.cursor + align - 1) / align * align in
  if base + n > t.size then
    failwith (Printf.sprintf "Memimage.alloc: %s exhausted (%d + %d > %d)"
                t.img_name base n t.size);
  t.cursor <- base + n;
  base

let allocated t = t.cursor

let set_write_hook t hook = t.hook <- hook

(* Extend the backing, zero-filled, to cover [0, upto): to [upto]
   rounded up to a granule, or twice the current backing if larger,
   capped at the image size. Caller has checked [upto <= t.size]. *)
let grow t upto =
  let old = Bytes.length t.data in
  let want = max ((upto + granule - 1) land lnot (granule - 1)) (2 * old) in
  let len = min want t.size in
  let d = Bytes.create len in
  Bytes.blit t.data 0 d 0 old;
  Bytes.fill d old (len - old) '\000';
  t.data <- d

let in_image t ~off ~len = off >= 0 && len >= 0 && off <= t.size - len

(* Copy the in-image range [off, off+len) into [dst] at [dst_off]: the
   backed part from [data], zeros past it. *)
let read_sparse t ~off ~len dst dst_off =
  let n = Bytes.length t.data in
  let backed = if off >= n then 0 else min len (n - off) in
  if backed > 0 then Bytes.blit t.data off dst dst_off backed;
  Bytes.fill dst (dst_off + backed) (len - backed) '\000'

(* Copy granule [g]'s baseline contents aside unless already saved.
   Called before the granule first changes, while it still holds them.
   A granule past [base_slot] (unbacked at [set_baseline], or outside
   the image) keeps nothing: its baseline is zero. *)
let save_granule t g =
  if g < Array.length t.base_slot && Array.unsafe_get t.base_slot g < 0 then begin
    let off = g lsl granule_shift in
    let glen = min granule (t.size - off) in
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

(* An empty range marks nothing: its [off + len - 1] lies before [off]
   (at [off = 0], [lsr] makes it the largest granule index). *)
let mark_dirty t ~off ~len =
  let g1 = (off + len - 1) lsr granule_shift in
  let g = ref (off lsr granule_shift) in
  while len > 0 && !g <= g1 do
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
  (* Back the range first, so the hook below reads its old contents
     (zeros, past the old backing) straight out of the image. A range
     outside the image is neither backed nor marked: the write's own
     bounds check rejects it. *)
  if off >= 0 && off + len <= Bytes.length t.data then mark_dirty t ~off ~len
  else if in_image t ~off ~len then begin
    grow t (off + len);
    mark_dirty t ~off ~len
  end;
  (* The hook runs *before* the overwrite: the image still holds the
     previous contents, which the undo log blits out directly. *)
  match t.hook with
  | None -> ()
  | Some hook -> hook ~offset:off ~len

external unsafe_get_i64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external swap64 : int64 -> int64 = "%bswap_int64"

(* A word at least partly past the backing: assemble it byte by byte,
   zeros past the backing, without allocating. *)
let get_word_sparse t off =
  if off < 0 || off > t.size - 8 then invalid_arg "index out of bounds";
  let d = t.data in
  let n = Bytes.length d in
  let v = ref 0 in
  for k = 7 downto 0 do
    let i = off + k in
    v := (!v lsl 8) lor (if i < n then Char.code (Bytes.unsafe_get d i) else 0)
  done;
  !v

let get_word t off =
  let d = t.data in
  if off >= 0 && off <= Bytes.length d - 8 then begin
    let w = unsafe_get_i64 d off in
    Int64.to_int (if Sys.big_endian then swap64 w else w)
  end
  else get_word_sparse t off

let set_word t off v =
  pre_write t ~off ~len:8;
  Bytes.set_int64_le t.data off (Int64.of_int v)

let get_bytes t ~off ~len =
  if off >= 0 && len >= 0 && off <= Bytes.length t.data - len then
    Bytes.sub t.data off len
  else if in_image t ~off ~len then begin
    let b = Bytes.create len in
    read_sparse t ~off ~len b 0;
    b
  end
  else invalid_arg "String.sub / Bytes.sub"

let set_bytes t ~off b =
  pre_write t ~off ~len:(Bytes.length b);
  Bytes.blit b 0 t.data off (Bytes.length b)

(* A field's string ends at its first NUL, and every byte past the
   backing is one: find the end in the backing, then copy once. *)
let get_string t ~off ~len =
  if not (in_image t ~off ~len) then invalid_arg "String.sub / Bytes.sub";
  let d = t.data in
  let stop = min (off + len) (Bytes.length d) in
  let e = ref off in
  while !e < stop && Bytes.unsafe_get d !e <> '\000' do
    incr e
  done;
  if !e = off then "" else Bytes.sub_string d off (!e - off)

let equal_string t ~off ~len s =
  if not (in_image t ~off ~len) then invalid_arg "String.sub / Bytes.sub";
  let d = t.data in
  let n = Bytes.length d in
  let k = String.length s in
  (* A stored string holds no NUL, so a key with one never equals it;
     every byte past the backing is a NUL. *)
  k <= len
  && begin
    let i = ref 0 in
    while
      !i < k
      && (let c = String.unsafe_get s !i in
          c <> '\000' && off + !i < n && Bytes.unsafe_get d (off + !i) = c)
    do
      incr i
    done;
    !i = k && (k = len || off + k >= n || Bytes.unsafe_get d (off + k) = '\000')
  end

let set_string t ~off ~len s =
  if String.length s > len then
    invalid_arg
      (Printf.sprintf "Memimage.set_string: %S exceeds field of %d bytes" s len);
  pre_write t ~off ~len;
  Bytes.fill t.data off len '\000';
  Bytes.blit_string s 0 t.data off (String.length s)

(* ---------------- RCB raw access (checkpoint library) -------------- *)

let backing t = t.data

let cover t ~off ~len =
  if off + len > Bytes.length t.data && in_image t ~off ~len then
    grow t (off + len);
  t.data

(* Stores are overwhelmingly word-sized: for small ranges a hand-rolled
   copy (one bounds check, then unsafe byte moves) beats the out-of-line
   [Bytes.blit] C call that dominates the checkpoint hot path. *)
let small_copy_max = 16

let write_raw t ~off src ~src_off ~len =
  if in_image t ~off ~len then begin
    if off + len > Bytes.length t.data then grow t (off + len);
    mark_dirty t ~off ~len
  end;
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

let snapshot t =
  let b = Bytes.create t.size in
  read_sparse t ~off:0 ~len:t.size b 0;
  b

let restore t snap =
  if Bytes.length snap <> t.size then
    invalid_arg "Memimage.restore: size mismatch";
  save_all t;
  (* Back the snapshot up to its last non-zero byte; past that it
     matches the zeros an unbacked image reads. *)
  let n = Bytes.length t.data in
  let e = ref t.size in
  while !e - 8 >= n && unsafe_get_i64 snap (!e - 8) = 0L do
    e := !e - 8
  done;
  while !e > n && Bytes.unsafe_get snap (!e - 1) = '\000' do
    decr e
  done;
  if !e > n then grow t !e;
  Bytes.blit snap 0 t.data 0 (Bytes.length t.data);
  (* An arbitrary snapshot has no known relation to the baseline:
     conservatively consider everything modified. *)
  mark_all_dirty t;
  t.restore_ops <- t.restore_ops + 1;
  t.restore_bytes <- t.restore_bytes + Bytes.length snap

let set_baseline t =
  t.base_set <- true;
  t.base_slot <- Array.make (n_granules (Bytes.length t.data)) (-1);
  t.base_used <- 0;
  Bytes.fill t.dirty 0 (Bytes.length t.dirty) '\000';
  t.n_dirty <- 0

let has_baseline t = t.base_set

let restore_baseline t =
  if not (has_baseline t) then
    invalid_arg "Memimage.restore_baseline: no baseline set";
  let len = t.size in
  let restored = ref 0 in
  if t.n_dirty > 0 then begin
    let ng = Bytes.length t.dirty in
    let nb = Array.length t.base_slot in
    for g = 0 to ng - 1 do
      if Bytes.unsafe_get t.dirty g = '\001' then begin
        let off = g lsl granule_shift in
        let glen = min granule (len - off) in
        (if g < nb then
           Bytes.blit t.base_arena (Array.unsafe_get t.base_slot g) t.data off glen
         else if off < Bytes.length t.data then
           (* Unbacked at [set_baseline]: the baseline is zero. *)
           Bytes.fill t.data off glen '\000');
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
  let len = t.size in
  let full = t.n_dirty * granule in
  if full > len then len else full

let clone t ~name =
  { img_name = name;
    size = t.size;
    data = Bytes.copy t.data;
    cursor = t.cursor;
    hook = None;
    writes = 0;
    bytes_written = 0;
    (* The clone's contents bear no relation to a zero/baseline state:
       start conservatively all-dirty until a baseline is set. *)
    dirty = Bytes.make (n_granules t.size) '\001';
    n_dirty = n_granules t.size;
    base_set = false;
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
