(* Per-entry header accounted at 16 bytes: offset word + length word,
   approximating the C implementation's entry layout. *)
let entry_header_bytes = 16

(* Unchecked unaligned 64-bit moves (the primitives behind
   [Bytes.get_int64_ne]); [record]/[rollback] bounds-check the whole
   range once, so the per-word checks would be pure overhead. *)
external unsafe_get_i64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external unsafe_set_i64 : Bytes.t -> int -> int64 -> unit
  = "%caml_bytes_set64u"

(* Entry payloads live packed in one growable arena; entry i's payload
   starts at the prefix sum of lens.(0..i-1). Rollback walks the arrays
   backwards, so the start positions never need to be stored.

   The hot path is deliberately flat: [record] performs its own bounds
   checks once, copies the old value with unsafe word/byte moves (no
   out-of-line blit call, no allocation), and defers the bytes/peak/
   lifetime accounting to [clear] — within a window [bytes_used] grows
   monotonically, so the high-water mark is simply its value when the
   window ends. *)
type t = {
  mutable arena : Bytes.t;
  mutable offsets : int array;
  mutable lens : int array;
  mutable n : int;                (* live entries *)
  mutable used : int;             (* arena bytes used *)
  mutable peak : int;             (* lifetime high-water of bytes_used *)
  mutable lifetime : int;         (* appended entries folded in by clear *)
  mutable coalesced : int;        (* lifetime records elided *)
  mutable rolled_back : int;      (* lifetime payload bytes undone *)
  coalesce : bool;
  (* Open-addressing offset -> entry-index table for write coalescing.
     keys.(s) = -1 marks an empty slot; capacity is a power of two. *)
  mutable keys : int array;
  mutable vals : int array;
  mutable tbl_count : int;
}

let initial_entries = 256
let initial_arena = 4096
let initial_slots = 512

let create ?(coalesce = false) () =
  { arena = Bytes.create initial_arena;
    offsets = Array.make initial_entries 0;
    lens = Array.make initial_entries 0;
    n = 0;
    used = 0;
    peak = 0;
    lifetime = 0;
    coalesced = 0;
    rolled_back = 0;
    coalesce;
    keys = (if coalesce then Array.make initial_slots (-1) else [||]);
    vals = (if coalesce then Array.make initial_slots 0 else [||]);
    tbl_count = 0 }

(* ---------------- coalescing table -------------------------------- *)

let slot_of t key =
  (* Fibonacci-style mix; table capacity is a power of two. *)
  let mask = Array.length t.keys - 1 in
  let h = (key * 0x9E3779B1) land max_int in
  let i = ref (h land mask) in
  while t.keys.(!i) <> -1 && t.keys.(!i) <> key do
    i := (!i + 1) land mask
  done;
  !i

let grow_table t =
  let old_keys = t.keys and old_vals = t.vals in
  t.keys <- Array.make (2 * Array.length old_keys) (-1);
  t.vals <- Array.make (2 * Array.length old_vals) 0;
  Array.iteri
    (fun i key ->
       if key <> -1 then begin
         let s = slot_of t key in
         t.keys.(s) <- key;
         t.vals.(s) <- old_vals.(i)
       end)
    old_keys

(* ---------------- arena ------------------------------------------- *)

let grow_entries t =
  let cap = 2 * Array.length t.offsets in
  let o = Array.make cap 0 and l = Array.make cap 0 in
  Array.blit t.offsets 0 o 0 t.n;
  Array.blit t.lens 0 l 0 t.n;
  t.offsets <- o;
  t.lens <- l

let grow_arena t len =
  let cap = ref (2 * Bytes.length t.arena) in
  while t.used + len > !cap do
    cap := 2 * !cap
  done;
  let a = Bytes.create !cap in
  Bytes.blit t.arena 0 a 0 t.used;
  t.arena <- a

(* Copy the range out of the image into the arena at [t.used] and push
   the (offset, len) entry. Caller has validated offset/len against the
   image; capacity checks and arena bounds are handled here. *)
let append t data ~offset ~len =
  if t.n = Array.length t.offsets then grow_entries t;
  let used = t.used in
  if used + len > Bytes.length t.arena then grow_arena t len;
  if len = 8 then
    (* The dominant case: one word. get/set_int64 compile to a single
       unboxed load/store pair here. *)
    unsafe_set_i64 t.arena used (unsafe_get_i64 data offset)
  else if len <= 16 then
    for k = 0 to len - 1 do
      Bytes.unsafe_set t.arena (used + k) (Bytes.unsafe_get data (offset + k))
    done
  else Bytes.blit data offset t.arena used len;
  Array.unsafe_set t.offsets t.n offset;
  Array.unsafe_set t.lens t.n len;
  t.n <- t.n + 1;
  t.used <- used + len

let record t ~image ~offset ~len =
  if len <= 0 then true
  else begin
    (* Within the image, [cover] backs the range, so the check below
       rejects exactly the ranges outside it. *)
    let data = Memimage.cover image ~off:offset ~len in
    if offset < 0 || offset > Bytes.length data - len then
      invalid_arg "Undo_log.record: range outside image";
    if not t.coalesce then begin
      (* [append], inlined by hand: this branch is the per-store cost of
         the whole instrumentation scheme, and the classic compiler does
         not inline across the call. *)
      if t.n = Array.length t.offsets then grow_entries t;
      let used = t.used in
      if used + len > Bytes.length t.arena then grow_arena t len;
      if len = 8 then
        unsafe_set_i64 t.arena used (unsafe_get_i64 data offset)
      else if len <= 16 then
        for k = 0 to len - 1 do
          Bytes.unsafe_set t.arena (used + k)
            (Bytes.unsafe_get data (offset + k))
        done
      else Bytes.blit data offset t.arena used len;
      Array.unsafe_set t.offsets t.n offset;
      Array.unsafe_set t.lens t.n len;
      t.n <- t.n + 1;
      t.used <- used + len;
      true
    end
    else begin
      let s = slot_of t offset in
      if t.keys.(s) = -1 then begin
        (* First store to this offset in the window: log it. *)
        let idx = t.n in
        append t data ~offset ~len;
        t.keys.(s) <- offset;
        t.vals.(s) <- idx;
        t.tbl_count <- t.tbl_count + 1;
        if 2 * t.tbl_count > Array.length t.keys then grow_table t;
        true
      end
      else begin
        let prev = t.vals.(s) in
        if t.lens.(prev) >= len then begin
          (* Fully covered by an earlier entry: rollback already restores
             the oldest value here, so this store need not be logged. *)
          t.coalesced <- t.coalesced + 1;
          false
        end
        else begin
          (* Wider than what was logged: log the full range. Newest-first
             replay applies this entry before the narrower older one, so
             the tail bytes come from here and the head from the oldest
             entry — exactly the pre-window contents. *)
          let idx = t.n in
          append t data ~offset ~len;
          t.vals.(s) <- idx;
          true
        end
      end
    end
  end

let entries t = t.n

let bytes_used t = t.used + (t.n * entry_header_bytes)

let peak_bytes t =
  let live = bytes_used t in
  if live > t.peak then live else t.peak

let total_records t = t.lifetime + t.n

let coalesced_stores t = t.coalesced

let rollback_bytes t = t.rolled_back

let clear t =
  (* Within a window [bytes_used] only grows, so its value now is the
     window's high-water mark; fold it (and the entry count) into the
     lifetime counters before dropping the entries. *)
  let live = t.used + (t.n * entry_header_bytes) in
  if live > t.peak then t.peak <- live;
  t.lifetime <- t.lifetime + t.n;
  t.n <- 0;
  t.used <- 0;
  if t.coalesce && t.tbl_count > 0 then begin
    Array.fill t.keys 0 (Array.length t.keys) (-1);
    t.tbl_count <- 0
  end

let rollback t image =
  (* Newest-first: walk the entry arrays backwards, blitting payloads
     straight from the arena. The raw writes bypass the write hook, so
     undoing cannot generate fresh undo entries; dirty granules are
     still marked, keeping dirty-region restarts sound. *)
  let pos = ref t.used in
  for i = t.n - 1 downto 0 do
    let len = Array.unsafe_get t.lens i in
    let off = Array.unsafe_get t.offsets i in
    let p = !pos - len in
    pos := p;
    let data = Memimage.cover image ~off ~len in
    if off < 0 || off > Bytes.length data - len then
      invalid_arg "Undo_log.rollback: entry outside image";
    Memimage.mark_dirty image ~off ~len;
    if len = 8 then
      unsafe_set_i64 data off (unsafe_get_i64 t.arena p)
    else if len <= 16 then
      for k = 0 to len - 1 do
        Bytes.unsafe_set data (off + k) (Bytes.unsafe_get t.arena (p + k))
      done
    else Bytes.blit t.arena p data off len
  done;
  t.rolled_back <- t.rolled_back + t.used;
  clear t
