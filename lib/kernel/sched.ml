(* Run-queue scheduler: hierarchical bitmap timer wheel + ready ring +
   far chain, with an embedded port of the old Vheap binary heap as a
   trajectory oracle.  See sched.mli for the design overview.

   Invariants (wheel mode):
   - [cursor] only advances, and equals the key of the last wheel pop
     (never moved by ready-ring pops).
   - every wheel entry has [key >= cursor]; every ready-ring entry has
     [key < cursor]; every far entry has [key lxor cursor >= horizon]
     (hence [key > ] every in-wheel key, since [key >= cursor]).
   - level-[l] slots only hold keys whose digits above level [l] agree
     with the cursor's, so a level-0 slot holds exactly one key and
     level order is key order: all keys at level [l] are strictly
     below all keys at level [l+1].
   - [wmin] is the exact minimum key over wheel + far ([max_int] when
     both are empty): pushes lower it directly, pops refresh it by
     re-locating (and cascading) the front.

   Zero allocation on push/pop after warm-up: all state is flat int
   arrays (node pool with an intrusive free list through [n_next]),
   loops are top-level tail recursions over int arguments (a local
   [let rec] that reads a variable of its enclosing function is a
   closure, built on every call), and multi-value results go through
   scratch fields instead of tuples. *)

let slot_bits = 5
let slots = 32
let slot_mask = slots - 1
let levels = 7
let horizon_bits = levels * slot_bits
let horizon = 1 lsl horizon_bits

(* Count trailing zeros of a nonzero 32-bit value: de Bruijn multiply.
   OCaml ints are wider than 32 bits, so the multiply never wraps; the
   bits we extract (27..31 of the mod-2^32 product) are unaffected by
   the missing truncation. *)
let debruijn32 =
  [| 0; 1; 28; 2; 29; 14; 24; 3; 30; 22; 20; 15; 25; 17; 4; 8;
     31; 27; 13; 23; 21; 19; 16; 7; 26; 12; 18; 6; 11; 5; 10; 9 |]

let ctz32 x = debruijn32.((((x land (-x)) * 0x077CB531) lsr 27) land 31)

(* ---------------------------------------------------------------- *)
(* Old-heap oracle: faithful port of Osiris_util.Vheap (boxed entry
   records, identical sift order), absorbed here when the wheel
   replaced it as the kernel's run queue.                             *)
(* ---------------------------------------------------------------- *)

type entry = { e_key : int; e_seq : int; e_val : int }

type oracle = { mutable o_data : entry array; mutable o_len : int }

let o_dummy = { e_key = 0; e_seq = 0; e_val = 0 }

let o_less a b = a.e_key < b.e_key || (a.e_key = b.e_key && a.e_seq < b.e_seq)

let o_grow o =
  let cap = Array.length o.o_data in
  if o.o_len = cap then begin
    let data = Array.make (if cap = 0 then 16 else 2 * cap) o_dummy in
    Array.blit o.o_data 0 data 0 o.o_len;
    o.o_data <- data
  end

let rec o_sift_up o i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if o_less o.o_data.(i) o.o_data.(parent) then begin
      let tmp = o.o_data.(i) in
      o.o_data.(i) <- o.o_data.(parent);
      o.o_data.(parent) <- tmp;
      o_sift_up o parent
    end
  end

let rec o_sift_down o i =
  let l = (2 * i) + 1 in
  if l < o.o_len then begin
    let r = l + 1 in
    let m = if r < o.o_len && o_less o.o_data.(r) o.o_data.(l) then r else l in
    if o_less o.o_data.(m) o.o_data.(i) then begin
      let tmp = o.o_data.(i) in
      o.o_data.(i) <- o.o_data.(m);
      o.o_data.(m) <- tmp;
      o_sift_down o m
    end
  end

(* ---------------------------------------------------------------- *)

type t = {
  (* node pool (wheel + far chains), free list through [n_next] *)
  mutable n_key : int array;
  mutable n_seq : int array;
  mutable n_val : int array;
  mutable n_next : int array;
  mutable free_head : int;
  (* wheel *)
  slot_head : int array; (* levels * slots chain heads, -1 = empty *)
  bitmap : int array;    (* per-level slot occupancy *)
  mutable cursor : int;
  mutable wmin : int;    (* exact min over wheel + far; max_int if none *)
  (* far chain *)
  mutable far_head : int;
  mutable far_min : int;
  (* ready ring: (key, seq) binary min-heap in parallel arrays *)
  mutable r_key : int array;
  mutable r_seq : int array;
  mutable r_val : int array;
  mutable r_len : int;
  (* common *)
  mutable seq : int;
  mutable count : int;
  mutable last_key : int;
  (* scratch returns for allocation-free multi-value results *)
  mutable sc_best : int;
  mutable sc_bprev : int;
  oracle : oracle option;
}

let use_oracle = ref false

let create () =
  let pool = 64 in
  let n_next = Array.make pool 0 in
  for i = 0 to pool - 1 do
    n_next.(i) <- (if i = pool - 1 then -1 else i + 1)
  done;
  {
    n_key = Array.make pool 0;
    n_seq = Array.make pool 0;
    n_val = Array.make pool 0;
    n_next;
    free_head = 0;
    slot_head = Array.make (levels * slots) (-1);
    bitmap = Array.make levels 0;
    cursor = 0;
    wmin = max_int;
    far_head = -1;
    far_min = max_int;
    r_key = Array.make 16 0;
    r_seq = Array.make 16 0;
    r_val = Array.make 16 0;
    r_len = 0;
    seq = 0;
    count = 0;
    last_key = 0;
    sc_best = -1;
    sc_bprev = -1;
    oracle = (if !use_oracle then Some { o_data = [||]; o_len = 0 } else None);
  }

let is_oracle t = t.oracle <> None
let length t = t.count
let is_empty t = t.count = 0
let popped_key t = t.last_key

(* -- node pool -------------------------------------------------- *)

let grow_pool t =
  let cap = Array.length t.n_key in
  let cap' = 2 * cap in
  let n_key = Array.make cap' 0
  and n_seq = Array.make cap' 0
  and n_val = Array.make cap' 0
  and n_next = Array.make cap' 0 in
  Array.blit t.n_key 0 n_key 0 cap;
  Array.blit t.n_seq 0 n_seq 0 cap;
  Array.blit t.n_val 0 n_val 0 cap;
  Array.blit t.n_next 0 n_next 0 cap;
  for i = cap to cap' - 1 do
    n_next.(i) <- (if i = cap' - 1 then -1 else i + 1)
  done;
  t.n_key <- n_key;
  t.n_seq <- n_seq;
  t.n_val <- n_val;
  t.n_next <- n_next;
  t.free_head <- cap

let alloc_node t ~key ~seq ~v =
  if t.free_head < 0 then grow_pool t;
  let n = t.free_head in
  t.free_head <- t.n_next.(n);
  t.n_key.(n) <- key;
  t.n_seq.(n) <- seq;
  t.n_val.(n) <- v;
  n

let free_node t n =
  t.n_next.(n) <- t.free_head;
  t.free_head <- n

(* -- ready ring ------------------------------------------------- *)

let r_grow t =
  let cap = Array.length t.r_key in
  if t.r_len = cap then begin
    let cap' = 2 * cap in
    let r_key = Array.make cap' 0
    and r_seq = Array.make cap' 0
    and r_val = Array.make cap' 0 in
    Array.blit t.r_key 0 r_key 0 cap;
    Array.blit t.r_seq 0 r_seq 0 cap;
    Array.blit t.r_val 0 r_val 0 cap;
    t.r_key <- r_key;
    t.r_seq <- r_seq;
    t.r_val <- r_val
  end

let r_less t i j =
  t.r_key.(i) < t.r_key.(j)
  || (t.r_key.(i) = t.r_key.(j) && t.r_seq.(i) < t.r_seq.(j))

let r_swap t i j =
  let k = t.r_key.(i) and s = t.r_seq.(i) and v = t.r_val.(i) in
  t.r_key.(i) <- t.r_key.(j);
  t.r_seq.(i) <- t.r_seq.(j);
  t.r_val.(i) <- t.r_val.(j);
  t.r_key.(j) <- k;
  t.r_seq.(j) <- s;
  t.r_val.(j) <- v

let rec r_sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if r_less t i parent then begin
      r_swap t i parent;
      r_sift_up t parent
    end
  end

let rec r_sift_down t i =
  let l = (2 * i) + 1 in
  if l < t.r_len then begin
    let r = l + 1 in
    let m = if r < t.r_len && r_less t r l then r else l in
    if r_less t m i then begin
      r_swap t m i;
      r_sift_down t m
    end
  end

let ready_push t ~key ~seq v =
  r_grow t;
  let i = t.r_len in
  t.r_key.(i) <- key;
  t.r_seq.(i) <- seq;
  t.r_val.(i) <- v;
  t.r_len <- i + 1;
  r_sift_up t i

(* -- wheel ------------------------------------------------------ *)

(* Insertion level: index of the highest base-32 digit where [key]
   and the cursor differ (0 when equal).  Caller guarantees
   [key lxor cursor < horizon]. *)
let rec level_above x l =
  if x < 1 lsl (slot_bits * (l + 1)) then l else level_above x (l + 1)

let level_of t key = level_above (key lxor t.cursor) 0

let wheel_place t n key =
  let l = level_of t key in
  let s = (key lsr (slot_bits * l)) land slot_mask in
  let idx = (l * slots) + s in
  t.n_next.(n) <- t.slot_head.(idx);
  t.slot_head.(idx) <- n;
  t.bitmap.(l) <- t.bitmap.(l) lor (1 lsl s)

(* Detach the chain at (l, s) and re-scatter its nodes to finer
   levels relative to the new cursor. *)
let rec rescatter t chain =
  if chain >= 0 then begin
    let next = t.n_next.(chain) in
    wheel_place t chain t.n_key.(chain);
    rescatter t next
  end

(* Pull far-chain nodes that now fit the wheel horizon; rebuild the
   remaining chain and recompute [far_min]. *)
let rec drain_far t chain =
  if chain >= 0 then begin
    let next = t.n_next.(chain) in
    let key = t.n_key.(chain) in
    if key lxor t.cursor < horizon then wheel_place t chain key
    else begin
      t.n_next.(chain) <- t.far_head;
      t.far_head <- chain;
      if key < t.far_min then t.far_min <- key
    end;
    drain_far t next
  end

(* Cascade the first occupied slot at level [l] or above, at or past
   the cursor's digit: advance the cursor to the slot base and
   re-scatter the chain to finer levels.  False when no level from
   [l] up holds one. *)
let rec cascade_from t l =
  if l >= levels then false
  else begin
    let d = (t.cursor lsr (slot_bits * l)) land slot_mask in
    let m = t.bitmap.(l) land ((-1) lsl d) in
    if m <> 0 then begin
      let s = ctz32 m in
      let idx = (l * slots) + s in
      let hb = slot_bits * (l + 1) in
      t.cursor <- ((t.cursor lsr hb) lsl hb) lor (s lsl (slot_bits * l));
      let chain = t.slot_head.(idx) in
      t.slot_head.(idx) <- -1;
      t.bitmap.(l) <- t.bitmap.(l) land lnot (1 lsl s);
      rescatter t chain;
      true
    end
    else cascade_from t (l + 1)
  end

(* Locate the wheel minimum and cascade it down to level 0; returns
   its level-0 slot.  Precondition: wheel or far chain nonempty. *)
let rec settle t =
  let m0 = t.bitmap.(0) land ((-1) lsl (t.cursor land slot_mask)) in
  if m0 <> 0 then ctz32 m0
  else begin
    (* re-settle from level 0 after a cascade *)
    if cascade_from t 1 then settle t
    else begin
      (* whole wheel empty: jump to the far chain *)
      t.cursor <- t.far_min;
      let chain = t.far_head in
      t.far_head <- -1;
      t.far_min <- max_int;
      drain_far t chain;
      settle t
    end
  end

let rec any_level bitmap l =
  l < levels && (bitmap.(l) <> 0 || any_level bitmap (l + 1))

let wheel_occupied t = any_level t.bitmap 0 || t.far_head >= 0

let refresh_wmin t =
  if wheel_occupied t then begin
    let s = settle t in
    t.wmin <- ((t.cursor lsr slot_bits) lsl slot_bits) lor s
  end
  else t.wmin <- max_int

(* Min-seq scan of a level-0 chain (all nodes share one key): leaves
   the best node in [sc_best] and its predecessor in [sc_bprev]. *)
let rec scan_min t best bprev prev cur =
  if cur < 0 then begin
    t.sc_best <- best;
    t.sc_bprev <- bprev
  end
  else if t.n_seq.(cur) < t.n_seq.(best) then
    scan_min t cur prev cur t.n_next.(cur)
  else scan_min t best bprev cur t.n_next.(cur)

(* -- public operations ------------------------------------------ *)

let push t ~key v =
  t.count <- t.count + 1;
  match t.oracle with
  | Some o ->
    t.seq <- t.seq + 1;
    o_grow o;
    o.o_data.(o.o_len) <- { e_key = key; e_seq = t.seq; e_val = v };
    o.o_len <- o.o_len + 1;
    o_sift_up o (o.o_len - 1)
  | None ->
    t.seq <- t.seq + 1;
    if key < t.cursor then ready_push t ~key ~seq:t.seq v
    else if key lxor t.cursor >= horizon then begin
      let n = alloc_node t ~key ~seq:t.seq ~v in
      t.n_next.(n) <- t.far_head;
      t.far_head <- n;
      if key < t.far_min then t.far_min <- key;
      if key < t.wmin then t.wmin <- key
    end
    else begin
      let n = alloc_node t ~key ~seq:t.seq ~v in
      wheel_place t n key;
      if key < t.wmin then t.wmin <- key
    end

(* The settled wheel's front: the min-seq node of the lowest level-0
   slot, left in [sc_best] and its predecessor in [sc_bprev]; returns
   the slot.  Precondition: wheel or far chain nonempty. *)
let wheel_front t =
  let s = settle t in
  let head = t.slot_head.(s) in
  scan_min t head (-1) head t.n_next.(head);
  s

let next_key t =
  match t.oracle with
  | Some o -> if o.o_len = 0 then max_int else o.o_data.(0).e_key
  | None -> if t.r_len > 0 then t.r_key.(0) else t.wmin

let pop t =
  match t.oracle with
  | Some o ->
    if o.o_len = 0 then -1
    else begin
      t.count <- t.count - 1;
      let top = o.o_data.(0) in
      o.o_len <- o.o_len - 1;
      if o.o_len > 0 then begin
        o.o_data.(0) <- o.o_data.(o.o_len);
        o.o_data.(o.o_len) <- o_dummy;
        o_sift_down o 0
      end
      else o.o_data.(0) <- o_dummy;
      t.last_key <- top.e_key;
      top.e_val
    end
  | None ->
    if t.count = 0 then -1
    else begin
      t.count <- t.count - 1;
      if t.r_len > 0 then begin
        (* ready-ring keys are strictly below the cursor, hence below
           every wheel/far key: they always pop first *)
        t.last_key <- t.r_key.(0);
        let v = t.r_val.(0) in
        t.r_len <- t.r_len - 1;
        if t.r_len > 0 then begin
          let n = t.r_len in
          t.r_key.(0) <- t.r_key.(n);
          t.r_seq.(0) <- t.r_seq.(n);
          t.r_val.(0) <- t.r_val.(n);
          r_sift_down t 0
        end;
        v
      end
      else begin
        let s = wheel_front t in
        let key = ((t.cursor lsr slot_bits) lsl slot_bits) lor s in
        let n = t.sc_best in
        if t.sc_bprev < 0 then t.slot_head.(s) <- t.n_next.(n)
        else t.n_next.(t.sc_bprev) <- t.n_next.(n);
        if t.slot_head.(s) < 0 then
          t.bitmap.(0) <- t.bitmap.(0) land lnot (1 lsl s);
        let v = t.n_val.(n) in
        free_node t n;
        t.cursor <- key;
        t.last_key <- key;
        refresh_wmin t;
        v
      end
    end

let peek t =
  match t.oracle with
  | Some o -> if o.o_len = 0 then -1 else o.o_data.(0).e_val
  | None ->
    if t.r_len > 0 then t.r_val.(0)
    else if t.count = 0 then -1
    else begin
      ignore (wheel_front t);
      t.n_val.(t.sc_best)
    end

let clear t =
  (match t.oracle with
   | Some o ->
     Array.fill o.o_data 0 o.o_len o_dummy;
     o.o_len <- 0
   | None -> ());
  let cap = Array.length t.n_key in
  for i = 0 to cap - 1 do
    t.n_next.(i) <- (if i = cap - 1 then -1 else i + 1)
  done;
  t.free_head <- 0;
  Array.fill t.slot_head 0 (levels * slots) (-1);
  Array.fill t.bitmap 0 levels 0;
  t.cursor <- 0;
  t.wmin <- max_int;
  t.far_head <- -1;
  t.far_min <- max_int;
  t.r_len <- 0;
  t.seq <- 0;
  t.count <- 0;
  t.last_key <- 0
