(* Run queue: a binary min-heap over (key, seq) in three parallel int
   arrays.  See sched.mli for the contract.

   Slot [i]'s children are [2i + 1] and [2i + 2]; every slot sorts at
   or after its parent in (key, seq) order, so slot 0 is the front.
   Sifts move a hole instead of swapping: the entry being placed rides
   in int arguments and is written once, at its final slot.  Every loop
   is a top-level tail recursion over ints (a local [let rec] that
   reads a variable of its enclosing function is a closure, built on
   every call), so push, pop and peek allocate nothing once the arrays
   have grown.

   Every slot a sift reads or writes is below [len], and [len] never
   exceeds the arrays' length, so the sifts skip the bounds checks: on
   the load workload's queue (about 500 entries deep) the checked
   version made the kernel's run about 7% slower. *)

type t = {
  mutable keys : int array;
  mutable seqs : int array;
  mutable vals : int array;
  mutable len : int;
  mutable seq : int;
  mutable last_key : int;
}

let initial_capacity = 64

let create () =
  {
    keys = Array.make initial_capacity 0;
    seqs = Array.make initial_capacity 0;
    vals = Array.make initial_capacity 0;
    len = 0;
    seq = 0;
    last_key = 0;
  }

let length t = t.len
let is_empty t = t.len = 0
let popped_key t = t.last_key
let next_key t = if t.len = 0 then max_int else t.keys.(0)
let peek t = if t.len = 0 then -1 else t.vals.(0)

let grow t =
  let double a =
    let a' = Array.make (2 * Array.length a) 0 in
    Array.blit a 0 a' 0 t.len;
    a'
  in
  t.keys <- double t.keys;
  t.seqs <- double t.seqs;
  t.vals <- double t.vals

(* Whether [(k1, s1)] pops before [(k2, s2)]. *)
let[@inline] before (k1 : int) (s1 : int) k2 s2 =
  k1 < k2 || (k1 = k2 && s1 < s2)

let[@inline] key_at t i = Array.unsafe_get t.keys i
let[@inline] seq_at t i = Array.unsafe_get t.seqs i

let[@inline] fill t i key seq v =
  Array.unsafe_set t.keys i key;
  Array.unsafe_set t.seqs i seq;
  Array.unsafe_set t.vals i v

(* Move slot [j]'s entry into slot [i]. *)
let[@inline] move t ~from:j i =
  fill t i (key_at t j) (seq_at t j) (Array.unsafe_get t.vals j)

(* The hole at [i] rises past every parent that pops after the entry,
   which then fills it. *)
let rec sift_up t i key seq v =
  if i = 0 then fill t 0 key seq v
  else begin
    let p = (i - 1) lsr 1 in
    if before key seq (key_at t p) (seq_at t p) then begin
      move t ~from:p i;
      sift_up t p key seq v
    end
    else fill t i key seq v
  end

(* The hole at [i] sinks past every smaller child that pops before the
   entry, which then fills it. *)
let rec sift_down t i key seq v =
  let l = (2 * i) + 1 in
  if l >= t.len then fill t i key seq v
  else begin
    let r = l + 1 in
    let c =
      if r < t.len && before (key_at t r) (seq_at t r) (key_at t l) (seq_at t l)
      then r
      else l
    in
    if before (key_at t c) (seq_at t c) key seq then begin
      move t ~from:c i;
      sift_down t c key seq v
    end
    else fill t i key seq v
  end

let push t ~key v =
  if t.len = Array.length t.keys then grow t;
  t.seq <- t.seq + 1;
  let i = t.len in
  t.len <- i + 1;
  sift_up t i key t.seq v

let pop t =
  if t.len = 0 then -1
  else begin
    let v = t.vals.(0) in
    t.last_key <- t.keys.(0);
    let n = t.len - 1 in
    t.len <- n;
    if n > 0 then sift_down t 0 t.keys.(n) t.seqs.(n) t.vals.(n);
    v
  end

let clear t =
  t.len <- 0;
  t.seq <- 0;
  t.last_key <- 0
