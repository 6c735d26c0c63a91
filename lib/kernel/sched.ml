(* Run queue: an in-order run beside a binary min-heap, both over
   (key, seq) in parallel int arrays.  See sched.mli for the contract.

   The run holds entries pushed in key order: slots [head, tail) of
   [rkeys]/[rseqs]/[rvals], sorted by construction because a push joins
   it only at or above the key of its last entry, with a larger seq.
   The heap holds every other push.  Pops take the smaller (key, seq)
   of the run's head and the heap's top.  A heap entry's key is below
   the run's last key when it is pushed, and that key only grows, so
   the run's last entry is the queue's largest: the heap empties
   before the run does, and at a key both hold the run's entry is the
   earlier push.

   Heap slot [i]'s children are [2i + 1] and [2i + 2]; every slot
   sorts at or after its parent in (key, seq) order, so slot 0 is the
   heap's front.  Sifts move a hole instead of swapping: the entry
   being placed rides in int arguments and is written once, at its
   final slot.  Every loop and array move is a top-level function over
   ints (a local [let rec] that reads a variable of its enclosing
   function is a closure, built on every call), so push, pop and peek
   allocate nothing once the arrays have grown.

   Every heap slot a sift reads or writes is below [len], every run
   slot read is in [head, tail), and neither bound exceeds its arrays'
   length, so those reads and writes skip the bounds checks: on the
   load workload's queue (about 500 entries deep) the checked heap made
   the kernel's run about 7% slower. *)

type t = {
  mutable keys : int array;
  mutable seqs : int array;
  mutable vals : int array;
  mutable len : int;
  mutable rkeys : int array;
  mutable rseqs : int array;
  mutable rvals : int array;
  mutable head : int;
  mutable tail : int;  (* [head = tail] only when both are 0 *)
  mutable seq : int;
  mutable last_key : int;
}

(* Outside open-loop load the whole queue holds at most about six
   entries, and a kernel is created per run, so both structures start
   small and double on demand. *)
let initial_capacity = 16

let create () =
  {
    keys = Array.make initial_capacity 0;
    seqs = Array.make initial_capacity 0;
    vals = Array.make initial_capacity 0;
    len = 0;
    rkeys = Array.make initial_capacity 0;
    rseqs = Array.make initial_capacity 0;
    rvals = Array.make initial_capacity 0;
    head = 0;
    tail = 0;
    seq = 0;
    last_key = 0;
  }

let length t = t.len + t.tail - t.head
let is_empty t = t.len = 0 && t.tail = 0
let popped_key t = t.last_key

(* Whether [(k1, s1)] pops before [(k2, s2)]. *)
let[@inline] before (k1 : int) (s1 : int) k2 s2 =
  k1 < k2 || (k1 = k2 && s1 < s2)

let[@inline] key_at t i = Array.unsafe_get t.keys i
let[@inline] seq_at t i = Array.unsafe_get t.seqs i

(* Whether the next pop takes the run's head rather than the heap's
   top. *)
let[@inline] run_first t =
  t.tail > 0
  && (t.len = 0
      || before
           (Array.unsafe_get t.rkeys t.head)
           (Array.unsafe_get t.rseqs t.head)
           (key_at t 0) (seq_at t 0))

let next_key t =
  let k = if t.len = 0 then max_int else key_at t 0 in
  if t.tail = 0 then k else Int.min k (Array.unsafe_get t.rkeys t.head)

let peek t =
  if run_first t then Array.unsafe_get t.rvals t.head
  else if t.len = 0 then -1
  else Array.unsafe_get t.vals 0

(* A copy of [a]'s [n] slots from [from] at the start of a new array of
   [cap] slots. *)
let regrow a ~from n cap =
  let a' = Array.make cap 0 in
  Array.blit a from a' 0 n;
  a'

(* ---- the heap ---- *)

let grow_heap t =
  let cap = 2 * Array.length t.keys in
  t.keys <- regrow t.keys ~from:0 t.len cap;
  t.seqs <- regrow t.seqs ~from:0 t.len cap;
  t.vals <- regrow t.vals ~from:0 t.len cap

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

let heap_push t key seq v =
  if t.len = Array.length t.keys then grow_heap t;
  let i = t.len in
  t.len <- i + 1;
  sift_up t i key seq v

let heap_pop t =
  let v = Array.unsafe_get t.vals 0 in
  t.last_key <- key_at t 0;
  let n = t.len - 1 in
  t.len <- n;
  if n > 0 then
    sift_down t 0 (key_at t n) (seq_at t n) (Array.unsafe_get t.vals n);
  v

(* ---- the run ---- *)

(* The run's tail has reached the end of its arrays.  Slide the live
   slots down when that frees at least half the arrays, else double
   them; either way the run then starts at slot 0, and the next
   [make_room] is at least half an array's pushes away. *)
let make_room t =
  let live = t.tail - t.head in
  let cap = Array.length t.rkeys in
  if 2 * live <= cap then begin
    Array.blit t.rkeys t.head t.rkeys 0 live;
    Array.blit t.rseqs t.head t.rseqs 0 live;
    Array.blit t.rvals t.head t.rvals 0 live
  end
  else begin
    t.rkeys <- regrow t.rkeys ~from:t.head live (2 * cap);
    t.rseqs <- regrow t.rseqs ~from:t.head live (2 * cap);
    t.rvals <- regrow t.rvals ~from:t.head live (2 * cap)
  end;
  t.head <- 0;
  t.tail <- live

let run_pop t =
  let h = t.head in
  let v = Array.unsafe_get t.rvals h in
  t.last_key <- Array.unsafe_get t.rkeys h;
  if h + 1 = t.tail then begin
    t.head <- 0;
    t.tail <- 0
  end
  else t.head <- h + 1;
  v

(* ---- the queue ---- *)

let push t ~key v =
  let seq = t.seq + 1 in
  t.seq <- seq;
  let n = t.tail in
  if n = 0 || key >= Array.unsafe_get t.rkeys (n - 1) then begin
    if n = Array.length t.rkeys then make_room t;
    let n = t.tail in
    Array.unsafe_set t.rkeys n key;
    Array.unsafe_set t.rseqs n seq;
    Array.unsafe_set t.rvals n v;
    t.tail <- n + 1
  end
  else heap_push t key seq v

let pop t =
  if run_first t then run_pop t else if t.len = 0 then -1 else heap_pop t

let clear t =
  t.len <- 0;
  t.head <- 0;
  t.tail <- 0;
  t.seq <- 0;
  t.last_key <- 0
