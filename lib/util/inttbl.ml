(* Linear probing over flat arrays; see the .mli. [keys] holds the keys
   with [free] in empty slots; [vals] has one more slot than [keys], at
   index [capacity], for the value of the key [free] itself. The load
   stays at most 1/2, so every probe meets a free slot.

   [vals] is an [Obj.t array] filled with the immediate [0]: a value
   array needs a fill value, and filling a large array with a young
   block (the first value inserted) would force a minor collection at
   every allocation and growth of the table. Invariant: a slot whose
   key is bound (or index [capacity] while [has_free]) holds [Obj.repr]
   of an ['a]; every other slot holds [empty]. An [Obj.t array] is
   never a flat float array, so a boxed float is stored as a pointer. *)

let free = min_int
let empty = Obj.repr 0

type 'a t = {
  mutable keys : int array;
  mutable vals : Obj.t array;
  mutable size : int;         (* entries in [keys] *)
  mutable has_free : bool;    (* is [free] itself bound, at vals.(capacity)? *)
}

let rec pow2_at_least n c = if c >= n then c else pow2_at_least n (2 * c)

let create n =
  let cap = pow2_at_least (2 * n) 8 in
  { keys = Array.make cap free;
    vals = Array.make (cap + 1) empty;
    size = 0;
    has_free = false }

let length t = t.size + if t.has_free then 1 else 0

(* The slot holding [k], or [-1 - s] for the free slot [s] that ends its
   probe chain. [k <> free]. *)
let rec probe keys mask (k : int) i =
  let k' = keys.(i) in
  if k' = k then i
  else if k' = free then -1 - i
  else probe keys mask k ((i + 1) land mask)

(* [k]'s index in [vals], or [-1]. *)
let index t k =
  if k = free then (if t.has_free then Array.length t.keys else -1)
  else
    let mask = Array.length t.keys - 1 in
    let i = probe t.keys mask k (k land mask) in
    if i >= 0 then i else -1

let get (t : 'a t) i : 'a = Obj.obj t.vals.(i)

let mem t k = index t k >= 0

let find t k =
  let i = index t k in
  if i < 0 then raise Not_found else get t i

let find_opt t k =
  let i = index t k in
  if i < 0 then None else Some (get t i)

let find_or t k d =
  let i = index t k in
  if i < 0 then d else get t i

let grow t =
  let keys = t.keys and vals = t.vals in
  let cap = 2 * Array.length keys in
  let mask = cap - 1 in
  let nkeys = Array.make cap free and nvals = Array.make (cap + 1) empty in
  Array.iteri
    (fun i k ->
       if k <> free then begin
         let s = -1 - probe nkeys mask k (k land mask) in
         nkeys.(s) <- k;
         nvals.(s) <- vals.(i)
       end)
    keys;
  nvals.(cap) <- vals.(Array.length keys);
  t.keys <- nkeys;
  t.vals <- nvals

(* Bind [k], known to be absent, to [v]. *)
let add_new (t : 'a t) k (v : 'a) =
  if k = free then begin
    t.vals.(Array.length t.keys) <- Obj.repr v;
    t.has_free <- true
  end
  else begin
    if 2 * (t.size + 1) > Array.length t.keys then grow t;
    let mask = Array.length t.keys - 1 in
    let s = -1 - probe t.keys mask k (k land mask) in
    t.keys.(s) <- k;
    t.vals.(s) <- Obj.repr v;
    t.size <- t.size + 1
  end

let replace (t : 'a t) k (v : 'a) =
  let i = index t k in
  if i >= 0 then t.vals.(i) <- Obj.repr v else add_new t k v

let push t k v =
  let i = index t k in
  if i >= 0 then t.vals.(i) <- Obj.repr (v :: get t i)
  else add_new t k [ v ]

let add_int t k n =
  let i = index t k in
  if i >= 0 then t.vals.(i) <- Obj.repr (get t i + n) else add_new t k n

(* Backward-shift deletion: walk the rest of the chain after the hole
   and move back every entry whose home slot does not lie cyclically in
   (hole, j], so each remaining key stays reachable from its home. *)
let remove t k =
  if k = free then begin
    t.has_free <- false;
    t.vals.(Array.length t.keys) <- empty
  end
  else begin
    let keys = t.keys and vals = t.vals in
    let mask = Array.length keys - 1 in
    let i = probe keys mask k (k land mask) in
    if i >= 0 then begin
      let hole = ref i and j = ref ((i + 1) land mask) in
      while keys.(!j) <> free do
        let home = keys.(!j) land mask in
        let stays =
          if !hole < !j then home > !hole && home <= !j
          else home > !hole || home <= !j
        in
        if not stays then begin
          keys.(!hole) <- keys.(!j);
          vals.(!hole) <- vals.(!j);
          hole := !j
        end;
        j := (!j + 1) land mask
      done;
      keys.(!hole) <- free;
      vals.(!hole) <- empty;
      t.size <- t.size - 1
    end
  end

let iter f t =
  Array.iteri (fun i k -> if k <> free then f k (get t i)) t.keys;
  if t.has_free then f free (get t (Array.length t.keys))

let map_inplace f t =
  Array.iteri
    (fun i k -> if k <> free then t.vals.(i) <- Obj.repr (f (get t i)))
    t.keys;
  if t.has_free then
    let i = Array.length t.keys in
    t.vals.(i) <- Obj.repr (f (get t i))

let fold f t acc =
  let acc = ref acc in
  iter (fun k v -> acc := f k v !acc) t;
  !acc
