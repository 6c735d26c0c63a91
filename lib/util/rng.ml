type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let create seed = { state = Int64.of_int seed }

let copy t = { state = t.state }

(* splitmix64 finalizer: Stafford's mix13 variant. *)
let mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let bits64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix t.state

let split t =
  let seed = bits64 t in
  { state = seed }

let int t n =
  assert (n > 0);
  (* Keep 62 bits so the value is non-negative as an OCaml int. *)
  let v = Int64.to_int (Int64.shift_right_logical (bits64 t) 2) in
  v mod n

let bool t = Int64.logand (bits64 t) 1L = 1L

let float t x =
  let v = Int64.to_float (Int64.shift_right_logical (bits64 t) 11) in
  (* 53 significant bits, scaled to [0, 1). *)
  v /. 9007199254740992.0 *. x

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
