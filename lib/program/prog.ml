type kcall =
  | K_fork of { parent : Endpoint.t }
  | K_exec of { proc : Endpoint.t; path : string; arg : int }
  | K_kill of { proc : Endpoint.t; status : int }
  | K_crash_context of Endpoint.t
  | K_mk_clone of Endpoint.t
  | K_rollback of Endpoint.t
  | K_clear_state of Endpoint.t
  | K_go of Endpoint.t
  | K_reply_error of { proc : Endpoint.t; err : Errno.t }
  | K_shutdown of string
  | K_alarm of { ticks : int }
  | K_mmu of { proc : Endpoint.t }
  | K_replay of Endpoint.t
  | K_kill_requester of { proc : Endpoint.t }
  | K_live_update of { proc : Endpoint.t; loop : unit t }

and kresult =
  | Kr_ok
  | Kr_err of Errno.t
  | Kr_ep of Endpoint.t
  | Kr_context of {
      window_open : bool;
      requester : Endpoint.t option;
      reason : string;
      rlocal : bool;
          (* a requester-local SEEP was crossed inside the window *)
    }

and 'a t =
  | Done of 'a
  | Fail of string
  | Compute of int * (unit -> 'a t)
  | Load of int * (int -> 'a t)
  | Store of int * int * (unit -> 'a t)
  | Load_str of { off : int; len : int; k : string -> 'a t }
  | Store_str of { off : int; len : int; v : string; k : unit -> 'a t }
  | Send of Endpoint.t * Message.t * (unit -> 'a t)
  | Call of Endpoint.t * Message.t * (Message.t -> 'a t)
  | Receive of (Endpoint.t * Message.t -> 'a t)
  | Reply of Endpoint.t * Message.t * (unit -> 'a t)
  | Yield of (unit -> 'a t)
  | Spawn of unit t * (unit -> 'a t)
  | Kcall of kcall * (kresult -> 'a t)
  | Rand of int * (int -> 'a t)
  | Now of (int -> 'a t)
  | Direct of (unit -> 'a t)

let return x = Done x

let rec bind p f =
  match p with
  | Done x -> f x
  | Fail msg -> Fail msg
  | Compute (c, k) -> Compute (c, fun () -> bind (k ()) f)
  | Load (off, k) -> Load (off, fun v -> bind (k v) f)
  | Store (off, v, k) -> Store (off, v, fun () -> bind (k ()) f)
  | Load_str { off; len; k } -> Load_str { off; len; k = (fun s -> bind (k s) f) }
  | Store_str { off; len; v; k } ->
    Store_str { off; len; v; k = (fun () -> bind (k ()) f) }
  | Send (dst, m, k) -> Send (dst, m, fun () -> bind (k ()) f)
  | Call (dst, m, k) -> Call (dst, m, fun r -> bind (k r) f)
  | Receive k -> Receive (fun src_msg -> bind (k src_msg) f)
  | Reply (dst, m, k) -> Reply (dst, m, fun () -> bind (k ()) f)
  | Yield k -> Yield (fun () -> bind (k ()) f)
  | Spawn (prog, k) -> Spawn (prog, fun () -> bind (k ()) f)
  | Kcall (c, k) -> Kcall (c, fun r -> bind (k r) f)
  | Rand (bound, k) -> Rand (bound, fun v -> bind (k v) f)
  | Now k -> Now (fun v -> bind (k v) f)
  | Direct g -> Direct (fun () -> bind (g ()) f)

let map f p = bind p (fun x -> Done (f x))

module Syntax = struct
  let ( let* ) = bind
  let ( let+ ) p f = map f p
  let ( >>= ) = bind
  let ( >> ) a b = bind a (fun () -> b)
end

let compute c = Compute (c, fun () -> Done ())
let load off = Load (off, fun v -> Done v)
let store off v = Store (off, v, fun () -> Done ())
let load_str ~off ~len = Load_str { off; len; k = (fun s -> Done s) }
let store_str ~off ~len v = Store_str { off; len; v; k = (fun () -> Done ()) }
let send dst m = Send (dst, m, fun () -> Done ())
let call dst m = Call (dst, m, fun r -> Done r)
let receive = Receive (fun src_msg -> Done src_msg)
let reply dst m = Reply (dst, m, fun () -> Done ())
let yield = Yield (fun () -> Done ())
let spawn prog = Spawn (prog, fun () -> Done ())
let kcall c = Kcall (c, fun r -> Done r)
let rand bound = Rand (bound, fun v -> Done v)
let now = Now (fun v -> Done v)
let fail msg = Fail msg
let direct f = Direct (fun () -> Done (f ()))

let rec iter_list f = function
  | [] -> Done ()
  | x :: rest -> bind (f x) (fun () -> iter_list f rest)

let repeat n p =
  let rec go i = if i >= n then Done () else bind p (fun () -> go (i + 1)) in
  go 0

let guard cond what = if cond then Done () else Fail ("assertion failed: " ^ what)

module Mem = struct
  let get_int tbl ~row f = load (Layout.Table.addr_int tbl ~row f)
  let set_int tbl ~row f v = store (Layout.Table.addr_int tbl ~row f) v

  let get_str tbl ~row f =
    load_str ~off:(Layout.Table.addr_str tbl ~row f) ~len:(Layout.Table.str_len f)

  let set_str tbl ~row f v =
    store_str ~off:(Layout.Table.addr_str tbl ~row f) ~len:(Layout.Table.str_len f) v

  let get_cell c = load (Layout.Cell.addr c)
  let set_cell c v = store (Layout.Cell.addr c) v
end
