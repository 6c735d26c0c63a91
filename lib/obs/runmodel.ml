(* Lists are consed newest first while the stream runs and reversed
   once by [finish]; before it the accessors reverse a copy, so a live
   consumer (Health) can read a model that is still being fed. Every
   table is keyed by rid or endpoint, so each is an [Inttbl]. *)

module Inttbl = Osiris_util.Inttbl

type rollback = {
  rb_pos : int;
  rb_begin : int;
  mutable rb_end : int;
  mutable rb_bytes : int;
}

type episode = {
  e_pos : int;
  e_ep : Endpoint.t;
  e_crash : int;
  e_rid : int;
  e_root : int;
  e_reason : string;
  e_policy : string;
  e_window_open : bool;
  mutable e_rollbacks : rollback list;
  mutable e_restart : int;
  mutable e_restart_policy : string;
}

type session = {
  s_pos : int;
  s_ep : Endpoint.t;
  s_arrival : int;
  s_parent : int;
  mutable s_exit : int;
}

type t = {
  msgs : Kernel.event Inttbl.t;           (* rid -> its E_msg *)
  roots : int Inttbl.t;                   (* rid -> causal root rid *)
  replies : int Inttbl.t;                 (* rid -> first reply time *)
  by_server : episode list Inttbl.t;      (* ep -> episodes, newest first *)
  restart_counts : int Inttbl.t;          (* ep -> restarts *)
  session_of : session Inttbl.t;          (* ep -> its session *)
  mutable episodes : episode list;
  mutable sessions : session list;
  mutable pos : int;
  mutable trunc : int;
  mutable finished : bool;
}

let create () =
  { msgs = Inttbl.create 1024;
    roots = Inttbl.create 1024;
    replies = Inttbl.create 1024;
    by_server = Inttbl.create 16;
    restart_counts = Inttbl.create 16;
    session_of = Inttbl.create 64;
    episodes = [];
    sessions = [];
    pos = 0;
    trunc = 0;
    finished = false }

let root t rid = if rid = 0 then 0 else Inttbl.find_or t.roots rid rid

let server_episodes_raw t ep = Inttbl.find_or t.by_server ep []

let open_episode t ep =
  match server_episodes_raw t ep with
  | e :: _ when e.e_restart = max_int -> Some e
  | _ -> None

let closed e = e.e_restart <> max_int

let observe t ev =
  if t.finished then invalid_arg "Runmodel.observe: model is finished";
  let pos = t.pos in
  t.pos <- pos + 1;
  (match ev with
   | Kernel.E_spawn _ -> ()
   | _ -> t.trunc <- Int.max t.trunc (Journal.event_time ev));
  match ev with
  | Kernel.E_spawn { time; ep; parent } ->
    let s =
      { s_pos = pos; s_ep = ep; s_arrival = time; s_parent = parent;
        s_exit = -1 }
    in
    t.sessions <- s :: t.sessions;
    Inttbl.replace t.session_of ep s
  | Kernel.E_msg { time; src; tag; rid; parent; _ } ->
    Inttbl.replace t.msgs rid ev;
    Inttbl.replace t.roots rid (if parent = 0 then rid else root t parent);
    if parent = 0 && tag = Message.Tag.T_exit then
      (match Inttbl.find t.session_of src with
       | s -> s.s_exit <- time
       | exception Not_found -> ())
  | Kernel.E_reply { time; rid; _ } ->
    if not (Inttbl.mem t.replies rid) then Inttbl.replace t.replies rid time
  | Kernel.E_crash { time; ep; reason; window_open; rid; policy } ->
    let e =
      { e_pos = pos; e_ep = ep; e_crash = time; e_rid = rid;
        e_root = root t rid; e_reason = reason; e_policy = policy;
        e_window_open = window_open; e_rollbacks = [];
        e_restart = max_int; e_restart_policy = "" }
    in
    t.episodes <- e :: t.episodes;
    Inttbl.push t.by_server ep e
  | Kernel.E_rollback_begin { time; ep; _ } ->
    (match open_episode t ep with
     | Some e ->
       e.e_rollbacks <-
         { rb_pos = pos; rb_begin = time; rb_end = -1; rb_bytes = 0 }
         :: e.e_rollbacks
     | None -> ())
  | Kernel.E_rollback_end { time; ep; bytes; _ } ->
    (match open_episode t ep with
     | Some { e_rollbacks = rb :: _; _ } when rb.rb_end < 0 ->
       rb.rb_end <- time;
       rb.rb_bytes <- bytes
     | _ -> ())
  | Kernel.E_restart { time; ep; policy; _ } ->
    Inttbl.add_int t.restart_counts ep 1;
    (match open_episode t ep with
     | Some e ->
       e.e_restart <- time;
       e.e_restart_policy <- policy
     | None -> ())
  | _ -> ()

let finish t =
  if not t.finished then begin
    t.finished <- true;
    t.episodes <- List.rev t.episodes;
    t.sessions <- List.rev t.sessions;
    Inttbl.map_inplace List.rev t.by_server
  end;
  t

let of_iter iter =
  let t = create () in
  iter (observe t);
  finish t

let of_list events = of_iter (fun f -> List.iter f events)
let of_array events = of_iter (fun f -> Array.iter f events)

let ordered t l = if t.finished then l else List.rev l

let delivery t rid = Inttbl.find_opt t.msgs rid

let parent t rid =
  match Inttbl.find t.msgs rid with
  | Kernel.E_msg { parent; _ } -> Some parent
  | _ | (exception Not_found) -> None

let reply_time t rid = Inttbl.find_opt t.replies rid
let iter_deliveries t f = Inttbl.iter f t.msgs
let episodes t = ordered t t.episodes
let server_episodes t ep = ordered t (server_episodes_raw t ep)

let restarts t ep = Inttbl.find_or t.restart_counts ep 0

let sessions t = ordered t t.sessions
let length t = t.pos
let truncation t = t.trunc
