type span_kind = Request | Notify | Recovery | Rollback | Session

let kind_to_string = function
  | Request -> "request"
  | Notify -> "notify"
  | Recovery -> "recovery"
  | Rollback -> "rollback"
  | Session -> "session"

type t = {
  sp_id : int;
  sp_parent : int;
  sp_kind : span_kind;
  sp_name : string;
  sp_src : Endpoint.t;
  sp_ep : Endpoint.t;
  sp_start : int;
  sp_end : int;
  sp_complete : bool;
  sp_children : t list;
}

module Inttbl = Osiris_util.Inttbl

let by_start a b =
  let c = Int.compare a.sp_start b.sp_start in
  if c <> 0 then c else Int.compare a.sp_id b.sp_id

let of_model m =
  let trunc = Runmodel.truncation m in
  let spans : t Inttbl.t = Inttbl.create 256 in
  (* [stop < 0]: still open when the stream ends, capped at its last
     event time. *)
  let add ~id ~parent ~kind ~name ~src ~ep ~start ~stop =
    Inttbl.replace spans id
      { sp_id = id; sp_parent = parent; sp_kind = kind; sp_name = name;
        sp_src = src; sp_ep = ep; sp_start = start;
        sp_end = max start (if stop >= 0 then stop else trunc);
        sp_complete = stop >= 0; sp_children = [] }
  in
  (* Synthetic (negative) ids number session, recovery and rollback
     spans in stream order: [sp_id] is written into the trace JSON. *)
  let synthetic =
    List.map (fun s -> (s.Runmodel.s_pos, `Session s)) (Runmodel.sessions m)
    @ List.concat_map
        (fun (e : Runmodel.episode) ->
           (e.e_pos, `Recovery e)
           :: List.map
                (fun (r : Runmodel.rollback) -> (r.rb_pos, `Rollback (e, r)))
                e.e_rollbacks)
        (Runmodel.episodes m)
  in
  let session_id : int Inttbl.t = Inttbl.create 64 in
  let recovery_id : int Inttbl.t = Inttbl.create 8 in
  List.iteri
    (fun i (_, syn) ->
       let id = -(i + 1) in
       match syn with
       | `Session { Runmodel.s_ep = ep; s_arrival; s_parent; s_exit; _ } ->
         Inttbl.replace session_id ep id;
         add ~id ~parent:0 ~kind:Session
           ~name:(if s_parent = 0 then "session" else "session (forked)")
           ~src:(if s_parent = 0 then ep else s_parent) ~ep ~start:s_arrival
           ~stop:s_exit
       | `Recovery (e : Runmodel.episode) ->
         Inttbl.replace recovery_id e.e_pos id;
         (* The compartment's policy in the name keeps mixed-policy
            traces attributable span by span. *)
         add ~id ~parent:e.e_rid ~kind:Recovery
           ~name:(Printf.sprintf "recovery [%s]" e.e_policy) ~src:e.e_ep
           ~ep:e.e_ep ~start:e.e_crash
           ~stop:(if Runmodel.closed e then e.e_restart else -1)
       | `Rollback ((e : Runmodel.episode), (r : Runmodel.rollback)) ->
         add ~id ~parent:(Inttbl.find recovery_id e.e_pos) ~kind:Rollback
           ~name:
             (if r.rb_end >= 0 then Printf.sprintf "rollback %dB" r.rb_bytes
              else "rollback")
           ~src:e.e_ep ~ep:e.e_ep ~start:r.rb_begin ~stop:r.rb_end)
    (List.sort (fun (a, _) (b, _) -> compare a b) synthetic);
  Runmodel.iter_deliveries m (fun rid ev ->
      match ev with
      | Kernel.E_msg { time; src; dst; tag; call; parent; _ } ->
        (* A top-level message from a session-tracked user process
           nests under its session root instead of floating free, so
           storm requests keep their arrival context. *)
        let parent =
          if parent = 0 then Inttbl.find_or session_id src 0 else parent
        in
        let stop =
          match Runmodel.reply_time m rid with
          | Some r -> r
          | None -> if call then -1 else time
        in
        add ~id:rid ~parent ~kind:(if call then Request else Notify)
          ~name:(Message.Tag.to_string tag) ~src ~ep:dst ~start:time ~stop
      | _ -> ());
  (* Assemble the forest. An unknown parent (before the capture window,
     or 0) makes a root. Siblings are sorted by (start, id), which ids
     make total: the tables' slot order never shows. *)
  let children : t list Inttbl.t = Inttbl.create (Inttbl.length spans) in
  let roots = ref [] in
  Inttbl.iter
    (fun _ s ->
       if s.sp_parent <> 0 && Inttbl.mem spans s.sp_parent then
         Inttbl.push children s.sp_parent s
       else roots := s :: !roots)
    spans;
  let rec freeze s =
    { s with
      sp_children =
        List.map freeze (List.sort by_start (Inttbl.find_or children s.sp_id [])) }
  in
  List.map freeze (List.sort by_start !roots)

let build events = of_model (Runmodel.of_list events)

let top_requests spans =
  List.concat_map
    (fun s ->
       match s.sp_kind with
       | Request -> [ s ]
       | Session -> List.filter (fun c -> c.sp_kind = Request) s.sp_children
       | _ -> [])
    spans

let rec flatten spans =
  List.concat_map (fun s -> s :: flatten s.sp_children) spans

let count spans = List.length (flatten spans)

let find f spans = List.find_opt f (flatten spans)

let render_tree spans =
  let buf = ref [] in
  let rec go depth s =
    let line =
      Printf.sprintf "%10d %s%s %s -> %s  %s (%d cycles)%s [id %d]"
        s.sp_start
        (String.concat "" (List.init depth (fun _ -> "  ")))
        (kind_to_string s.sp_kind)
        (Endpoint.server_name s.sp_src)
        (Endpoint.server_name s.sp_ep)
        s.sp_name
        (s.sp_end - s.sp_start)
        (if s.sp_complete then "" else " [open]")
        s.sp_id
    in
    buf := line :: !buf;
    List.iter (go (depth + 1)) s.sp_children
  in
  List.iter (go 0) spans;
  List.rev !buf
