(* Critical-path decomposition of request latency. See the .mli for
   the bucket taxonomy and the conservation argument; the core is an
   exact interval partition. Each completed request's [arrival, exit]
   interval splits into own-compute and outstanding-call intervals;
   each call interval splits at the dispatch instant into a queueing
   prefix and a handling suffix; the suffix splits into child-call
   intervals (recursed) and residual handler time; and every segment
   is classified against the handling server's checkpoint intervals
   and crash->restart episodes. All arithmetic is integer interval
   lengths over one partition, so the buckets sum to the latency
   exactly — no tolerance needed. *)

module Inttbl = Osiris_util.Inttbl

type breakdown = {
  cp_ep : Endpoint.t;
  cp_rid : int;
  cp_injected : bool;
  cp_arrival : int;
  cp_exit : int;
  cp_own : int;
  cp_queue : int;
  cp_service : (Endpoint.t * int) list;
  cp_checkpoint : int;
  cp_rollback : int;
  cp_restart : int;
  cp_collateral : int;
  cp_path : int list;
}

let total b = b.cp_exit - b.cp_arrival

let service_total b = List.fold_left (fun a (_, c) -> a + c) 0 b.cp_service

let breakdown_sum b =
  b.cp_own + b.cp_queue + service_total b + b.cp_checkpoint + b.cp_rollback
  + b.cp_restart + b.cp_collateral

type result = {
  cr_requests : breakdown list;
  cr_incomplete : int;
}

(* ------------------------------------------------------------------ *)
(* Stream indexing                                                     *)
(* ------------------------------------------------------------------ *)

(* Deliveries, replies, causal roots, recovery episodes and sessions
   come from the shared run model; this index adds only what no other
   view needs. Every table is keyed by rid or endpoint and only looked
   up, never iterated. *)
type index = {
  ix_model : Runmodel.t;
  ix_children : int list Inttbl.t;  (* rid -> call-child rids, rev *)
  ix_marks : int list Inttbl.t;     (* rid -> activity times, rev *)
  ix_ckpts : (int * int) list Inttbl.t;  (* rid -> (open, done), rev *)
  ix_ck_open : int Inttbl.t;        (* rid -> pending window open *)
  ix_tops : int list Inttbl.t;      (* src ep -> root-call rids, rev *)
}

let index model events =
  let ix =
    { ix_model = model;
      ix_children = Inttbl.create 256;
      ix_marks = Inttbl.create 1024;
      ix_ckpts = Inttbl.create 256;
      ix_ck_open = Inttbl.create 16;
      ix_tops = Inttbl.create 256 }
  in
  List.iter
    (fun ev ->
       match ev with
       | Kernel.E_msg { time; src; call; rid; parent; _ } ->
         if parent = 0 then begin
           if call then Inttbl.push ix.ix_tops src rid
         end
         else begin
           if call then Inttbl.push ix.ix_children parent rid;
           Inttbl.push ix.ix_marks parent time
         end
       | Kernel.E_window_open { time; rid; _ } ->
         if rid <> 0 then begin
           Inttbl.push ix.ix_marks rid time;
           Inttbl.replace ix.ix_ck_open rid time
         end
       | Kernel.E_checkpoint { time; rid; _ } ->
         if rid <> 0 then begin
           Inttbl.push ix.ix_marks rid time;
           (match Inttbl.find ix.ix_ck_open rid with
            | op when op <= time ->
              Inttbl.push ix.ix_ckpts rid (op, time);
              Inttbl.remove ix.ix_ck_open rid
            | _ | (exception Not_found) -> ())
         end
       | Kernel.E_kcall { time; rid; _ } | Kernel.E_store_logged { time; rid; _ }
       | Kernel.E_crash { time; rid; _ } ->
         if rid <> 0 then Inttbl.push ix.ix_marks rid time
       | _ -> ())
    events;
  ix

(* ------------------------------------------------------------------ *)
(* Classification                                                      *)
(* ------------------------------------------------------------------ *)

type acc = {
  mutable x_own : int;
  mutable x_queue : int;
  x_service : int Inttbl.t;  (* server ep -> service cycles *)
  mutable x_checkpoint : int;
  mutable x_rollback : int;
  mutable x_restart : int;
  mutable x_collateral : int;
  mutable x_path : int list;  (* reversed *)
}

(* Attribute the part of [a, z) overlapping [server]'s recovery
   episodes, returning the uncovered segments (ascending). A crash
   sharing the request's causal [root] is the request's own fault —
   rollback sub-intervals to [x_rollback], the rest of the episode to
   [x_restart]; any other root's recovery is collateral damage. *)
let cut_episodes ix acc server root a z =
  match Runmodel.server_episodes ix.ix_model server with
  | [] -> [ (a, z) ]
  | eps ->
    let cur = ref a in
    let out = ref [] in
    List.iter
      (fun (e : Runmodel.episode) ->
         let lo = Int.max !cur e.e_crash and hi = Int.min z e.e_restart in
         if hi > lo then begin
           if lo > !cur then out := (!cur, lo) :: !out;
           (if e.e_root = root && root <> 0 then begin
              let rb =
                List.fold_left
                  (fun s (r : Runmodel.rollback) ->
                     let x = Int.max lo r.rb_begin
                     and y = Int.min hi r.rb_end in
                     if r.rb_end >= 0 && y > x then s + (y - x) else s)
                  0 e.e_rollbacks
              in
              acc.x_rollback <- acc.x_rollback + rb;
              acc.x_restart <- acc.x_restart + (hi - lo - rb)
            end
            else acc.x_collateral <- acc.x_collateral + (hi - lo));
           cur := hi
         end)
      eps;
    if z > !cur then out := (!cur, z) :: !out;
    List.rev !out

(* Handler time on [server] for [rid] over [a, z): recovery overlap
   first, then the request's own checkpoint intervals, remainder is
   plain service. *)
let classify_residual ix acc server rid root a z =
  let rem = cut_episodes ix acc server root a z in
  let ckpts = List.rev (Inttbl.find_or ix.ix_ckpts rid []) in
  List.iter
    (fun (a, z) ->
       let cur = ref a in
       List.iter
         (fun (ca, cz) ->
            let lo = Int.max !cur ca and hi = Int.min z cz in
            if hi > lo then begin
              acc.x_checkpoint <- acc.x_checkpoint + (hi - lo);
              Inttbl.add_int acc.x_service server (lo - !cur);
              cur := hi
            end)
         ckpts;
       Inttbl.add_int acc.x_service server (z - !cur))
    rem

let reply_end ix rid t =
  match Runmodel.reply_time ix.ix_model rid with
  | Some r -> Int.max t r
  | None -> t

(* Decompose [rid]'s handling as its requester saw it over [lo, hi). *)
let rec walk ix acc rid lo hi =
  if hi > lo then begin
    match Runmodel.delivery ix.ix_model rid with
    | Some (Kernel.E_msg { dst; _ }) ->
      acc.x_path <- rid :: acc.x_path;
      let root = Runmodel.root ix.ix_model rid in
      (* Dispatch: the server's first observable act on this rid. *)
      let d =
        match Inttbl.find ix.ix_marks rid with
        | exception Not_found -> lo
        | marks ->
          let best =
            List.fold_left
              (fun best t -> if t >= lo && t <= hi && t < best then t else best)
              hi marks
          in
          if best = hi then lo else best
      in
      (* Pre-dispatch wait: queueing, except where the server was
         mid-recovery. *)
      List.iter
        (fun (a, z) -> acc.x_queue <- acc.x_queue + (z - a))
        (cut_episodes ix acc dst root lo d);
      (* Handling: child calls recurse, residual is this server's. *)
      let kids =
        List.filter_map
          (fun crid ->
             match Runmodel.delivery ix.ix_model crid with
             | Some (Kernel.E_msg { call = true; time; _ }) ->
               Some (crid, time, reply_end ix crid time)
             | _ -> None)
          (List.rev (Inttbl.find_or ix.ix_children rid []))
      in
      let kids =
        List.sort (fun (_, a, _) (_, b, _) -> Int.compare a b) kids
      in
      let cur = ref d in
      List.iter
        (fun (crid, ct, cr) ->
           let ct = Int.max ct !cur and cr = Int.min cr hi in
           if cr > ct then begin
             if ct > !cur then classify_residual ix acc dst rid root !cur ct;
             walk ix acc crid ct cr;
             cur := cr
           end)
        kids;
      if hi > !cur then classify_residual ix acc dst rid root !cur hi
    | _ -> acc.x_own <- acc.x_own + (hi - lo)
  end

let analyze_model model events =
  let ix = index model events in
  let incomplete = ref 0 in
  let out = ref [] in
  List.iter
    (fun { Runmodel.s_ep = ep; s_arrival = arrival; s_parent = parent;
           s_exit = exit_t; _ } ->
       if exit_t < 0 then incr incomplete
       else begin
         let acc =
           { x_own = 0; x_queue = 0; x_service = Inttbl.create 8;
             x_checkpoint = 0; x_rollback = 0; x_restart = 0;
             x_collateral = 0; x_path = [] }
         in
         (* Outstanding top-level calls, oldest first, clipped to the
            exit instant: the exit call itself (issued at [exit_t])
            contributes nothing, but earlier failed exit attempts
            count as wait time like any other call. *)
         let tops =
           List.filter_map
             (fun rid ->
                match Runmodel.delivery model rid with
                | Some (Kernel.E_msg { time; _ }) when time < exit_t ->
                  Some (rid, time, Int.min exit_t (reply_end ix rid time))
                | _ -> None)
             (List.rev (Inttbl.find_or ix.ix_tops ep []))
         in
         let tops =
           List.sort (fun (_, a, _) (_, b, _) -> Int.compare a b) tops
         in
         let away = ref 0 in
         List.iter
           (fun (rid, t, r) ->
              away := !away + (r - t);
              walk ix acc rid t r)
           tops;
         acc.x_own <- acc.x_own + (exit_t - arrival - !away);
         (* Keys are unique, so ordering by endpoint alone is total. *)
         let service =
           List.sort
             (fun (a, _) (b, _) -> Int.compare a b)
             (Inttbl.fold (fun ep c l -> (ep, c) :: l) acc.x_service [])
         in
         let first_rid = match tops with (rid, _, _) :: _ -> rid | [] -> 0 in
         out :=
           { cp_ep = ep;
             cp_rid = first_rid;
             cp_injected = parent = 0;
             cp_arrival = arrival;
             cp_exit = exit_t;
             cp_own = acc.x_own;
             cp_queue = acc.x_queue;
             cp_service = service;
             cp_checkpoint = acc.x_checkpoint;
             cp_rollback = acc.x_rollback;
             cp_restart = acc.x_restart;
             cp_collateral = acc.x_collateral;
             cp_path = List.rev acc.x_path }
           :: !out
       end)
    (Runmodel.sessions model);
  { cr_requests = List.rev !out; cr_incomplete = !incomplete }

let analyze events = analyze_model (Runmodel.of_list events) events
