type divergence = {
  div_index : int;
  div_recorded : Kernel.event option;
  div_replayed : Kernel.event option;
  div_rid : int;
  div_chain : int list;
}

type outcome = {
  rp_header : Journal.header;
  rp_recorded : int;
  rp_replayed : int;
  rp_halt : Kernel.halt;
  rp_cost_mismatch : bool;
  rp_divergence : divergence option;
}

(* rid -> parent, from the recorded deliveries. Replayed events are
   never consulted: past the divergence the replay's causality is
   suspect, the journal's is ground truth. *)
let chain_of_parents parent_of rid =
  let rec walk acc rid =
    if rid = 0 || List.mem rid acc then List.rev acc
    else
      match parent_of rid with
      | None -> List.rev (rid :: acc)
      | Some parent -> walk (rid :: acc) parent
  in
  walk [] rid

let rid_chain recorded rid =
  chain_of_parents (Runmodel.parent (Runmodel.of_array recorded)) rid

let same_halt (a : Kernel.halt) (b : Kernel.halt) =
  match a, b with
  | H_completed x, H_completed y -> x = y
  | H_shutdown x, H_shutdown y | H_panic x, H_panic y -> String.equal x y
  | H_hang, H_hang -> true
  | (H_completed _ | H_shutdown _ | H_panic _ | H_hang), _ -> false

(* Whether a replayed event is the recorded one, field by field at
   each field's type: no generic walk over the record per event. *)
let same_event (a : Kernel.event) (b : Kernel.event) =
  match a, b with
  | E_msg a, E_msg b ->
    a.time = b.time && a.src = b.src && a.dst = b.dst && a.tag = b.tag
    && a.call = b.call && a.rid = b.rid && a.parent = b.parent && a.cls = b.cls
  | E_reply a, E_reply b ->
    a.time = b.time && a.src = b.src && a.dst = b.dst && a.tag = b.tag
    && a.rid = b.rid
  | E_window_open a, E_window_open b ->
    a.time = b.time && a.ep = b.ep && a.rid = b.rid
  | E_window_close a, E_window_close b ->
    a.time = b.time && a.ep = b.ep && a.rid = b.rid && a.policy = b.policy
  | E_checkpoint a, E_checkpoint b ->
    a.time = b.time && a.ep = b.ep && a.rid = b.rid && a.cycles = b.cycles
  | E_store_logged a, E_store_logged b ->
    a.time = b.time && a.ep = b.ep && a.rid = b.rid && a.bytes = b.bytes
  | E_kcall a, E_kcall b ->
    a.time = b.time && a.ep = b.ep && a.rid = b.rid && String.equal a.kc b.kc
  | E_crash a, E_crash b ->
    a.time = b.time && a.ep = b.ep && String.equal a.reason b.reason
    && a.window_open = b.window_open && a.rid = b.rid
    && String.equal a.policy b.policy
  | E_hang_detected a, E_hang_detected b -> a.time = b.time && a.ep = b.ep
  | E_rollback_begin a, E_rollback_begin b ->
    a.time = b.time && a.ep = b.ep && a.rid = b.rid
  | E_rollback_end a, E_rollback_end b ->
    a.time = b.time && a.ep = b.ep && a.rid = b.rid && a.bytes = b.bytes
  | E_restart a, E_restart b ->
    a.time = b.time && a.ep = b.ep && a.rid = b.rid && String.equal a.policy b.policy
  | E_halt a, E_halt b -> a.time = b.time && same_halt a.halt b.halt
  | E_spawn a, E_spawn b -> a.time = b.time && a.ep = b.ep && a.parent = b.parent
  | ( ( E_msg _ | E_reply _ | E_window_open _ | E_window_close _ | E_checkpoint _
      | E_store_logged _ | E_kcall _ | E_crash _ | E_hang_detected _
      | E_rollback_begin _ | E_rollback_end _ | E_restart _ | E_halt _ | E_spawn _ ),
      _ ) ->
    false

(* The streaming core: the recorded side is a pull cursor, consumed
   exactly once and in order, so the journal never materializes. The
   parents map accrues from every record pulled; after the run the
   remaining records are drained so the map (and the record count)
   cover the whole journal — the last binding of a rid wins, as in the
   array-based walk, keeping divergence chains byte-identical. *)
let run_stream ~exec ?cost_fingerprint header ~next =
  let parents = Osiris_util.Inttbl.create 256 in
  let pulled = ref 0 in
  let ended = ref false in
  let pull () =
    if !ended then None
    else
      match next () with
      | None ->
        ended := true;
        None
      | Some ev ->
        (match ev with
         | Kernel.E_msg { rid; parent; _ } ->
           Osiris_util.Inttbl.replace parents rid parent
         | _ -> ());
        incr pulled;
        Some ev
  in
  let i = ref 0 in
  let first_mismatch = ref None in
  let hook ev =
    (if !first_mismatch = None then
       match pull () with
       | None -> first_mismatch := Some (!i, None, Some ev)
       | Some want ->
         if not (same_event ev want) then
           first_mismatch := Some (!i, Some want, Some ev));
    incr i
  in
  let halt = exec header ~hook in
  (* Replay ended with journal records left over: the journal's next
     record is the divergence (its rid names the request the replay
     never reached). *)
  (if !first_mismatch = None then
     match pull () with
     | Some want -> first_mismatch := Some (!i, Some want, None)
     | None -> ());
  while pull () <> None do () done;
  let divergence =
    match !first_mismatch with
    | None -> None
    | Some (idx, rec_ev, rep_ev) ->
      let rid =
        match rec_ev, rep_ev with
        | Some e, _ -> Journal.event_rid e
        | None, Some e -> Journal.event_rid e
        | None, None -> 0
      in
      Some
        { div_index = idx;
          div_recorded = rec_ev;
          div_replayed = rep_ev;
          div_rid = rid;
          div_chain =
            chain_of_parents (Osiris_util.Inttbl.find_opt parents) rid }
  in
  { rp_header = header;
    rp_recorded = !pulled;
    rp_replayed = !i;
    rp_halt = halt;
    rp_cost_mismatch =
      (match cost_fingerprint with
       | Some fp -> fp <> header.Journal.jh_cost_fingerprint
       | None -> false);
    rp_divergence = divergence }

let run ~exec ?cost_fingerprint header recorded =
  let i = ref 0 in
  let next () =
    if !i < Array.length recorded then begin
      let ev = recorded.(!i) in
      incr i;
      Some ev
    end
    else None
  in
  run_stream ~exec ?cost_fingerprint header ~next

let exit_code o = match o.rp_divergence with None -> 0 | Some _ -> 2

(* Compact one-line event rendering for divergence reports; the live
   views' aligned format is [Obs_collector.pp_event]. *)
let pp_event = function
  | Kernel.E_msg { time; src; dst; tag; call; rid; parent; _ } ->
    Printf.sprintf "msg t=%d %s->%s %s%s rid=%d parent=%d" time
      (Endpoint.server_name src) (Endpoint.server_name dst)
      (Message.Tag.to_string tag) (if call then "(call)" else "") rid parent
  | Kernel.E_reply { time; src; dst; rid; _ } ->
    Printf.sprintf "reply t=%d %s=>%s rid=%d" time
      (Endpoint.server_name src) (Endpoint.server_name dst) rid
  | Kernel.E_window_open { time; ep; rid } ->
    Printf.sprintf "window_open t=%d %s rid=%d" time
      (Endpoint.server_name ep) rid
  | Kernel.E_window_close { time; ep; rid; policy } ->
    Printf.sprintf "window_close t=%d %s rid=%d policy=%b" time
      (Endpoint.server_name ep) rid policy
  | Kernel.E_checkpoint { time; ep; rid; cycles } ->
    Printf.sprintf "checkpoint t=%d %s rid=%d cycles=%d" time
      (Endpoint.server_name ep) rid cycles
  | Kernel.E_store_logged { time; ep; rid; bytes } ->
    Printf.sprintf "store_logged t=%d %s rid=%d bytes=%d" time
      (Endpoint.server_name ep) rid bytes
  | Kernel.E_kcall { time; ep; rid; kc } ->
    Printf.sprintf "kcall t=%d %s %s rid=%d" time (Endpoint.server_name ep)
      kc rid
  | Kernel.E_crash { time; ep; reason; window_open; rid; policy } ->
    Printf.sprintf "crash t=%d %s (%s) window=%b policy=%s rid=%d" time
      (Endpoint.server_name ep) reason window_open policy rid
  | Kernel.E_hang_detected { time; ep } ->
    Printf.sprintf "hang_detected t=%d %s" time (Endpoint.server_name ep)
  | Kernel.E_rollback_begin { time; ep; rid } ->
    Printf.sprintf "rollback_begin t=%d %s rid=%d" time
      (Endpoint.server_name ep) rid
  | Kernel.E_rollback_end { time; ep; rid; bytes } ->
    Printf.sprintf "rollback_end t=%d %s rid=%d bytes=%d" time
      (Endpoint.server_name ep) rid bytes
  | Kernel.E_restart { time; ep; rid; policy } ->
    Printf.sprintf "restart t=%d %s policy=%s rid=%d" time
      (Endpoint.server_name ep) policy rid
  | Kernel.E_halt { time; halt } ->
    Printf.sprintf "halt t=%d %s" time (Kernel.halt_to_string halt)
  | Kernel.E_spawn { time; ep; parent } ->
    Printf.sprintf "spawn t=%d %s parent=%s" time
      (Endpoint.server_name ep) (Endpoint.server_name parent)

let render o =
  let b = Buffer.create 512 in
  Printf.bprintf b "replay: %s\n" (Journal.header_to_string o.rp_header);
  Printf.bprintf b "recorded %d records, replayed %d events, halted: %s\n"
    o.rp_recorded o.rp_replayed (Kernel.halt_to_string o.rp_halt);
  if o.rp_cost_mismatch then
    Buffer.add_string b
      "WARNING: replay cost table differs from the recorded run's \
       (fingerprint mismatch) — divergence is expected\n";
  (match o.rp_divergence with
   | None -> Buffer.add_string b "verdict: IDENTICAL (zero divergences)\n"
   | Some d ->
     Printf.bprintf b "verdict: DIVERGED at record %d\n" d.div_index;
     Printf.bprintf b "  recorded: %s\n"
       (match d.div_recorded with
        | Some e -> pp_event e
        | None -> "<end of journal>");
     Printf.bprintf b "  replayed: %s\n"
       (match d.div_replayed with
        | Some e -> pp_event e
        | None -> "<replay ended>");
     Printf.bprintf b "  causal rid chain: %s\n"
       (if d.div_chain = [] then "(root context)"
        else
          String.concat " < " (List.map string_of_int d.div_chain)));
  Buffer.contents b

let json_event = function
  | None -> "null"
  | Some e -> Chrome_trace.escaped (pp_event e)

let to_json o =
  let b = Buffer.create 512 in
  Printf.bprintf b "{\n  \"journal\": %s,\n"
    (Chrome_trace.escaped (Journal.header_to_string o.rp_header));
  Printf.bprintf b "  \"seed\": %d,\n" o.rp_header.Journal.jh_seed;
  Printf.bprintf b "  \"spec\": %s,\n"
    (Chrome_trace.escaped o.rp_header.Journal.jh_spec);
  Printf.bprintf b "  \"workload\": %s,\n"
    (Chrome_trace.escaped o.rp_header.Journal.jh_workload);
  Printf.bprintf b "  \"recorded\": %d,\n  \"replayed\": %d,\n" o.rp_recorded
    o.rp_replayed;
  Printf.bprintf b "  \"halt\": %s,\n"
    (Chrome_trace.escaped (Kernel.halt_to_string o.rp_halt));
  Printf.bprintf b "  \"cost_mismatch\": %b,\n" o.rp_cost_mismatch;
  (match o.rp_divergence with
   | None -> Buffer.add_string b "  \"divergence\": null\n"
   | Some d ->
     Printf.bprintf b
       "  \"divergence\": {\n    \"index\": %d,\n    \"rid\": %d,\n\
       \    \"chain\": [%s],\n    \"recorded\": %s,\n    \"replayed\": %s\n  }\n"
       d.div_index d.div_rid
       (String.concat ", " (List.map string_of_int d.div_chain))
       (json_event d.div_recorded) (json_event d.div_replayed));
  Buffer.add_string b "}\n";
  Buffer.contents b
