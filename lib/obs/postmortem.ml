type crash_report = {
  cr_index : int;
  cr_time : int;
  cr_ep : Endpoint.t;
  cr_server : string;
  cr_reason : string;
  cr_policy : string;
  cr_window_open : bool;
  cr_rid : int;
  cr_chain : int list;
  cr_chain_msgs : Kernel.event list;
  cr_undo_bytes : int;
  cr_rollback_bytes : int option;
  cr_restart : (int * string) option;
  cr_recovery_latency : int option;
}

type report = {
  pm_header : Journal.header;
  pm_records : int;
  pm_halt : Kernel.halt option;
  pm_crashes : crash_report list;
}

(* Streaming analysis core: one forward pass over any event source, so
   journals stream through it without materializing the array. The run
   model resolves each crash's recovery (its first completed rollback
   and the restart that closes the episode) and keeps the deliveries a
   causal chain walks; this module adds only the undo-log bytes at risk.

   Undo-log bytes live in the crashed compartment's *current* window.
   The backward scan ("sum E_store_logged since the last E_window_open,
   zeroed by E_window_close") is equivalent to a forward per-compartment
   accumulator: reset to 0 at both window boundaries, add store bytes
   unless the last boundary was a close (stores before any boundary
   count — the backward scan runs off the start of the journal and
   returns its sum). *)

let analyze_iter header ~iter =
  (* ep -> undo bytes in the current window, -1 once it closed *)
  let window = Hashtbl.create 8 in
  let undo = ref [] in  (* undo bytes at each crash, newest first *)
  let last = ref None in
  let model =
    Runmodel.of_iter (fun observe ->
        iter (fun ev ->
            observe ev;
            (match ev with
             | Kernel.E_window_open { ep; _ } -> Hashtbl.replace window ep 0
             | Kernel.E_window_close { ep; _ } -> Hashtbl.replace window ep (-1)
             | Kernel.E_store_logged { ep; bytes; _ } ->
               let b = Option.value ~default:0 (Hashtbl.find_opt window ep) in
               if b >= 0 then Hashtbl.replace window ep (b + bytes)
             | Kernel.E_crash { ep; _ } ->
               let b = Option.value ~default:0 (Hashtbl.find_opt window ep) in
               undo := max 0 b :: !undo
             | _ -> ());
            last := Some ev))
  in
  let reports =
    List.map2
      (fun (e : Runmodel.episode) undo_bytes ->
         let chain = Replay.chain_of_parents (Runmodel.parent model) e.e_rid in
         (* Rollbacks are newest first: the fold ends on the oldest
            completed one. *)
         let rollback =
           List.fold_left
             (fun acc (r : Runmodel.rollback) ->
                if r.rb_end >= 0 then Some r else acc)
             None e.e_rollbacks
         in
         let restart =
           if Runmodel.closed e then Some (e.e_restart, e.e_restart_policy)
           else None
         in
         let latency =
           match restart, rollback with
           | Some (t, _), _ -> Some (t - e.e_crash)
           | None, Some r -> Some (r.rb_end - e.e_crash)
           | None, None -> None
         in
         { cr_index = e.e_pos;
           cr_time = e.e_crash;
           cr_ep = e.e_ep;
           cr_server = Endpoint.server_name e.e_ep;
           cr_reason = e.e_reason;
           cr_policy = e.e_policy;
           cr_window_open = e.e_window_open;
           cr_rid = e.e_rid;
           cr_chain = chain;
           cr_chain_msgs = List.filter_map (Runmodel.delivery model) chain;
           cr_undo_bytes = undo_bytes;
           cr_rollback_bytes =
             Option.map (fun (r : Runmodel.rollback) -> r.rb_bytes) rollback;
           cr_restart = restart;
           cr_recovery_latency = latency })
      (Runmodel.episodes model) (List.rev !undo)
  in
  let halt =
    match !last with
    | Some (Kernel.E_halt { halt; _ }) -> Some halt
    | _ -> None
  in
  { pm_header = header;
    pm_records = Runmodel.length model;
    pm_halt = halt;
    pm_crashes = reports }

let analyze header events =
  analyze_iter header ~iter:(fun f -> Array.iter f events)

let analyze_journal s =
  match Journal.header_of_string s with
  | Error m -> Error m
  | Ok (header, _) ->
    let exception Err of string in
    (try
       let iter f =
         match Journal.fold s ~init:() ~f:(fun () ev -> f ev) with
         | Ok () -> ()
         | Error m -> raise (Err m)
       in
       Ok (analyze_iter header ~iter)
     with Err m -> Error m)

let attribution header c =
  let root =
    match List.rev c.cr_chain with r :: _ -> r | [] -> c.cr_rid
  in
  if header.Journal.jh_crash <> "none"
     && header.Journal.jh_crash = c.cr_server then
    Printf.sprintf
      "crash of %s attributed to the armed fault injection at %s \
       (count=%d), reached while handling rid %d (root request rid %d)"
      c.cr_server header.Journal.jh_crash header.Journal.jh_crash_count
      c.cr_rid root
  else if c.cr_rid = 0 then
    Printf.sprintf "crash of %s in loop/init code (%s), no request context"
      c.cr_server c.cr_reason
  else
    Printf.sprintf
      "crash of %s (%s) while handling rid %d, rooted at request rid %d"
      c.cr_server c.cr_reason c.cr_rid root

let render header r =
  let b = Buffer.create 1024 in
  Printf.bprintf b "postmortem: %s\n" (Journal.header_to_string header);
  Printf.bprintf b "records: %d, crashes: %d, halt: %s\n" r.pm_records
    (List.length r.pm_crashes)
    (match r.pm_halt with
     | Some h -> Kernel.halt_to_string h
     | None -> "<journal ends before halt>");
  List.iter
    (fun c ->
      Printf.bprintf b "\ncrash #%d at t=%d (record %d)\n" c.cr_index
        c.cr_time c.cr_index;
      Printf.bprintf b "  compartment: %s  policy: %s\n" c.cr_server
        c.cr_policy;
      Printf.bprintf b "  reason: %s\n" c.cr_reason;
      Printf.bprintf b "  window: %s, undo log at crash: %d bytes\n"
        (if c.cr_window_open then "open" else "closed")
        c.cr_undo_bytes;
      Printf.bprintf b "  causal chain: %s\n"
        (if c.cr_chain = [] then "(root context)"
         else String.concat " < " (List.map string_of_int c.cr_chain));
      List.iter
        (fun ev -> Printf.bprintf b "    %s\n" (Replay.pp_event ev))
        c.cr_chain_msgs;
      (match c.cr_rollback_bytes with
       | Some bytes -> Printf.bprintf b "  rollback: %d bytes restored\n" bytes
       | None -> Buffer.add_string b "  rollback: none recorded\n");
      (match c.cr_restart with
       | Some (t, policy) ->
         Printf.bprintf b "  restart: t=%d under policy %s\n" t policy
       | None -> Buffer.add_string b "  restart: none recorded\n");
      (match c.cr_recovery_latency with
       | Some l -> Printf.bprintf b "  recovery latency: %d cycles\n" l
       | None -> Buffer.add_string b "  recovery latency: unresolved\n");
      Printf.bprintf b "  root cause: %s\n" (attribution header c))
    r.pm_crashes;
  Buffer.contents b

let to_json r =
  let b = Buffer.create 1024 in
  Printf.bprintf b "{\n  \"journal\": %s,\n"
    (Chrome_trace.escaped (Journal.header_to_string r.pm_header));
  Printf.bprintf b "  \"seed\": %d,\n" r.pm_header.Journal.jh_seed;
  Printf.bprintf b "  \"records\": %d,\n" r.pm_records;
  Printf.bprintf b "  \"halt\": %s,\n"
    (match r.pm_halt with
     | Some h -> Chrome_trace.escaped (Kernel.halt_to_string h)
     | None -> "null");
  Printf.bprintf b "  \"crashes\": [";
  List.iteri
    (fun i c ->
      if i > 0 then Buffer.add_char b ',';
      Printf.bprintf b
        "\n    {\n      \"index\": %d,\n      \"time\": %d,\n\
        \      \"compartment\": %s,\n      \"policy\": %s,\n\
        \      \"reason\": %s,\n      \"window_open\": %b,\n\
        \      \"rid\": %d,\n      \"chain\": [%s],\n\
        \      \"undo_bytes\": %d,\n      \"rollback_bytes\": %s,\n\
        \      \"restart_time\": %s,\n      \"restart_policy\": %s,\n\
        \      \"recovery_latency\": %s,\n      \"root_cause\": %s\n    }"
        c.cr_index c.cr_time
        (Chrome_trace.escaped c.cr_server)
        (Chrome_trace.escaped c.cr_policy)
        (Chrome_trace.escaped c.cr_reason)
        c.cr_window_open c.cr_rid
        (String.concat ", " (List.map string_of_int c.cr_chain))
        c.cr_undo_bytes
        (match c.cr_rollback_bytes with
         | Some n -> string_of_int n
         | None -> "null")
        (match c.cr_restart with
         | Some (t, _) -> string_of_int t
         | None -> "null")
        (match c.cr_restart with
         | Some (_, p) -> Chrome_trace.escaped p
         | None -> "null")
        (match c.cr_recovery_latency with
         | Some l -> string_of_int l
         | None -> "null")
        (Chrome_trace.escaped (attribution r.pm_header c)))
    r.pm_crashes;
  Buffer.add_string b (if r.pm_crashes = [] then "],\n" else "\n  ],\n");
  Printf.bprintf b "  \"crash_count\": %d\n}\n" (List.length r.pm_crashes);
  Buffer.contents b
