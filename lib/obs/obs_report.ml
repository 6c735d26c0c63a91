module Tablefmt = Osiris_util.Tablefmt
module Stats = Osiris_util.Stats

let handler_table spans =
  (* Bucket completed request-span latencies per (server, handler). *)
  let tbl : (int * string, Histogram.t) Hashtbl.t = Hashtbl.create 32 in
  let order = ref [] in
  List.iter
    (fun (s : Span.t) ->
       if s.Span.sp_kind = Span.Request && s.Span.sp_complete then begin
         let key = (s.Span.sp_ep, s.Span.sp_name) in
         let h =
           match Hashtbl.find_opt tbl key with
           | Some h -> h
           | None ->
             let h = Histogram.create () in
             Hashtbl.replace tbl key h;
             order := key :: !order;
             h
         in
         Histogram.observe h (s.Span.sp_end - s.Span.sp_start)
       end)
    (Span.flatten spans);
  let keys = List.sort compare (List.rev !order) in
  if keys = [] then ""
  else
    let rows =
      List.map
        (fun ((ep, name) as key) ->
           let h = Hashtbl.find tbl key in
           [ Endpoint.server_name ep;
             name;
             string_of_int (Histogram.count h);
             Tablefmt.fixed 0 (Histogram.p50 h);
             Tablefmt.fixed 0 (Histogram.p95 h);
             Tablefmt.fixed 0 (Histogram.p99 h);
             string_of_int (Histogram.max_value h) ])
        keys
    in
    Tablefmt.render ~title:"per-handler latency (virtual cycles)"
      ~header:[ "server"; "handler"; "count"; "p50"; "p95"; "p99"; "max" ]
      ~align:[ Tablefmt.Left; Tablefmt.Left; Tablefmt.Right; Tablefmt.Right;
               Tablefmt.Right; Tablefmt.Right; Tablefmt.Right ]
      rows

let recovery_table kernel =
  (* Kernel.recovery_latencies is newest-first; summarize sorts, so the
     ordering is irrelevant here — it only matters to consumers that
     index the list directly. *)
  let lats = List.map float_of_int (Kernel.recovery_latencies kernel) in
  if lats = [] then ""
  else
    let s = Stats.summarize lats in
    Tablefmt.render ~title:"recovery latency (crash -> restart, virtual cycles)"
      ~header:[ "count"; "p50"; "p95"; "p99"; "max" ]
      ~align:[ Tablefmt.Right; Tablefmt.Right; Tablefmt.Right; Tablefmt.Right;
               Tablefmt.Right ]
      [ [ string_of_int s.Stats.n;
          Tablefmt.fixed 0 s.Stats.p50;
          Tablefmt.fixed 0 s.Stats.p95;
          Tablefmt.fixed 0 s.Stats.p99;
          Tablefmt.fixed 0 s.Stats.max ] ]

(* The [osiris.*] counters, each a count (or byte/cycle sum) over the
   recorded event stream. *)
let event_counters events =
  let sum f = List.fold_left (fun acc ev -> acc + f ev) 0 events in
  let count p = sum (fun ev -> if p ev then 1 else 0) in
  [ "osiris.calls",
    count (function Kernel.E_msg { call; _ } -> call | _ -> false);
    "osiris.checkpoint_cycles",
    sum (function Kernel.E_checkpoint { cycles; _ } -> cycles | _ -> 0);
    "osiris.checkpoints",
    count (function Kernel.E_checkpoint _ -> true | _ -> false);
    "osiris.crashes", count (function Kernel.E_crash _ -> true | _ -> false);
    "osiris.hangs_detected",
    count (function Kernel.E_hang_detected _ -> true | _ -> false);
    "osiris.kcalls", count (function Kernel.E_kcall _ -> true | _ -> false);
    "osiris.msgs_delivered",
    count (function Kernel.E_msg _ -> true | _ -> false);
    "osiris.policy_closes",
    count (function Kernel.E_window_close { policy; _ } -> policy | _ -> false);
    "osiris.replies", count (function Kernel.E_reply _ -> true | _ -> false);
    "osiris.restarts",
    count (function Kernel.E_restart _ -> true | _ -> false);
    "osiris.rollback_bytes",
    sum (function Kernel.E_rollback_end { bytes; _ } -> bytes | _ -> 0);
    "osiris.rollbacks",
    count (function Kernel.E_rollback_begin _ -> true | _ -> false);
    "osiris.store_bytes_logged",
    sum (function Kernel.E_store_logged { bytes; _ } -> bytes | _ -> 0);
    "osiris.stores_logged",
    count (function Kernel.E_store_logged _ -> true | _ -> false);
    "osiris.window_closes",
    count (function Kernel.E_window_close _ -> true | _ -> false);
    "osiris.window_opens",
    count (function Kernel.E_window_open _ -> true | _ -> false) ]

(* Kernel-side gauges: the shed-exit tally (the exit status rides the PM
   call payload, so no event carries it) and every server's lifetime
   [Kernel.server_stats]. *)
let kernel_gauges kernel =
  ("osiris.shed_exits", Kernel.shed_exits kernel)
  :: List.concat_map
       (fun ep ->
          let ss = Kernel.server_stats kernel ep in
          List.map
            (fun (field, v) -> (ss.Kernel.ss_name ^ "." ^ field, v))
            [ "ops_total", ss.Kernel.ss_ops_total;
              "ops_in_window", ss.Kernel.ss_ops_in_window;
              "busy_cycles", ss.Kernel.ss_busy_cycles;
              "logged_stores", ss.Kernel.ss_logged_stores;
              "skipped_stores", ss.Kernel.ss_skipped_stores;
              "deduped_stores", ss.Kernel.ss_deduped_stores;
              "undo_peak_bytes", ss.Kernel.ss_undo_peak_bytes;
              "rollback_bytes", ss.Kernel.ss_rollback_bytes;
              "restore_bytes_saved", ss.Kernel.ss_restore_bytes_saved;
              "window_opens", ss.Kernel.ss_window_opens;
              "policy_closes", ss.Kernel.ss_policy_closes;
              "restarts", ss.Kernel.ss_restarts ])
       (Kernel.server_endpoints kernel)

let metrics_table ~kernel events =
  let rows kind =
    List.map (fun (name, v) -> [ name; kind; string_of_int v ])
  in
  let rows =
    List.sort compare
      (rows "counter" (event_counters events)
       @ rows "gauge" (kernel_gauges kernel))
  in
  Tablefmt.render ~title:"metrics" ~header:[ "series"; "kind"; "value" ]
    ~align:[ Tablefmt.Left; Tablefmt.Left; Tablefmt.Right ]
    rows

let render ~kernel ~events spans =
  let sections =
    [ handler_table spans; recovery_table kernel; metrics_table ~kernel events ]
  in
  String.concat "\n" (List.filter (fun s -> s <> "") sections)
