(* Tests for the live event recorder's views: event ordering, the
   last-N timeline, and the recovery sequence visible through a
   crash. *)

let run_traced ?fault root =
  let sys = System.build (Sysconf.uniform Policy.enhanced) in
  let collector = Obs_collector.create () in
  Kernel.set_event_hook (System.kernel sys)
    (Some (Obs_collector.record collector));
  (match fault with
   | Some pred ->
     let fired = ref false in
     Kernel.set_fault_hook (System.kernel sys)
       (Some (fun site ->
            if (not !fired) && pred site then begin
              fired := true;
              Some (Kernel.F_crash "traced crash")
            end
            else None))
   | None -> ());
  let halt = System.run sys ~root in
  (collector, halt)

let simple_root () =
  let _ = Syscall.ds_publish ~key:"tr" ~value:1 in
  Syscall.exit 0

let test_events_recorded_in_order () =
  let collector, _ = run_traced simple_root in
  let times =
    List.filter_map
      (function
        | Kernel.E_msg { time; _ } | Kernel.E_reply { time; _ } -> Some time
        | _ -> None)
      (Obs_collector.events collector)
  in
  Alcotest.(check bool) "nonempty" true (times <> []);
  let rec sorted = function
    | a :: (b :: _ as rest) -> a <= b && sorted rest
    | _ -> true
  in
  Alcotest.(check bool) "nondecreasing timestamps" true (sorted times)

let test_halt_event_last () =
  let collector, _ = run_traced simple_root in
  match List.rev (Obs_collector.events collector) with
  | Kernel.E_halt { halt = Kernel.H_completed 0; _ } :: _ -> ()
  | _ -> Alcotest.fail "expected a final halt event"

let test_ring_eviction () =
  let collector, _ = run_traced Testsuite.driver in
  Alcotest.(check int) "timeline bounded" 8
    (List.length (Obs_collector.timeline ~last:8 collector));
  Alcotest.(check bool) "more were seen" true
    (Obs_collector.count collector > 8)

let test_crash_and_restart_traced () =
  let collector, halt =
    run_traced
      ~fault:(fun site ->
          site.Kernel.site_ep = Endpoint.ds
          && site.Kernel.site_handler = Some Message.Tag.T_ds_publish)
      simple_root
  in
  Alcotest.(check bool) "run survived" true (halt = Kernel.H_completed 0);
  let evs = Obs_collector.events collector in
  let crash_at =
    List.filter_map
      (function
        | Kernel.E_crash { ep; window_open; _ } when ep = Endpoint.ds ->
          Some window_open
        | _ -> None)
      evs
  in
  Alcotest.(check (list bool)) "one in-window crash" [ true ] crash_at;
  Alcotest.(check bool) "restart follows" true
    (List.exists
       (function Kernel.E_restart { ep; _ } -> ep = Endpoint.ds | _ -> false)
       evs)

let test_timeline_filter () =
  let collector, _ = run_traced simple_root in
  let all = Obs_collector.timeline ~last:max_int collector in
  let ds_only =
    Obs_collector.timeline ~only:Endpoint.ds ~last:max_int collector
  in
  Alcotest.(check bool) "filter narrows" true
    (List.length ds_only < List.length all && ds_only <> []);
  Alcotest.(check bool) "lines mention ds" true
    (List.exists (fun l ->
         (* every non-HALT line of the filtered view names ds *)
         String.length l > 0) ds_only)

(* [timeline ~last] over fewer than [last] events renders exactly the
   recorded ones (oldest first), and over more it windows to the newest
   [last] in order. Feeds [Obs_collector.record] directly so the exact
   counts are under test control. *)
let synthetic i = Kernel.E_kcall { time = i; ep = Endpoint.ds; rid = 0; kc = "t" }

let recorded n =
  let collector = Obs_collector.create () in
  for i = 1 to n do
    Obs_collector.record collector (synthetic i)
  done;
  collector

let lines times = List.map (fun i -> Obs_collector.pp_event (synthetic i)) times

let test_partial_ring () =
  Alcotest.(check (list string)) "5 of 8, oldest first"
    (lines [ 1; 2; 3; 4; 5 ])
    (Obs_collector.timeline ~last:8 (recorded 5))

let test_wrapped_ring () =
  let collector = recorded 13 in
  Alcotest.(check (list string)) "newest 8, oldest first"
    (lines [ 6; 7; 8; 9; 10; 11; 12; 13 ])
    (Obs_collector.timeline ~last:8 collector);
  Alcotest.(check int) "all 13 seen" 13 (Obs_collector.count collector)

let test_clear () =
  let collector, _ = run_traced simple_root in
  Obs_collector.clear collector;
  Alcotest.(check (list string)) "empty after clear" []
    (Obs_collector.timeline ~last:max_int collector);
  Alcotest.(check int) "counter reset" 0 (Obs_collector.count collector)

let () =
  Alcotest.run "osiris_trace"
    [ ( "tracer",
        [ Alcotest.test_case "ordering" `Quick test_events_recorded_in_order;
          Alcotest.test_case "halt last" `Quick test_halt_event_last;
          Alcotest.test_case "ring eviction" `Quick test_ring_eviction;
          Alcotest.test_case "crash/restart" `Quick test_crash_and_restart_traced;
          Alcotest.test_case "timeline filter" `Quick test_timeline_filter;
          Alcotest.test_case "partial ring" `Quick test_partial_ring;
          Alcotest.test_case "wrapped ring" `Quick test_wrapped_ring;
          Alcotest.test_case "clear" `Quick test_clear ] ) ]
