(* Tests for the event tracer: ring semantics, event ordering, and the
   recovery sequence visible through a crash. *)

let run_traced ?capacity ?fault root =
  let sys = System.build (Sysconf.uniform Policy.enhanced) in
  let tracer = Tracer.create ?capacity () in
  Tracer.attach tracer (System.kernel sys);
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
  (tracer, halt)

let simple_root () =
  let _ = Syscall.ds_publish ~key:"tr" ~value:1 in
  Syscall.exit 0

let test_events_recorded_in_order () =
  let tracer, _ = run_traced simple_root in
  let times =
    List.filter_map
      (function
        | Kernel.E_msg { time; _ } | Kernel.E_reply { time; _ } -> Some time
        | _ -> None)
      (Tracer.events tracer)
  in
  Alcotest.(check bool) "nonempty" true (times <> []);
  let rec sorted = function
    | a :: (b :: _ as rest) -> a <= b && sorted rest
    | _ -> true
  in
  Alcotest.(check bool) "nondecreasing timestamps" true (sorted times)

let test_halt_event_last () =
  let tracer, _ = run_traced simple_root in
  match List.rev (Tracer.events tracer) with
  | Kernel.E_halt { halt = Kernel.H_completed 0; _ } :: _ -> ()
  | _ -> Alcotest.fail "expected a final halt event"

let test_ring_eviction () =
  let tracer, _ = run_traced ~capacity:8 Testsuite.driver in
  Alcotest.(check int) "ring bounded" 8 (List.length (Tracer.events tracer));
  Alcotest.(check bool) "more were seen" true (Tracer.recorded tracer > 8)

let test_crash_and_restart_traced () =
  let tracer, halt =
    run_traced
      ~fault:(fun site ->
          site.Kernel.site_ep = Endpoint.ds
          && site.Kernel.site_handler = Some Message.Tag.T_ds_publish)
      simple_root
  in
  Alcotest.(check bool) "run survived" true (halt = Kernel.H_completed 0);
  let evs = Tracer.events tracer in
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
  let tracer, _ = run_traced simple_root in
  let all = Tracer.timeline tracer in
  let ds_only = Tracer.timeline ~only:Endpoint.ds tracer in
  Alcotest.(check bool) "filter narrows" true
    (List.length ds_only < List.length all && ds_only <> []);
  Alcotest.(check bool) "lines mention ds" true
    (List.exists (fun l ->
         (* every non-HALT line of the filtered view names ds *)
         String.length l > 0) ds_only)

(* Regression: [events] on a partially filled ring must return exactly
   the recorded events (oldest first) without scanning — or worse,
   returning — the unused tail of the ring, and a wrapped ring must
   window to the newest [capacity] in order. Feeds [Tracer.record]
   directly so the exact counts are under test control. *)
let synthetic i = Kernel.E_kcall { time = i; ep = Endpoint.ds; rid = 0; kc = "t" }

let times tracer =
  List.map
    (function
      | Kernel.E_kcall { time; _ } -> time
      | _ -> Alcotest.fail "unexpected event shape")
    (Tracer.events tracer)

let test_partial_ring () =
  let tracer = Tracer.create ~capacity:8 () in
  for i = 1 to 5 do
    Tracer.record tracer (synthetic i)
  done;
  Alcotest.(check (list int)) "5 of 8 slots, oldest first" [ 1; 2; 3; 4; 5 ]
    (times tracer)

let test_wrapped_ring () =
  let tracer = Tracer.create ~capacity:8 () in
  for i = 1 to 13 do
    Tracer.record tracer (synthetic i)
  done;
  Alcotest.(check (list int)) "newest 8, oldest first"
    [ 6; 7; 8; 9; 10; 11; 12; 13 ] (times tracer);
  Alcotest.(check int) "all 13 seen" 13 (Tracer.recorded tracer)

let test_clear () =
  let tracer, _ = run_traced simple_root in
  Tracer.clear tracer;
  Alcotest.(check (list string)) "empty after clear" []
    (Tracer.timeline tracer);
  Alcotest.(check int) "counter reset" 0 (Tracer.recorded tracer)

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
