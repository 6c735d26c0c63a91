(* Flight-recorder benchmark: what journaling the full event stream
   costs, and whether the codec holds its promises.

   Run with [dune exec bench/main.exe journal] (artifact
   BENCH_journal.json; [--smoke] for the runtest variant, see
   benchkit.ml). Exits non-zero when an enforced gate fails.

   Gates:
     encode_zero_alloc   exact   steady-state event capture+encode to a
                                 file sink allocates nothing (minor-word
                                 delta over 130k writes)
     recording_overhead  timing  in-run wall-time overhead of an attached
                                 recorder (vs the same run unhooked)
                                 stays under 5% (best of interleaved
                                 rounds); the close-time sweep of
                                 what is left in the log, with the
                                 flush, is reported separately as
                                 finalize. The same cost is also
                                 reported in ns per captured event,
                                 which does not move when the unhooked
                                 run gets faster, with its spread over
                                 the paired rounds
     round_trip          exact   decode(encode(stream)) is structurally
                                 equal to the hooked stream, header
                                 included
     bytes_per_event     exact   on-disk framing stays compact (< 24
                                 bytes per event averaged over a crashy
                                 mixed workload) *)

let max_overhead_pct = 5.

let workload_seed = 42

let header ~workload ~crash =
  match Flight.make_header ~seed:workload_seed ~workload ~crash () with
  | Ok h -> h
  | Error m -> failwith ("journal bench: " ^ m)

(* Wall-time rungs run two workloads. The gate holds on the generated
   mixed workload (workgen) — the same standard the tracer's 5% gate
   in obs_bench is held to. The regression-suite driver is reported
   alongside as a stress figure: at ~28k events it is the densest
   event stream the simulator can produce (every operation is an IPC),
   several times denser than any evaluation workload, so it prices the
   recorder's per-event cost rather than its overhead on a
   representative run. *)
let run_once ?event_hook ?journal ~root () =
  let sys =
    System.build ?event_hook ?journal ~seed:workload_seed
      (Sysconf.uniform Policy.enhanced)
  in
  match System.run sys ~root with
  | Kernel.H_completed _ -> ()
  | halt ->
    failwith ("journal bench workload halted: " ^ Kernel.halt_to_string halt)

(* ------------------------------------------------------------------ *)

(* One synthetic event per constructor — every encoder path is in the
   storm, including the string-carrying ones. *)
let sample_events =
  [ Kernel.E_msg
      { time = 1_000_000; src = Endpoint.pm; dst = Endpoint.vfs;
        tag = Message.Tag.T_open; call = true; rid = 7; parent = 3;
        cls = Seep.State_modifying };
    Kernel.E_reply
      { time = 1_000_010; src = Endpoint.vfs; dst = Endpoint.pm;
        tag = Message.Tag.T_open; rid = 7 };
    Kernel.E_window_open { time = 2; ep = Endpoint.ds; rid = 9 };
    Kernel.E_window_close { time = 3; ep = Endpoint.ds; rid = 9; policy = false };
    Kernel.E_checkpoint { time = 4; ep = Endpoint.vm; rid = 11; cycles = 900 };
    Kernel.E_store_logged { time = 5; ep = Endpoint.vm; rid = 11; bytes = 64 };
    Kernel.E_kcall { time = 6; ep = Endpoint.rs; rid = 12; kc = "mk_clone" };
    Kernel.E_crash
      { time = 7; ep = Endpoint.ds; reason = "injected"; window_open = true;
        rid = 13; policy = "enhanced" };
    Kernel.E_hang_detected { time = 8; ep = Endpoint.vm };
    Kernel.E_rollback_begin { time = 9; ep = Endpoint.ds; rid = 13 };
    Kernel.E_rollback_end { time = 10; ep = Endpoint.ds; rid = 13; bytes = 56 };
    Kernel.E_restart { time = 11; ep = Endpoint.ds; rid = 13; policy = "enhanced" };
    Kernel.E_halt { time = 12; halt = Kernel.H_completed 0 } ]

let encode_alloc_probe () =
  let path = Filename.temp_file "osiris_journal" ".bin" in
  let w = Journal.to_file ~path (header ~workload:"suite" ~crash:"none") in
  let reps = 10_000 in
  (* Pre-bound so the loop body itself allocates nothing (a per-rep
     [List.iter (Journal.write w)] would box a closure every rep). *)
  let write_ev ev = Journal.write w ev in
  let storm () =
    for _ = 1 to reps do
      List.iter write_ev sample_events
    done
  in
  storm ();
  (* warm: scratch grown to its steady size *)
  let words = Benchkit.minor_words_of storm in
  let best, _ =
    Benchkit.best_of ~min_rounds:5 ~budget:0. [ Benchkit.timed storm ]
  in
  Journal.close w;
  Sys.remove path;
  let n = reps * List.length sample_events in
  (n, words, best.(0) /. float_of_int n)

let round_trip_probe () =
  let h = header ~workload:"workgen" ~crash:"ds" in
  let w = Journal.to_memory h in
  let seen = ref [] in
  let sys =
    System.build ~seed:workload_seed ~journal:w
      ~event_hook:(fun ev -> seen := ev :: !seen)
      (Sysconf.uniform Policy.enhanced)
  in
  Flight.arm_crash (System.kernel sys) (Flight.server_of_name "ds");
  (match System.run sys ~root:(Workgen.generate ~seed:workload_seed ()) with
   | Kernel.H_completed _ -> ()
   | halt -> failwith ("round trip halted: " ^ Kernel.halt_to_string halt));
  Journal.close w;
  let recorded = Array.of_list (List.rev !seen) in
  let bytes = Journal.bytes_written w in
  let records = Journal.records_written w in
  match Journal.read_string (Journal.contents w) with
  | Error m -> failwith ("round trip decode failed: " ^ m)
  | Ok (h', decoded) -> (h = h' && decoded = recorded, records, bytes)

let run () =
  Printf.printf
    "\n================================================================\n\
     Flight recorder: journal encode cost, overhead, and fidelity\n\
     ================================================================\n";
  (* ---- allocation ---- *)
  let encode_ops, encode_words, encode_ns = encode_alloc_probe () in
  Printf.printf
    "encode storm: %d events -> %.0f minor words allocated, %.0f ns/event\n"
    encode_ops encode_words encode_ns;
  (* ---- fidelity / compactness ---- *)
  let fidelity_ok, rt_records, rt_bytes = round_trip_probe () in
  let bytes_per_event = float_of_int rt_bytes /. float_of_int (max 1 rt_records) in
  Printf.printf
    "round trip: %d records, %d bytes (%.1f bytes/event) — decode %s\n"
    rt_records rt_bytes bytes_per_event
    (if fidelity_ok then "identical" else "MISMATCH");
  (* ---- wall time ---- *)
  let path = Filename.temp_file "osiris_journal" ".bin" in
  (* Headers built once outside the timed region: resolving one runs
     the workload generator, which is not part of recording overhead. *)
  let h_wg = header ~workload:"workgen" ~crash:"none" in
  let h_suite = header ~workload:"suite" ~crash:"none" in
  (* Rungs, all interleaved in one round-robin: unhooked (no events
     observed at all), a no-op event hook (events constructed and
     dispatched, written nowhere — the observability substrate's cost,
     reported for context and gated by obs_bench), and the recorder.
     A recorder rung times the run with the journal attached — the
     writer captures raw scalars per event and encodes them in one
     batch sweep each time its fixed 8,192-slot log fills; the sweep
     of what is left, with the file flush, runs in [Journal.close],
     measured separately as "finalize". The gate holds the in-run slowdown (recording vs
     unhooked, workgen workload) under the bound: that is what
     recording costs while the system is live. Finalize is a one-time
     post-run cost (like writing out a core dump), reported but not
     gated; the suite-driver pair prices the worst case and is
     likewise reported, not gated. *)
  let fin_wg = ref infinity and fin_suite = ref infinity in
  let events_wg = ref 0 and events_suite = ref 0 in
  (* Generated once, shared by every rung and round: programs are pure
     values, and generation time is not recording overhead. Scaled to
     5x the default action count, chosen when the rung ran ~13 ms; it
     now runs ~1.3 ms on a 2-vCPU host, short enough for per-run
     jitter to move a 5% ratio (ROADMAP item 6). *)
  let wg_prog =
    Workgen.generate
      ~spec:{ Workgen.g_actions = 60; g_fork_depth = 2 }
      ~seed:workload_seed ()
  in
  let recording_rung h root fin events () =
    let w = Journal.to_file ~path h in
    let d = Benchkit.timed (fun () -> run_once ~journal:w ~root ()) () in
    let f = Benchkit.timed (fun () -> Journal.close w) () in
    if f < !fin then fin := f;
    events := Journal.records_written w;
    d
  in
  (* Each rung times itself, keeping writer creation and the close-time
     sweep out of its window. A recorder rung allocates (and drops)
     its writer's fixed buffers (~160 KiB), so the visiting order must not give any
     rung a fixed predecessor to inherit that GC debt from — five
     rungs, a prime count, make every stride of [Benchkit.measure] a
     full permutation. *)
  let samples =
    Benchkit.measure
      [ Benchkit.timed (fun () -> run_once ~root:wg_prog ());
        Benchkit.timed (fun () ->
            run_once ~event_hook:ignore ~root:wg_prog ());
        recording_rung h_wg wg_prog fin_wg events_wg;
        Benchkit.timed (fun () -> run_once ~root:Testsuite.driver ());
        recording_rung h_suite Testsuite.driver fin_suite events_suite ]
  in
  Sys.remove path;
  let best = Array.map Benchkit.best samples in
  let rounds = Array.length samples.(0) in
  let base_ns = best.(0) and hook_ns = best.(1) and journal_ns = best.(2) in
  let sbase_ns = best.(3) and sjournal_ns = best.(4) in
  let raw_pct = 100. *. (journal_ns -. base_ns) /. base_ns in
  let marginal_pct = 100. *. (journal_ns -. hook_ns) /. hook_ns in
  let stress_pct = 100. *. (sjournal_ns -. sbase_ns) /. sbase_ns in
  (* The recording cost per captured event: the best-of difference the
     gate's ratio is made of, and the quartiles of the same-round
     differences, which show how far one round can stray from it. *)
  let per_event diff events = diff /. float_of_int (max 1 events) in
  let ns_per_event = per_event (journal_ns -. base_ns) !events_wg in
  let paired =
    Array.map2 (fun j b -> per_event (j -. b) !events_wg) samples.(2) samples.(0)
  in
  Array.sort compare paired;
  let quartile q = paired.(q * (Array.length paired - 1) / 4) in
  let stress_ns_per_event = per_event (sjournal_ns -. sbase_ns) !events_suite in
  Printf.printf
    "whole-run wall time (best of %d interleaved rounds):\n\
    \  workgen unhooked           %.2f ms\n\
    \  workgen no-op hook         %.2f ms (%+.2f%% construction+dispatch)\n\
    \  workgen recording attached %.2f ms (%+.2f%% vs unhooked) <- gate\n\
    \  workgen recording per event %.1f ns over %d events (paired rounds:\n\
    \  p25 %.1f, median %.1f, p75 %.1f ns)\n\
    \  workgen finalize (close)   %.2f ms encode+flush sweep after the run\n\
     stress (IPC-dense suite driver, %d events, %.1f events/us — reported,\n\
     not gated):\n\
    \  unhooked %.2f ms, recording %.2f ms (%+.2f%%, ~%.0f ns/event\n\
    \  in-run capture), finalize %.2f ms\n"
    rounds (base_ns /. 1e6) (hook_ns /. 1e6)
    (100. *. (hook_ns -. base_ns) /. base_ns)
    (journal_ns /. 1e6) raw_pct ns_per_event !events_wg (quartile 1)
    (quartile 2) (quartile 3) (!fin_wg /. 1e6) !events_suite
    (float_of_int !events_suite /. (sbase_ns /. 1e3))
    (sbase_ns /. 1e6) (sjournal_ns /. 1e6) stress_pct stress_ns_per_event
    (!fin_suite /. 1e6);
  Benchkit.finish ~bench:"journal"
    [ ("workload_seed", string_of_int workload_seed);
      ( "encode_storm",
        Printf.sprintf "{\"events\": %d, \"minor_words\": %.0f}" encode_ops
          encode_words );
      ( "journal",
        Printf.sprintf
          "{\"records\": %d, \"bytes\": %d, \"bytes_per_event\": %.2f,\n\
          \    \"bytes_per_1M_events\": %.0f}"
          rt_records rt_bytes bytes_per_event (bytes_per_event *. 1e6) );
      ( "wall",
        Printf.sprintf
          "{\"unhooked_ns\": %.0f, \"hook_ns\": %.0f, \"journal_ns\": %.0f,\n\
          \    \"finalize_ns\": %.0f, \"overhead_pct\": %.3f,\n\
          \    \"events\": %d, \"ns_per_event\": %.1f,\n\
          \    \"ns_per_event_paired\": {\"rounds\": %d, \"p25\": %.1f,\n\
          \      \"median\": %.1f, \"p75\": %.1f},\n\
          \    \"overhead_vs_hook_pct\": %.3f, \"max_overhead_pct\": %.1f}"
          base_ns hook_ns journal_ns !fin_wg raw_pct !events_wg ns_per_event
          rounds (quartile 1) (quartile 2) (quartile 3) marginal_pct
          max_overhead_pct );
      ( "stress",
        Printf.sprintf
          "{\"unhooked_ns\": %.0f, \"journal_ns\": %.0f,\n\
          \    \"finalize_ns\": %.0f, \"overhead_pct\": %.3f,\n\
          \    \"events\": %d, \"ns_per_event\": %.1f}"
          sbase_ns sjournal_ns !fin_suite stress_pct !events_suite
          stress_ns_per_event );
      (* The stress overhead (+15-27% on a 2-vCPU host) is an un-gated
         trend figure from a wall-clock ratio on the densest event
         stream we can produce — inherently noisy run to run. Declare a
         wide per-path tolerance so bench_diff surfaces only real
         regressions instead of flapping on every CI host wobble. *)
      ("tolerances", "{\"stress.overhead_pct\": 50.0}") ]
    [ (* 64-word slack: Gc.minor_words itself may box a float; the 130k
         event writes themselves must add nothing. *)
      Benchkit.exact "encode_zero_alloc" (encode_words < 64.);
      Benchkit.timing "recording_overhead" (raw_pct < max_overhead_pct);
      Benchkit.exact "round_trip" fidelity_ok;
      Benchkit.exact "bytes_per_event" (bytes_per_event < 24.) ]
