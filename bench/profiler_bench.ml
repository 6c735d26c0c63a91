(* Cycle-profiler overhead benchmark: what the kernel's cycle-
   attribution hook and the [Profiler] behind it cost on an IPC-heavy
   workload, plus a conservation check of the attributed totals.

   Run with [dune exec bench/main.exe profiler] (artifact
   BENCH_profiler.json; [--smoke] for the runtest variant, see
   benchkit.ml). Exits non-zero when an enforced gate fails.

   Gates:
     hook_zero_alloc    exact   a run with a trivial cycle hook attached
                                allocates no more minor words than an
                                unhooked run, beyond
                                [Benchkit.park_words] per extra fiber
                                park: emission sites pass only
                                immediates and slot ids, so no per-event
                                record is ever built. A cycle hook sends
                                row searches load by load, where each
                                preemption parks the fiber instead of
                                the walk, so the hooked run parks more
     counter_alloc      exact   a profiled run allocates at most the
                                per-process counter rows (one flat int
                                array per process) over an unhooked run:
                                every event is an in-place bump, nothing
                                per event
     profiler_overhead  timing  attached-profiler wall-time overhead on
                                the full workload stays under 3% (best
                                of interleaved rounds)
     conservation       exact   the attributed per-process totals equal
                                the kernel's own process clocks exactly *)

let max_overhead_pct = 3.

(* Same workload as the obs bench: a generated mix of file, ds, pipe,
   fork and exec traffic, so every server burns cycles in several
   phases. Systems are single-use; each sample rebuilds one. *)

let workload_seed = 42

let run_sys ?profiler () =
  let sys =
    System.build ?profiler ~seed:workload_seed
      (Sysconf.uniform Policy.enhanced)
  in
  (match System.run sys ~root:(Workgen.generate ~seed:workload_seed ()) with
   | Kernel.H_completed _ -> ()
   | halt ->
     failwith ("profiler bench workload halted: " ^ Kernel.halt_to_string halt));
  sys

let run_once ?profiler () = ignore (run_sys ?profiler ())

(* A run with the cheapest possible hook attached: isolates what the
   emission machinery itself costs, independent of the profiler. The
   hook is installed after build (the unhooked baseline pays no hook
   at boot either, so the difference is the hooked run proper). *)
let run_trivial_hook ?(parks = ref 0) ~events ~cycles () =
  let sys =
    System.build ~seed:workload_seed (Sysconf.uniform Policy.enhanced)
  in
  Kernel.set_cycle_hook (System.kernel sys)
    (Some
       (fun _ _ c ->
          incr events;
          cycles := !cycles + c));
  (match System.run sys ~root:(Workgen.generate ~seed:workload_seed ()) with
   | Kernel.H_completed _ -> ()
   | halt ->
     failwith ("profiler bench workload halted: " ^ Kernel.halt_to_string halt));
  parks := Kernel.fiber_parks (System.kernel sys)

let run () =
  Printf.printf
    "\n================================================================\n\
     Cycle profiler: attribution-hook cost and conservation\n\
     ================================================================\n";
  (* ---- allocation ---- *)
  let unhooked_parks = ref 0 in
  let unhooked_words =
    Benchkit.minor_words_of (fun () ->
        unhooked_parks := Kernel.fiber_parks (System.kernel (run_sys ())))
  in
  let events = ref 0 and hook_cycles = ref 0 and hooked_parks = ref 0 in
  let trivial_words =
    Benchkit.minor_words_of
      (run_trivial_hook ~parks:hooked_parks ~events ~cycles:hook_cycles)
  in
  let events = !events in
  let hook_delta = trivial_words -. unhooked_words in
  let extra_parks = !hooked_parks - !unhooked_parks in
  let park_allowance = Benchkit.park_words *. float_of_int extra_parks in
  Printf.printf
    "event emission: %d cycle events/run; trivial-hooked run allocates %.0f\n\
    \  more minor words than unhooked (%.4f words/event), parking %d fibers\n\
    \  more (%d against %d: %.0f words at %.0f per park)\n"
    events hook_delta (hook_delta /. float_of_int (max 1 events)) extra_parks
    !hooked_parks !unhooked_parks park_allowance Benchkit.park_words;
  (* A profiled run's only extra allocation is the per-process counter
     rows (one int array of 2 * n_slots per process, allocated when
     counting is enabled and at each spawn); every event afterwards is
     an in-place bump. This run doubles as the conservation check. *)
  let cons_prof = Profiler.create () in
  let cons_sys_r = ref None in
  let counted_words =
    Benchkit.minor_words_of (fun () ->
        cons_sys_r := Some (run_sys ~profiler:cons_prof ()))
  in
  let cons_sys = Option.get !cons_sys_r in
  let counter_delta = counted_words -. unhooked_words in
  let n_procs = Kernel.profiled_procs (System.kernel cons_sys) in
  (* One array header word plus 2 * n_slots payload words per row. *)
  let row_words = n_procs * ((2 * Kernel.n_slots) + 1) in
  Printf.printf
    "counter rows: profiled run allocates %.0f minor words over unhooked\n\
    \  (%d processes x %d-slot rows = %d words; %.4f words/event)\n"
    counter_delta n_procs Kernel.n_slots row_words
    (counter_delta /. float_of_int (max 1 events));
  (* ---- conservation ---- *)
  let conservation = Profiler.check_conservation cons_prof (System.kernel cons_sys) in
  (match conservation with
   | Ok () ->
     Printf.printf
       "conservation: ok (%d cycles attributed over %d records)\n"
       (Profiler.total_cycles cons_prof) (Profiler.n_records cons_prof)
   | Error msg -> Printf.printf "conservation: VIOLATED: %s\n" msg);
  (* ---- wall time ---- *)
  let wall_prof = Profiler.create () in
  run_once ~profiler:wall_prof ();
  (* warm the tables before timing *)
  let wall_events = ref 0 and wall_cycles = ref 0 in
  let best, rounds =
    Benchkit.best_of
      [ Benchkit.timed (fun () -> run_once ());
        Benchkit.timed
          (run_trivial_hook ~events:wall_events ~cycles:wall_cycles);
        Benchkit.timed (fun () -> run_once ~profiler:wall_prof ()) ]
  in
  let base_ns = best.(0) and trivial_ns = best.(1) and prof_ns = best.(2) in
  let pct over = 100. *. (over -. base_ns) /. base_ns in
  let trivial_pct = pct trivial_ns and overhead_pct = pct prof_ns in
  Printf.printf
    "whole-run wall time (best of %d interleaved rounds):\n\
    \  unattached        %.2f ms\n\
    \  trivial hook      %.2f ms (%+.2f%%)\n\
    \  profiler attached %.2f ms (%+.2f%%)\n"
    rounds (base_ns /. 1e6) (trivial_ns /. 1e6) trivial_pct (prof_ns /. 1e6)
    overhead_pct;
  (* ---- gates ---- *)
  (* 64-word slack: Gc.minor_words itself and the measuring closures
     may box a float or two; the events themselves must add nothing,
     and the extra parks their continuations and states. *)
  let hook_ok = events > 10_000 && hook_delta < 64. +. park_allowance in
  let counter_ok = counter_delta <= float_of_int row_words +. 256. in
  let conservation_ok = conservation = Ok () in
  Benchkit.finish ~bench:"profiler"
    [ ("workload_seed", string_of_int workload_seed);
      ( "emission",
        Printf.sprintf
          "{\"events_per_run\": %d, \"unhooked_minor_words\": %.0f,\n\
          \    \"trivial_hook_minor_words\": %.0f, \"hook_words_per_event\": %.4f,\n\
          \    \"unhooked_parks\": %d, \"trivial_hook_parks\": %d,\n\
          \    \"park_words\": %.0f}"
          events unhooked_words trivial_words
          (hook_delta /. float_of_int (max 1 events))
          !unhooked_parks !hooked_parks Benchkit.park_words );
      ( "counters",
        Printf.sprintf
          "{\"profiled_minor_words_over_unhooked\": %.0f,\n\
          \    \"profiled_procs\": %d, \"row_words\": %d, \"words_per_event\": %.4f}"
          counter_delta n_procs row_words
          (counter_delta /. float_of_int (max 1 events)) );
      ( "conservation",
        Printf.sprintf
          "{\"ok\": %b, \"attributed_cycles\": %d, \"records\": %d}"
          conservation_ok
          (Profiler.total_cycles cons_prof)
          (Profiler.n_records cons_prof) );
      ( "wall",
        Printf.sprintf
          "{\"unattached_ns\": %.0f, \"trivial_hook_ns\": %.0f,\n\
          \    \"attached_ns\": %.0f, \"trivial_overhead_pct\": %.3f,\n\
          \    \"overhead_pct\": %.3f, \"max_overhead_pct\": %.1f}"
          base_ns trivial_ns prof_ns trivial_pct overhead_pct
          max_overhead_pct ) ]
    [ Benchkit.exact "hook_zero_alloc" hook_ok;
      Benchkit.exact "counter_alloc" counter_ok;
      Benchkit.timing "profiler_overhead" (overhead_pct < max_overhead_pct);
      Benchkit.exact "conservation" conservation_ok ]
