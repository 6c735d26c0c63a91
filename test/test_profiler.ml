(* Cycle-accounting profiler, flamegraph export and recovery-health
   watchdog:

   - conservation as a QCheck property: across random workloads,
     seeds and crash injections, every process's attributed cycles
     equal its virtual clock exactly, and the kernel's running
     per-phase totals equal the profiler's per-process sums;
   - an exact fixture for the seed-42 quickstart crash run, pinning
     the per-phase breakdown so attribution changes are loud;
   - the folded flamegraph format and Perfetto counter samples;
   - health: MTTR, success ratio, crash-loop detection. *)

(* The kernel's incrementally maintained per-phase totals against the
   profiler's sum over every compartment's counter row. *)
let phase_totals_agree profiler kernel =
  List.find_opt
    (fun ph ->
       Kernel.total_phase_cycles kernel ph <> Profiler.total_phase profiler ph)
    Kernel.all_phases

let arm_crash ?(count = 1) kernel ep =
  let armed = ref count in
  Kernel.set_fault_hook kernel
    (Some
       (fun site ->
          if !armed > 0
             && site.Kernel.site_ep = ep
             && site.Kernel.site_kind = Kernel.Op_reply
             && Kernel.window_is_open kernel ep
          then begin
            decr armed;
            Some (Kernel.F_crash "injected")
          end
          else None))

let run_profiled ?sample_every ?(policy = Policy.enhanced) ?(seed = 42)
    ?crash ?(crashes = 1) ?(root = Workgen.quickstart) ?event_hook () =
  let profiler = Profiler.create ?sample_every () in
  let sys = System.build ~seed ?event_hook ~profiler (Sysconf.uniform policy) in
  let kernel = System.kernel sys in
  (match crash with None -> () | Some ep -> arm_crash ~count:crashes kernel ep);
  let halt = System.run sys ~root in
  (profiler, kernel, halt)

(* ---------------- conservation property --------------------------- *)

let policies =
  [| Policy.stateless; Policy.naive; Policy.pessimistic; Policy.enhanced;
     Policy.enhanced_replay; Policy.enhanced_snapshot |]

let crash_targets =
  [| None; Some Endpoint.ds; Some Endpoint.vfs; Some Endpoint.pm;
     Some Endpoint.mfs |]

let prop_conservation =
  QCheck.Test.make
    ~name:"attributed cycles = process clocks, any workload/crash/policy"
    ~count:25
    QCheck.(quad small_nat small_nat small_nat small_nat)
    (fun (seed, pi_, ci, crashes) ->
       let policy = policies.(pi_ mod Array.length policies) in
       let crash = crash_targets.(ci mod Array.length crash_targets) in
       let root = Workgen.generate ~seed () in
       let profiler, kernel, _halt =
         run_profiled ~policy ~seed ?crash
           ~crashes:(1 + (crashes mod 3))
           ~root ()
       in
       (match Profiler.check_conservation profiler kernel with
        | Ok () -> ()
        | Error m -> QCheck.Test.fail_reportf "conservation violated: %s" m);
       match phase_totals_agree profiler kernel with
       | None -> true
       | Some ph ->
         QCheck.Test.fail_reportf "phase total %s: kernel %d, profiler %d"
           (Kernel.phase_to_string ph)
           (Kernel.total_phase_cycles kernel ph)
           (Profiler.total_phase profiler ph))

(* ---------------- seed-42 crash-run fixture ----------------------- *)

(* The exact breakdown of [osiris profile --crash ds] (enhanced
   policy, seed 42, quickstart workload). These numbers are the
   simulated trajectory itself: if any of them move, either the cost
   model changed (update the fixture deliberately) or attribution
   broke (fix the kernel). *)
let test_seed42_fixture () =
  let profiler, kernel, halt = run_profiled ~crash:Endpoint.ds () in
  (match halt with
   | Kernel.H_completed 0 -> ()
   | h -> Alcotest.fail ("unexpected halt: " ^ Kernel.halt_to_string h));
  (match Profiler.check_conservation profiler kernel with
   | Ok () -> ()
   | Error m -> Alcotest.fail ("conservation violated: " ^ m));
  List.iter
    (fun ph ->
       Alcotest.(check int)
         ("phase total " ^ Kernel.phase_to_string ph)
         (Profiler.total_phase profiler ph)
         (Kernel.total_phase_cycles kernel ph))
    Kernel.all_phases;
  Alcotest.(check int) "total cycles" 4586478 (Profiler.total_cycles profiler);
  let ds = Endpoint.ds in
  List.iter
    (fun (phase, want) ->
       Alcotest.(check int)
         ("ds " ^ Kernel.phase_to_string phase)
         want
         (Profiler.phase_cycles profiler ds phase))
    [ (Kernel.Ph_user, 7106); (Kernel.Ph_instr, 3640); (Kernel.Ph_log, 488);
      (Kernel.Ph_checkpoint, 120); (Kernel.Ph_rollback, 0);
      (Kernel.Ph_restart, 31998); (Kernel.Ph_wait, 390436) ];
  Alcotest.(check int) "ds total" 433788 (Profiler.proc_cycles profiler ds);
  (* rs pays the rollback decision and the restart orchestration *)
  Alcotest.(check int) "rs rollback" 600
    (Profiler.phase_cycles profiler Endpoint.rs Kernel.Ph_rollback);
  Alcotest.(check int) "rs restart" 33544
    (Profiler.phase_cycles profiler Endpoint.rs Kernel.Ph_restart);
  (* a crash-free compartment spends nothing on recovery *)
  Alcotest.(check int) "vfs restart" 0
    (Profiler.phase_cycles profiler Endpoint.vfs Kernel.Ph_restart)

(* ---------------- folded flamegraph format ------------------------ *)

let test_folded_format () =
  let profiler, _kernel, _halt = run_profiled ~crash:Endpoint.ds () in
  let folded = Flame.folded profiler in
  let lines = String.split_on_char '\n' folded in
  let lines = List.filter (fun l -> l <> "") lines in
  Alcotest.(check bool) "non-empty" true (lines <> []);
  let parsed =
    List.map
      (fun line ->
         match String.rindex_opt line ' ' with
         | None -> Alcotest.fail ("no count separator: " ^ line)
         | Some i ->
           let stack = String.sub line 0 i in
           let count =
             String.sub line (i + 1) (String.length line - i - 1)
           in
           (match int_of_string_opt count with
            | Some c when c > 0 -> ()
            | _ -> Alcotest.fail ("bad count: " ^ line));
           (match String.split_on_char ';' stack with
            | [ _comp; _phase; _detail ] -> ()
            | _ -> Alcotest.fail ("stack is not comp;phase;detail: " ^ line));
           (stack, int_of_string count))
      lines
  in
  (* ordered by compartment, then phase-taxonomy index, then detail —
     deterministic, so a rerun reproduces it byte for byte *)
  let stacks = List.map fst parsed in
  Alcotest.(check bool) "stacks unique" true
    (List.length (List.sort_uniq compare stacks) = List.length stacks);
  let profiler2, _, _ = run_profiled ~crash:Endpoint.ds () in
  Alcotest.(check string) "byte-identical across reruns" folded
    (Flame.folded profiler2);
  Alcotest.(check int) "counts sum to total cycles"
    (Profiler.total_cycles profiler)
    (List.fold_left (fun acc (_, c) -> acc + c) 0 parsed)

let test_counter_samples () =
  let profiler, _kernel, _halt =
    run_profiled ~sample_every:20_000 ~crash:Endpoint.ds ()
  in
  let samples = Flame.counter_samples profiler in
  Alcotest.(check bool) "samples exist" true (samples <> []);
  let phase_names = List.map Kernel.phase_to_string Kernel.all_phases in
  List.iter
    (fun s ->
       Alcotest.(check (list string)) "series are the phases" phase_names
         (List.map fst s.Chrome_trace.cs_values);
       List.iter
         (fun (n, v) ->
            Alcotest.(check bool) ("delta >= 0: " ^ n) true (v >= 0))
         s.Chrome_trace.cs_values)
    samples;
  (* timestamps strictly increase within each track *)
  let by_track = Hashtbl.create 8 in
  List.iter
    (fun s ->
       let tr = s.Chrome_trace.cs_track in
       (match Hashtbl.find_opt by_track tr with
        | Some last ->
          Alcotest.(check bool) ("ts increases on " ^ tr) true
            (s.Chrome_trace.cs_ts > last)
        | None -> ());
       Hashtbl.replace by_track tr s.Chrome_trace.cs_ts)
    samples

(* ---------------- health watchdog --------------------------------- *)

let run_health ?(crashes = 1) ?crash () =
  let watchdog = Health.create () in
  let profiler = Profiler.create () in
  let sys =
    System.build ~seed:42 ~event_hook:(Health.observe watchdog) ~profiler
      (Sysconf.uniform Policy.enhanced)
  in
  let kernel = System.kernel sys in
  (match crash with None -> () | Some ep -> arm_crash ~count:crashes kernel ep);
  let _halt = System.run sys ~root:Workgen.quickstart in
  Health.snapshot ~profiler watchdog kernel

let comp_of comps ep =
  match List.find_opt (fun c -> c.Health.co_ep = ep) comps with
  | Some c -> c
  | None -> Alcotest.fail "compartment missing from snapshot"

let test_health_clean_run () =
  let comps = run_health () in
  List.iter
    (fun c ->
       Alcotest.(check string) (c.Health.co_name ^ " healthy") "healthy"
         (Health.status_to_string c.Health.co_status);
       Alcotest.(check int) "no crashes" 0 c.Health.co_crashes;
       Alcotest.(check (float 1e-9)) "success ratio 1" 1.0
         c.Health.co_success_ratio)
    comps

let test_health_single_crash () =
  let comps = run_health ~crash:Endpoint.ds () in
  let ds = comp_of comps Endpoint.ds in
  Alcotest.(check int) "one crash" 1 ds.Health.co_crashes;
  Alcotest.(check int) "one restart" 1 ds.Health.co_restarts;
  Alcotest.(check (float 1e-9)) "recovered" 1.0 ds.Health.co_success_ratio;
  Alcotest.(check bool) "mttr positive" true (ds.Health.co_mttr > 0.);
  Alcotest.(check bool) "still healthy after recovery" true
    (ds.Health.co_status = Health.Healthy);
  (* overhead attribution present when a profiler rode along *)
  (match ds.Health.co_overhead_pct with
   | Some p -> Alcotest.(check bool) "overhead pct sane" true (p >= 0.)
   | None -> Alcotest.fail "overhead missing despite profiler")

let test_health_crash_loop () =
  let comps = run_health ~crash:Endpoint.ds ~crashes:3 () in
  let ds = comp_of comps Endpoint.ds in
  Alcotest.(check int) "three crashes" 3 ds.Health.co_crashes;
  Alcotest.(check bool) "flagged as crash-looping" true
    (ds.Health.co_status = Health.Crash_looping);
  Alcotest.(check bool) "recent crashes fill the window" true
    (ds.Health.co_recent_crashes >= ds.Health.co_crash_loop_threshold);
  (* the rest of the system is not dragged into the loop verdict *)
  let vfs = comp_of comps Endpoint.vfs in
  Alcotest.(check bool) "vfs unaffected" true
    (vfs.Health.co_status = Health.Healthy)

let () =
  Alcotest.run "osiris_profiler"
    [ ( "conservation",
        [ QCheck_alcotest.to_alcotest prop_conservation;
          Alcotest.test_case "seed-42 crash fixture" `Quick
            test_seed42_fixture ] );
      ( "flame",
        [ Alcotest.test_case "folded format" `Quick test_folded_format;
          Alcotest.test_case "counter samples" `Quick test_counter_samples ] );
      ( "health",
        [ Alcotest.test_case "clean run" `Quick test_health_clean_run;
          Alcotest.test_case "single crash" `Quick test_health_single_crash;
          Alcotest.test_case "crash loop" `Quick test_health_crash_loop ] ) ]
