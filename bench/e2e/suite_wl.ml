(* suite: the closed-loop control. A run is a fresh System.build plus
   the prototype regression driver under uniform enhanced, no faults,
   seeds N..N+3 round-robin. It exercises the interpreter, kernel
   dispatch, window instrumentation, undo-log record/clear and the
   servers, and bypasses Parfan, recovery, the journal and far-future
   timer keys — the "should not move" workload for changes to those. *)

let conf = Sysconf.uniform Policy.enhanced
let n_seeds = 4
let n_tests = List.length Testsuite.tests

let runs cfg =
  match cfg.Harness.size with
  | Harness.Full -> (n_seeds, max_int)
  | Harness.Smoke -> (6, 6)

type st = {
  cfg : Harness.cfg;
  checks : Harness.checks;
  digests : (int, string) Hashtbl.t;  (* seed -> first run's digest *)
  vtimes : (int, int) Hashtbl.t;
  passed : (int, int) Hashtbl.t;
}

let seed_of st i = st.cfg.Harness.seed + (i mod n_seeds)

(* Everything a run's outputs must satisfy: a clean halt, the whole
   suite passing, and the same simulated state as every other run of
   its seed. *)
let check_run st i sys halt =
  let seed = seed_of st i in
  let k = System.kernel sys in
  let r = Testsuite.parse_results (System.log_lines sys) in
  let d = Harness.kernel_digest k in
  Hashtbl.replace st.vtimes seed (Kernel.now k);
  Hashtbl.replace st.passed seed r.Testsuite.passed;
  Harness.check st.checks
    (halt = Kernel.H_completed 0 && r.Testsuite.complete
     && r.Testsuite.passed = n_tests && r.Testsuite.failed = 0
     && Harness.same_as_first st.digests seed d)
    (fun () ->
       Printf.sprintf "suite run %d (seed %d): %s, %d/%d passed, digest %s" i
         seed (Kernel.halt_to_string halt) r.Testsuite.passed n_tests d)

let plain st i =
  let seed = seed_of st i in
  let (sys, halt), ms =
    Meter.time_ms (fun () ->
        let sys = System.build ~seed conf in
        (sys, System.run sys ~root:Testsuite.driver))
  in
  check_run st i sys halt;
  ms

let create cfg =
  { cfg; checks = Harness.checks (); digests = Hashtbl.create 4;
    vtimes = Hashtbl.create 4; passed = Hashtbl.create 4 }

let setup cfg =
  snd (Harness.setup cfg (fun () -> ignore (System.build ~seed:cfg.Harness.seed conf)))

let digest st =
  Harness.hex
    (String.concat " "
       (List.init n_seeds (fun j ->
            Option.value ~default:"-"
              (Hashtbl.find_opt st.digests (st.cfg.Harness.seed + j)))))

let run cfg =
  let st = create cfg in
  let setup_s = setup cfg in
  let min_runs, max_runs = runs cfg in
  let chunks, peak_rss_mb = Harness.loop ~seconds:cfg.Harness.seconds ~min_runs ~max_runs (plain st) in
  let metrics, info = Harness.end_to_end_metrics ~setup_s ~chunks ~peak_rss_mb in
  { Harness.metrics; digest = digest st; checks = st.checks; info }

(* ---- traced run ---- *)

type tr = {
  spans : Spans.t;
  ledger : Ledger.t;
  ks : Harness.kstats;
  mutable builds : float list;
}

let traced_run st tr ~ledger i =
  let seed = seed_of st i in
  let sys, halt, ms =
    Spans.with_ tr.spans ~parent:0 "iteration" (fun it ->
        let sys, bms =
          Spans.with_ tr.spans ~parent:it "build" (fun _ ->
              Meter.time_ms (fun () -> System.build ~seed conf))
        in
        tr.builds <- bms :: tr.builds;
        let k = System.kernel sys in
        Ledger.attach ledger k;
        let ops0 = Kernel.total_ops k and msgs0 = Kernel.messages_delivered k in
        let halt, rms =
          Spans.with_ tr.spans ~parent:it "run" (fun _ ->
              Meter.time_ms (fun () -> System.run sys ~root:Testsuite.driver))
        in
        Ledger.add_wall ledger rms;
        Harness.add_kernel tr.ks k ~ops0 ~msgs0;
        (sys, halt, bms +. rms))
  in
  (* The hooks observe and must never perturb: a traced run is checked
     against the untraced digest of its seed. *)
  check_run st i sys halt;
  ms

let trace cfg =
  let st = create cfg in
  ignore (setup cfg);
  let tr =
    { spans = Spans.create ~tid:0 (); ledger = Ledger.create ~shift:6 ~seed:cfg.Harness.seed;
      ks = Harness.kstats (); builds = [] }
  in
  let min_runs, max_runs = runs cfg in
  let traced = traced_run st tr ~ledger:tr.ledger in
  let p =
    Harness.paired ~seconds:cfg.Harness.seconds ~min_runs ~max_runs (plain st) traced
  in
  (* The same runs sampled at every advance: the 2^6 shares must stay
     within a few points of these. *)
  let exact = Ledger.create ~shift:0 ~seed:cfg.Harness.seed in
  let exact_tr = { tr with spans = Spans.create ~tid:0 (); ks = Harness.kstats () } in
  for i = 0 to (match cfg.Harness.size with Harness.Full -> 2 * n_seeds | Harness.Smoke -> 1) - 1 do
    ignore (traced_run st exact_tr ~ledger:exact i)
  done;
  let share_diff =
    let sampled = Ledger.cells tr.ledger and every = Ledger.cells exact in
    List.fold_left
      (fun acc ph ->
         Float.max acc
           (Float.abs (Ledger.phase_host_pct sampled ph -. Ledger.phase_host_pct every ph)))
      0. Kernel.all_phases
  in
  let seeds = List.init n_seeds (fun j -> cfg.Harness.seed + j) in
  let mean_of tbl =
    Meter.mean
      (Array.of_list
         (List.map (fun s -> float_of_int (Option.value ~default:0 (Hashtbl.find_opt tbl s))) seeds))
  in
  let metrics =
    Harness.kernel_layers tr.ledger tr.ks
    @ [ ("core.build_ms_p50", Meter.median (Array.of_list tr.builds));
        ("trace.overhead_pct", Harness.overhead_pct p);
        ("trace.exact_share_diff_pts", share_diff);
        ("sim.cycles_per_run", mean_of st.vtimes);
        ("sim.ok_pct", 100. *. mean_of st.passed /. float_of_int n_tests) ]
    @ Harness.gc_metrics p.Harness.plain_gc (Array.length p.Harness.plain_ms)
  in
  let files = Harness.write_trace cfg ~workload:"suite" tr.spans tr.ledger metrics in
  { Harness.metrics; digest = digest st; checks = st.checks;
    info = ("samples", string_of_int (Array.length p.Harness.traced_ms)) :: files }
