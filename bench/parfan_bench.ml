(* Parallel campaign engine benchmark: what the Parfan domain pool
   buys, and proof it changes nothing but wall time.

   The full survivability campaign (Tables II/III shape: every policy
   x every profiled fault site, one isolated kernel per run) is
   executed twice — sequentially (jobs:1, the oracle) and on the pool
   — and the result rows must be structurally byte-identical. Wall
   times give the speedup, but only when the host has a core per pool
   domain: with [jobs] above the host's core count ([nproc], as
   [Domain.recommended_domain_count] reports it) the domains share
   cores and stop-the-world minor collections, so the artifact records
   both and labels the sequential/pool wall ratio "oversubscribed"
   instead of "speedup". Because hosts differ wildly in how well
   OCaml 5 domains scale on allocation-heavy work (stop-the-world
   minor collections; container CPU quotas; hyperthread siblings), the
   speedup gate is calibrated: a raw Domain.spawn static partition of
   a synthetic allocation-heavy probe — no queue, no pool — measures
   what this host can do at best, and the pool is held to a fraction
   of that, capped at the absolute target. On a real 4-core machine
   the calibration saturates and the gate is the paper-style >= 3x at
   4 domains; on a throttled box the gate still catches a serialized
   pool without failing on physics.

   Run with [dune exec bench/main.exe parfan] (artifact
   BENCH_parfan.json, every fault site of the sweep; [--smoke] for the
   runtest variant, 6 sites per policy, see benchkit.ml). Exits
   non-zero when an enforced gate fails.

   Gates:
     armed_site_alloc_exact
                        exact   a suite run with one armed fault site
                                that no operation reaches (matched at
                                every server operation, never fired)
                                allocates at most [max_armed_residual]
                                minor words more than an unarmed run,
                                on one domain: matching an armed site
                                builds nothing per operation
     scoped_hook_alloc_exact
                        exact   a suite run with a [None]-returning hook
                                scoped to DS calls it once per post-boot
                                DS operation ([ss_ops_total]), and
                                allocates less than [max_scoped_residual]
                                minor words more than an unhooked run
                                beyond the site records it was handed
                                and [Benchkit.park_words] per extra
                                fiber park: the other servers build no
                                site. A sited DS searches rows load by
                                load, where each preemption parks the
                                fiber instead of the walk, so the
                                hooked run parks more
     parfan_identical   exact   jobs:1 and jobs:4 produce structurally
                                byte-identical campaign rows (Marshal
                                equality)
     parfan_isolation   exact   per-run kernel counters are identical
                                whether a run executes alone or beside
                                concurrent domains
     parfan_speedup     timing  sequential/pool wall ratio >= min(3,
                                0.7 x calibrated ideal scaling), one
                                timed run of each side; the calibration
                                runs the same [jobs] domains on the
                                same cores, so the threshold holds an
                                oversubscribed pool to what raw domains
                                reach there *)

let jobs = 4 (* pool width under test *)
let nproc = Domain.recommended_domain_count ()
let oversubscribed = jobs > nproc
let min_speedup = 3. (* absolute speedup target *)
let efficiency = 0.7 (* fraction of the calibrated ideal to reach *)

(* ---- calibration: the host's ideal domain scaling ----------------- *)

(* Allocation profile comparable to a simulation run: short-lived cons
   cells and tuples, nothing surviving. One chunk is ~10 ms. *)
let probe_chunk () =
  let acc = ref [] in
  for i = 1 to 300_000 do
    acc := (i, i + 1) :: !acc;
    if i land 4095 = 0 then acc := []
  done;
  ignore (Sys.opaque_identity !acc)

let bump_nursery () =
  Gc.set { (Gc.get ()) with Gc.minor_heap_size = 4 * 1024 * 1024 }

(* An ideal pool: static partition over raw domains, no queue, same
   per-domain nursery as Parfan workers. Deliberately does NOT go
   through Parfan — it is the oracle the pool is measured against, so
   a regression that serializes the pool cannot also slow the oracle. *)
let calibrate jobs =
  let per_dom = 4 in
  let (), seq_ns =
    Benchkit.time (fun () ->
        for _ = 1 to jobs * per_dom do
          probe_chunk ()
        done)
  in
  let (), par_ns =
    Benchkit.time (fun () ->
        let doms =
          List.init jobs (fun _ ->
              Domain.spawn (fun () ->
                  bump_nursery ();
                  for _ = 1 to per_dom do
                    probe_chunk ()
                  done))
        in
        List.iter Domain.join doms)
  in
  (seq_ns, par_ns, seq_ns /. par_ns)

(* ---- armed sites: matched without allocating ---------------------- *)

let max_armed_residual = 16. (* words per run, whatever its length *)

(* Minor words of one suite run on this domain, after [arm] has set its
   kernel up. *)
let run_words ?(after = ignore) arm =
  let sys = System.build ~seed:42 (Sysconf.uniform Policy.enhanced) in
  arm (System.kernel sys);
  let w0 = Gc.minor_words () in
  ignore (System.run sys ~root:Testsuite.driver);
  let words = Gc.minor_words () -. w0 in
  after (System.kernel sys);
  words

(* On an endpoint no server has: every server operation is matched
   against it, and it never fires. *)
let unreached =
  { Kernel.site_ep = Endpoint.first_user - 1; site_handler = None;
    site_kind = Kernel.Op_load; site_occ = 0 }

(* The same site through a closure hook that compares site records,
   for scale: what matching cost per run before sites were data. *)
let hook_unreached k =
  Kernel.set_fault_hook k
    (Some
       (fun s ->
          if Kernel.compare_site s unreached = 0 then Some Kernel.F_benign
          else None))

(* ---- scoped hooks: only the scope's servers are sited ------------- *)

let max_scoped_residual = 64. (* words per run, whatever its length *)

(* ---- isolation: per-run counters beside concurrent domains -------- *)

let counter_probe () =
  let sys = System.build ~seed:42 (Sysconf.uniform Policy.enhanced) in
  let halt = System.run sys ~root:Testsuite.driver in
  let k = System.kernel sys in
  ( halt,
    List.map
      (fun ep ->
         let s = Kernel.server_stats k ep in
         ( s.Kernel.ss_name, s.Kernel.ss_ops_total, s.Kernel.ss_busy_cycles,
           s.Kernel.ss_window_opens, s.Kernel.ss_restarts ))
      System.core_servers )

let run () =
  Printf.printf
    "\n================================================================\n\
     Parfan: parallel survivability campaign vs the sequential oracle\n\
     ================================================================\n";
  let sample = if !Benchkit.smoke then 6 else 0 in
  let seed = 42 in
  (* ---- armed-site allocation, before any other domain runs ---- *)
  let plain_parks = ref 0 in
  let plain_words =
    run_words ignore ~after:(fun k -> plain_parks := Kernel.fiber_parks k)
  in
  let armed_words =
    run_words (fun k -> Kernel.arm k [ (unreached, Kernel.F_benign) ])
  in
  let hook_words = run_words hook_unreached in
  let armed_alloc_ok = armed_words -. plain_words <= max_armed_residual in
  Printf.printf
    "suite run minor words: unarmed %.0f, armed unreached site %+.0f (<= %.0f \
     -> %s), same site as a closure hook %+.0f\n"
    plain_words (armed_words -. plain_words) max_armed_residual
    (if armed_alloc_ok then "ok" else "FAILED")
    (hook_words -. plain_words);
  (* A hook scoped to DS that fires nowhere: the calls it receives and
     the words of the site records they carry. *)
  let scoped_calls = ref 0 and scoped_record_words = ref 0 and ds_ops = ref 0 in
  let scoped_parks = ref 0 in
  let hook_ds_scoped k =
    Kernel.set_fault_hook ~scope:[ Endpoint.ds ] k
      (Some
         (fun s ->
            incr scoped_calls;
            scoped_record_words :=
              !scoped_record_words + Obj.size (Obj.repr s) + 1;
            None))
  in
  let scoped_words =
    run_words hook_ds_scoped ~after:(fun k ->
        ds_ops := (Kernel.server_stats k Endpoint.ds).Kernel.ss_ops_total;
        scoped_parks := Kernel.fiber_parks k)
  in
  let extra_parks = !scoped_parks - !plain_parks in
  let park_allowance = Benchkit.park_words *. float_of_int extra_parks in
  let scoped_residual =
    scoped_words -. plain_words -. float_of_int !scoped_record_words
  in
  let scoped_ok =
    !scoped_calls = !ds_ops
    && scoped_residual < max_scoped_residual +. park_allowance
  in
  Printf.printf
    "hook scoped to ds: %d calls for %d post-boot ds ops, %+.0f words beyond \
     its %d words of site records (< %.0f + %.0f for %d extra fiber parks) -> %s\n"
    !scoped_calls !ds_ops scoped_residual !scoped_record_words
    max_scoped_residual park_allowance extra_parks
    (if scoped_ok then "ok" else "FAILED");
  (* ---- isolation ---- *)
  let alone = counter_probe () in
  let d1 = Domain.spawn counter_probe and d2 = Domain.spawn counter_probe in
  let beside1 = Domain.join d1 and beside2 = Domain.join d2 in
  let isolation = alone = beside1 && alone = beside2 in
  Printf.printf "per-run counters beside concurrent domains: %s\n"
    (if isolation then "identical" else "DIVERGED");
  (* ---- the campaign, sequential then pooled ---- *)
  let campaign j stats =
    Campaign.survivability ~seed ~sample ~jobs:j ?stats Edfi.Fail_stop
      Policy.all_evaluated
  in
  let seq_rows, seq_ns = Benchkit.time (fun () -> campaign 1 None) in
  let pool_stats = ref None in
  let par_rows, par_ns =
    Benchkit.time (fun () ->
        campaign jobs (Some (fun s -> pool_stats := Some s)))
  in
  let n_runs =
    List.fold_left (fun acc (r : Campaign.row) -> acc + r.Campaign.runs) 0
      seq_rows
  in
  let identical =
    Marshal.to_string seq_rows [] = Marshal.to_string par_rows []
  in
  let ratio = seq_ns /. par_ns in
  (* Only a pool with a core per domain has a speedup to report. *)
  let reading = if oversubscribed then "oversubscribed" else "speedup" in
  Printf.printf
    "campaign: %d policies x %s sites = %d runs\n\
    \  sequential (jobs 1)   %8.2f s\n\
    \  pool       (jobs %d)   %8.2f s  -> %s\n"
    (List.length seq_rows)
    (if sample = 0 then "all" else string_of_int sample)
    n_runs (seq_ns /. 1e9) jobs (par_ns /. 1e9)
    (if oversubscribed then
       Printf.sprintf "%.2fx sequential, oversubscribed (%d domains on %d cores)"
         ratio jobs nproc
     else Printf.sprintf "speedup %.2fx (%d domains on %d cores)" ratio jobs nproc);
  (match !pool_stats with
   | Some s -> Printf.printf "  %s\n" (Parfan.speedup_line s)
   | None -> ());
  Printf.printf "  rows %s\n"
    (if identical then "byte-identical to the oracle" else "DIVERGED");
  (* ---- calibrated speedup gate ---- *)
  let cal_seq_ns, cal_par_ns, calib = calibrate jobs in
  let threshold = Float.min min_speedup (efficiency *. calib) in
  let speedup_ok = ratio >= threshold in
  Printf.printf
    "calibration (raw domains, %d-way static partition): %.2fx ideal\n\
    \  gate: sequential/pool %.2fx >= min(%.1f, %.2f x %.2f) = %.2fx -> %s\n"
    jobs calib ratio min_speedup efficiency calib threshold
    (if speedup_ok then "ok" else "FAILED");
  let pool =
    match !pool_stats with
    | Some s ->
      [ ( "pool",
          Printf.sprintf
            "{\"tasks\": %d, \"runs_per_sec\": %.1f, \"imbalance_pct\": %.1f,\n\
            \    \"workers\": [%s]}"
            s.Parfan.pf_tasks (Parfan.runs_per_sec s) (Parfan.imbalance_pct s)
            (String.concat ", "
               (Array.to_list
                  (Array.map
                     (fun w ->
                        Printf.sprintf "{\"tasks\": %d, \"busy_ms\": %.1f}"
                          w.Parfan.w_tasks (w.Parfan.w_busy_ns /. 1e6))
                     s.Parfan.pf_workers))) ) ]
    | None -> []
  in
  Benchkit.finish ~bench:"parfan" ~budget:false
    ([ ("seed", string_of_int seed);
       ("sample", string_of_int sample);
       ("jobs", string_of_int jobs);
       ("nproc", string_of_int nproc);
       ("runs", string_of_int n_runs);
       ( "armed_alloc",
         Printf.sprintf
           "{\"plain_words\": %.0f, \"armed_words\": %.0f, \"hook_words\": %.0f,\n\
           \    \"max_residual\": %.0f}" plain_words armed_words hook_words
           max_armed_residual );
       ( "scoped_hook_alloc",
         Printf.sprintf
           "{\"calls\": %d, \"ds_ops\": %d, \"scoped_words\": %.0f,\n\
           \    \"record_words\": %d, \"residual\": %.0f, \"max_residual\": %.0f,\n\
           \    \"extra_parks\": %d, \"park_words\": %.0f}"
           !scoped_calls !ds_ops scoped_words !scoped_record_words
           scoped_residual max_scoped_residual extra_parks Benchkit.park_words );
       ( "wall",
         Printf.sprintf
           "{\"seq_ns\": %.0f, \"par_ns\": %.0f, \"seq_over_par\": %.3f,\n\
           \    \"reading\": %S}" seq_ns par_ns ratio reading );
       ( "calibration",
         Printf.sprintf
           "{\"seq_ns\": %.0f, \"par_ns\": %.0f, \"ideal\": %.3f,\n\
           \    \"efficiency\": %.2f, \"min_speedup\": %.1f, \"threshold\": %.3f}"
           cal_seq_ns cal_par_ns calib efficiency min_speedup threshold ) ]
     @ pool
     @ [ (* Wall times, throughput and host scaling swing with the
            machine; bench_diff reads these per-path tolerances from the
            baseline so only real structural drift is flagged. *)
         ( "tolerances",
           "{\"wall.seq_ns\": 300, \"wall.par_ns\": 300,\n\
           \    \"wall.seq_over_par\": 700, \"calibration.seq_ns\": 300,\n\
           \    \"calibration.par_ns\": 300, \"calibration.ideal\": 700,\n\
           \    \"calibration.threshold\": 700, \"pool.runs_per_sec\": 700,\n\
           \    \"pool.imbalance_pct\": 200}" ) ])
    [ Benchkit.exact "armed_site_alloc_exact" armed_alloc_ok;
      Benchkit.exact "scoped_hook_alloc_exact" scoped_ok;
      Benchkit.exact "parfan_identical" identical;
      Benchkit.exact "parfan_isolation" isolation;
      Benchkit.timing "parfan_speedup" speedup_ok ]
