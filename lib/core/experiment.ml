type coverage_row = {
  cov_server : string;
  cov_fraction : float;
  cov_weight : float;
}

let coverage_row kernel ep =
  let s = Kernel.server_stats kernel ep in
  { cov_server = s.Kernel.ss_name;
    cov_fraction =
      (if s.Kernel.ss_ops_total = 0 then 0.
       else
         float_of_int s.Kernel.ss_ops_in_window
         /. float_of_int s.Kernel.ss_ops_total);
    cov_weight = float_of_int s.Kernel.ss_busy_cycles }

let coverage_run ?(seed = 42) policy =
  let sys = System.build ~seed (Sysconf.uniform policy) in
  let halt = System.run sys ~root:Testsuite.driver in
  let rows =
    List.map (coverage_row (System.kernel sys)) System.core_servers
  in
  (rows, halt)

let weighted_mean_coverage rows =
  Osiris_util.Stats.weighted_mean
    (List.map (fun r -> (r.cov_fraction, r.cov_weight)) rows)

let measured_frequencies kernel ep =
  let counts = Kernel.handler_counts kernel ep in
  fun tag ->
    match List.assoc_opt tag counts with
    | Some n -> float_of_int n
    | None -> 0.

type bench_result = {
  br_name : string;
  br_iters : int;
  br_cycles : int;
  br_score : float;
  br_halt : Kernel.halt;
}

let run_bench ?(arch = Kernel.Microkernel) ?(seed = 42) policy bench =
  let sys = System.build ~arch ~seed (Sysconf.uniform policy) in
  let t0 = Kernel.now (System.kernel sys) in
  let halt = System.run sys ~root:bench.Unixbench.b_driver in
  let t1 = Kernel.now (System.kernel sys) in
  let cycles = max 1 (t1 - t0) in
  let seconds = Costs.cycles_to_seconds cycles in
  { br_name = bench.Unixbench.b_name;
    br_iters = bench.Unixbench.b_iters;
    br_cycles = cycles;
    br_score = float_of_int bench.Unixbench.b_iters /. seconds;
    br_halt = halt }

(* Each benchmark boots its own system, so the suite fans out across
   the Parfan domain pool; scores come from simulated cycles, so the
   rows (Tables IV/V inputs) are identical whatever the worker
   count. *)
let bench_suite ?(arch = Kernel.Microkernel) ?(seed = 42) ?jobs ?stats policy =
  Parfan.map ?jobs ?stats (run_bench ~arch ~seed policy) Unixbench.all

type memory_row = {
  mem_server : string;
  mem_base_kb : int;
  mem_clone_kb : int;
  mem_undo_kb : int;
  mem_total_overhead_kb : int;
}

(* The Table VI workload: every Unixbench program run once, in one
   booted system, so per-server peak undo-log sizes reflect the whole
   suite. *)
let memory_root () =
  List.iter
    (fun bench ->
       let pid =
         Syscall.fork (fun () ->
             let _ = Syscall.exec ("/bin/ub_" ^ bench.Unixbench.b_name) 0 in
             Syscall.exit 9)
       in
       if pid < 0 then Syscall.exit 1;
       let _, _ = Syscall.waitpid pid in
       ())
    Unixbench.all;
  Syscall.exit 0

let memory_overhead ?(seed = 42) () =
  let sys = System.build ~seed (Sysconf.uniform Policy.enhanced) in
  let (_ : Kernel.halt) = System.run sys ~root:memory_root in
  let kernel = System.kernel sys in
  List.map
    (fun ep ->
       let s = Kernel.server_stats kernel ep in
       let base_kb = s.Kernel.ss_image_bytes / 1024 in
       let clone_kb = base_kb + s.Kernel.ss_clone_extra_kb in
       let undo_kb = (s.Kernel.ss_undo_peak_bytes + 1023) / 1024 in
       { mem_server = s.Kernel.ss_name;
         mem_base_kb = base_kb;
         mem_clone_kb = clone_kb;
         mem_undo_kb = undo_kb;
         mem_total_overhead_kb = clone_kb + undo_kb })
    System.core_servers

type recovery_bytes_row = {
  rb_server : string;
  rb_image_bytes : int;
  rb_rollback_bytes : int;
  rb_restore_bytes_saved : int;
  rb_restarts : int;
}

let recovery_bytes ?(seed = 42) ?(period = 400) policy =
  let sys = System.build ~seed ~max_crashes:10_000 (Sysconf.uniform policy) in
  let kernel = System.kernel sys in
  (* A periodic crash probe across all servers: every [period]-th
     eligible fault site fires, so the run exercises both the rollback
     path (in-window crashes) and the restart path. The tick counts
     every site of every server, so the hook is left unscoped. *)
  let tick = ref 0 in
  Kernel.set_fault_hook kernel
    (Some
       (fun (_ : Kernel.site) ->
          incr tick;
          if !tick mod period = 0 then Some (Kernel.F_crash "byte probe")
          else None));
  let halt = System.run sys ~root:Testsuite.driver in
  let rows =
    List.map
      (fun ep ->
         let s = Kernel.server_stats kernel ep in
         { rb_server = s.Kernel.ss_name;
           rb_image_bytes = s.Kernel.ss_image_bytes;
           rb_rollback_bytes = s.Kernel.ss_rollback_bytes;
           rb_restore_bytes_saved = s.Kernel.ss_restore_bytes_saved;
           rb_restarts = s.Kernel.ss_restarts })
      System.core_servers
  in
  (rows, halt)
