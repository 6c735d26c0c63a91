(* Policy-matrix benchmark: what the compartment layer costs.

   Per-compartment policy resolution happens once, at boot — after
   that every kernel fast-path decision reads the policy pinned in the
   process record, exactly as the old global-policy code read the
   single configuration field. This benchmark holds the layer to that
   claim on the quickstart workload, comparing a uniform spec against
   an explicit-compartment spec that resolves every server
   individually (same policy, plus restart budgets that never fire).

   Run with [dune exec bench/main.exe matrix] (artifact
   BENCH_matrix.json; [--smoke] for the runtest variant, see
   benchkit.ml). Exits non-zero when an enforced gate fails.

   Gates:
     matrix_same_trajectory   exact   uniform and explicit-compartment
                                      runs of the same policy are
                                      indistinguishable in simulation:
                                      same halt, same virtual cycles,
                                      same diagnostic stream
     matrix_deterministic     exact   a genuinely mixed spec replays
                                      bit-identically under a fixed seed
     matrix_overhead          timing  explicit-compartment wall time
                                      stays within 2% of the uniform
                                      path (best of interleaved rounds) *)

let max_overhead_pct = 2.

let workload_seed = 42

(* The two specs under comparison: the same policy everywhere, spelled
   two ways. [explicit] routes every server through its own
   compartment (with an untriggered restart budget), so boot performs
   seven real resolutions and RS holds per-endpoint closures. *)
let uniform_spec = Sysconf.uniform Policy.enhanced

let explicit_spec =
  Sysconf.make ~default:Policy.enhanced
    (List.map
       (fun ep -> Compartment.make ~budget:8 ep Policy.enhanced)
       Sysconf.server_eps)

let run_quickstart conf =
  let sys = System.build ~seed:workload_seed conf in
  let halt = System.run sys ~root:Workgen.quickstart in
  (halt, Kernel.now (System.kernel sys), System.log_lines sys)

let run () =
  Printf.printf
    "\n================================================================\n\
     Compartment layer: per-compartment resolution vs the uniform path\n\
     ================================================================\n";
  (* ---- simulated trajectory ---- *)
  let u_halt, u_now, u_log = run_quickstart uniform_spec in
  let e_halt, e_now, e_log = run_quickstart explicit_spec in
  let same_trajectory = u_halt = e_halt && u_now = e_now && u_log = e_log in
  Printf.printf
    "trajectory: uniform %s @ %d cycles, explicit-compartments %s @ %d cycles\n\
    \  diagnostic streams %s (%d lines)\n"
    (Kernel.halt_to_string u_halt)
    u_now
    (Kernel.halt_to_string e_halt)
    e_now
    (if u_log = e_log then "identical" else "DIVERGED")
    (List.length u_log);
  (* ---- mixed-spec determinism ---- *)
  let mixed =
    Sysconf.with_budget
      (Sysconf.assign
         (Sysconf.assign uniform_spec Endpoint.ds Policy.stateless)
         Endpoint.vm Policy.pessimistic)
      Endpoint.ds 4
  in
  let m1_halt, m1_now, m1_log = run_quickstart mixed in
  let m2_halt, m2_now, m2_log = run_quickstart mixed in
  let deterministic = m1_halt = m2_halt && m1_now = m2_now && m1_log = m2_log in
  Printf.printf "mixed spec %s: %s @ %d cycles, replay %s\n"
    (Sysconf.name mixed)
    (Kernel.halt_to_string m1_halt)
    m1_now
    (if deterministic then "identical" else "DIVERGED");
  (* ---- wall time ---- *)
  (* The gate is tight (2%) and a quickstart run lasts only ~10 ms, so
     a single GC pause inside a sample is worth several percent; many
     single-run samples give the best-of a clean, pause-free run of
     each variant, where batched samples would smear pauses across
     every sample. *)
  let best, rounds =
    Benchkit.best_of ~min_rounds:40
      [ Benchkit.timed (fun () -> ignore (run_quickstart uniform_spec));
        Benchkit.timed (fun () -> ignore (run_quickstart explicit_spec)) ]
  in
  let uniform_ns = best.(0) and explicit_ns = best.(1) in
  let overhead_pct = 100. *. (explicit_ns -. uniform_ns) /. uniform_ns in
  Printf.printf
    "quickstart wall time (best of %d interleaved rounds):\n\
    \  uniform spec            %.2f ms\n\
    \  explicit compartments   %.2f ms (%+.2f%%)\n"
    rounds (uniform_ns /. 1e6) (explicit_ns /. 1e6) overhead_pct;
  Benchkit.finish ~bench:"matrix"
    [ ("workload_seed", string_of_int workload_seed);
      ("rounds", string_of_int rounds);
      ( "trajectory",
        Printf.sprintf
          "{\"uniform_cycles\": %d, \"explicit_cycles\": %d,\n\
          \    \"log_lines\": %d, \"identical\": %b}"
          u_now e_now (List.length u_log) same_trajectory );
      ( "mixed_spec",
        Printf.sprintf "{\"name\": %s, \"deterministic\": %b}"
          (Benchkit.json_string (Sysconf.name mixed))
          deterministic );
      ( "wall",
        Printf.sprintf
          "{\"uniform_ns\": %.0f, \"explicit_ns\": %.0f,\n\
          \    \"overhead_pct\": %.3f, \"max_overhead_pct\": %.1f}"
          uniform_ns explicit_ns overhead_pct max_overhead_pct ) ]
    [ Benchkit.exact "matrix_same_trajectory" same_trajectory;
      Benchkit.exact "matrix_deterministic" deterministic;
      Benchkit.timing "matrix_overhead" (overhead_pct < max_overhead_pct) ]
