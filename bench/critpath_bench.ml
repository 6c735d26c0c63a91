(* Critical-path engine benchmark: what per-request cycle charging
   costs on the kernel's clock-advance path, and whether the
   attribution pipeline keeps its exactness promises.

   Run with [dune exec bench/main.exe critpath] (artifact
   BENCH_critpath.json; [--smoke] for the runtest variant, see
   benchkit.ml). Exits non-zero when an enforced gate fails.

   Gates:
     charging_overhead  timing  enabling per-request charging on top of
                                the per-slot cycle counters (the
                                profiler substrate) costs <3% wall time
                                on a workgen run (best of interleaved
                                rounds) — the charging path is two array
                                reads and one write per clock advance,
                                no hashing, no allocation
     conservation       exact   every analyzed request's buckets sum to
                                exactly its end-to-end latency, and the
                                kernel's per-root phase rows sum to the
                                global phase totals — zero tolerance on
                                both
     journal_parity     exact   attributing the decoded journal of a run
                                yields a byte-identical rendering to
                                attributing the live event stream
     blame_identity     exact   the per-spec p99-blame rollup is
                                byte-identical across re-runs and across
                                domain-pool worker counts (jobs:1 vs
                                jobs:4, submission-order merge) *)

let max_overhead_pct = 3.

let workload_seed = 42

(* ---- overhead probe ---------------------------------------------- *)

let run_counted ~requests () =
  let sys =
    System.build ~seed:workload_seed (Sysconf.uniform Policy.enhanced)
  in
  let k = System.kernel sys in
  Kernel.enable_cycle_counts k;
  if requests then Kernel.enable_request_counts k;
  match System.run sys ~root:(Workgen.generate ~seed:workload_seed ()) with
  | Kernel.H_completed _ -> ()
  | halt ->
    failwith ("critpath bench workload halted: " ^ Kernel.halt_to_string halt)

(* ---- attribution probes ------------------------------------------ *)

let collect_events ~spec ~crash =
  let header =
    match
      Flight.make_header ~seed:workload_seed ~spec ~workload:"quickstart"
        ~crash ()
    with
    | Ok h -> h
    | Error m -> failwith m
  in
  let c = Obs_collector.create () in
  let sys, _ =
    Flight.run
      ~prepare:(fun sys ->
          let k = System.kernel sys in
          Kernel.enable_cycle_counts k;
          Kernel.enable_request_counts k)
      ~event_hook:(Obs_collector.record c) header
  in
  (header, Obs_collector.events c, System.kernel sys)

(* Canonical rendering used by the parity and identity gates — every
   field of every breakdown, in analysis order. *)
let render_result (r : Critpath.result) =
  let buf = Buffer.create 1024 in
  Printf.bprintf buf "incomplete=%d\n" r.Critpath.cr_incomplete;
  List.iter
    (fun (b : Critpath.breakdown) ->
       Printf.bprintf buf
         "ep=%d rid=%d inj=%b a=%d x=%d own=%d q=%d svc=[%s] ck=%d rb=%d \
          rs=%d col=%d path=[%s]\n"
         b.Critpath.cp_ep b.Critpath.cp_rid b.Critpath.cp_injected
         b.Critpath.cp_arrival b.Critpath.cp_exit b.Critpath.cp_own
         b.Critpath.cp_queue
         (String.concat ";"
            (List.map
               (fun (ep, c) -> Printf.sprintf "%d:%d" ep c)
               b.Critpath.cp_service))
         b.Critpath.cp_checkpoint b.Critpath.cp_rollback
         b.Critpath.cp_restart b.Critpath.cp_collateral
         (String.concat ";" (List.map string_of_int b.Critpath.cp_path)))
    r.Critpath.cr_requests;
  Buffer.contents buf

let render_profile = function
  | None -> "no-profile\n"
  | Some tp ->
    let buf = Buffer.create 256 in
    Printf.bprintf buf "n=%d p50=%d p99=%d\n" tp.Tailprof.tp_n
      tp.Tailprof.tp_p50 tp.Tailprof.tp_p99;
    List.iter
      (fun (bk, delta) ->
         let bi = Tailprof.bucket_index bk in
         Printf.bprintf buf "%s lo=%d hi=%d d=%d\n"
           (Tailprof.bucket_name bk)
           tp.Tailprof.tp_low.Tailprof.co_mean10.(bi)
           tp.Tailprof.tp_high.Tailprof.co_mean10.(bi)
           delta)
      tp.Tailprof.tp_blame;
    Buffer.contents buf

let blame_specs = [ "enhanced"; "pessimistic"; "enhanced,ds=stateless" ]

let blame_rollup ~jobs =
  String.concat "--\n"
    (Parfan.map ~jobs
       (fun spec ->
          let _, events, _ = collect_events ~spec ~crash:"ds" in
          let r = Critpath.analyze events in
          render_profile (Tailprof.profile r.Critpath.cr_requests))
       blame_specs)

let run () =
  Printf.printf
    "\n================================================================\n\
     Critical-path engine: charging overhead, conservation, parity\n\
     ================================================================\n";
  (* ---- charging overhead ---- *)
  let best, rounds =
    Benchkit.best_of
      [ Benchkit.timed (run_counted ~requests:false);
        Benchkit.timed (run_counted ~requests:true) ]
  in
  let base_ns = best.(0) and req_ns = best.(1) in
  let overhead_pct = 100. *. (req_ns -. base_ns) /. base_ns in
  Printf.printf
    "workgen run (best of %d interleaved rounds):\n\
    \  cycle counts alone     %.2f ms\n\
    \  + request charging     %.2f ms (%+.2f%%)\n"
    rounds (base_ns /. 1e6) (req_ns /. 1e6) overhead_pct;
  (* ---- conservation ---- *)
  let _, events, kernel = collect_events ~spec:"enhanced" ~crash:"ds" in
  let result = Critpath.analyze events in
  let n_requests = List.length result.Critpath.cr_requests in
  let event_conserved =
    List.for_all
      (fun b -> Critpath.breakdown_sum b = Critpath.total b)
      result.Critpath.cr_requests
  in
  let rows = Kernel.request_rows kernel in
  let sys_row = Kernel.system_request_row kernel in
  let kernel_conserved =
    List.for_all
      (fun ph ->
         let pi = Kernel.phase_index ph in
         List.fold_left (fun acc (_, _, row) -> acc + row.(pi)) sys_row.(pi)
           rows
         = Kernel.total_phase_cycles kernel ph)
      Kernel.all_phases
  in
  Printf.printf
    "conservation: %d requests, buckets %s, kernel charging (%d roots) %s\n"
    n_requests
    (if event_conserved then "exact" else "VIOLATED")
    (Kernel.request_count kernel)
    (if kernel_conserved then "exact" else "VIOLATED");
  (* ---- journal parity ---- *)
  let header, events2, _ = collect_events ~spec:"enhanced" ~crash:"ds" in
  let live_render = render_result (Critpath.analyze events2) in
  let parity =
    match Journal.read_string (Journal.of_events header events2) with
    | Error m -> failwith ("critpath bench: journal decode: " ^ m)
    | Ok (_, decoded) ->
      String.equal live_render
        (render_result (Critpath.analyze (Array.to_list decoded)))
  in
  Printf.printf "journal parity: attribution of decoded journal %s\n"
    (if parity then "byte-identical to live" else "DIFFERS");
  (* ---- blame identity ---- *)
  let b1 = blame_rollup ~jobs:1 in
  let b1' = blame_rollup ~jobs:1 in
  let b4 = blame_rollup ~jobs:4 in
  let blame_identical = String.equal b1 b1' && String.equal b1 b4 in
  Printf.printf
    "blame rollup (%d specs): re-run %s, jobs:1 vs jobs:4 %s\n"
    (List.length blame_specs)
    (if String.equal b1 b1' then "identical" else "DIFFERS")
    (if String.equal b1 b4 then "identical" else "DIFFERS");
  let conserved = event_conserved && kernel_conserved && n_requests > 0 in
  Benchkit.finish ~bench:"critpath"
    [ ("workload_seed", string_of_int workload_seed);
      ( "charging",
        Printf.sprintf
          "{\"cycle_counts_ns\": %.0f, \"request_counts_ns\": %.0f,\n\
          \    \"overhead_pct\": %.3f, \"max_overhead_pct\": %.1f}"
          base_ns req_ns overhead_pct max_overhead_pct );
      ( "conservation",
        Printf.sprintf
          "{\"requests\": %d, \"event_exact\": %b, \"kernel_exact\": %b}"
          n_requests event_conserved kernel_conserved );
      ("journal_parity", string_of_bool parity);
      ( "blame",
        Printf.sprintf "{\"specs\": %d, \"bytes\": %d, \"identical\": %b}"
          (List.length blame_specs) (String.length b1) blame_identical ) ]
    [ Benchkit.timing "charging_overhead" (overhead_pct < max_overhead_pct);
      Benchkit.exact "conservation" conserved;
      Benchkit.exact "journal_parity" parity;
      Benchkit.exact "blame_identity" blame_identical ]
