(* Open-loop load engine tests: distribution sanity (Zipf rank-vs-
   frequency, Poisson inter-arrival mean), an exact seed-42 arrival
   fixture (any drift here silently invalidates every recorded
   latency-under-load artifact), determinism, the percentile helper,
   and an end-to-end inject/run/collect smoke on a real system. *)

module Rng = Osiris_util.Rng

(* ---------------- zipf -------------------------------------------- *)

let test_zipf_cdf_shape () =
  let cdf = Loadgen.zipf_cdf ~n:64 ~s:1.1 in
  Alcotest.(check int) "length" 64 (Array.length cdf);
  Alcotest.(check (float 1e-9)) "first weight" 1.0 cdf.(0);
  for i = 1 to 63 do
    if cdf.(i) <= cdf.(i - 1) then Alcotest.fail "cdf not increasing"
  done;
  (* Increments shrink with rank: 1/r^s is decreasing. *)
  let inc i = cdf.(i) -. cdf.(i - 1) in
  if inc 1 <= inc 32 then Alcotest.fail "weights not decreasing"

let test_zipf_rank_frequency () =
  (* Empirical frequency must decrease with rank: head rank strictly
     dominates, and the head outweighs deep-tail ranks by a wide
     margin at skew 1.1. *)
  let rng = Rng.create 7 in
  let cdf = Loadgen.zipf_cdf ~n:64 ~s:1.1 in
  let counts = Array.make 64 0 in
  let draws = 20_000 in
  for _ = 1 to draws do
    let r = Loadgen.zipf_pick rng cdf in
    counts.(r) <- counts.(r) + 1
  done;
  let max_rank = ref 0 in
  Array.iteri (fun i c -> if c > counts.(!max_rank) then max_rank := i) counts;
  Alcotest.(check int) "rank 0 most popular" 0 !max_rank;
  Alcotest.(check bool) "rank 0 >> rank 32" true
    (counts.(0) > 5 * (counts.(32) + 1));
  Alcotest.(check bool) "coarse monotone" true
    (counts.(0) > counts.(8) && counts.(8) > counts.(48))

(* ---------------- arrivals ---------------------------------------- *)

let test_poisson_mean () =
  (* Mean inter-arrival gap over many draws must sit near
     cycles_per_second / rate (within 5%). *)
  let spec = { Loadgen.default_spec with l_requests = 20_000 } in
  let arr = Loadgen.arrivals spec in
  let n = Array.length arr in
  let mean_gap = float_of_int arr.(n - 1) /. float_of_int n in
  let expect =
    float_of_int Loadgen.cycles_per_second /. float_of_int spec.l_rate
  in
  let err = abs_float (mean_gap -. expect) /. expect in
  if err > 0.05 then
    Alcotest.failf "poisson mean gap %.0f vs expected %.0f (err %.3f)"
      mean_gap expect err

let test_arrivals_nondecreasing () =
  List.iter
    (fun spec ->
       let arr = Loadgen.arrivals spec in
       Array.iteri
         (fun i a ->
            if i > 0 && a < arr.(i - 1) then
              Alcotest.fail "arrivals decreased";
            if a <= 0 then Alcotest.fail "non-positive arrival")
         arr)
    [ Loadgen.default_spec;
      { Loadgen.default_spec with
        l_arrival = Loadgen.Bursty { on_mean = 2_000_000; off_mean = 6_000_000 }
      } ]

let test_seed42_fixture () =
  (* Exact first arrivals of the default spec.  This pins the Rng
     consumption order and the exponential-draw formula: any change
     shifts every recorded artifact. *)
  let arr = Loadgen.arrivals Loadgen.default_spec in
  Alcotest.(check (list int)) "first eight arrivals (seed 42)"
    [ 155608; 175647; 213202; 261719; 266178; 499247; 527586; 713036 ]
    (Array.to_list (Array.sub arr 0 8));
  Alcotest.(check int) "last arrival" 22_847_833 arr.(199)

let test_arrivals_deterministic () =
  let a = Loadgen.arrivals Loadgen.default_spec in
  let b = Loadgen.arrivals Loadgen.default_spec in
  Alcotest.(check bool) "same spec, same arrivals" true (a = b)

(* ---------------- percentile helper ------------------------------- *)

let test_percentile () =
  let a = Array.init 100 (fun i -> i + 1) in
  Alcotest.(check int) "p50" 50 (Loadgen.percentile a ~num:1 ~den:2);
  Alcotest.(check int) "p95" 95 (Loadgen.percentile a ~num:95 ~den:100);
  Alcotest.(check int) "p99" 99 (Loadgen.percentile a ~num:99 ~den:100);
  Alcotest.(check int) "p99.9" 100 (Loadgen.percentile a ~num:999 ~den:1000);
  Alcotest.(check int) "p100" 100 (Loadgen.percentile a ~num:1 ~den:1);
  Alcotest.(check int) "empty" 0 (Loadgen.percentile [||] ~num:1 ~den:2);
  Alcotest.(check int) "singleton" 7
    (Loadgen.percentile [| 7 |] ~num:999 ~den:1000)

(* ---------------- end-to-end smoke -------------------------------- *)

let run_once spec =
  let sys = System.build ~seed:42 (Sysconf.uniform Policy.enhanced) in
  let k = System.kernel sys in
  let reqs = Loadgen.inject k spec in
  let halt = Kernel.run k in
  (halt, Loadgen.collect k reqs)

let smoke_spec = { Loadgen.default_spec with l_requests = 40 }

let test_inject_run_collect () =
  let halt, o = run_once smoke_spec in
  Alcotest.(check bool) "drained to completion" true
    (halt = Kernel.H_completed 0);
  Alcotest.(check int) "all requests completed" 40 o.Loadgen.o_completed;
  Alcotest.(check bool) "goodput nonzero" true (o.Loadgen.o_ok > 0);
  Alcotest.(check bool) "makespan positive" true (o.Loadgen.o_makespan > 0);
  Alcotest.(check int) "one latency per ok request" o.Loadgen.o_ok
    (Array.length o.Loadgen.o_latencies);
  Array.iter
    (fun l -> if l <= 0 then Alcotest.fail "non-positive latency")
    o.Loadgen.o_latencies;
  Alcotest.(check bool) "goodput_rps positive" true
    (Loadgen.goodput_rps o > 0);
  (* Sorted ascending, so percentiles are monotone. *)
  let p50 = Loadgen.percentile o.Loadgen.o_latencies ~num:1 ~den:2 in
  let p99 = Loadgen.percentile o.Loadgen.o_latencies ~num:99 ~den:100 in
  Alcotest.(check bool) "p50 <= p99" true (p50 <= p99)

let test_run_deterministic () =
  let _, o1 = run_once smoke_spec in
  let _, o2 = run_once smoke_spec in
  Alcotest.(check int) "ok" o1.Loadgen.o_ok o2.Loadgen.o_ok;
  Alcotest.(check int) "shed" o1.Loadgen.o_shed o2.Loadgen.o_shed;
  Alcotest.(check int) "makespan" o1.Loadgen.o_makespan
    o2.Loadgen.o_makespan;
  Alcotest.(check bool) "latency vector identical" true
    (o1.Loadgen.o_latencies = o2.Loadgen.o_latencies)

(* ---------------- load-step trajectories -------------------------- *)

(* The workload's first load steps at seed 42, one per rate.  At 80k
   req/s several servers walk their tables at once: hundreds of
   pending processes keep items due, so walks park and are run on by
   the kernel, and any change to who runs when moves a server's
   counters.  At 20k req/s the run queue is at its deepest (up to
   1002 entries), nearly all of them pending arrivals, so this step
   exposes the run queue's order where the quickstart-based pins
   cannot.  Pinned per step: the halt, every core server's
   [server_stats] row and the outcome (by MD5 of their values), and
   the fiber runner's counters. *)
let step_spec rate =
  { Loadgen.default_spec with
    Loadgen.l_seed = 42 * 1009; l_requests = 1000; l_rate = rate }

let check_load_step ~rate ~outcome ~counters ~digest () =
  let spec = step_spec rate in
  let sys =
    System.build ~seed:spec.Loadgen.l_seed (Sysconf.uniform Policy.enhanced)
  in
  let k = System.kernel sys in
  let reqs = Loadgen.inject k spec in
  let parks0 = Kernel.fiber_parks k and resumes0 = Kernel.walk_resumes k in
  let batched0, single0 = Kernel.walk_loads k in
  let halt = Kernel.run k in
  let o = Loadgen.collect k reqs in
  let batched, single = Kernel.walk_loads k in
  Alcotest.(check string) "halt" "completed(0)" (Kernel.halt_to_string halt);
  Alcotest.(check (list int)) "completed, ok, shed, makespan" outcome
    [ o.Loadgen.o_completed; o.Loadgen.o_ok; o.Loadgen.o_shed;
      o.Loadgen.o_makespan ];
  Alcotest.(check (list int)) "fiber parks, walk resumes, loads batched/single"
    counters
    [ Kernel.fiber_parks k - parks0; Kernel.walk_resumes k - resumes0;
      batched - batched0; single - single0 ];
  let stats = List.map (Kernel.server_stats k) System.core_servers in
  Alcotest.(check string) "server_stats + outcome digest" digest
    (Digest.to_hex
       (Digest.string (Marshal.to_string (halt, stats, o) [ Marshal.No_sharing ])))

let test_load_step_80k =
  check_load_step ~rate:80_000
    ~outcome:[ 1000; 793; 196; 31576915 ]
    ~counters:[ 47597; 191168; 695030; 0 ]
    ~digest:"ba18451c7d4c68647cddb8d7a36e22ae"

let test_load_step_20k =
  check_load_step ~rate:20_000
    ~outcome:[ 1000; 1000; 0; 112920512 ]
    ~counters:[ 18230; 19312; 370276; 0 ]
    ~digest:"5e4b2ef9ee361e83b97771f1daff5f64"

let () =
  Alcotest.run "loadgen"
    [ ( "distributions",
        [ Alcotest.test_case "zipf cdf shape" `Quick test_zipf_cdf_shape;
          Alcotest.test_case "zipf rank-frequency" `Quick
            test_zipf_rank_frequency;
          Alcotest.test_case "poisson mean" `Quick test_poisson_mean;
          Alcotest.test_case "arrivals nondecreasing" `Quick
            test_arrivals_nondecreasing;
          Alcotest.test_case "seed-42 fixture" `Quick test_seed42_fixture;
          Alcotest.test_case "deterministic" `Quick
            test_arrivals_deterministic ] );
      ( "percentile",
        [ Alcotest.test_case "nearest rank" `Quick test_percentile ] );
      ( "system",
        [ Alcotest.test_case "inject/run/collect" `Quick
            test_inject_run_collect;
          Alcotest.test_case "run deterministic" `Quick
            test_run_deterministic;
          Alcotest.test_case "80k load step trajectory (seed 42378)" `Quick
            test_load_step_80k;
          Alcotest.test_case "20k load step trajectory (seed 42378)" `Quick
            test_load_step_20k ] ) ]
