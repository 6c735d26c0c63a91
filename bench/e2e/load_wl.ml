(* load: open loop in simulated time. A run is two load steps sharing
   a seed, one at 20k and one at 80k requests per simulated second;
   each step is a fresh kernel taking Loadgen requests (Poisson
   arrivals, default mix, 64 keys, Zipf 1.1). Pairing the rates makes
   runs alike, where single steps would split into two populations.
   Up to the whole step's thousand requests are pending on the timer
   wheel at once and PM admits or sheds them; there is one boot per
   step. The kernel works differently here than in the suite:
   spawn/exit and scheduling instead of long IPC chains. *)

let conf = Sysconf.uniform Policy.enhanced
let rates = [| 20_000; 80_000 |]

(* requests: per step; prefix: the first runs, always made, whose
   steps the simulated statistics and the digest cover. *)
type size = { requests : int; prefix : int; max_runs : int }

let size cfg =
  match cfg.Harness.size with
  | Harness.Full -> { requests = 1000; prefix = 30; max_runs = max_int }
  | Harness.Smoke -> { requests = 500; prefix = 1; max_runs = 1 }

type step = {
  halt : Kernel.halt;
  outcome : Loadgen.outcome;
  vtime : int;
  digest : string;
}

type st = {
  cfg : Harness.cfg;
  sz : size;
  checks : Harness.checks;
  prefix : step option array;  (* the prefix runs' steps *)
  firsts : (int, string) Hashtbl.t;  (* step -> digest of its first run *)
}

(* Step i belongs to run i / 2; seeds of different --seed values do
   not overlap within a run's reach. *)
let spec st i =
  { Loadgen.default_spec with
    Loadgen.l_seed = (st.cfg.Harness.seed * 1009) + (i / 2);
    l_requests = st.sz.requests;
    l_rate = rates.(i mod 2) }

let finish k halt o =
  { halt; outcome = o; vtime = Kernel.now k;
    digest =
      Harness.hex
        (Harness.kernel_digest k
         ^ Marshal.to_string
             ( o.Loadgen.o_completed, o.Loadgen.o_ok, o.Loadgen.o_shed,
               o.Loadgen.o_makespan, o.Loadgen.o_latencies )
             []) }

(* Every request must exit and the system must drain cleanly; sheds
   are simulated outcomes, not failures. *)
let check_step st i s =
  if i < Array.length st.prefix then st.prefix.(i) <- Some s;
  Harness.check st.checks
    (s.halt = Kernel.H_completed 0
     && s.outcome.Loadgen.o_requests = st.sz.requests
     && s.outcome.Loadgen.o_completed = st.sz.requests
     && Harness.same_as_first st.firsts i s.digest)
    (fun () ->
       Printf.sprintf "load step %d (rate %d): %s, %d/%d requests exited, digest %s" i
         rates.(i mod 2) (Kernel.halt_to_string s.halt)
         s.outcome.Loadgen.o_completed st.sz.requests s.digest)

let build_inject st i =
  let spec = spec st i in
  let sys = System.build ~seed:spec.Loadgen.l_seed conf in
  let k = System.kernel sys in
  (k, Loadgen.inject k spec)

let step st i =
  let k, reqs = build_inject st i in
  let halt = Kernel.run k in
  (k, halt, Loadgen.collect k reqs)

let plain_step st i =
  let (k, halt, o), ms = Meter.time_ms (fun () -> step st i) in
  check_step st i (finish k halt o);
  ms

let plain st r = plain_step st (2 * r) +. plain_step st ((2 * r) + 1)

let create cfg =
  let sz = size cfg in
  { cfg; sz; checks = Harness.checks (); prefix = Array.make (2 * sz.prefix) None;
    firsts = Hashtbl.create 256 }

let setup st = snd (Harness.setup st.cfg (fun () -> ignore (build_inject st 0)))

(* The first step run again at the end must reproduce itself. *)
let rerun_check st =
  let k, halt, o = step st 0 in
  let s = finish k halt o in
  Harness.check st.checks
    (Hashtbl.find_opt st.firsts 0 = Some s.digest)
    (fun () -> "load step 0 re-run differs from its first run")

let prefix_steps st = List.filter_map Fun.id (Array.to_list st.prefix)

let digest st = Harness.hex (String.concat " " (List.map (fun s -> s.digest) (prefix_steps st)))

let run cfg =
  let st = create cfg in
  let setup_s = setup st in
  let chunks, peak_rss_mb =
    Harness.loop ~seconds:cfg.Harness.seconds ~min_runs:st.sz.prefix
      ~max_runs:st.sz.max_runs (plain st)
  in
  rerun_check st;
  let metrics, info = Harness.end_to_end_metrics ~setup_s ~chunks ~peak_rss_mb in
  { Harness.metrics; digest = digest st; checks = st.checks; info }

(* ---- traced run ---- *)

let trace cfg =
  let st = create cfg in
  ignore (setup st);
  let spans = Spans.create ~tid:0 () in
  let ledger = Ledger.create ~shift:6 ~seed:cfg.Harness.seed in
  let ks = Harness.kstats () in
  let builds = ref [] and injects = ref [] and collects = ref [] in
  let traced_step it i =
    let spec = spec st i in
    let sys, bms =
      Spans.with_ spans ~parent:it "build" (fun _ ->
          Meter.time_ms (fun () -> System.build ~seed:spec.Loadgen.l_seed conf))
    in
    let k = System.kernel sys in
    let reqs, ims =
      Spans.with_ spans ~parent:it "inject" (fun _ ->
          Meter.time_ms (fun () -> Loadgen.inject k spec))
    in
    Ledger.attach ledger k;
    let ops0 = Kernel.total_ops k and msgs0 = Kernel.messages_delivered k in
    let halt, rms =
      Spans.with_ spans ~parent:it "run" (fun _ -> Meter.time_ms (fun () -> Kernel.run k))
    in
    Ledger.add_wall ledger rms;
    Harness.add_kernel ks k ~ops0 ~msgs0;
    let o, cms =
      Spans.with_ spans ~parent:it "collect" (fun _ ->
          Meter.time_ms (fun () -> Loadgen.collect k reqs))
    in
    builds := bms :: !builds;
    injects := ims :: !injects;
    collects := cms :: !collects;
    let s = finish k halt o in
    Harness.check st.checks
      (Harness.same_as_first st.firsts i s.digest)
      (fun () -> Printf.sprintf "load step %d: traced and untraced runs differ" i);
    bms +. ims +. rms +. cms
  in
  let traced r =
    Spans.with_ spans ~parent:0 "iteration" (fun it ->
        traced_step it (2 * r) +. traced_step it ((2 * r) + 1))
  in
  let p =
    Harness.paired ~seconds:cfg.Harness.seconds ~min_runs:st.sz.prefix
      ~max_runs:st.sz.max_runs (plain st) traced
  in
  rerun_check st;
  let steps = prefix_steps st in
  let total f = List.fold_left (fun a s -> a + f s.outcome) 0 steps in
  let requests = total (fun o -> o.Loadgen.o_requests) in
  (* Non-ok requests count as infinitely late at the 20k rate. *)
  let p95 =
    let at_20k = List.filteri (fun i _ -> i mod 2 = 0) steps in
    let ok = Array.concat (List.map (fun s -> s.outcome.Loadgen.o_latencies) at_20k) in
    Array.sort compare ok;
    let n = List.fold_left (fun a s -> a + s.outcome.Loadgen.o_requests) 0 at_20k in
    let r = Osiris_util.Stats.rank ~num:95 ~den:100 n in
    if r <= Array.length ok then float_of_int ok.(r - 1) else float_of_int max_int
  in
  let med l = Meter.median (Array.of_list !l) in
  let pct a = 100. *. float_of_int a /. float_of_int (max 1 requests) in
  let metrics =
    Harness.kernel_layers ledger ks
    @ [ ("core.build_ms_p50", med builds);
        ("loadgen.inject_ms", med injects);
        ("loadgen.collect_ms", med collects);
        ("loadgen.shed_pct", pct (total (fun o -> o.Loadgen.o_shed)));
        ("trace.overhead_pct", Harness.overhead_pct p);
        ("sim.cycles_per_run",
         Meter.mean (Array.of_list (List.map (fun s -> float_of_int s.vtime) steps)));
        ("sim.ok_pct", pct (total (fun o -> o.Loadgen.o_ok)));
        ("sim.latency_p95_cycles", p95) ]
    @ Harness.gc_metrics p.Harness.plain_gc (Array.length p.Harness.plain_ms)
  in
  let files = Harness.write_trace cfg ~workload:"load" spans ledger metrics in
  { Harness.metrics; digest = digest st; checks = st.checks;
    info = ("samples", string_of_int (Array.length p.Harness.traced_ms)) :: files }
