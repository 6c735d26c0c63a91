(* campaign: the Tables II/III path, timed where users wait on it. A
   call is Campaign.survivability_matrix_rollup ~jobs:2 over enhanced
   and pessimistic with a fixed sample of fault sites, as `osiris
   survivability` makes it: the library profiles the sites, and every
   injection run boots a fresh system, arms one fault, runs the suite
   and classifies the outcome on one long Parfan map. Calls alternate
   fail-stop and full-EDFI faults, a new site selection per pair,
   until the time is up. This is the only workload with per-run boot,
   rollback/restart/restore and the pool, so pool and boot
   optimisations show here and nowhere else. *)

let jobs = 2
let confs = [ Sysconf.uniform Policy.enhanced; Sysconf.uniform Policy.pessimistic ]
let models = [| Edfi.Fail_stop; Edfi.Full_edfi |]
let outcomes = [ Campaign.Pass; Campaign.Fail; Campaign.Shutdown; Campaign.Crash ]

(* sample: fault sites per call; slice: sites per model in the jobs:1
   check; chunk_runs: runs per throughput chunk. *)
type size = { sample : int; slice : int; chunk_runs : int; max_calls : int }

let size cfg =
  match cfg.Harness.size with
  | Harness.Full -> { sample = 200; slice = 4; chunk_runs = 40; max_calls = max_int }
  | Harness.Smoke -> { sample = 2; slice = 1; chunk_runs = 4; max_calls = 2 }

(* Call i runs model i mod 2 with the seed of pair i / 2; the first
   pair, made on every run, is what sim_digest and the simulated
   statistics cover. Seeds of different --seed values do not overlap
   within a run's reach. *)
let call_seed cfg i = (cfg.Harness.seed * 1009) + (i / 2)
let model_of i = models.(i mod 2)

type st = {
  cfg : Harness.cfg;
  sz : size;
  checks : Harness.checks;
  setup_s : float;
  firsts : Campaign.rollup option array;  (* the first pair's rollups *)
  mutable digests : string list;          (* the first pair's and the slice's, newest first *)
}

let create cfg =
  let setup_s =
    snd
      (Harness.setup cfg (fun () ->
           ignore (Campaign.profile_sites ~seed:(call_seed cfg 0) Policy.enhanced)))
  in
  { cfg; sz = size cfg; checks = Harness.checks (); setup_s; firsts = Array.make 2 None;
    digests = [] }

(* A call's rows name the specs in order, each sums to its run count,
   and together they count every run of the rollup. *)
let rows_ok (rows : Campaign.row list) (ro : Campaign.rollup) =
  List.map (fun r -> r.Campaign.row_policy) rows = List.map Sysconf.name confs
  && List.for_all
       (fun (r : Campaign.row) ->
          r.Campaign.runs > 0
          && r.Campaign.pass + r.Campaign.fail + r.Campaign.shutdown + r.Campaign.crash
             = r.Campaign.runs)
       rows
  && List.fold_left (fun a r -> a + r.Campaign.runs) 0 rows = ro.Campaign.ro_runs

let result_digest rows ro = Harness.hex (Marshal.to_string rows [] ^ Campaign.rollup_to_json ro)

(* ---- untraced calls ---- *)

(* A run's completion, seen from the worker that finished it. *)
type completion = { at : float; dom : int; words : float }

type call = {
  start : float;  (* host ns *)
  wall_ms : float;
  dones : completion array;  (* completion order *)
  rows : Campaign.row list;
  pool : Parfan.stats;
}

let call st i =
  let log = ref [] and pool = ref None in
  (* Runs in the worker, under the pool lock, after each run. *)
  let progress ~completed:_ ~total:_ =
    log := { at = Meter.now_ns (); dom = (Domain.self () :> int); words = Gc.minor_words () } :: !log
  in
  let start = Meter.now_ns () in
  let rows, rollup =
    Campaign.survivability_matrix_rollup ~seed:(call_seed st.cfg i) ~sample:st.sz.sample ~jobs
      ~stats:(fun s -> pool := Some s) ~progress (model_of i) confs
  in
  let wall_ms = (Meter.now_ns () -. start) /. 1e6 in
  let dones = Array.of_list (List.rev !log) in
  let d = result_digest rows rollup in
  if i < 2 then begin
    st.firsts.(i) <- Some rollup;
    st.digests <- d :: st.digests
  end;
  Harness.check st.checks
    (rows_ok rows rollup && Array.length dones = rollup.Campaign.ro_runs)
    (fun () ->
       Printf.sprintf "campaign call %d (%s, seed %d): %d completions, rows %s" i
         (Edfi.model_name (model_of i)) (call_seed st.cfg i) (Array.length dones) d);
  { start; wall_ms; dones; rows; pool = Option.get !pool }

(* A call as throughput chunks of [chunk_runs] runs (the last takes the
   rest), the first starting with the call. A run's time and words are
   the gaps since its worker's previous completion; a worker's first
   run also covers the site profiling and the pool's start, so it is
   not timed.

   These are wall times, unlike the other workloads' reference times:
   the probe cannot be timed next to a run inside the library's map
   without sharing the host with the code under test, and timed between
   calls, seconds from most runs, it made the spread over seeds wider,
   not narrower (see README.md). A chunk's probe is the reference
   itself. *)
let chunks_of st c =
  let n = Array.length c.dones in
  let last = Hashtbl.create 4 in
  let timed =
    Array.map
      (fun d ->
         let prev = Hashtbl.find_opt last d.dom in
         Hashtbl.replace last d.dom d;
         Option.map (fun p -> ((d.at -. p.at) /. 1e6, d.words -. p.words)) prev)
      c.dones
  in
  let k = min n (max 1 (n / st.sz.chunk_runs)) in
  List.init k (fun j ->
      let lo = j * n / k and hi = (j + 1) * n / k in
      let t0 = if lo = 0 then c.start else c.dones.(lo - 1).at and t1 = c.dones.(hi - 1).at in
      let runs = List.filter_map Fun.id (Array.to_list (Array.sub timed lo (hi - lo))) in
      let part f = Array.of_list (List.map f runs) in
      { Harness.runs = hi - lo;
        wall_ms = (t1 -. t0) /. 1e6;
        probe_ms = Probe.ref_ms;
        runs_ms = part fst;
        words = part snd;
        probes = part (fun _ -> Probe.ref_ms) })

(* Calls until the next one would end past [seconds], and at least the
   first pair. *)
let calls st each =
  let t_end = Meter.now_ns () +. (st.cfg.Harness.seconds *. 1e9) in
  let rec go i last_ns acc =
    if i >= st.sz.max_calls || (i >= 2 && Meter.now_ns () +. last_ns > t_end) then List.rev acc
    else begin
      let r, ms = Meter.time_ms (fun () -> each i) in
      go (i + 1) (ms *. 1e6) (r :: acc)
    end
  in
  go 0 0. []

(* ---- jobs:1 oracle ----

   The pool must not change a result: a slice of the first pair's
   selection, run at jobs:1 and at jobs:2, gives identical rows and
   byte-identical rollup JSON. *)
let slice_check st =
  let seed = call_seed st.cfg 0 in
  Array.iter
    (fun model ->
       let go jobs = Campaign.survivability_matrix_rollup ~seed ~sample:st.sz.slice ~jobs model confs in
       let rows1, ro1 = go 1 in
       let rows2, ro2 = go jobs in
       let json = Campaign.rollup_to_json ro1 in
       Harness.check st.checks
         (rows1 = rows2 && rows_ok rows1 ro1 && json = Campaign.rollup_to_json ro2)
         (fun () ->
            Printf.sprintf "campaign %s slice: jobs:1 and jobs:%d disagree" (Edfi.model_name model)
              jobs);
       st.digests <- Harness.hex json :: st.digests)
    models

let digest st = Harness.hex (String.concat " " (List.rev st.digests))

let run cfg =
  let st = create cfg in
  let peak_rss_mb = ref 0. in
  let cs =
    calls st (fun i ->
        let c = call st i in
        if i = 1 then peak_rss_mb := Meter.peak_rss_mb ();
        c)
  in
  slice_check st;
  let metrics, info =
    Harness.end_to_end_metrics ~setup_s:st.setup_s ~chunks:(List.concat_map (chunks_of st) cs)
      ~peak_rss_mb:!peak_rss_mb
  in
  { Harness.metrics; digest = digest st; checks = st.checks;
    info = ("calls", string_of_int (List.length cs)) :: info }

(* ---- traced run ----

   Each call is made untraced and replicated traced, alternating which
   goes first. The replica builds the call's task list through the
   public calls the library makes (profile, select, spec-major) and
   runs each task through the calls Campaign.run_one_summary makes —
   build, arm, run, classify — on its own Parfan map, so each phase
   gets a span and the kernel gets the host-ns ledger. Its outcomes
   must count up to the library's rows. *)

type task = {
  idx : int;  (* unique in the run, for span ids *)
  conf : Sysconf.t;
  site : Kernel.site;
  action : Kernel.fault_action;
}

let tasks_of st i =
  let seed = call_seed st.cfg i and model = model_of i in
  let sites =
    Campaign.select_sites ~seed:(seed + 1) ~sample:st.sz.sample
      (Campaign.profile_sites ~seed Policy.enhanced)
  in
  List.mapi
    (fun j (conf, site) -> { idx = (i * 4096) + j; conf; site; action = Edfi.action_for model site })
    (List.concat_map (fun conf -> List.map (fun site -> (conf, site)) sites) confs)

type traced = {
  outcome : Campaign.outcome;
  vtime : int;
  build_ms : float;
  run_ms : float;
  classify_ms : float;
  words : float;
  spans : Spans.t;
  ledger : Ledger.t;
  ks : Harness.kstats;
}

let classify halt (r : Testsuite.results) =
  match halt with
  | Kernel.H_shutdown _ -> Campaign.Shutdown
  | Kernel.H_panic _ | Kernel.H_hang -> Campaign.Crash
  | Kernel.H_completed status ->
    if not r.Testsuite.complete then Campaign.Crash
    else if r.Testsuite.failed > 0 || status <> 0 then Campaign.Fail
    else Campaign.Pass

let traced_task ~seed ~parent t =
  let spans = Spans.create ~base:(1_000_000 + (8 * t.idx)) ~tid:(Domain.self () :> int) () in
  let ledger = Ledger.create ~shift:6 ~seed:(seed + t.idx) in
  let ks = Harness.kstats () in
  let w0 = Gc.minor_words () in
  let outcome, vtime, build_ms, run_ms, classify_ms =
    Spans.with_ spans ~parent "task" (fun id ->
        let sys, build_ms =
          Spans.with_ spans ~parent:id "build" (fun _ ->
              Meter.time_ms (fun () -> System.build ~seed t.conf))
        in
        let k = System.kernel sys in
        let fired = ref false in
        Kernel.set_fault_hook k
          (Some
             (fun s ->
                if (not !fired) && Kernel.compare_site s t.site = 0 then begin
                  fired := true;
                  Some t.action
                end
                else None));
        Ledger.attach ledger k;
        let ops0 = Kernel.total_ops k and msgs0 = Kernel.messages_delivered k in
        let halt, run_ms =
          Spans.with_ spans ~parent:id "run" (fun _ ->
              Meter.time_ms (fun () -> System.run sys ~root:Testsuite.driver))
        in
        Ledger.add_wall ledger run_ms;
        Harness.add_kernel ks k ~ops0 ~msgs0;
        let outcome, classify_ms =
          Spans.with_ spans ~parent:id "classify" (fun _ ->
              Meter.time_ms (fun () ->
                  classify halt (Testsuite.parse_results (System.log_lines sys))))
        in
        (outcome, Kernel.now k, build_ms, run_ms, classify_ms))
  in
  { outcome; vtime; build_ms; run_ms; classify_ms; words = Gc.minor_words () -. w0;
    spans; ledger; ks }

(* Worker spans cover each pool worker's tasks within a call; task
   spans are re-parented under them once the map has returned. *)
let add_worker_spans (main : Spans.t) ~call (res : traced list) =
  let by_tid = Hashtbl.create 4 in
  List.iter
    (fun r ->
       List.iter
         (fun (s : Spans.span) -> Hashtbl.add by_tid s.Spans.tid s)
         r.spans.Spans.spans)
    res;
  List.iter
    (fun tid ->
       let ss = Hashtbl.find_all by_tid tid in
       let id = main.Spans.next in
       main.Spans.next <- id + 1;
       let t0 = List.fold_left (fun a (s : Spans.span) -> Float.min a s.Spans.t0) infinity ss in
       let t1 = List.fold_left (fun a (s : Spans.span) -> Float.max a s.Spans.t1) 0. ss in
       Spans.add main { Spans.id; parent = call; name = "worker"; tid; t0; t1 };
       List.iter
         (fun (s : Spans.span) ->
            Spans.add main (if s.Spans.parent = call then { s with Spans.parent = id } else s))
         ss)
    (List.sort_uniq compare (Hashtbl.fold (fun k _ acc -> k :: acc) by_tid []))

let replica st main i =
  Spans.with_ main ~parent:0 "call" (fun id ->
      let tasks = Spans.with_ main ~parent:id "profile" (fun _ -> tasks_of st i) in
      let res = Parfan.map ~jobs (traced_task ~seed:(call_seed st.cfg i) ~parent:id) tasks in
      add_worker_spans main ~call:id res;
      (tasks, res))

let trace cfg =
  let st = create cfg in
  let main = Spans.create ~tid:0 () in
  let ledger = Ledger.create ~shift:6 ~seed:cfg.Harness.seed in
  let ks = Harness.kstats () in
  let plain_ms = ref 0. and traced_ms = ref 0. and gc = ref Meter.gc_zero in
  let per_call =
    calls st (fun i ->
        let untraced () =
          let g0 = Meter.gc () in
          let c = call st i in
          gc := Meter.gc_add !gc (Meter.gc_since g0);
          plain_ms := !plain_ms +. c.wall_ms;
          c
        in
        let traced () =
          let r, ms = Meter.time_ms (fun () -> replica st main i) in
          traced_ms := !traced_ms +. ms;
          r
        in
        (* Each model gets both orders over two pairs. *)
        let c, (tasks, res) =
          if (i + (i / 2)) mod 2 = 0 then
            let c = untraced () in
            (c, traced ())
          else
            let r = traced () in
            (untraced (), r)
        in
        let counts conf =
          List.map
            (fun o ->
               List.length
                 (List.filter (fun (t, r) -> t.conf == conf && r.outcome = o)
                    (List.combine tasks res)))
            outcomes
        in
        Harness.check st.checks
          (List.map counts confs
           = List.map
               (fun (r : Campaign.row) ->
                  [ r.Campaign.pass; r.Campaign.fail; r.Campaign.shutdown; r.Campaign.crash ])
               c.rows)
          (fun () -> Printf.sprintf "campaign call %d: traced replica and library rows differ" i);
        List.iter
          (fun r ->
             Ledger.merge ~into:ledger r.ledger;
             Harness.merge_kstats ~into:ks r.ks)
          res;
        (c, res))
  in
  slice_check st;
  let res = List.concat_map snd per_call in
  let med f = Meter.median (Array.of_list (List.map f res)) in
  let pools = List.map (fun (c, _) -> c.pool) per_call in
  let sum f = List.fold_left (fun a s -> a +. f s) 0. pools in
  let busy s = Array.fold_left (fun a w -> a +. w.Parfan.w_busy_ns) 0. s.Parfan.pf_workers in
  let capacity s = float_of_int s.Parfan.pf_jobs *. s.Parfan.pf_wall_ns in
  let n_maps = float_of_int (max 1 (List.length pools)) in
  let first_pair = List.concat_map snd (List.filteri (fun i _ -> i < 2) per_call) in
  let ro = List.filter_map Fun.id (Array.to_list st.firsts) in
  let mttr = Histogram.create () in
  List.iter (fun r -> Histogram.merge_into ~into:mttr r.Campaign.ro_mttr) ro;
  let total f = List.fold_left (fun a r -> a + f r) 0 ro in
  let metrics =
    Harness.kernel_layers ledger ks
    @ [ ("core.build_ms_p50", med (fun r -> r.build_ms));
        ("campaign.profile_ms", st.setup_s *. 1000.);
        ("campaign.task_build_ms_p50", med (fun r -> r.build_ms));
        ("campaign.task_run_ms_p50", med (fun r -> r.run_ms));
        ("campaign.task_classify_ms_p50", med (fun r -> r.classify_ms));
        ("campaign.task_minor_mwords_p50", med (fun r -> r.words /. 1e6));
        ("parfan.busy_pct", 100. *. sum busy /. sum capacity);
        ("parfan.idle_ms", (sum capacity -. sum busy) /. 1e6 /. n_maps);
        ("parfan.imbalance_pct", sum Parfan.imbalance_pct /. n_maps);
        ("parfan.est_speedup", sum busy /. sum (fun s -> s.Parfan.pf_wall_ns));
        ("trace.overhead_pct", 100. *. ((!traced_ms /. !plain_ms) -. 1.));
        ("sim.cycles_per_run",
         Meter.mean (Array.of_list (List.map (fun r -> float_of_int r.vtime) first_pair)));
        ("sim.ok_pct",
         100. *. float_of_int (total (fun r -> r.Campaign.ro_pass))
         /. float_of_int (max 1 (total (fun r -> r.Campaign.ro_runs))));
        ("sim.mttr_p50_cycles", Histogram.p50 mttr) ]
    @ Harness.gc_metrics !gc (List.length res)
  in
  let files = Harness.write_trace cfg ~workload:"campaign" main ledger metrics in
  { Harness.metrics; digest = digest st; checks = st.checks;
    info = ("samples", string_of_int (List.length res)) :: files }
