(* What the four workloads share: configuration, output checks, the
   metric catalogue, the timed loops and the simulated-state digest. *)

type size = Full | Smoke

type cfg = {
  seed : int;
  seconds : float;  (* measured time; set-up and checks come on top *)
  size : size;
  out : string;     (* directory for journals and trace artifacts *)
}

let setup_reps cfg = match cfg.size with Full -> 11 | Smoke -> 1

(* ---- output checks ----

   A run whose outputs fail a check counts as failed; a check that
   covers the whole workload (a re-run, a jobs:1 oracle) counts as one
   more attempt. *)

type checks = {
  mutable attempted : int;
  mutable failed : int;
  mutable notes : string list;  (* first failures, oldest first *)
}

let checks () = { attempted = 0; failed = 0; notes = [] }

let check c ok what =
  c.attempted <- c.attempted + 1;
  if not ok then begin
    c.failed <- c.failed + 1;
    if List.length c.notes < 10 then c.notes <- c.notes @ [ what () ]
  end

(* [first] remembers the first digest seen per key, and the check
   fails when a later run of the same key disagrees. *)
let same_as_first tbl key digest =
  match Hashtbl.find_opt tbl key with
  | None ->
    Hashtbl.replace tbl key digest;
    true
  | Some d -> d = digest

let hex s = Digest.to_hex (Digest.string s)

(* A JSON number with all its digits; the catalogue has no use for
   non-finite values, so they print as 0. *)
let num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

(* The simulated state a speed-only change must leave identical: final
   vtime, ops, deliveries and the counters of the five core servers. *)
let kernel_digest k =
  hex
    (Marshal.to_string
       ( Kernel.now k,
         Kernel.total_ops k,
         Kernel.messages_delivered k,
         List.map (Kernel.server_stats k) System.core_servers )
       [])

(* ---- what a workload hands back ---- *)

type report = {
  metrics : (string * float) list;  (* catalogue names only *)
  digest : string;                  (* hex sim_digest *)
  checks : checks;
  info : (string * string) list;    (* extra human lines *)
}

(* ---- metric catalogue ----

   Every workload prints every name: a layer it bypasses reads 0. The
   names, units, directions and bounds that runners of the benchmark
   read are in BENCHMARK.json; the runtest smoke rule checks that both
   lists agree. *)

let end_to_end =
  [ ("setup_s", "s");
    ("runs_per_s", "runs/s");
    ("run_ms_p50", "ms");
    ("run_ms_p90", "ms");
    ("minor_mwords_per_run", "Mwords");
    ("peak_rss_mb", "MB") ]

let phases = List.map Kernel.phase_to_string Kernel.all_phases
let servers = [ "pm"; "vfs"; "vm"; "ds"; "rs"; "mfs"; "bdev"; "user" ]

let per_layer =
  [ ("core.build_ms_p50", "ms") ]
  @ List.map (fun p -> ("kernel.host_pct." ^ p, "%")) phases
  @ List.map (fun k -> ("kernel.ns_per_adv." ^ k, "ns")) Ledger.kinds
  @ [ ("kernel.ops_per_run", "count");
      ("kernel.msgs_per_run", "count");
      ("kernel.advances_per_run", "count");
      ("kernel.attributed_pct", "%");
      ("kernel.mops_per_s", "Mops/s");
      ("sched.run_queue_depth_max", "count");
      ("sched.run_queue_depth_mean", "count");
      ("checkpoint.host_pct", "%");
      ("checkpoint.window_opens_per_run", "count");
      ("checkpoint.logged_stores_per_run", "count");
      ("checkpoint.skipped_pct", "%");
      ("checkpoint.dedup_pct", "%");
      ("checkpoint.rollback_bytes_per_run", "bytes");
      ("checkpoint.undo_peak_bytes", "bytes");
      ("recovery.crashes_per_run", "count");
      ("recovery.restarts_per_run", "count");
      ("memimage.restore_bytes_saved_per_run", "bytes") ]
  @ List.map (fun s -> ("servers.host_pct." ^ s, "%")) servers
  @ List.map (fun p -> ("model.vcycle_pct." ^ p, "%")) phases
  @ [ ("campaign.profile_ms", "ms");
      ("campaign.task_build_ms_p50", "ms");
      ("campaign.task_run_ms_p50", "ms");
      ("campaign.task_classify_ms_p50", "ms");
      ("campaign.task_minor_mwords_p50", "Mwords");
      ("parfan.busy_pct", "%");
      ("parfan.idle_ms", "ms");
      ("parfan.imbalance_pct", "%");
      ("parfan.est_speedup", "x");
      ("loadgen.inject_ms", "ms");
      ("loadgen.collect_ms", "ms");
      ("loadgen.shed_pct", "%");
      ("journal.record_ms", "ms");
      ("journal.drain_ms", "ms");
      ("journal.close_ms", "ms");
      ("journal.index_ms", "ms");
      ("journal.bytes_per_event", "bytes");
      ("journal.decode_ms", "ms");
      ("replay.ms", "ms");
      ("query.ms.q1", "ms");
      ("query.ms.q2", "ms");
      ("query.ms.q3", "ms");
      ("query.ms.q4", "ms");
      ("query.ms_p50", "ms");
      ("query.decoded_pct", "%");
      ("critpath.ms", "ms");
      ("gc.minor_collections_per_run", "count");
      ("gc.major_collections_per_run", "count");
      ("gc.promoted_words_per_run", "words");
      ("trace.overhead_pct", "%");
      ("trace.exact_share_diff_pts", "pts");
      ("sim.cycles_per_run", "cycles");
      ("sim.ok_pct", "%");
      ("sim.mttr_p50_cycles", "cycles");
      ("sim.latency_p95_cycles", "cycles") ]

(* ---- timed loops ---- *)

(* Consecutive runs: how many, the host ms they took together and the
   host-speed probe ms over that time; and per timed run its host ms,
   minor words (counted in the run's own domain) and probe ms. *)
type chunk = {
  runs : int;
  wall_ms : float;
  probe_ms : float;
  runs_ms : float array;
  words : float array;
  probes : float array;
}

(* Run [f i] for i = 0, 1, ... until [seconds] have passed and at
   least [min_runs] runs are done, stopping early at [max_runs], with
   the probe timed before each run. [f] returns the host ms of its
   timed part, so checks stay outside it. The runs come back as 20
   equal chunks, with the peak resident set once the first [min_runs]
   runs were done. *)
let loop ~seconds ~min_runs ~max_runs f =
  let t_end = Meter.now_ns () +. (seconds *. 1e9) in
  let runs = ref [] and n = ref 0 and peak = ref 0. in
  while !n < max_runs && (!n < min_runs || Meter.now_ns () < t_end) do
    let p = Probe.time_ms () in
    let w0 = Gc.minor_words () in
    let ms = f !n in
    runs := (ms, Gc.minor_words () -. w0, p) :: !runs;
    incr n;
    if !n = min_runs then peak := Meter.peak_rss_mb ()
  done;
  let runs = Array.of_list (List.rev !runs) in
  let n = Array.length runs in
  let k = max 1 (min 20 n) in
  ( List.init k (fun c ->
        let lo = c * n / k and hi = (c + 1) * n / k in
        let part f = Array.map f (Array.sub runs lo (hi - lo)) in
        let runs_ms = part (fun (ms, _, _) -> ms) and probes = part (fun (_, _, p) -> p) in
        { runs = hi - lo;
          wall_ms = Array.fold_left ( +. ) 0. runs_ms;
          probe_ms = Meter.mean probes;
          runs_ms;
          words = part (fun (_, w, _) -> w);
          probes }),
    !peak )

(* Trace mode: blocks of units run untraced and traced, the same units
   on both sides, until [seconds] pass. The side that goes first
   alternates per block, so warm-up and host drift hit both alike; the
   paired difference is the tracing overhead. GC counters are taken
   over the untraced side only. *)
type paired = {
  plain_ms : float array;
  traced_ms : float array;
  plain_gc : Meter.gc;
}

let paired ~seconds ~min_runs ~max_runs plain traced =
  let t_end = Meter.now_ns () +. (seconds *. 1e9) in
  let block_ns = seconds *. 1e9 /. 16. in
  let pl = ref [] and tr = ref [] and n = ref 0 and gc = ref Meter.gc_zero in
  let blocks = ref 0 in
  while !n < max_runs && (!n < min_runs || Meter.now_ns () < t_end) do
    let start = !n in
    let b_end = Meter.now_ns () +. block_ns in
    let plain_side i =
      let g0 = Meter.gc () in
      pl := plain i :: !pl;
      gc := Meter.gc_add !gc (Meter.gc_since g0)
    in
    let first, second =
      if !blocks mod 2 = 0 then (plain_side, fun i -> tr := traced i :: !tr)
      else ((fun i -> tr := traced i :: !tr), plain_side)
    in
    while !n < max_runs && (!n = start || Meter.now_ns () < b_end) do
      first !n;
      incr n
    done;
    for i = start to !n - 1 do
      second i
    done;
    incr blocks
  done;
  { plain_ms = Array.of_list (List.rev !pl);
    traced_ms = Array.of_list (List.rev !tr);
    plain_gc = !gc }

let sum = Array.fold_left ( +. ) 0.

let overhead_pct p = 100. *. ((sum p.traced_ms /. sum p.plain_ms) -. 1.)

(* ---- metric builders ---- *)

(* One-time preparation, repeated, each time after the probe, and
   reported as the median in reference seconds; the first
   repetition's result is what the workload then uses. *)
let setup cfg f =
  let rep () =
    let p = Probe.time_ms () in
    let v, ms = Meter.time_ms f in
    (v, ms *. Probe.ref_ms /. p)
  in
  let first, s0 = rep () in
  let rest = List.init (setup_reps cfg - 1) (fun _ -> snd (rep ())) in
  (first, Meter.median (Array.of_list (s0 :: rest)) /. 1000.)

(* Host times in reference ms: a chunk's throughput scaled by its
   probe, each run's time by the probe timed for it.
   Allocation is a median, so one run that hangs until its op budget,
   allocating ten times the others, does not move it; memory is the
   peak after a fixed amount of work, so it does not move with the
   run's length. The unscaled figures and the host speed go to the
   human lines. *)
let end_to_end_metrics ~setup_s ~chunks ~peak_rss_mb =
  let all f = Array.concat (List.map f chunks) in
  let ms = all (fun c -> c.runs_ms) and probes = all (fun c -> c.probes) in
  let n = Array.length ms in
  let run_ms = Array.mapi (fun i m -> m *. Probe.ref_ms /. probes.(i)) ms in
  let scale c = Probe.ref_ms /. c.probe_ms in
  let rates f =
    Meter.median
      (Array.of_list
         (List.map (fun c -> float_of_int c.runs *. 1000. /. (c.wall_ms *. f c)) chunks))
  in
  ( [ ("setup_s", setup_s);
      ("runs_per_s", rates scale);
      ("run_ms_p50", Meter.percentile run_ms ~num:1 ~den:2);
      ("run_ms_p90", Meter.percentile run_ms ~num:9 ~den:10);
      ("minor_mwords_per_run", Meter.median (all (fun c -> c.words)) /. 1e6);
      ("peak_rss_mb", peak_rss_mb) ],
    [ ("samples", string_of_int n);
      ("host_speed", num (Meter.median (Array.of_list (List.map scale chunks))));
      ("wall_runs_per_s", num (rates (fun _ -> 1.)));
      ("wall_run_ms_p50", num (Meter.percentile ms ~num:1 ~den:2)) ] )

let gc_metrics (gc : Meter.gc) runs =
  let runs = float_of_int (max 1 runs) in
  [ ("gc.minor_collections_per_run", float_of_int gc.Meter.minor_collections /. runs);
    ("gc.major_collections_per_run", float_of_int gc.Meter.major_collections /. runs);
    ("gc.promoted_words_per_run", gc.Meter.promoted_words /. runs) ]

(* Kernel introspection counters summed over traced runs. *)
type kstats = {
  mutable runs : int;
  mutable ops : int;
  mutable msgs : int;
  mutable window_opens : int;
  mutable logged : int;
  mutable skipped : int;
  mutable deduped : int;
  mutable undo_peak : int;
  mutable rollback_bytes : int;
  mutable restore_saved : int;
  mutable crashes : int;
  mutable restarts : int;
}

let kstats () =
  { runs = 0; ops = 0; msgs = 0; window_opens = 0; logged = 0; skipped = 0;
    deduped = 0; undo_peak = 0; rollback_bytes = 0; restore_saved = 0;
    crashes = 0; restarts = 0 }

(* [ops0]/[msgs0]: the counters when the run phase began, so boot
   traffic is left out. *)
let add_kernel ks k ~ops0 ~msgs0 =
  ks.runs <- ks.runs + 1;
  ks.ops <- ks.ops + Kernel.total_ops k - ops0;
  ks.msgs <- ks.msgs + Kernel.messages_delivered k - msgs0;
  ks.crashes <- ks.crashes + Kernel.crashes k;
  ks.restarts <- ks.restarts + Kernel.restarts k;
  List.iter
    (fun ep ->
       let s = Kernel.server_stats k ep in
       ks.window_opens <- ks.window_opens + s.Kernel.ss_window_opens;
       ks.logged <- ks.logged + s.Kernel.ss_logged_stores;
       ks.skipped <- ks.skipped + s.Kernel.ss_skipped_stores;
       ks.deduped <- ks.deduped + s.Kernel.ss_deduped_stores;
       ks.undo_peak <- max ks.undo_peak s.Kernel.ss_undo_peak_bytes;
       ks.rollback_bytes <- ks.rollback_bytes + s.Kernel.ss_rollback_bytes;
       ks.restore_saved <- ks.restore_saved + s.Kernel.ss_restore_bytes_saved)
    (Kernel.server_endpoints k)

let merge_kstats ~into ks =
  into.runs <- into.runs + ks.runs;
  into.ops <- into.ops + ks.ops;
  into.msgs <- into.msgs + ks.msgs;
  into.window_opens <- into.window_opens + ks.window_opens;
  into.logged <- into.logged + ks.logged;
  into.skipped <- into.skipped + ks.skipped;
  into.deduped <- into.deduped + ks.deduped;
  into.undo_peak <- max into.undo_peak ks.undo_peak;
  into.rollback_bytes <- into.rollback_bytes + ks.rollback_bytes;
  into.restore_saved <- into.restore_saved + ks.restore_saved;
  into.crashes <- into.crashes + ks.crashes;
  into.restarts <- into.restarts + ks.restarts

(* The kernel, scheduler, checkpoint, recovery, server and model
   layers, from the host-ns ledger and the kernel's own counters. *)
let kernel_layers (l : Ledger.t) ks =
  let per_run x = float_of_int x /. float_of_int (max 1 ks.runs) in
  let pct a b = if b = 0 then 0. else 100. *. float_of_int a /. float_of_int b in
  let c = Ledger.cells l in
  List.map
    (fun ph -> ("kernel.host_pct." ^ Kernel.phase_to_string ph, Ledger.phase_host_pct c ph))
    Kernel.all_phases
  @ List.map (fun k -> ("kernel.ns_per_adv." ^ k, Ledger.ns_per_op l c k)) Ledger.kinds
  @ [ ("kernel.ops_per_run", per_run ks.ops);
      ("kernel.msgs_per_run", per_run ks.msgs);
      ("kernel.advances_per_run", per_run (Ledger.advances l));
      ("kernel.attributed_pct", Ledger.attributed_pct l);
      ("kernel.mops_per_s",
       if l.Ledger.wall_ns > 0. then float_of_int ks.ops /. l.Ledger.wall_ns *. 1e3 else 0.);
      ("sched.run_queue_depth_max", float_of_int l.Ledger.q_max);
      ("sched.run_queue_depth_mean", Ledger.queue_mean l);
      ("checkpoint.host_pct",
       List.fold_left (fun a ph -> a +. Ledger.phase_host_pct c ph) 0.
         [ Kernel.Ph_instr; Kernel.Ph_log; Kernel.Ph_checkpoint ]);
      ("checkpoint.window_opens_per_run", per_run ks.window_opens);
      ("checkpoint.logged_stores_per_run", per_run ks.logged);
      ("checkpoint.skipped_pct", pct ks.skipped (ks.logged + ks.skipped));
      ("checkpoint.dedup_pct", pct ks.deduped ks.logged);
      ("checkpoint.rollback_bytes_per_run", per_run ks.rollback_bytes);
      ("checkpoint.undo_peak_bytes", float_of_int ks.undo_peak);
      ("recovery.crashes_per_run", per_run ks.crashes);
      ("recovery.restarts_per_run", per_run ks.restarts);
      ("memimage.restore_bytes_saved_per_run", per_run ks.restore_saved) ]
  @ List.mapi
      (fun i s -> ("servers.host_pct." ^ s, Ledger.bucket_host_pct c (i + 1)))
      servers
  @ List.map
      (fun ph -> ("model.vcycle_pct." ^ Kernel.phase_to_string ph, Ledger.phase_vcycle_pct l ph))
      Kernel.all_phases

(* ---- trace artifacts ---- *)

let rec mkdir_p d =
  if d <> "" && d <> "." && d <> "/" && not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Sys.mkdir d 0o755 with Sys_error _ when Sys.file_exists d -> ()
  end

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

let artifact cfg ~workload suffix =
  mkdir_p cfg.out;
  Filename.concat cfg.out (Printf.sprintf "%s-seed%d.%s" workload cfg.seed suffix)

(* Spans as Perfetto JSON, the ledger as a folded host-ns profile, and
   the per-layer metrics with span self times as one JSON document. *)
let write_trace cfg ~workload (spans : Spans.t) (l : Ledger.t) metrics =
  let spans_path = artifact cfg ~workload "spans.json" in
  write_file spans_path (Spans.to_chrome spans);
  let folded_path = artifact cfg ~workload "hostns.folded" in
  write_file folded_path (Ledger.folded (Ledger.cells l));
  let b = Buffer.create 4096 in
  Printf.bprintf b "{\"workload\":%s,\"seed\":%d,\"metrics\":{"
    (Chrome_trace.escaped workload) cfg.seed;
  List.iteri
    (fun i (n, v) ->
       if i > 0 then Buffer.add_char b ',';
       Printf.bprintf b "%s:%s" (Chrome_trace.escaped n) (num v))
    metrics;
  Buffer.add_string b "},\"spans\":[";
  List.iteri
    (fun i (name, n, tot, self) ->
       if i > 0 then Buffer.add_char b ',';
       Printf.bprintf b "{\"name\":%s,\"count\":%d,\"total_ms\":%.3f,\"self_ms\":%.3f}"
         (Chrome_trace.escaped name) n tot self)
    (Spans.self_times spans);
  Buffer.add_string b "]}\n";
  let layers_path = artifact cfg ~workload "layers.json" in
  write_file layers_path (Buffer.contents b);
  [ ("spans", spans_path); ("hostns", folded_path); ("layers", layers_path) ]
