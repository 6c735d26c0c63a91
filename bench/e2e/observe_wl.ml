(* observe: the flight-recorder path a user runs as osiris record /
   query / why / replay. An iteration records the suite with three DS
   crashes to a journal and its block index, answers four fixed
   indexed queries, decomposes every request's latency (Critpath +
   Tailprof) and replays the journal. It is the only workload that
   exercises lib/obs and lib/analysis; every other one bypasses them. *)

let n_seeds = 2

(* Four queries of different selectivity and aggregation: a rare-kind
   group-by, one server's latency percentiles, a vtime window rate,
   and a full-scan group-by. *)
let queries =
  List.map
    (fun (filter, agg) ->
       match Query.parse_filter filter with
       | Ok p -> (p, agg)
       | Error m -> invalid_arg ("observe query: " ^ m))
    [ ("kind=crash,restart", Query.Group_by Query.D_server);
      ("server=vfs", Query.Percentiles Query.F_latency);
      ("time>=4000000 time<6000000", Query.Rate 100_000);
      ("", Query.Group_by Query.D_kind) ]

let max_runs cfg = match cfg.Harness.size with Harness.Full -> max_int | Harness.Smoke -> 2

exception Bad of string

let ok_or what = function Ok v -> v | Error m -> raise (Bad (what ^ ": " ^ m))

type st = {
  cfg : Harness.cfg;
  checks : Harness.checks;
  headers : Journal.header array;
  path : string;
  digests : (int, string) Hashtbl.t;  (* seed -> first iteration's digest *)
  journals : (int, string) Hashtbl.t; (* seed -> hex of the journal bytes *)
  vtimes : (int, int) Hashtbl.t;
}

let header ~seed =
  ok_or "header" (Flight.make_header ~seed ~workload:"suite" ~crash:"ds" ~crash_count:3 ())

let create cfg =
  { cfg; checks = Harness.checks ();
    headers = Array.init n_seeds (fun j -> header ~seed:(cfg.Harness.seed + j));
    path = Harness.artifact cfg ~workload:"observe" "journal";
    digests = Hashtbl.create 2; journals = Hashtbl.create 2; vtimes = Hashtbl.create 2 }

let read_file path = In_channel.with_open_bin path In_channel.input_all

let run_queries ?stats ?index bytes =
  List.map
    (fun (filter, agg) -> Query.to_json (ok_or "query" (Query.run ?stats ?index ~filter ~agg bytes)))
    queries

let decode bytes = snd (ok_or "decode" (Journal.read_string bytes))

let why events =
  let cp = Critpath.analyze (Array.to_list events) in
  (cp, Tailprof.profile cp.Critpath.cr_requests)

let replay header bytes =
  let _, stream = ok_or "stream" (Journal.stream_of_string bytes) in
  Flight.replay_stream header ~next:(fun () -> ok_or "stream" (Journal.stream_next stream))

(* What an iteration's outputs must satisfy: a clean recorded halt, a
   replay without divergence, exactly conserved latency breakdowns,
   indexed queries equal to full scans (every tenth iteration), and
   the same journal and answers as the first iteration of its seed. *)
let check_iteration st i ~halt ~bytes ~answers ~events ~cp ~rp =
  let seed = st.headers.(i mod n_seeds).Journal.jh_seed in
  let conserved =
    List.for_all
      (fun b -> Critpath.breakdown_sum b = Critpath.total b)
      cp.Critpath.cr_requests
  in
  let full_scan_agrees = i mod 10 <> 0 || run_queries bytes = answers in
  let journal = Harness.hex bytes in
  let same_journal = Harness.same_as_first st.journals seed journal in
  let n = Array.length events in
  if n > 0 then Hashtbl.replace st.vtimes seed (Journal.event_time events.(n - 1));
  let d =
    Harness.hex
      (String.concat "\n"
         (journal :: string_of_int (List.length cp.Critpath.cr_requests) :: answers))
  in
  Harness.check st.checks
    (halt = Kernel.H_completed 0 && Replay.exit_code rp = 0
     && rp.Replay.rp_halt = halt && conserved && full_scan_agrees && same_journal
     && Harness.same_as_first st.digests seed d)
    (fun () ->
       Printf.sprintf
         "observe iteration %d (seed %d): %s, replay exit %d, conserved %b, full scan agrees %b"
         i seed (Kernel.halt_to_string halt) (Replay.exit_code rp) conserved full_scan_agrees)

let guarded st i f =
  let t0 = Meter.now_ns () in
  try f () with
  | Bad m ->
    Harness.check st.checks false (fun () -> Printf.sprintf "observe iteration %d: %s" i m);
    (Meter.now_ns () -. t0) /. 1e6

let plain st i =
  guarded st i (fun () ->
      let header = st.headers.(i mod n_seeds) in
      let (r, bytes, answers, events, cp, rp), ms =
        Meter.time_ms (fun () ->
            let r = ok_or "record" (Flight.record ~path:st.path header) in
            let bytes = read_file st.path in
            let index =
              ok_or "index" (Journal.read_index_file ~journal:bytes (st.path ^ Journal.index_suffix))
            in
            let answers = run_queries ~index bytes in
            let events = decode bytes in
            let cp, _ = why events in
            (r, bytes, answers, events, cp, replay header bytes))
      in
      check_iteration st i ~halt:r.Flight.rec_halt ~bytes ~answers ~events ~cp ~rp;
      ms)

let setup st =
  snd
    (Harness.setup st.cfg (fun () ->
         let h = header ~seed:st.cfg.Harness.seed in
         let conf = ok_or "spec" (Sysconf.parse h.Journal.jh_spec) in
         ignore (System.build ~arch:h.Journal.jh_arch ~seed:h.Journal.jh_seed conf)))

let digest st =
  Harness.hex
    (String.concat " "
       (List.init n_seeds (fun j ->
            Option.value ~default:"-" (Hashtbl.find_opt st.digests (st.cfg.Harness.seed + j)))))

let run cfg =
  let st = create cfg in
  let setup_s = setup st in
  let chunks, peak_rss_mb =
    Harness.loop ~seconds:cfg.Harness.seconds ~min_runs:n_seeds ~max_runs:(max_runs cfg)
      (plain st)
  in
  let metrics, info = Harness.end_to_end_metrics ~setup_s ~chunks ~peak_rss_mb in
  { Harness.metrics; digest = digest st; checks = st.checks; info }

(* ---- traced run ----

   Flight.record is replicated through System.build ~journal so the
   writer's drain, close and index build can be timed apart; its
   journal must be byte-identical to Flight.record's. *)

type tr = {
  spans : Spans.t;
  ledger : Ledger.t;
  ks : Harness.kstats;
  t : (string, float list) Hashtbl.t;  (* per-phase ms samples *)
  mutable drain_ns : float;
  mutable bytes : int;
  mutable records : int;
  mutable decoded : int;
  mutable decodable : int;
  mutable passed : int;
  mutable mttr : int list;
}

let note tr key ms =
  Hashtbl.replace tr.t key (ms :: Option.value ~default:[] (Hashtbl.find_opt tr.t key))

let timed tr ~parent name f =
  Spans.with_ tr.spans ~parent name (fun id ->
      let v, ms = Meter.time_ms (fun () -> f id) in
      note tr name ms;
      v)

let record tr ~parent st header =
  let w = Journal.to_memory header in
  let cap = Journal.capture w in
  let drain = cap.Kernel.cap_drain in
  cap.Kernel.cap_drain <-
    (fun () ->
       let t0 = Meter.now_ns () in
       drain ();
       tr.drain_ns <- tr.drain_ns +. (Meter.now_ns () -. t0));
  let conf = ok_or "spec" (Sysconf.parse header.Journal.jh_spec) in
  let root =
    ok_or "workload"
      (Flight.workload ~name:header.Journal.jh_workload ~seed:header.Journal.jh_seed)
  in
  let sys =
    timed tr ~parent "build" (fun _ ->
        System.build ~arch:header.Journal.jh_arch ~seed:header.Journal.jh_seed ~journal:w conf)
  in
  let k = System.kernel sys in
  Flight.arm_crash ~count:header.Journal.jh_crash_count k
    (Flight.server_of_name header.Journal.jh_crash);
  Ledger.attach tr.ledger k;
  let ops0 = Kernel.total_ops k and msgs0 = Kernel.messages_delivered k in
  let halt, rms =
    Spans.with_ tr.spans ~parent "run" (fun _ ->
        Meter.time_ms (fun () -> System.run sys ~root))
  in
  Ledger.add_wall tr.ledger rms;
  Harness.add_kernel tr.ks k ~ops0 ~msgs0;
  timed tr ~parent "close" (fun _ -> Journal.close w);
  let bytes = Journal.contents w in
  Harness.write_file st.path bytes;
  timed tr ~parent "index" (fun _ ->
      let ix = ok_or "index" (Journal.build_index ~verify_crc:false bytes) in
      Journal.write_index_file ~path:(st.path ^ Journal.index_suffix) ix);
  tr.bytes <- tr.bytes + Journal.bytes_written w;
  tr.records <- tr.records + Journal.records_written w;
  let r = Testsuite.parse_results (System.log_lines sys) in
  tr.passed <- tr.passed + r.Testsuite.passed;
  tr.mttr <- Kernel.recovery_latencies k @ tr.mttr;
  (halt, bytes)

let traced st tr i =
  guarded st i (fun () ->
      let header = st.headers.(i mod n_seeds) in
      let (halt, bytes, rp), ms =
        Meter.time_ms (fun () ->
            Spans.with_ tr.spans ~parent:0 "iteration" (fun it ->
                let halt, bytes =
                  timed tr ~parent:it "record" (fun id -> record tr ~parent:id st header)
                in
                timed tr ~parent:it "query" (fun q ->
                    let index =
                      ok_or "index"
                        (Journal.read_index_file ~journal:bytes (st.path ^ Journal.index_suffix))
                    in
                    List.iteri
                      (fun j (filter, agg) ->
                         let stats = Journal.scan_stats () in
                         timed tr ~parent:q (Printf.sprintf "q%d" (j + 1)) (fun _ ->
                             ignore (ok_or "query" (Query.run ~stats ~index ~filter ~agg bytes)));
                         tr.decoded <- tr.decoded + stats.Journal.sc_records_decoded;
                         tr.decodable <- tr.decodable + index.Journal.ix_records)
                      queries);
                timed tr ~parent:it "why" (fun w ->
                    let events = timed tr ~parent:w "decode" (fun _ -> decode bytes) in
                    ignore (timed tr ~parent:w "critpath" (fun _ -> why events)));
                (halt, bytes, timed tr ~parent:it "replay" (fun _ -> replay header bytes))))
      in
      Harness.check st.checks
        (halt = Kernel.H_completed 0 && Replay.exit_code rp = 0
         && Harness.same_as_first st.journals header.Journal.jh_seed (Harness.hex bytes))
        (fun () -> Printf.sprintf "observe iteration %d: traced record or replay differs" i);
      ms)

let trace cfg =
  let st = create cfg in
  ignore (setup st);
  let tr =
    { spans = Spans.create ~tid:0 (); ledger = Ledger.create ~shift:6 ~seed:cfg.Harness.seed;
      ks = Harness.kstats (); t = Hashtbl.create 16; drain_ns = 0.; bytes = 0; records = 0;
      decoded = 0; decodable = 0; passed = 0; mttr = [] }
  in
  let p =
    Harness.paired ~seconds:cfg.Harness.seconds ~min_runs:n_seeds ~max_runs:(max_runs cfg)
      (plain st) (traced st tr)
  in
  let n = float_of_int (max 1 tr.ks.Harness.runs) in
  let med key = Meter.median (Array.of_list (Option.value ~default:[] (Hashtbl.find_opt tr.t key))) in
  let seeds = List.init n_seeds (fun j -> cfg.Harness.seed + j) in
  let mttr = Array.of_list (List.map float_of_int tr.mttr) in
  let metrics =
    Harness.kernel_layers tr.ledger tr.ks
    @ [ ("core.build_ms_p50", med "build");
        ("journal.record_ms", med "record");
        ("journal.drain_ms", tr.drain_ns /. 1e6 /. n);
        ("journal.close_ms", med "close");
        ("journal.index_ms", med "index");
        ("journal.bytes_per_event", float_of_int tr.bytes /. float_of_int (max 1 tr.records));
        ("journal.decode_ms", med "decode");
        ("replay.ms", med "replay");
        ("query.ms.q1", med "q1");
        ("query.ms.q2", med "q2");
        ("query.ms.q3", med "q3");
        ("query.ms.q4", med "q4");
        ("query.ms_p50", med "query");
        ("query.decoded_pct",
         100. *. float_of_int tr.decoded /. float_of_int (max 1 tr.decodable));
        ("critpath.ms", med "critpath");
        ("trace.overhead_pct", Harness.overhead_pct p);
        ("sim.cycles_per_run",
         Meter.mean
           (Array.of_list
              (List.map
                 (fun s -> float_of_int (Option.value ~default:0 (Hashtbl.find_opt st.vtimes s)))
                 seeds)));
        ("sim.ok_pct",
         100. *. float_of_int tr.passed /. n /. float_of_int (List.length Testsuite.tests));
        ("sim.mttr_p50_cycles", Meter.median mttr) ]
    @ Harness.gc_metrics p.Harness.plain_gc (Array.length p.Harness.plain_ms)
  in
  let files = Harness.write_trace cfg ~workload:"observe" tr.spans tr.ledger metrics in
  { Harness.metrics; digest = digest st; checks = st.checks;
    info = ("samples", string_of_int (Array.length p.Harness.traced_ms)) :: files }
