(* Tests for the flight recorder: journal codec round-trips, damaged
   input handling (truncation, bit flips — Result, never an escaped
   exception), ring-mode recording's crash snapshot, record->replay
   determinism (exact seed-42 fixture plus a QCheck sweep over
   seeds/specs/crash targets), the intentional cost-perturbation
   divergence fixture, and causal postmortem attribution. *)

let ds = Endpoint.ds

(* ------------------------------------------------------------------ *)
(* Codec round-trips                                                   *)
(* ------------------------------------------------------------------ *)

let sample_header =
  { Journal.jh_version = Journal.version;
    jh_seed = 42;
    jh_arch = Kernel.Microkernel;
    jh_spec = "enhanced,ds=stateless";
    jh_workload = "quickstart";
    jh_crash = "ds";
    jh_crash_count = 2;
    jh_cost_fingerprint = Costs.fingerprint Costs.microkernel }

(* One event per constructor (every E_halt variant included), with
   field values off the single-byte varint fast path where useful. *)
let sample_events =
  [ Kernel.E_msg { time = 3; src = Endpoint.first_user; dst = ds;
                   tag = Message.Tag.T_ds_publish; call = true; rid = 1;
                   parent = 0; cls = Seep.State_modifying };
    Kernel.E_window_open { time = 4; ep = ds; rid = 1 };
    Kernel.E_checkpoint { time = 5; ep = ds; rid = 1; cycles = 1_000 };
    Kernel.E_store_logged { time = 6; ep = ds; rid = 1; bytes = 24 };
    Kernel.E_kcall { time = 7; ep = ds; rid = 1; kc = "mk_clone" };
    Kernel.E_crash { time = 8; ep = ds; reason = "injected for tracing";
                     window_open = true; rid = 1; policy = "stateless" };
    Kernel.E_hang_detected { time = 9; ep = Endpoint.vm };
    Kernel.E_rollback_begin { time = 10; ep = ds; rid = 1 };
    Kernel.E_rollback_end { time = 11; ep = ds; rid = 1; bytes = 24 };
    Kernel.E_restart { time = 700_000; ep = ds; rid = 1;
                       policy = "stateless" };
    Kernel.E_window_close { time = 700_001; ep = ds; rid = 1;
                            policy = false };
    Kernel.E_reply { time = 700_002; src = ds; dst = Endpoint.first_user;
                     tag = Message.Tag.T_ds_publish; rid = 1 };
    Kernel.E_spawn { time = 700_002; ep = Endpoint.first_user + 1;
                     parent = Endpoint.first_user };
    Kernel.E_halt { time = 700_003; halt = Kernel.H_completed 0 };
    Kernel.E_halt { time = 700_004; halt = Kernel.H_shutdown "rs says so" };
    Kernel.E_halt { time = 700_005; halt = Kernel.H_panic "oops" };
    Kernel.E_halt { time = 700_006; halt = Kernel.H_hang } ]

let test_roundtrip_all_constructors () =
  let encoded = Journal.of_events sample_header sample_events in
  match Journal.read_string encoded with
  | Error m -> Alcotest.fail ("round trip failed: " ^ m)
  | Ok (header, events) ->
    Alcotest.(check bool) "header survives" true (header = sample_header);
    Alcotest.(check int) "all records decoded" (List.length sample_events)
      (Array.length events);
    Alcotest.(check bool) "events identical" true
      (Array.to_list events = sample_events)

(* The entry layout has one writer, [Kernel.capture_event] (the
   emission sites' appenders), and the event hook reads it back with
   the decoder [Kernel.iter_capture] walks. Every constructor must
   decode structurally equal, with the entries tiling the log exactly,
   so an appender and the decoder that disagree on an entry's slot or
   string count fail here. The last append starts one slot short of
   its room, so the drain runs first. *)
let test_entry_layout_round_trip () =
  let log ~slots ~strs =
    let drains = ref 0 in
    let c =
      { Kernel.cap_buf = Array.make slots 0; cap_pos = 0;
        cap_strs = Array.make strs ""; cap_spos = 0; cap_drain = ignore }
    in
    c.Kernel.cap_drain <-
      (fun () ->
         incr drains;
         c.Kernel.cap_buf <- Array.append c.Kernel.cap_buf (Array.make 16 0);
         c.Kernel.cap_strs <- Array.append c.Kernel.cap_strs [| ""; "" |]);
    (c, drains)
  in
  let sized, _ = log ~slots:0 ~strs:0 in
  List.iter (Kernel.capture_event sized) sample_events;
  (* room for the sample stream exactly, then an E_msg (9 slots) *)
  let c, drains =
    log ~slots:(sized.Kernel.cap_pos + 8) ~strs:sized.Kernel.cap_spos
  in
  let events = sample_events @ [ List.hd sample_events ] in
  List.iter (Kernel.capture_event c) events;
  Alcotest.(check int) "only the last append drained" 1 !drains;
  let decoded = ref [] in
  Kernel.iter_capture c (fun ev -> decoded := ev :: !decoded);
  Alcotest.(check bool) "decode . encode = id" true (List.rev !decoded = events)

let test_empty_journal_roundtrip () =
  match Journal.read_string (Journal.of_events sample_header []) with
  | Error m -> Alcotest.fail ("empty journal failed: " ^ m)
  | Ok (header, events) ->
    Alcotest.(check bool) "header survives" true (header = sample_header);
    Alcotest.(check int) "zero events" 0 (Array.length events)

let test_writer_counters () =
  let w = Journal.to_memory sample_header in
  List.iter (Journal.write w) sample_events;
  Journal.close w;
  Alcotest.(check int) "records counted (header excluded)"
    (List.length sample_events)
    (Journal.records_written w);
  Alcotest.(check int) "bytes counted exactly"
    (String.length (Journal.contents w))
    (Journal.bytes_written w);
  (* writes after close are dropped, not appended *)
  Journal.write w (List.hd sample_events);
  Alcotest.(check int) "write after close is a no-op"
    (List.length sample_events)
    (Journal.records_written w)

(* Byte pins for every frame-length width the codec writes: a header
   whose payload needs a 2-byte length, event payloads of 2, 3 (also
   larger than the 64 KiB staging buffer) and 4 length bytes, small
   events between them on the delta chains, and a sidecar with several
   block records. The digests were taken from the codec before it was
   rebuilt around one framer; any framing change moves them. *)
let pattern n seed = String.init n (fun i -> Char.chr (32 + ((i + seed) mod 95)))

let wide_header =
  { sample_header with jh_spec = "enhanced," ^ pattern 128 0 }

let wide_events =
  [ List.hd sample_events;
    Kernel.E_kcall { time = 20; ep = ds; rid = 1; kc = pattern 16_001 1 };
    Kernel.E_crash { time = 21; ep = ds; reason = pattern 19_000 2;
                     window_open = true; rid = 1; policy = pattern 1_000 3 };
    Kernel.E_window_open { time = 22; ep = ds; rid = 2 };
    Kernel.E_restart { time = 700_000; ep = ds; rid = 2;
                       policy = pattern 70_000 4 };
    Kernel.E_rollback_end { time = 700_001; ep = ds; rid = 2; bytes = 1 lsl 40 };
    Kernel.E_halt { time = 700_002;
                    halt = Kernel.H_shutdown (pattern ((1 lsl 21) + 1) 5) } ]

(* The byte width of each frame's length field, walking the frames
   after the 8-byte magic. *)
let frame_widths s =
  let rec varint p w acc =
    let b = Char.code s.[p] in
    let acc = acc lor ((b land 0x7f) lsl (7 * w)) in
    if b < 0x80 then (p + 1, w + 1, acc) else varint (p + 1) (w + 1) acc
  in
  let rec walk p acc =
    if p >= String.length s then List.rev acc
    else
      let p, w, len = varint p 0 0 in
      walk (p + len + 4) (w :: acc)
  in
  walk 8 []

let test_wide_record_bytes () =
  let encoded = Journal.of_events wide_header wide_events in
  Alcotest.(check (list int)) "frame length widths" [ 2; 2; 2; 3; 2; 3; 2; 4 ]
    (frame_widths encoded);
  (match Journal.read_string encoded with
   | Error m -> Alcotest.fail ("round trip failed: " ^ m)
   | Ok (header, events) ->
     Alcotest.(check bool) "header survives" true (header = wide_header);
     Alcotest.(check bool) "events identical" true
       (Array.to_list events = wide_events));
  Alcotest.(check string) "journal bytes" "701d95b223f98475f562a25f730e1661"
    (Digest.to_hex (Digest.string encoded));
  match Journal.build_index ~block_records:2 encoded with
  | Error m -> Alcotest.fail ("index: " ^ m)
  | Ok ix ->
    let bytes = Journal.index_to_string ix in
    Alcotest.(check (list int)) "index frame length widths" [ 1; 1; 1; 1; 1 ]
      (frame_widths bytes);
    Alcotest.(check string) "index bytes" "ebceb94cac8a87c43b366297f03d38d1"
      (Digest.to_hex (Digest.string bytes))

(* ------------------------------------------------------------------ *)
(* Damaged input: always Error, never an escaped exception             *)
(* ------------------------------------------------------------------ *)

let expect_error label = function
  | Error m ->
    Alcotest.(check bool) (label ^ ": error message nonempty") true
      (String.length m > 0)
  | Ok _ -> Alcotest.fail (label ^ ": damaged journal decoded as Ok")

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec scan i =
    i + nl <= hl && (String.sub hay i nl = needle || scan (i + 1))
  in
  scan 0

let test_bad_magic () =
  expect_error "empty input" (Journal.read_string "");
  expect_error "short input" (Journal.read_string "OSIR");
  match Journal.read_string "NOTAJRNL garbage here" with
  | Error m ->
    Alcotest.(check bool) "names the magic" true (contains ~needle:"magic" m)
  | Ok _ -> Alcotest.fail "garbage decoded as Ok"

let test_truncation_every_prefix () =
  (* Truncation mid-record must decode to Error; truncation exactly at
     a record boundary reads as a valid shorter journal (that is what
     a crash-interrupted recording leaves after its last completed
     flush, and ring journals legitimately end before the halt) — but
     then the decoded events must be a strict prefix, never altered
     data. Sweep every prefix length and assert the dichotomy. *)
  let encoded = Journal.of_events sample_header sample_events in
  let boundaries = ref 0 in
  for len = 0 to String.length encoded - 1 do
    match Journal.read_string (String.sub encoded 0 len) with
    | Error _ -> ()
    | Ok (h, evs) ->
      incr boundaries;
      let evs = Array.to_list evs in
      let rec is_prefix xs ys =
        match xs, ys with
        | [], _ -> true
        | x :: xs, y :: ys -> x = y && is_prefix xs ys
        | _ :: _, [] -> false
      in
      if h <> sample_header
         || List.length evs >= List.length sample_events
         || not (is_prefix evs sample_events)
      then
        Alcotest.fail
          (Printf.sprintf
             "truncation at byte %d decoded to altered data" len)
  done;
  (* exactly one clean boundary per record frame (header included) *)
  Alcotest.(check int) "only record boundaries decode"
    (List.length sample_events) !boundaries;
  match Journal.read_string encoded with
  | Ok _ -> ()
  | Error m -> Alcotest.fail ("full journal failed to decode: " ^ m)

let test_bitflip_every_byte () =
  (* flipping any single byte must surface as Error: the CRC covers
     payloads, framing damage shifts the CRC check, and magic/header
     damage is caught structurally *)
  let encoded = Journal.of_events sample_header sample_events in
  let b = Bytes.of_string encoded in
  for i = 0 to Bytes.length b - 1 do
    let orig = Bytes.get b i in
    Bytes.set b i (Char.chr (Char.code orig lxor 0x40));
    (match Journal.read_string (Bytes.to_string b) with
     | Error _ -> ()
     | Ok (h, evs) ->
       (* the flip must at least not silently alter the decode *)
       if h <> sample_header || Array.to_list evs <> sample_events then
         Alcotest.fail
           (Printf.sprintf "bit flip at byte %d silently altered decode" i));
    Bytes.set b i orig
  done

let test_crc_error_names_record () =
  (* flip a byte inside the last record's payload: the error must name
     the damaged record and mention the CRC *)
  let encoded = Journal.of_events sample_header sample_events in
  let b = Bytes.of_string encoded in
  let i = Bytes.length b - 6 in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0xff));
  (match Journal.read_string (Bytes.to_string b) with
   | Error m ->
     Alcotest.(check bool) "mentions CRC" true (contains ~needle:"CRC" m);
     Alcotest.(check bool) "names the record" true
       (contains
          ~needle:
            (Printf.sprintf "record %d" (List.length sample_events - 1))
          m)
   | Ok _ -> Alcotest.fail "corrupted CRC decoded as Ok")

let test_trailing_garbage () =
  let encoded = Journal.of_events sample_header sample_events in
  expect_error "trailing garbage" (Journal.read_string (encoded ^ "xx"))

let test_maximal_frame_length () =
  (* A 9-byte frame length of max_int after a valid header: the bounds
     check must not overflow, and every reader must answer Error. *)
  let huge = "\xff\xff\xff\xff\xff\xff\xff\xff\x3f" in
  let encoded = Journal.of_events sample_header [] ^ huge in
  expect_error "read_string" (Journal.read_string encoded);
  (match Journal.stream_of_string encoded with
   | Error m -> Alcotest.fail ("header rejected: " ^ m)
   | Ok (_, st) -> expect_error "stream_next" (Journal.stream_next st));
  expect_error "fold"
    (Journal.fold encoded ~init:() ~f:(fun () _ -> ()));
  expect_error "build_index"
    (Journal.build_index ~verify_crc:false encoded);
  let journal = Journal.of_events sample_header sample_events in
  match Journal.build_index journal with
  | Error m -> Alcotest.fail ("build_index: " ^ m)
  | Ok ix ->
    let idx = Journal.index_to_string ix in
    expect_error "index_of_string"
      (Journal.index_of_string ~journal (String.sub idx 0 8 ^ huge))

let test_read_file_missing () =
  expect_error "missing file"
    (Journal.read_file "/nonexistent/osiris-test.journal")

(* ------------------------------------------------------------------ *)
(* Record -> replay: the seed-42 acceptance fixture                    *)
(* ------------------------------------------------------------------ *)

let with_temp_journal f =
  let path = Filename.temp_file "osiris_test" ".journal" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let seed42_header () =
  match Flight.make_header ~crash:"ds" () with
  | Ok h -> h
  | Error m -> Alcotest.fail ("make_header: " ^ m)

(* Record the seed-42 ds-crash quickstart once; everything below reads
   from this journal. *)
let seed42_journal =
  lazy
    (with_temp_journal (fun path ->
         let header = seed42_header () in
         match Flight.record ~path header with
         | Error m -> Alcotest.fail ("record: " ^ m)
         | Ok r ->
           (match Journal.read_file path with
            | Error m -> Alcotest.fail ("read back: " ^ m)
            | Ok (h, events) -> (r, h, events))))

(* One encoder, two ways in: a recording appends through the kernel
   capture [System.build ?journal] installs, and [of_events] re-encodes
   the hook's events of the same run with [Kernel.capture_event]. The
   hook's events are decoded from the appended entries, so the
   journals are byte-identical only if decode . encode is the identity
   over a real run. *)
let check_write_identity header captured =
  let events = ref [] in
  ignore (Flight.run ~event_hook:(fun ev -> events := ev :: !events) header);
  let written = Journal.of_events header (List.rev !events) in
  Alcotest.(check int) "same size" (String.length captured)
    (String.length written);
  Alcotest.(check bool) "byte-identical journals" true
    (String.equal captured written)

let test_capture_write_identity () =
  with_temp_journal (fun path ->
      let header = seed42_header () in
      (match Flight.record ~path header with
       | Error m -> Alcotest.fail ("record: " ^ m)
       | Ok _ -> ());
      check_write_identity header
        (In_channel.with_open_bin path In_channel.input_all))

(* Every full decode path allocates what it hands back and a constant
   besides: no per-record cursor, tuple, error label or list cell. The
   bound is the words reachable from the results (events, their
   strings, and the array or [Ok (Some _)] cells around them) plus
   [slack] words for the header and the walker. *)
let test_decode_allocation () =
  let _, header, events = Lazy.force seed42_journal in
  let bytes = Journal.of_events header (Array.to_list events) in
  let n = Array.length events in
  let slack = 256 in
  let check label ~allocated ~returned =
    if allocated > returned + slack then
      Alcotest.failf "%s: %d minor words for %d events, returned %d" label
        allocated n returned
  in
  let minor () = int_of_float (Gc.minor_words ()) in
  let m0 = minor () in
  let r = Journal.read_string bytes in
  let m1 = minor () in
  check "read_string" ~allocated:(m1 - m0)
    ~returned:(Obj.reachable_words (Obj.repr r));
  (* the result slots exist before the measured loops start *)
  let results = Array.make (n + 1) (Ok None) in
  let st =
    match Journal.stream_of_string bytes with
    | Ok (_, st) -> st
    | Error m -> Alcotest.fail m
  in
  let m0 = minor () in
  for i = 0 to n do
    results.(i) <- Journal.stream_next st
  done;
  let m1 = minor () in
  check "stream_next" ~allocated:(m1 - m0)
    ~returned:(Obj.reachable_words (Obj.repr results) - (n + 2));
  let folded = Array.make n (List.hd sample_events) in
  let m0 = minor () in
  let r =
    Journal.fold bytes ~init:0 ~f:(fun i ev -> folded.(i) <- ev; i + 1)
  in
  let m1 = minor () in
  Alcotest.(check bool) "fold saw every event" true (r = Ok n);
  check "fold" ~allocated:(m1 - m0)
    ~returned:(Obj.reachable_words (Obj.repr folded) - (n + 1))

let test_record_seed42 () =
  let r, h, events = Lazy.force seed42_journal in
  Alcotest.(check bool) "run completed" true
    (match r.Flight.rec_halt with Kernel.H_completed _ -> true | _ -> false);
  Alcotest.(check int) "every event journaled" r.Flight.rec_records
    (Array.length events);
  Alcotest.(check bool) "header round-trips" true (h = seed42_header ());
  Alcotest.(check bool) "the injected ds crash is recorded" true
    (Array.exists
       (function Kernel.E_crash { ep; _ } -> ep = ds | _ -> false)
       events);
  Alcotest.(check bool) "journal ends at the halt" true
    (match events.(Array.length events - 1) with
     | Kernel.E_halt _ -> true
     | _ -> false)

let test_replay_seed42_identical () =
  let _, header, events = Lazy.force seed42_journal in
  let outcome = Flight.replay header events in
  Alcotest.(check bool) "zero divergences" true
    (outcome.Replay.rp_divergence = None);
  Alcotest.(check int) "exit code 0" 0 (Replay.exit_code outcome);
  Alcotest.(check bool) "no cost mismatch" false
    outcome.Replay.rp_cost_mismatch;
  Alcotest.(check int) "replayed every record" outcome.Replay.rp_recorded
    outcome.Replay.rp_replayed;
  Alcotest.(check bool) "verdict rendered" true
    (contains ~needle:"IDENTICAL" (Replay.render outcome))

(* The intentional-divergence fixture: one perturbed cost-table entry
   must be pinpointed at the exact first divergent record, with its
   rid. The expected index is derived independently by re-running the
   system under the perturbed table and diffing by hand. *)
let perturbed_costs () =
  { Costs.microkernel with
    Costs.c_reply = Costs.microkernel.Costs.c_reply + 1 }

let test_perturbed_cost_divergence () =
  let _, header, events = Lazy.force seed42_journal in
  let costs = perturbed_costs () in
  (* independent ground truth: collect the perturbed run's stream *)
  let replayed = ref [] in
  let conf =
    match Sysconf.parse header.Journal.jh_spec with
    | Ok c -> c
    | Error m -> Alcotest.fail m
  in
  let sys =
    System.build ~arch:header.Journal.jh_arch ~seed:header.Journal.jh_seed
      ~costs ~event_hook:(fun ev -> replayed := ev :: !replayed) conf
  in
  Flight.arm_crash ~count:header.Journal.jh_crash_count (System.kernel sys)
    (Some ds);
  let root =
    match
      Flight.workload ~name:header.Journal.jh_workload
        ~seed:header.Journal.jh_seed
    with
    | Ok r -> r
    | Error m -> Alcotest.fail m
  in
  ignore (System.run sys ~root);
  let replayed = Array.of_list (List.rev !replayed) in
  let expected_index =
    let n = min (Array.length events) (Array.length replayed) in
    let rec scan i =
      if i >= n then i else if events.(i) <> replayed.(i) then i
      else scan (i + 1)
    in
    scan 0
  in
  Alcotest.(check bool) "the perturbation really diverges" true
    (expected_index < Array.length events);
  (* now the replay layer must find the same first divergence *)
  let outcome = Flight.replay ~costs header events in
  Alcotest.(check int) "exit code 2" 2 (Replay.exit_code outcome);
  Alcotest.(check bool) "fingerprint flags the table" true
    outcome.Replay.rp_cost_mismatch;
  (match outcome.Replay.rp_divergence with
   | None -> Alcotest.fail "no divergence reported"
   | Some d ->
     Alcotest.(check int) "first divergent record pinpointed"
       expected_index d.Replay.div_index;
     Alcotest.(check bool) "recorded side is the journal's record" true
       (d.Replay.div_recorded = Some events.(expected_index));
     Alcotest.(check int) "rid is the recorded event's"
       (Journal.event_rid events.(expected_index))
       d.Replay.div_rid;
     (match d.Replay.div_chain with
      | [] -> Alcotest.(check int) "root context" 0 d.Replay.div_rid
      | rid :: _ ->
        Alcotest.(check int) "chain starts at the divergent rid"
          d.Replay.div_rid rid))

(* Every field of every event kind takes part in the replay's compare:
   each sample event, replayed with one field changed, diverges at
   that record; replayed as a decoded copy (equal, not the same
   strings), it does not. *)
let one_field_changed (e : Kernel.event) : Kernel.event list =
  let s x = x ^ "'" in
  match e with
  | E_msg r ->
    [ E_msg { r with time = r.time + 1 }; E_msg { r with src = r.src + 1 };
      E_msg { r with dst = r.dst + 1 }; E_msg { r with tag = Message.Tag.T_ping };
      E_msg { r with call = not r.call }; E_msg { r with rid = r.rid + 1 };
      E_msg { r with parent = r.parent + 1 }; E_msg { r with cls = Seep.Reply } ]
  | E_reply r ->
    [ E_reply { r with time = r.time + 1 }; E_reply { r with src = r.src + 1 };
      E_reply { r with dst = r.dst + 1 }; E_reply { r with tag = Message.Tag.T_ping };
      E_reply { r with rid = r.rid + 1 } ]
  | E_window_open r ->
    [ E_window_open { r with time = r.time + 1 }; E_window_open { r with ep = r.ep + 1 };
      E_window_open { r with rid = r.rid + 1 } ]
  | E_window_close r ->
    [ E_window_close { r with time = r.time + 1 };
      E_window_close { r with ep = r.ep + 1 }; E_window_close { r with rid = r.rid + 1 };
      E_window_close { r with policy = not r.policy } ]
  | E_checkpoint r ->
    [ E_checkpoint { r with time = r.time + 1 }; E_checkpoint { r with ep = r.ep + 1 };
      E_checkpoint { r with rid = r.rid + 1 }; E_checkpoint { r with cycles = r.cycles + 1 } ]
  | E_store_logged r ->
    [ E_store_logged { r with time = r.time + 1 };
      E_store_logged { r with ep = r.ep + 1 }; E_store_logged { r with rid = r.rid + 1 };
      E_store_logged { r with bytes = r.bytes + 1 } ]
  | E_kcall r ->
    [ E_kcall { r with time = r.time + 1 }; E_kcall { r with ep = r.ep + 1 };
      E_kcall { r with rid = r.rid + 1 }; E_kcall { r with kc = s r.kc } ]
  | E_crash r ->
    [ E_crash { r with time = r.time + 1 }; E_crash { r with ep = r.ep + 1 };
      E_crash { r with reason = s r.reason };
      E_crash { r with window_open = not r.window_open };
      E_crash { r with rid = r.rid + 1 }; E_crash { r with policy = s r.policy } ]
  | E_hang_detected r ->
    [ E_hang_detected { r with time = r.time + 1 }; E_hang_detected { r with ep = r.ep + 1 } ]
  | E_rollback_begin r ->
    [ E_rollback_begin { r with time = r.time + 1 };
      E_rollback_begin { r with ep = r.ep + 1 }; E_rollback_begin { r with rid = r.rid + 1 } ]
  | E_rollback_end r ->
    [ E_rollback_end { r with time = r.time + 1 }; E_rollback_end { r with ep = r.ep + 1 };
      E_rollback_end { r with rid = r.rid + 1 };
      E_rollback_end { r with bytes = r.bytes + 1 } ]
  | E_restart r ->
    [ E_restart { r with time = r.time + 1 }; E_restart { r with ep = r.ep + 1 };
      E_restart { r with rid = r.rid + 1 }; E_restart { r with policy = s r.policy } ]
  | E_halt r ->
    E_halt { r with time = r.time + 1 }
    :: List.map
         (fun halt -> Kernel.E_halt { r with halt })
         (match r.halt with
          | H_completed n -> [ Kernel.H_completed (n + 1); H_hang ]
          | H_shutdown m -> [ H_shutdown (s m); H_panic m ]
          | H_panic m -> [ H_panic (s m); H_shutdown m ]
          | H_hang -> [ H_completed 0 ])
  | E_spawn r ->
    [ E_spawn { r with time = r.time + 1 }; E_spawn { r with ep = r.ep + 1 };
      E_spawn { r with parent = r.parent + 1 } ]

let test_replay_compares_every_field () =
  let replay recorded replayed =
    Replay.run
      ~exec:(fun _ ~hook ->
          hook replayed;
          Kernel.H_completed 0)
      sample_header [| recorded |]
  in
  let copies =
    match Journal.read_string (Journal.of_events sample_header sample_events) with
    | Ok (_, events) -> Array.to_list events
    | Error m -> Alcotest.fail m
  in
  let changed = ref 0 in
  List.iter2
    (fun e copy ->
       Alcotest.(check bool) ("a copy replays: " ^ Replay.pp_event e) true
         ((replay e copy).Replay.rp_divergence = None);
       List.iter
         (fun v ->
            incr changed;
            match (replay e v).Replay.rp_divergence with
            | Some d -> Alcotest.(check int) "diverges at the record" 0 d.Replay.div_index
            | None ->
              Alcotest.failf "%s replayed as %s: no divergence" (Replay.pp_event e)
                (Replay.pp_event v))
         (one_field_changed e))
    sample_events copies;
  Alcotest.(check int) "every field of the sample events changed" 65 !changed

let prop_record_replay_deterministic =
  QCheck.Test.make
    ~name:"record->replay yields zero divergences (seeds/specs/crashes)"
    ~count:6
    QCheck.(int_range 0 10_000)
    (fun seed ->
       let spec =
         match seed mod 3 with
         | 0 -> "enhanced"
         | 1 -> "stateless"
         | _ -> "enhanced,ds=stateless,vm=pessimistic/3"
       in
       let crash =
         match seed mod 4 with
         | 0 -> "none"
         | 1 -> "pm"
         | 2 -> "vfs"
         | _ -> "ds"
       in
       match
         Flight.make_header ~seed ~spec ~workload:"workgen" ~crash ()
       with
       | Error m -> QCheck.Test.fail_report m
       | Ok header ->
         (* in-memory record through the same System.build path the
            file recorder uses *)
         let w = Journal.to_memory header in
         ignore (Flight.run ~event_hook:(Journal.write w) header);
         Journal.close w;
         (match Journal.read_string (Journal.contents w) with
          | Error m -> QCheck.Test.fail_report ("decode: " ^ m)
          | Ok (h, events) ->
            h = header
            && (let outcome = Flight.replay header events in
                Replay.exit_code outcome = 0
                && outcome.Replay.rp_divergence = None
                && outcome.Replay.rp_replayed = Array.length events)))

(* ------------------------------------------------------------------ *)
(* Ring mode: crash history retrievable without full-fidelity cost     *)
(* ------------------------------------------------------------------ *)

let is_crash = function Kernel.E_crash _ -> true | _ -> false

(* [crashes] crashes on the suite workload, each followed by recovery
   traffic that keeps evicting ring slots: the spill must be the ring as
   it stood at the newest crash, byte for byte the journal [of_events]
   writes for that slice of a full recording of the same header. *)
let check_ring_spill ~crashes =
  let capacity = 64 in
  let header =
    match
      Flight.make_header ~workload:"suite" ~crash:"ds" ~crash_count:crashes ()
    with
    | Ok h -> h
    | Error m -> Alcotest.fail ("make_header: " ^ m)
  in
  let full =
    with_temp_journal (fun path ->
        (match Flight.record ~path ~index:false header with
         | Error m -> Alcotest.fail ("full record: " ^ m)
         | Ok _ -> ());
        match Journal.read_file path with
        | Error m -> Alcotest.fail ("full journal: " ^ m)
        | Ok (_, events) -> events)
  in
  let crash_at =
    List.filter (fun i -> is_crash full.(i))
      (List.init (Array.length full) Fun.id)
  in
  Alcotest.(check int) "crashes in the full recording" crashes
    (List.length crash_at);
  let newest = List.nth crash_at (crashes - 1) in
  (* enough traffic after the newest crash to evict it from the ring *)
  Alcotest.(check bool) "crash evicted from the live ring" true
    (Array.length full - 1 - newest >= capacity);
  let first = max 0 (newest + 1 - capacity) in
  let slice = Array.to_list (Array.sub full first (newest + 1 - first)) in
  with_temp_journal (fun path ->
      match Flight.record ~path ~ring:capacity ~index:false header with
      | Error m -> Alcotest.fail ("ring record: " ^ m)
      | Ok r ->
        Alcotest.(check int) "a snapshot per crash" crashes
          r.Flight.rec_snapshots;
        Alcotest.(check int) "ring bound respected" capacity
          r.Flight.rec_records;
        let spilled = In_channel.with_open_bin path In_channel.input_all in
        (match Journal.read_string spilled with
         | Error m -> Alcotest.fail ("ring journal: " ^ m)
         | Ok (_, events) ->
           Alcotest.(check bool) "spill ends at the newest crash" true
             (events.(Array.length events - 1) = full.(newest)));
        Alcotest.(check bool) "spill = of_events over the full slice" true
          (String.equal spilled (Journal.of_events header slice)))

(* One crash: the snapshot is the pre-crash window, frozen even though
   the ring moves on. *)
let test_ring_snapshot_frozen_at_crash () = check_ring_spill ~crashes:1

(* Three crashes: the third (newest) snapshot replaces the others. *)
let test_ring_newest_crash_wins () = check_ring_spill ~crashes:3

let test_ring_mode_crash_snapshot () =
  with_temp_journal (fun path ->
      let header = seed42_header () in
      match Flight.record ~path ~ring:64 header with
      | Error m -> Alcotest.fail ("ring record: " ^ m)
      | Ok r ->
        Alcotest.(check int) "one crash snapshot" 1 r.Flight.rec_snapshots;
        Alcotest.(check bool) "ring bound respected" true
          (r.Flight.rec_records <= 64);
        (match Journal.read_file path with
         | Error m -> Alcotest.fail ("ring journal: " ^ m)
         | Ok (_, events) ->
           let n = Array.length events in
           Alcotest.(check int) "spilled exactly the snapshot"
             r.Flight.rec_records n;
           (* frozen at the crash: the newest event is the E_crash *)
           Alcotest.(check bool) "snapshot ends at the crash" true
             (n > 0 && is_crash events.(n - 1));
           (* and postmortem still works on the partial history *)
           let report = Postmortem.analyze header events in
           Alcotest.(check bool) "journal ends before halt" true
             (report.Postmortem.pm_halt = None);
           Alcotest.(check int) "crash found" 1
             (List.length report.Postmortem.pm_crashes)))

(* ------------------------------------------------------------------ *)
(* The crash hook's bytes: Flight.arm_crash against an unscoped copy   *)
(* ------------------------------------------------------------------ *)

(* [Flight.arm_crash] as it was before hooks took a scope: the hook is
   consulted at every post-boot operation of every server. *)
let unscoped_arm_crash ~count kernel ep =
  let armed = ref count in
  Kernel.set_fault_hook kernel
    (Some
       (fun site ->
          if !armed > 0
             && site.Kernel.site_ep = ep
             && site.Kernel.site_kind = Kernel.Op_reply
             && Kernel.window_is_open kernel ep
          then begin
            decr armed;
            Some (Kernel.F_crash "injected for tracing")
          end
          else None))

let suite_ds3_header () =
  match Flight.make_header ~workload:"suite" ~crash:"ds" ~crash_count:3 () with
  | Ok h -> h
  | Error m -> Alcotest.fail ("make_header: " ^ m)

(* [Flight.record]'s in-memory path by hand, with the crash injected by
   [unscoped_arm_crash]: the journal and the sidecar bytes. *)
let record_unscoped header =
  let conf =
    match Sysconf.parse header.Journal.jh_spec with
    | Ok c -> c
    | Error m -> Alcotest.fail ("spec: " ^ m)
  in
  let w = Journal.to_memory header in
  let sys =
    System.build ~arch:header.Journal.jh_arch ~seed:header.Journal.jh_seed
      ~journal:w conf
  in
  unscoped_arm_crash ~count:header.Journal.jh_crash_count (System.kernel sys)
    Endpoint.ds;
  ignore (System.run sys ~root:Testsuite.driver);
  Journal.close w;
  let encoded = Journal.contents w in
  let sidecar =
    with_temp_journal (fun path ->
        match Journal.build_index ~verify_crc:false encoded with
        | Error m -> Alcotest.fail ("index: " ^ m)
        | Ok ix ->
          let idx = path ^ Journal.index_suffix in
          Fun.protect
            ~finally:(fun () -> try Sys.remove idx with Sys_error _ -> ())
            (fun () ->
               Journal.write_index_file ~path:idx ix;
               In_channel.with_open_bin idx In_channel.input_all))
  in
  (encoded, sidecar)

(* The suite with three DS crashes recorded by [Flight.record] is byte
   for byte the recording an unscoped crash hook makes: a hook that
   can only fire at DS loses nothing by not seeing the other servers. *)
let test_crash_hook_unscoped_bytes () =
  let header = suite_ds3_header () in
  let ref_journal, ref_sidecar = record_unscoped header in
  with_temp_journal (fun path ->
      let idx = path ^ Journal.index_suffix in
      Fun.protect
        ~finally:(fun () -> try Sys.remove idx with Sys_error _ -> ())
        (fun () ->
           (match Flight.record ~path header with
            | Error m -> Alcotest.fail ("record: " ^ m)
            | Ok _ -> ());
           let journal = In_channel.with_open_bin path In_channel.input_all in
           let sidecar = In_channel.with_open_bin idx In_channel.input_all in
           (match Journal.read_file path with
            | Error m -> Alcotest.fail ("read back: " ^ m)
            | Ok (_, events) ->
              Alcotest.(check int) "three crashes injected" 3
                (Array.fold_left
                   (fun n ev -> if is_crash ev then n + 1 else n)
                   0 events));
           Alcotest.(check bool) "byte-identical journal" true
             (String.equal ref_journal journal);
           Alcotest.(check bool) "byte-identical sidecar" true
             (String.equal ref_sidecar sidecar)))

(* The capture/write identity where the writer's drain is the main
   path: suite/ds/3 appends ~150k raw slots, so its fixed log is
   encoded in place many times in-run (the quickstart run never
   fills it once). Every drain encodes the log; none may grow it. *)
let test_capture_write_identity_drained () =
  let header = suite_ds3_header () in
  let conf =
    match Sysconf.parse header.Journal.jh_spec with
    | Ok c -> c
    | Error m -> Alcotest.fail ("spec: " ^ m)
  in
  let w = Journal.to_memory header in
  let cap = Journal.capture w in
  let ints = Array.length cap.Kernel.cap_buf in
  let strs = Array.length cap.Kernel.cap_strs in
  let drains = ref 0 in
  let drain = cap.Kernel.cap_drain in
  cap.Kernel.cap_drain <- (fun () -> incr drains; drain ());
  let sys =
    System.build ~arch:header.Journal.jh_arch ~seed:header.Journal.jh_seed
      ~journal:w conf
  in
  Flight.arm_crash ~count:header.Journal.jh_crash_count (System.kernel sys)
    (Some ds);
  ignore (System.run sys ~root:Testsuite.driver);
  Journal.close w;
  if !drains < 18 then Alcotest.failf "%d in-run drains, want >= 18" !drains;
  Alcotest.(check int) "cap_buf length unchanged" ints
    (Array.length cap.Kernel.cap_buf);
  Alcotest.(check int) "cap_strs length unchanged" strs
    (Array.length cap.Kernel.cap_strs);
  check_write_identity header (Journal.contents w)

(* A hook scoped to DS is handed DS sites alone, one per post-boot DS
   operation, while a site armed at PM is sited too and fires. The
   site is PM's last to be profiled, so PM operations are sited long
   before it fires. *)
let test_scoped_hook_with_armed_site () =
  let pm_site =
    List.find
      (fun s -> s.Kernel.site_ep = Endpoint.pm)
      (List.rev (Campaign.profile_sites Policy.enhanced))
  in
  let crashes = ref [] in
  let event_hook = function
    | Kernel.E_crash { ep; reason; _ } -> crashes := (ep, reason) :: !crashes
    | _ -> ()
  in
  let sys = System.build ~seed:42 ~event_hook (Sysconf.uniform Policy.enhanced) in
  let k = System.kernel sys in
  let calls = ref 0 and strays = ref 0 in
  Kernel.set_fault_hook ~scope:[ ds ] k
    (Some
       (fun s ->
          if s.Kernel.site_ep = ds then incr calls else incr strays;
          None));
  Kernel.arm k [ (pm_site, Kernel.F_crash "armed at pm") ];
  ignore (System.run sys ~root:Testsuite.driver);
  Alcotest.(check int) "no other endpoint's site" 0 !strays;
  Alcotest.(check int) "one call per post-boot DS operation"
    (Kernel.server_stats k ds).Kernel.ss_ops_total !calls;
  Alcotest.(check (list (pair int string))) "the PM site fired"
    [ (Endpoint.pm, "armed at pm") ] !crashes

(* Minor words of a seed-42 suite run after [setup] has its kernel. *)
let suite_words setup =
  let sys = System.build ~seed:42 (Sysconf.uniform Policy.enhanced) in
  setup (System.kernel sys);
  let w0 = Gc.minor_words () in
  ignore (System.run sys ~root:Testsuite.driver);
  Gc.minor_words () -. w0

(* No crash to inject, no hook: a hook siting DS would build a site
   record at each of its thousands of operations. *)
let test_arm_crash_count_zero () =
  let plain = suite_words ignore in
  let zero = suite_words (fun k -> Flight.arm_crash ~count:0 k (Some ds)) in
  Alcotest.(check bool)
    (Printf.sprintf "%.0f words over an unhooked run < 64" (zero -. plain))
    true
    (zero -. plain < 64.)

(* ------------------------------------------------------------------ *)
(* Causal chains and postmortem attribution                            *)
(* ------------------------------------------------------------------ *)

let msg ~rid ~parent =
  Kernel.E_msg { time = rid; src = Endpoint.first_user; dst = ds;
                 tag = Message.Tag.T_ds_publish; call = true; rid; parent;
                 cls = Seep.Read_only }

let test_rid_chain () =
  let events = [| msg ~rid:1 ~parent:0; msg ~rid:2 ~parent:1;
                  msg ~rid:3 ~parent:2 |] in
  Alcotest.(check (list int)) "innermost first to root" [ 3; 2; 1 ]
    (Replay.rid_chain events 3);
  Alcotest.(check (list int)) "root request" [ 1 ] (Replay.rid_chain events 1);
  Alcotest.(check (list int)) "rid 0 is the root context" []
    (Replay.rid_chain events 0);
  Alcotest.(check (list int)) "unknown rid terminates" [ 99 ]
    (Replay.rid_chain events 99);
  let cyclic = [| msg ~rid:5 ~parent:6; msg ~rid:6 ~parent:5 |] in
  Alcotest.(check (list int)) "cycle terminates" [ 5; 6 ]
    (Replay.rid_chain cyclic 5)

let test_postmortem_seed42 () =
  let _, header, events = Lazy.force seed42_journal in
  let report = Postmortem.analyze header events in
  Alcotest.(check int) "exactly the injected crash" 1
    (List.length report.Postmortem.pm_crashes);
  Alcotest.(check bool) "halt recorded" true
    (match report.Postmortem.pm_halt with
     | Some (Kernel.H_completed _) -> true
     | _ -> false);
  let c = List.hd report.Postmortem.pm_crashes in
  Alcotest.(check string) "compartment" "ds" c.Postmortem.cr_server;
  Alcotest.(check string) "policy" "enhanced" c.Postmortem.cr_policy;
  Alcotest.(check bool) "window open at the crash" true
    c.Postmortem.cr_window_open;
  Alcotest.(check bool) "attributed to a request" true
    (c.Postmortem.cr_rid > 0);
  (* the chain starts at the handled request and the delivery for each
     chain rid is attached in order *)
  (match c.Postmortem.cr_chain with
   | [] -> Alcotest.fail "empty causal chain"
   | rid :: _ ->
     Alcotest.(check int) "chain starts at the crash rid"
       c.Postmortem.cr_rid rid);
  Alcotest.(check int) "a delivery per chain rid"
    (List.length c.Postmortem.cr_chain)
    (List.length c.Postmortem.cr_chain_msgs);
  (* undo-log state at the crash: in-window stores were logged *)
  Alcotest.(check bool) "undo bytes at crash" true
    (c.Postmortem.cr_undo_bytes > 0);
  Alcotest.(check bool) "rollback restored bytes" true
    (match c.Postmortem.cr_rollback_bytes with
     | Some b -> b > 0
     | None -> false);
  Alcotest.(check bool) "restart recorded" true
    (c.Postmortem.cr_restart <> None);
  Alcotest.(check bool) "recovery latency positive" true
    (match c.Postmortem.cr_recovery_latency with
     | Some l -> l > 0
     | None -> false);
  let root_cause = Postmortem.attribution header c in
  Alcotest.(check bool) "attributed to the armed fault injection" true
    (contains ~needle:"fault injection" root_cause);
  Alcotest.(check bool) "names the compartment" true
    (contains ~needle:"ds" root_cause);
  Alcotest.(check bool) "names the root request" true
    (contains
       ~needle:
         (Printf.sprintf "root request rid %d"
            (List.nth c.Postmortem.cr_chain
               (List.length c.Postmortem.cr_chain - 1)))
       root_cause)

(* ------------------------------------------------------------------ *)
(* JSON artifacts: deterministic and structurally valid                *)
(* ------------------------------------------------------------------ *)

(* Minimal structural JSON parser (same approach as test_obs.ml): no
   JSON library in the tree, and the artifacts must stay loadable. *)
module Json = struct
  type t =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | List of t list
    | Obj of (string * t) list

  exception Bad of string

  let parse (s : string) : t =
    let n = String.length s in
    let pos = ref 0 in
    let peek () = if !pos < n then s.[!pos] else raise (Bad "eof") in
    let advance () = incr pos in
    let rec skip_ws () =
      if !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true
                                        | _ -> false)
      then (advance (); skip_ws ())
    in
    let expect c =
      skip_ws ();
      if peek () <> c then
        raise (Bad (Printf.sprintf "expected %c at %d" c !pos));
      advance ()
    in
    let parse_string () =
      expect '"';
      let b = Buffer.create 16 in
      let rec go () =
        match peek () with
        | '"' -> advance (); Buffer.contents b
        | '\\' ->
          advance ();
          (match peek () with
           | 'n' -> Buffer.add_char b '\n'
           | 't' -> Buffer.add_char b '\t'
           | 'u' -> Buffer.add_string b "\\u"
           | c -> Buffer.add_char b c);
          advance (); go ()
        | c -> Buffer.add_char b c; advance (); go ()
      in
      go ()
    in
    let parse_number () =
      let start = !pos in
      let rec go () =
        if !pos < n
           && (match s.[!pos] with
               | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
               | _ -> false)
        then (advance (); go ())
      in
      go ();
      if start = !pos then raise (Bad "empty number");
      Num (float_of_string (String.sub s start (!pos - start)))
    in
    let rec parse_value () =
      skip_ws ();
      match peek () with
      | '{' ->
        advance (); skip_ws ();
        if peek () = '}' then (advance (); Obj [])
        else
          let rec members acc =
            let key = parse_string () in
            expect ':';
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | ',' -> advance (); skip_ws (); members ((key, v) :: acc)
            | '}' -> advance (); Obj (List.rev ((key, v) :: acc))
            | c -> raise (Bad (Printf.sprintf "bad object char %c" c))
          in
          members []
      | '[' ->
        advance (); skip_ws ();
        if peek () = ']' then (advance (); List [])
        else
          let rec elements acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | ',' -> advance (); elements (v :: acc)
            | ']' -> advance (); List (List.rev (v :: acc))
            | c -> raise (Bad (Printf.sprintf "bad array char %c" c))
          in
          elements []
      | '"' -> Str (parse_string ())
      | 't' -> pos := !pos + 4; Bool true
      | 'f' -> pos := !pos + 5; Bool false
      | 'n' -> pos := !pos + 4; Null
      | _ -> parse_number ()
    in
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then raise (Bad "trailing garbage");
    v

  let mem key = function
    | Obj kvs -> List.assoc_opt key kvs
    | _ -> None
end

let parse_json label s =
  try Json.parse s
  with Json.Bad m -> Alcotest.fail (label ^ " is not valid JSON: " ^ m)

let test_replay_json () =
  let _, header, events = Lazy.force seed42_journal in
  let clean = Flight.replay header events in
  Alcotest.(check string) "deterministic bytes" (Replay.to_json clean)
    (Replay.to_json clean);
  let root = parse_json "replay artifact" (Replay.to_json clean) in
  Alcotest.(check bool) "identical replay: divergence null" true
    (Json.mem "divergence" root = Some Json.Null);
  (match Json.mem "seed" root with
   | Some (Json.Num s) -> Alcotest.(check int) "seed" 42 (int_of_float s)
   | _ -> Alcotest.fail "no seed field");
  let diverged = Flight.replay ~costs:(perturbed_costs ()) header events in
  let droot = parse_json "divergence artifact" (Replay.to_json diverged) in
  (match Json.mem "divergence" droot with
   | Some (Json.Obj _ as d) ->
     Alcotest.(check bool) "divergence has index/rid/chain" true
       ((match Json.mem "index" d with Some (Json.Num _) -> true | _ -> false)
        && (match Json.mem "rid" d with Some (Json.Num _) -> true | _ -> false)
        && (match Json.mem "chain" d with Some (Json.List _) -> true | _ -> false)
        && (match Json.mem "recorded" d with Some (Json.Str _) -> true | _ -> false))
   | _ -> Alcotest.fail "no divergence object");
  match Json.mem "cost_mismatch" droot with
  | Some (Json.Bool true) -> ()
  | _ -> Alcotest.fail "cost_mismatch not surfaced"

let test_postmortem_json () =
  let _, header, events = Lazy.force seed42_journal in
  let report = Postmortem.analyze header events in
  Alcotest.(check string) "deterministic bytes" (Postmortem.to_json report)
    (Postmortem.to_json report);
  let root = parse_json "postmortem artifact" (Postmortem.to_json report) in
  (match Json.mem "crash_count" root with
   | Some (Json.Num n) -> Alcotest.(check int) "one crash" 1 (int_of_float n)
   | _ -> Alcotest.fail "no crash_count");
  match Json.mem "crashes" root with
  | Some (Json.List [ c ]) ->
    Alcotest.(check bool) "crash object fields" true
      (Json.mem "compartment" c = Some (Json.Str "ds")
       && Json.mem "policy" c = Some (Json.Str "enhanced")
       && Json.mem "window_open" c = Some (Json.Bool true)
       && (match Json.mem "chain" c with
           | Some (Json.List (_ :: _)) -> true
           | _ -> false));
    (match Json.mem "root_cause" c with
     | Some (Json.Str s) ->
       Alcotest.(check bool) "root cause names the injection" true
         (contains ~needle:"fault injection" s)
     | _ -> Alcotest.fail "no root_cause")
  | _ -> Alcotest.fail "crashes is not a one-element array"

(* ------------------------------------------------------------------ *)
(* Header validation and cost fingerprints                             *)
(* ------------------------------------------------------------------ *)

let test_make_header_validation () =
  (match Flight.make_header ~workload:"no-such-workload" () with
   | Error m ->
     Alcotest.(check bool) "names the workload" true
       (contains ~needle:"no-such-workload" m)
   | Ok _ -> Alcotest.fail "unknown workload accepted");
  (match Flight.make_header ~spec:"enhanced,bogus=naive" () with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "bad spec accepted");
  match Flight.make_header ~crash:"router" () with
  | Error m ->
    Alcotest.(check bool) "names the crash server" true
      (contains ~needle:"router" m)
  | Ok _ -> Alcotest.fail "unknown crash server accepted"

let test_cost_fingerprint () =
  let micro = Costs.fingerprint Costs.microkernel in
  Alcotest.(check int) "stable across calls" micro
    (Costs.fingerprint Costs.microkernel);
  Alcotest.(check bool) "positive (varint-compact)" true (micro > 0);
  Alcotest.(check bool) "distinguishes architectures" true
    (micro <> Costs.fingerprint Costs.monolithic);
  Alcotest.(check bool) "a one-cycle perturbation changes it" true
    (micro <> Costs.fingerprint (perturbed_costs ()))

let () =
  Alcotest.run "osiris_journal"
    [ ( "codec",
        [ Alcotest.test_case "all constructors round-trip" `Quick
            test_roundtrip_all_constructors;
          Alcotest.test_case "entry layout round-trip" `Quick
            test_entry_layout_round_trip;
          Alcotest.test_case "empty journal" `Quick
            test_empty_journal_roundtrip;
          Alcotest.test_case "writer counters" `Quick test_writer_counters;
          Alcotest.test_case "wide record bytes" `Quick
            test_wide_record_bytes ] );
      ( "robustness",
        [ Alcotest.test_case "bad magic" `Quick test_bad_magic;
          Alcotest.test_case "every truncation errors" `Quick
            test_truncation_every_prefix;
          Alcotest.test_case "every bit flip detected" `Quick
            test_bitflip_every_byte;
          Alcotest.test_case "CRC error names the record" `Quick
            test_crc_error_names_record;
          Alcotest.test_case "trailing garbage" `Quick test_trailing_garbage;
          Alcotest.test_case "maximal frame length" `Quick
            test_maximal_frame_length;
          Alcotest.test_case "missing file" `Quick test_read_file_missing ] );
      ( "ring",
        [ Alcotest.test_case "snapshot frozen at crash" `Quick
            test_ring_snapshot_frozen_at_crash;
          Alcotest.test_case "newest crash wins" `Quick
            test_ring_newest_crash_wins;
          Alcotest.test_case "ring-mode recording" `Quick
            test_ring_mode_crash_snapshot ] );
      ( "crash hook",
        [ Alcotest.test_case "suite/ds/3 matches the unscoped hook" `Quick
            test_crash_hook_unscoped_bytes;
          Alcotest.test_case "scoped hook beside an armed site" `Quick
            test_scoped_hook_with_armed_site;
          Alcotest.test_case "count 0 installs no hook" `Quick
            test_arm_crash_count_zero ] );
      ( "replay",
        [ Alcotest.test_case "capture/write byte identity" `Quick
            test_capture_write_identity;
          Alcotest.test_case "capture/write identity over drains" `Quick
            test_capture_write_identity_drained;
          Alcotest.test_case "seed-42 recording" `Quick test_record_seed42;
          Alcotest.test_case "decode allocates only its output" `Quick
            test_decode_allocation;
          Alcotest.test_case "seed-42 replay identical" `Quick
            test_replay_seed42_identical;
          Alcotest.test_case "every event field compared" `Quick
            test_replay_compares_every_field;
          Alcotest.test_case "perturbed cost pinpointed" `Quick
            test_perturbed_cost_divergence;
          QCheck_alcotest.to_alcotest prop_record_replay_deterministic ] );
      ( "postmortem",
        [ Alcotest.test_case "rid chains" `Quick test_rid_chain;
          Alcotest.test_case "seed-42 root cause" `Quick
            test_postmortem_seed42 ] );
      ( "artifacts",
        [ Alcotest.test_case "replay JSON" `Quick test_replay_json;
          Alcotest.test_case "postmortem JSON" `Quick test_postmortem_json ] );
      ( "header",
        [ Alcotest.test_case "validation" `Quick test_make_header_validation;
          Alcotest.test_case "cost fingerprint" `Quick test_cost_fingerprint ] ) ]
