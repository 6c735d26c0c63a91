(* Scheduler benchmark: what the kernel run queue ([Sched], an in-order
   run beside a binary min-heap, both over (key, seq) in flat int
   arrays) costs per event, and
   proof that the run queue's structure changes nothing but wall time.

   The micro rungs replay a kernel-shaped key trace — recorded from a
   live queue under the empirical push/pop mix: near-future keys with
   frequent ties, past-dated wakeups below the popped front, occasional
   far-future alarms, queue depth oscillating like a real run —
   through [Sched] and through [Boxed_heap] below, the run queue of
   the time before the timer wheel (a binary heap of boxed entries),
   interleaved best-of so load drift cannot masquerade as speedup. The
   reference line is the 78.6 ns/event in-run capture cost measured by
   bench/journal_bench.ml on that boxed heap: the run queue's full
   push+pop event cost must sit below it. Because hosts differ, the
   gate is calibrated like parfan_bench's: the boxed heap, timed on the
   same trace on the same host, is the calibration probe (the
   "oracle"), and the threshold is max(baseline, efficiency x oracle),
   so a slow box loosens the absolute bar but never excuses losing to
   the old heap. A second trace, shaped like an open-loop load step
   (a thousand in-order future arrivals queued ahead of a small active
   set), is timed through both queues as an informational rung.

   Run with [dune exec bench/main.exe sched] (artifact
   BENCH_sched.json; [--smoke] for the runtest variant, see
   benchkit.ml). Exits non-zero when an enforced gate fails.

   Gates:
     sched_ns_per_event   timing  Sched push+pop ns/event on the kernel
                                  trace < max(baseline_ns, efficiency x
                                  oracle), best of interleaved rounds
     sched_vs_oracle      timing  Sched ns/event < oracle ns/event
     sched_zero_alloc     exact   a full pass of each trace (131k
                                  push/pop each) from a cleared queue,
                                  whose arrays have grown, allocates no
                                  minor words
     sched_trajectory     exact   full-system seed-42 runs (regression
                                  driver, and quickstart with a mid-run
                                  VFS crash and an attached journal)
                                  are byte-identical to the MD5 pinned
                                  from the boxed binary heap: halt,
                                  every ss_* server counter row, log
                                  lines, journal bytes
     preempt_alloc_exact  exact   two user processes computing 1 cycle
                                  at a time preempt each other at every
                                  operation; each preemption allocates
                                  at most [Benchkit.park_words] minor
                                  words (the fiber's continuation and
                                  the thread state holding it)
     ipc_alloc_exact      exact   a user process's getpid calls to PM
                                  on a booted system allocate at most
                                  [ipc_words] minor words per round
                                  trip (call, PM's receive and walk,
                                  reply)

   Informational, no gate: [load_trace], the load-shaped trace's
   ns/event through both queues; [switches], the fiber runner's counters
   over one seed-42 load step at 80k req/s (fiber parks, walks the
   kernel ran on from their parked load, the walk lockstep's episodes —
   two parked walks run on in turn inside the kernel, in one loop over
   two walk cursors — and its turns, and the row searches' loads
   batched and load by load), and the median host ms of that step's
   [Kernel.run] over [step_runs] runs, each from a compacted heap. *)

(* The pre-refactor per-event reference. *)
let baseline_ns = 78.6

(* Fraction of the oracle's measured ns/event Sched must beat when the
   host is too slow for the absolute bar. *)
let efficiency = 0.9

(* Minor words one getpid round trip (user -> PM -> user) may
   allocate: the fiber's two continuations and the states holding
   them, the receive's result, PM's walk and its reply. *)
let ipc_words = 40.

(* ---- the calibration reference ------------------------------------ *)

(* The kernel run queue before the timer wheel: a binary heap of boxed
   entry records over (key, seq), a port of the old Osiris_util.Vheap
   with its sift order. The timing gates' calibration probe only. *)
module Boxed_heap = struct
  type entry = { e_key : int; e_seq : int; e_val : int }

  type t = { mutable data : entry array; mutable len : int; mutable seq : int }

  let dummy = { e_key = 0; e_seq = 0; e_val = 0 }
  let create () = { data = [||]; len = 0; seq = 0 }
  let less a b = a.e_key < b.e_key || (a.e_key = b.e_key && a.e_seq < b.e_seq)

  let grow h =
    let cap = Array.length h.data in
    if h.len = cap then begin
      let data = Array.make (if cap = 0 then 16 else 2 * cap) dummy in
      Array.blit h.data 0 data 0 h.len;
      h.data <- data
    end

  let rec sift_up h i =
    if i > 0 then begin
      let parent = (i - 1) / 2 in
      if less h.data.(i) h.data.(parent) then begin
        let tmp = h.data.(i) in
        h.data.(i) <- h.data.(parent);
        h.data.(parent) <- tmp;
        sift_up h parent
      end
    end

  let rec sift_down h i =
    let l = (2 * i) + 1 in
    if l < h.len then begin
      let r = l + 1 in
      let m = if r < h.len && less h.data.(r) h.data.(l) then r else l in
      if less h.data.(m) h.data.(i) then begin
        let tmp = h.data.(i) in
        h.data.(i) <- h.data.(m);
        h.data.(m) <- tmp;
        sift_down h m
      end
    end

  let push h ~key v =
    grow h;
    h.seq <- h.seq + 1;
    h.data.(h.len) <- { e_key = key; e_seq = h.seq; e_val = v };
    h.len <- h.len + 1;
    sift_up h (h.len - 1)

  let pop h =
    if h.len = 0 then -1
    else begin
      let top = h.data.(0) in
      h.len <- h.len - 1;
      h.data.(0) <- h.data.(h.len);
      h.data.(h.len) <- dummy;
      if h.len > 0 then sift_down h 0;
      top.e_val
    end

  let clear h =
    Array.fill h.data 0 h.len dummy;
    h.len <- 0;
    h.seq <- 0
end

(* ---- the kernel-shaped trace -------------------------------------- *)

(* Recorded against a live queue so past-dated keys are relative to
   the real popped frontier.  Mix calibrated to what Kernel.step
   generates: mostly short forward hops with heavy ties (message
   hand-offs between processes whose clocks nearly agree), a steady
   trickle of past-dated wakeups (blocked receivers with lagging
   vtimes), rare far-future alarms; depth breathes between ~4 and
   ~48 entries like a booted system under load. *)
let trace_len = 1 lsl 17

type trace = {
  t_kind : Bytes.t;     (* 0 = push, 1 = pop *)
  t_key : int array;    (* push key (unused for pops) *)
  t_events : int;       (* number of pushes = pops *)
}

let record_trace () =
  let rng = Osiris_util.Rng.create 42 in
  let s = Sched.create () in
  let kind = Bytes.create trace_len in
  let key = Array.make trace_len 0 in
  let cursor = ref 0 in
  let pushes = ref 0 in
  let n = ref 0 in
  let push k =
    Bytes.unsafe_set kind !n '\000';
    key.(!n) <- k;
    Sched.push s ~key:k 0;
    incr pushes;
    incr n
  in
  let pop () =
    Bytes.unsafe_set kind !n '\001';
    let v = Sched.pop s in
    if v >= 0 then cursor := Sched.popped_key s;
    incr n
  in
  while !n < trace_len do
    let depth = Sched.length s in
    let do_push =
      if depth < 4 then true
      else if depth > 48 then false
      else Osiris_util.Rng.int rng 2 = 0
    in
    if do_push then begin
      let roll = Osiris_util.Rng.int rng 100 in
      let k =
        if roll < 30 then !cursor (* tie at the frontier *)
        else if roll < 82 then !cursor + Osiris_util.Rng.int rng 4096
        else if roll < 94 then !cursor + Osiris_util.Rng.int rng 2_000_000
        else if roll < 99 then
          max 0 (!cursor - 1 - Osiris_util.Rng.int rng 100_000)
          (* past-dated wakeup *)
        else !cursor + 50_000_000 + Osiris_util.Rng.int rng (1 lsl 35)
        (* far alarm *)
      in
      push k
    end
    else pop ()
  done;
  { t_kind = kind; t_key = key; t_events = !pushes }

(* Recorded like the kernel trace, but shaped like an open-loop load
   step: batches of [arrivals] in-order future arrivals (uniform
   gaps) queue ahead of an active set of processes kept 2 to 40
   entries deep, which push the kernel trace's near-future hops and
   past-dated wakeups behind the arrivals; each popped arrival joins
   the active set, and a new batch queues once the last one is
   popped. The kernel trace never builds such a backlog: it stays 4 to
   48 deep, where the load step's queue holds about 500 entries. *)
let arrivals = 1000

(* Mean gap between two arrivals, in cycles: at the active set's hops
   a batch drains in about a quarter of the trace, and the queue's mean
   depth at a push is about 550 (the seed-42 load steps: about 490). *)
let arrival_gap = 512

let record_load_trace () =
  let rng = Osiris_util.Rng.create 42 in
  let s = Sched.create () in
  let kind = Bytes.create trace_len in
  let key = Array.make trace_len 0 in
  let cursor = ref 0 in
  let pending = ref 0 in
  let batches = ref 0 in
  let pushes = ref 0 in
  let depth_sum = ref 0 in
  let n = ref 0 in
  let push k v =
    Bytes.unsafe_set kind !n '\000';
    key.(!n) <- k;
    depth_sum := !depth_sum + Sched.length s;
    Sched.push s ~key:k v;
    incr pushes;
    incr n
  in
  let pop () =
    Bytes.unsafe_set kind !n '\001';
    let v = Sched.pop s in
    if v >= 0 then cursor := Sched.popped_key s;
    if v = 1 then decr pending;
    incr n
  in
  while !n < trace_len do
    if !pending = 0 && trace_len - !n > arrivals then begin
      let k = ref !cursor in
      for _ = 1 to arrivals do
        k := !k + 1 + Osiris_util.Rng.int rng (2 * arrival_gap);
        push !k 1
      done;
      pending := arrivals;
      incr batches
    end
    else begin
      let active = Sched.length s - !pending in
      let do_push =
        if active < 2 then true
        else if active > 40 then false
        else Osiris_util.Rng.int rng 2 = 0
      in
      if do_push then begin
        let roll = Osiris_util.Rng.int rng 100 in
        let k =
          if roll < 30 then !cursor
          else if roll < 94 then !cursor + Osiris_util.Rng.int rng 4096
          else max 0 (!cursor - 1 - Osiris_util.Rng.int rng 100_000)
        in
        push k 0
      end
      else pop ()
    end
  done;
  ( { t_kind = kind; t_key = key; t_events = !pushes },
    !batches,
    float_of_int !depth_sum /. float_of_int !pushes )

module type QUEUE = sig
  type t

  val clear : t -> unit
  val push : t -> key:int -> int -> unit
  val pop : t -> int
end

(* One full pass from a cleared queue, then drain the residue. Both
   queues are reached through the functor's argument, so each push and
   pop is the same indirect call for either. *)
module Replay (Q : QUEUE) = struct
  let run tr q () =
    Q.clear q;
    for i = 0 to trace_len - 1 do
      if Bytes.unsafe_get tr.t_kind i = '\000' then
        Q.push q ~key:(Array.unsafe_get tr.t_key i) i
      else ignore (Q.pop q)
    done;
    while Q.pop q >= 0 do
      ()
    done
end

module Replay_sched = Replay (Sched)
module Replay_oracle = Replay (Boxed_heap)

(* ---- trajectory identity ------------------------------------------ *)

let header ~workload ~crash =
  match Flight.make_header ~seed:42 ~workload ~crash () with
  | Ok h -> h
  | Error m -> failwith ("sched bench: " ^ m)

(* One full system run, fingerprinted down to the bytes: halt, the
   complete ss_* counter row of every core server, the diagnostic log,
   and the framed journal. *)
let run_fingerprint ~root ~workload ~crash =
  let w = Journal.to_memory (header ~workload ~crash) in
  let sys = System.build ~seed:42 ~journal:w (Sysconf.uniform Policy.enhanced) in
  let k = System.kernel sys in
  (match Flight.server_of_name crash with
   | Some _ as target -> Flight.arm_crash k target
   | None -> ());
  let halt = System.run sys ~root in
  Journal.close w;
  let stats = List.map (Kernel.server_stats k) System.core_servers in
  Marshal.to_string (halt, stats, System.log_lines sys, Journal.contents w) []

(* MD5 of each fingerprint, pinned where the timer wheel and the boxed
   binary heap both produced it. *)
let driver_digest = "1103ff676285a05e2fc85b1c0bc33053"
let crash_digest = "6179f14ac066e6a418986c549d327588"

let trajectory_pinned ~root ~workload ~crash ~pinned =
  Digest.to_hex (Digest.string (run_fingerprint ~root ~workload ~crash))
  = pinned

(* ---- fiber switches ----------------------------------------------- *)

(* Two compute-only user processes whose clocks leapfrog: each runs
   1-cycle computes until its clock passes the other's (two of them)
   and parks at the next one's entry. The words allocated and the
   fiber parks made by [n] computes each. *)
let ping_pong n =
  let sys = System.build ~seed:42 (Sysconf.uniform Policy.enhanced) in
  let k = System.kernel sys in
  let prog () =
    for _ = 1 to n do
      Kernel.Op.compute 1
    done
  in
  let a = Kernel.spawn_user k ~name:"ping" ~prog ~parent:0 in
  ignore (Kernel.spawn_user k ~name:"pong" ~prog ~parent:0);
  Kernel.set_halt_on_exit k a;
  let parks0 = Kernel.fiber_parks k in
  let words = Benchkit.minor_words_of (fun () -> ignore (Kernel.run k)) in
  (words, Kernel.fiber_parks k - parks0)

(* The words one preemption allocates: the difference between two
   ping-pong lengths, so boot, spawn and exit cancel. *)
let preemption_words () =
  let n = 20_000 in
  let w1, p1 = ping_pong n and w2, p2 = ping_pong (2 * n) in
  ((w2 -. w1) /. float_of_int (p2 - p1), p2 - p1)

(* The words allocated by [n] getpid calls of the root process on a
   booted system, and whether every call returned its endpoint. *)
let getpid_loop n =
  let sys = System.build ~seed:42 (Sysconf.uniform Policy.enhanced) in
  let wrong = ref 0 in
  let root () =
    for _ = 1 to n do
      match Kernel.Op.call Endpoint.pm Message.Getpid with
      | Message.R_ok ep when ep = Endpoint.first_user -> ()
      | _ -> incr wrong
    done
  in
  let words = Benchkit.minor_words_of (fun () -> ignore (System.run sys ~root)) in
  (words, !wrong = 0)

(* The words one getpid round trip allocates: the difference between
   two loop lengths, so boot, spawn and exit cancel. *)
let round_trip_words () =
  let n = 5_000 in
  let w1, ok1 = getpid_loop n and w2, ok2 = getpid_loop (2 * n) in
  ((w2 -. w1) /. float_of_int n, n, ok1 && ok2)

(* Runs of the load step, each timed for [run_ms]; the counters are
   the first's (every run makes the same). *)
let step_runs = 5

(* The workload's first 80k req/s load step at seed 42. *)
let load_step () =
  let spec =
    { Loadgen.default_spec with
      Loadgen.l_seed = 42 * 1009; l_requests = 1000; l_rate = 80_000 }
  in
  let sys = System.build ~seed:spec.Loadgen.l_seed (Sysconf.uniform Policy.enhanced) in
  let k = System.kernel sys in
  let reqs = Loadgen.inject k spec in
  let parks0 = Kernel.fiber_parks k and resumes0 = Kernel.walk_resumes k in
  let episodes0 = Kernel.walk_locksteps k and switches0 = Kernel.walk_switches k in
  let batched0, single0 = Kernel.walk_loads k in
  Gc.compact ();
  let halt, ns = Benchkit.time (fun () -> Kernel.run k) in
  let o = Loadgen.collect k reqs in
  let batched, single = Kernel.walk_loads k in
  ( halt, o.Loadgen.o_completed, Kernel.fiber_parks k - parks0,
    Kernel.walk_resumes k - resumes0,
    Kernel.walk_locksteps k - episodes0, Kernel.walk_switches k - switches0,
    batched - batched0, single - single0, ns /. 1e6 )

(* ------------------------------------------------------------------ *)

let run () =
  Printf.printf
    "\n================================================================\n\
     Sched: the run queue (run + (key, seq) heap) vs the boxed-heap oracle\n\
     ================================================================\n";
  let tr = record_trace () in
  Printf.printf "trace: %d ops, %d events (push+pop pairs)\n" trace_len
    tr.t_events;
  (* ---- micro: ns/event, Sched vs oracle ---- *)
  let sched = Sched.create () and heap = Boxed_heap.create () in
  let best, rounds =
    Benchkit.best_of
      [ Benchkit.timed (Replay_sched.run tr sched);
        Benchkit.timed (Replay_oracle.run tr heap) ]
  in
  let per_event ns = ns /. float_of_int tr.t_events in
  let sched_ns = per_event best.(0) and oracle_ns = per_event best.(1) in
  let threshold = Float.max baseline_ns (efficiency *. oracle_ns) in
  Printf.printf
    "per event (best of %d rounds):\n\
    \  sched   %8.2f ns\n\
    \  oracle  %8.2f ns (boxed binary heap)\n\
    \  gate: sched < max(%.1f baseline, %.2f x oracle) = %.2f ns -> %s\n"
    rounds sched_ns oracle_ns baseline_ns efficiency threshold
    (if sched_ns < threshold then "ok" else "FAILED");
  let ns_ok = sched_ns < threshold in
  let vs_oracle_ok = sched_ns < oracle_ns in
  (* ---- micro, load-shaped: informational ---- *)
  let ltr, batches, mean_depth = record_load_trace () in
  Printf.printf
    "load trace: %d ops, %d events, %d batches of %d arrivals, mean depth \
     at a push %.0f\n"
    trace_len ltr.t_events batches arrivals mean_depth;
  let lbest, lrounds =
    Benchkit.best_of
      [ Benchkit.timed (Replay_sched.run ltr sched);
        Benchkit.timed (Replay_oracle.run ltr heap) ]
  in
  let load_sched_ns = lbest.(0) /. float_of_int ltr.t_events
  and load_oracle_ns = lbest.(1) /. float_of_int ltr.t_events in
  Printf.printf
    "load trace per event (best of %d rounds, no gate):\n\
    \  sched   %8.2f ns\n\
    \  oracle  %8.2f ns (boxed binary heap)\n"
    lrounds load_sched_ns load_oracle_ns;
  (* ---- zero allocation on passes over grown arrays ---- *)
  let words = Benchkit.minor_words_of (Replay_sched.run tr sched) in
  let load_words = Benchkit.minor_words_of (Replay_sched.run ltr sched) in
  let alloc_ok = words = 0. && load_words = 0. in
  Printf.printf
    "pass allocation: %.0f minor words over the kernel trace, %.0f over the \
     load trace (%d ops each) -> %s\n"
    words load_words trace_len
    (if alloc_ok then "ok" else "FAILED");
  (* ---- trajectory identity ---- *)
  let driver_ok =
    trajectory_pinned ~root:Testsuite.driver ~workload:"suite" ~crash:"none"
      ~pinned:driver_digest
  in
  let crash_ok =
    trajectory_pinned ~root:Workgen.quickstart ~workload:"quickstart"
      ~crash:"vfs" ~pinned:crash_digest
  in
  Printf.printf
    "trajectory identity (halt + ss_* + log + journal bytes):\n\
    \  regression driver        %s\n\
    \  quickstart + vfs crash   %s\n"
    (if driver_ok then "pinned" else "DIVERGED")
    (if crash_ok then "pinned" else "DIVERGED");
  (* ---- fiber switches ---- *)
  let per_preemption, preemptions = preemption_words () in
  let preempt_ok = preemptions > 10_000 && per_preemption <= Benchkit.park_words in
  Printf.printf
    "compute ping-pong: %.3f minor words per preemption over %d preemptions \
     (<= %.0f -> %s)\n"
    per_preemption preemptions Benchkit.park_words
    (if preempt_ok then "ok" else "FAILED");
  let per_round_trip, round_trips, answered = round_trip_words () in
  let ipc_ok = answered && per_round_trip <= ipc_words in
  Printf.printf
    "getpid loop: %.3f minor words per round trip over %d round trips \
     (<= %.0f%s -> %s)\n"
    per_round_trip round_trips ipc_words
    (if answered then "" else ", WRONG ANSWERS")
    (if ipc_ok then "ok" else "FAILED");
  let steps = Array.init step_runs (fun _ -> load_step ()) in
  let halt, completed, parks, resumes, episodes, switches, batched, single, _ =
    steps.(0)
  in
  let run_ms = Benchkit.median (Array.map (fun (_, _, _, _, _, _, _, _, ms) -> ms) steps) in
  Printf.printf
    "load step (seed 42, 80k req/s, %d requests exited, %s, Kernel.run %.1f ms \
     median of %d):\n\
    \  fiber parks %d, walks run on in the kernel %d (in lockstep %d, over %d \
     episodes)\n\
    \  row-search loads: batched %d, load by load %d\n"
    completed (Kernel.halt_to_string halt) run_ms step_runs parks resumes switches
    episodes batched single;
  Benchkit.finish ~bench:"sched" ~budget:false
    [ ("seed", "42");
      ( "trace",
        Printf.sprintf "{\"ops\": %d, \"events\": %d}" trace_len tr.t_events );
      ( "per_event",
        Printf.sprintf
          "{\"sched_ns\": %.2f, \"oracle_ns\": %.2f,\n\
          \    \"baseline_ns\": %.1f, \"efficiency\": %.2f, \"threshold_ns\": %.2f}"
          sched_ns oracle_ns baseline_ns efficiency threshold );
      ( "load_trace",
        Printf.sprintf
          "{\"ops\": %d, \"events\": %d, \"arrivals\": %d, \"batches\": %d,\n\
          \    \"mean_depth\": %.1f, \"sched_ns\": %.2f, \"oracle_ns\": %.2f}"
          trace_len ltr.t_events arrivals batches mean_depth load_sched_ns
          load_oracle_ns );
      ( "alloc",
        Printf.sprintf
          "{\"minor_words_per_pass\": %.0f, \"minor_words_per_load_pass\": %.0f}"
          words load_words );
      ( "preempt_alloc",
        Printf.sprintf
          "{\"preemptions\": %d, \"words_per_preemption\": %.3f,\n\
          \    \"park_words\": %.0f}"
          preemptions per_preemption Benchkit.park_words );
      ( "ipc_alloc",
        Printf.sprintf
          "{\"round_trips\": %d, \"words_per_round_trip\": %.3f,\n\
          \    \"ipc_words\": %.0f}"
          round_trips per_round_trip ipc_words );
      ( "switches",
        Printf.sprintf
          "{\"load_step\": {\"seed\": %d, \"rate\": 80000, \"completed\": %d},\n\
          \    \"fiber_parks\": %d, \"walk_resumes\": %d, \"walk_locksteps\": %d,\n\
          \    \"walk_switches\": %d, \"walk_loads_batched\": %d, \"walk_loads_single\": %d,\n\
          \    \"run_ms\": %.1f}"
          (42 * 1009) completed parks resumes episodes switches batched single run_ms );
      (* Wall-clock figures swing with the host; bench_diff reads these
         per-path tolerances from the baseline so only structural drift
         is flagged. *)
      ( "tolerances",
        "{\"per_event.sched_ns\": 300,\n\
        \    \"per_event.oracle_ns\": 300, \"per_event.threshold_ns\": 300,\n\
        \    \"load_trace.sched_ns\": 300, \"load_trace.oracle_ns\": 300,\n\
        \    \"switches.run_ms\": 300}" ) ]
    [ Benchkit.timing "sched_ns_per_event" ns_ok;
      Benchkit.timing "sched_vs_oracle" vs_oracle_ok;
      Benchkit.exact "sched_zero_alloc" alloc_ok;
      Benchkit.exact "sched_trajectory" (driver_ok && crash_ok);
      Benchkit.exact "preempt_alloc_exact" preempt_ok;
      Benchkit.exact "ipc_alloc_exact" ipc_ok ]
