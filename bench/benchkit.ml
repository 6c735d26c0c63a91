(* The harness shared by the layer benches behind [bench/main.exe NAME]:
   the run mode, one timing routine and its reductions, exact
   allocation counts, the artifact envelope and the gate table.

   A bench runs in one of two modes. The full run (the default) uses a
   200 ms budget per timed variant, writes BENCH_NAME.json and
   enforces every gate. [main.exe --smoke NAME] — what [dune runtest]
   runs — uses a 25 ms budget, writes smoke_NAME.json and enforces
   only the exact gates (allocation, identity, conservation,
   selectivity). Its timing gates are still measured and reported,
   but at 25 ms, beside the rest of the test suite, a wall-clock ratio
   sits below its own noise floor, so a failed one is advisory there. *)

let smoke = ref false
let budget_ns () = if !smoke then 25e6 else 200e6
let now_ns () = Int64.to_float (Monotonic_clock.now ())

(* [f ()] and the wall ns it took. *)
let time f =
  let t0 = now_ns () in
  let r = f () in
  (r, now_ns () -. t0)

(* [f] as a variant for [measure]: a thunk returning its own elapsed ns. *)
let timed f () = snd (time f)

(* Exact minor-heap words allocated by [f]: the simulation is
   deterministic, so its allocation is too, and one sample is exact
   rather than an estimate. *)
let minor_words_of f =
  let w0 = Gc.minor_words () in
  f ();
  Gc.minor_words () -. w0

(* Minor words one fiber park allocates: its continuation and the
   thread state holding it, two words each with their headers (4.000
   measured by [sched_bench]'s ping-pong, whose [preempt_alloc_exact]
   holds a preemption to it). The hooked-run allocation gates allow it
   per extra park: a hook sends row searches load by load, and there
   every preemption parks the fiber, where an unhooked walk parks once
   and the kernel runs it on. *)
let park_words = 4.

let rec gcd a b = if b = 0 then a else gcd b (a mod b)

(* Interleaved timing. Each variant is a thunk that times itself and
   returns elapsed ns, so it can keep setup and teardown out of its
   window. After one warm-up call of each, every round runs all
   variants back to back, so machine-load drift hits each of them
   alike instead of masquerading as overhead. Round [r] visits slot
   [j] = variant [(j * s + r) mod k] with the stride [s] cycling
   through 1..k-1 (skipping strides that share a factor with [k]):
   the first variant rotates, and no variant keeps a fixed predecessor
   that would bill it for the GC debt the predecessor left. Rounds
   continue until [budget] ns (default [k] x the mode's per-variant
   budget) is spent and [min_rounds] are done. Returns every sample,
   per variant, in round order. *)
let measure ?(min_rounds = 8) ?budget variants =
  let vs = Array.of_list variants in
  let k = Array.length vs in
  let budget =
    match budget with Some b -> b | None -> float_of_int k *. budget_ns ()
  in
  Array.iter (fun f -> ignore (f () : float)) vs;
  let samples = Array.make k [] in
  let t0 = now_ns () in
  let r = ref 0 in
  while now_ns () -. t0 < budget || !r < min_rounds do
    let s = 1 + (!r mod max 1 (k - 1)) in
    let s = if gcd s k = 1 then s else 1 in
    for j = 0 to k - 1 do
      let i = ((j * s) + !r) mod k in
      samples.(i) <- vs.(i) () :: samples.(i)
    done;
    incr r
  done;
  Array.map (fun l -> Array.of_list (List.rev l)) samples

(* Reductions over [measure]'s samples. Best-of is the estimator for a
   single clean run of each variant; the median of paired (same-round)
   differences cancels drift shared by the pair. *)
let best a = Array.fold_left Float.min infinity a

let median a =
  let a = Array.copy a in
  Array.sort compare a;
  a.(Array.length a / 2)

let paired_median_diff a b = median (Array.map2 ( -. ) a b)

(* [measure] reduced to each variant's best, with the round count. *)
let best_of ?min_rounds ?budget variants =
  let t = measure ?min_rounds ?budget variants in
  (Array.map best t, Array.length t.(0))

(* ---- gates and the artifact ------------------------------------- *)

type gate = { name : string; ok : bool; timing : bool }

(* Exact gates (allocation, identity, conservation, selectivity) hold
   at any budget and always fail the run. *)
let exact name ok = { name; ok; timing = false }

(* Timing gates compare wall-clock figures; enforced only outside
   smoke mode. *)
let timing name ok = { name; ok; timing = true }

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* Write the artifact for [bench] and exit 1 if an enforced gate
   failed. [fields] are the bench's own top-level sections, each a key
   and its JSON text, in order; the envelope puts "bench" and (unless
   [~budget:false], for benches that time without the budget)
   "budget_ms" before them and "gates" (name -> bool) after. *)
let finish ~bench ?(budget = true) fields gates =
  let gate_obj =
    List.map (fun g -> Printf.sprintf "\"%s\": %b" g.name g.ok) gates
  in
  let fields =
    (("bench", json_string bench)
     :: (if budget then
           [ ("budget_ms", Printf.sprintf "%.0f" (budget_ns () /. 1e6)) ]
         else []))
    @ fields
    @ [ ("gates", "{" ^ String.concat ", " gate_obj ^ "}") ]
  in
  let path = (if !smoke then "smoke_" else "BENCH_") ^ bench ^ ".json" in
  let oc = open_out path in
  output_string oc "{\n";
  output_string oc
    (String.concat ",\n"
       (List.map (fun (k, v) -> Printf.sprintf "  \"%s\": %s" k v) fields));
  output_string oc "\n}\n";
  close_out oc;
  Printf.printf "wrote %s\n" path;
  let failed = List.filter (fun g -> not g.ok) gates in
  let advisory, enforced =
    List.partition (fun g -> g.timing && !smoke) failed
  in
  List.iter
    (fun g ->
       Printf.eprintf "%s bench: advisory FAIL: %s (timing gate)\n" bench
         g.name)
    advisory;
  List.iter
    (fun g -> Printf.eprintf "%s bench: gate FAILED: %s\n" bench g.name)
    enforced;
  if enforced <> [] then exit 1;
  Printf.printf "%d of %d gates passed\n"
    (List.length gates - List.length failed)
    (List.length gates)
