(* The host-time twin of the kernel's cycle attribution.

   One [Kernel.set_cycle_hook] closure sees every clock advance as
   (endpoint, slot, cycles) and counts advances per (endpoint bucket,
   slot) and virtual cycles per slot, exactly. After a random gap of
   mean 2^shift advances it reads the clock: the reading closes the
   window of host time since the previous one, and it times the very
   next advance (that advance's host work, less the cost of a read).

   The ledger splits the covered host time over (bucket, slot) in
   proportion to count x mean timed cost. Two simpler designs fail on
   a shared 2-vCPU host, which is why it does not use them:
   - charging each window's time to the advance that ends it splits
     time by advance counts, not cost (it puts the suite's
     instrumentation phase near 40%, where timed advances put it under
     10%);
   - scaling each timed advance by 2^shift lets one GC slice or
     preemption inside a timed advance count 64 times, and a timed
     advance runs right after a clock read with the probe's code cold,
     which inflates the total by 10-25%.
   Timed advances longer than [cap_ns] are GC slices or preemptions,
   not op costs; they stay in the covered time but not in the means.
   With this split the 2^6 shares stay within ~2 points of a run that
   times every advance. *)

let n_buckets = 9

(* Endpoints 0..7 are the kernel and the seven servers; every user
   process shares the last bucket. *)
let bucket ep = if ep >= 0 && ep < 8 then ep else 8

let bucket_name =
  [| "kernel"; "pm"; "vfs"; "vm"; "ds"; "rs"; "mfs"; "bdev"; "user" |]

let n_cells = n_buckets * Kernel.n_slots

let cap_ns = 20_000.

(* Sampled vtime interval of the run-queue gauge. *)
let queue_interval = 4096

(* Median of back-to-back reads, taken once at start-up so ledgers
   made in pool workers share it. *)
let read_ns =
  Meter.median
    (Array.init 2001 (fun _ ->
         let t = Meter.now_ns () in
         Meter.now_ns () -. t))

type t = {
  gap_span : int;         (* gaps are uniform in [1, gap_span] *)
  mutable rng : int;
  mutable countdown : int;
  mutable armed : bool;   (* the next advance is timed *)
  clock : float array;    (* [| last reading; covered ns |], unboxed *)
  cnt : int array;        (* per cell: advances *)
  vcyc : int array;       (* per slot: virtual cycles *)
  pt_ns : float array;    (* per cell: summed timed-advance ns *)
  pt_n : int array;       (* per cell: timed advances *)
  mutable wall_ns : float;  (* run-phase host time the ledger watched *)
  mutable q_max : int;
  mutable q_sum : int;
  mutable q_n : int;
}

let create ~shift ~seed =
  { gap_span = (2 lsl shift) - 1;
    rng = (seed * 0x9E3779B9) lor 1;
    countdown = 1 lsl shift;
    armed = false;
    clock = [| 0.; 0. |];
    cnt = Array.make n_cells 0;
    vcyc = Array.make Kernel.n_slots 0;
    pt_ns = Array.make n_cells 0.;
    pt_n = Array.make n_cells 0;
    wall_ns = 0.;
    q_max = 0;
    q_sum = 0;
    q_n = 0 }

(* Random gaps keep a periodic op pattern from aliasing with the
   sampling period. *)
let next_gap l =
  if l.gap_span = 1 then 1
  else begin
    l.rng <- (l.rng * 0x5DEECE66D) + 11;
    1 + ((l.rng lsr 20) mod l.gap_span)
  end

let hook l ep slot c =
  let i = (bucket ep * Kernel.n_slots) + slot in
  Array.unsafe_set l.cnt i (Array.unsafe_get l.cnt i + 1);
  Array.unsafe_set l.vcyc slot (Array.unsafe_get l.vcyc slot + c);
  if l.armed then begin
    l.armed <- false;
    let x = Meter.now_ns () -. l.clock.(0) -. read_ns in
    if x < cap_ns then begin
      l.pt_ns.(i) <- l.pt_ns.(i) +. x;
      l.pt_n.(i) <- l.pt_n.(i) + 1
    end
  end;
  l.countdown <- l.countdown - 1;
  if l.countdown = 0 then begin
    l.countdown <- next_gap l;
    l.armed <- true;
    let t = Meter.now_ns () in
    l.clock.(1) <- l.clock.(1) +. (t -. l.clock.(0));
    l.clock.(0) <- t
  end

(* Install on a built kernel just before its run phase. *)
let attach l k =
  l.armed <- false;
  l.clock.(0) <- Meter.now_ns ();
  Kernel.set_cycle_hook k (Some (hook l));
  Kernel.set_vtime_sampler k ~interval:queue_interval
    (Some
       (fun _ ->
          let d = Kernel.run_queue_depth k in
          if d > l.q_max then l.q_max <- d;
          l.q_sum <- l.q_sum + d;
          l.q_n <- l.q_n + 1))

let add_wall l ms = l.wall_ns <- l.wall_ns +. (ms *. 1e6)

let merge ~into l =
  let add a b = Array.iteri (fun i v -> a.(i) <- a.(i) + v) b in
  add into.cnt l.cnt;
  add into.vcyc l.vcyc;
  add into.pt_n l.pt_n;
  Array.iteri (fun i v -> into.pt_ns.(i) <- into.pt_ns.(i) +. v) l.pt_ns;
  into.clock.(1) <- into.clock.(1) +. l.clock.(1);
  into.wall_ns <- into.wall_ns +. l.wall_ns;
  into.q_max <- max into.q_max l.q_max;
  into.q_sum <- into.q_sum + l.q_sum;
  into.q_n <- into.q_n + l.q_n

(* ---- the split ---- *)

let covered l = l.clock.(1)

(* Mean timed cost per cell, falling back to the slot's mean over all
   buckets, then the phase's, then every timed advance's, for cells
   with too few timed advances to stand alone. *)
let means l =
  let pooled f =
    let x = ref 0. and n = ref 0 in
    Array.iteri
      (fun i v ->
         if f (i mod Kernel.n_slots) then begin
           x := !x +. v;
           n := !n + l.pt_n.(i)
         end)
      l.pt_ns;
    if !n < 8 then None else Some (!x /. float_of_int !n)
  in
  let all = Option.value ~default:1. (pooled (fun _ -> true)) in
  let by_phase =
    List.map
      (fun ph -> (ph, Option.value ~default:all (pooled (fun s -> Kernel.slot_phase s = ph))))
      Kernel.all_phases
  in
  let by_slot =
    Array.init Kernel.n_slots (fun s ->
        match pooled (fun s' -> s' = s) with
        | Some m -> m
        | None -> List.assoc (Kernel.slot_phase s) by_phase)
  in
  Array.init n_cells (fun i ->
      if l.pt_n.(i) >= 8 then l.pt_ns.(i) /. float_of_int l.pt_n.(i)
      else by_slot.(i mod Kernel.n_slots))

(* Host ns per cell: the covered time split by count x mean cost. *)
let cells l =
  let m = means l in
  let w = Array.mapi (fun i n -> float_of_int n *. Float.max 0. m.(i)) l.cnt in
  let total = Array.fold_left ( +. ) 0. w in
  let k = if total > 0. then covered l /. total else 0. in
  Array.map (fun x -> x *. k) w

let pct a b = if b > 0. then 100. *. a /. b else 0.

let sum_cells c f =
  let s = ref 0. in
  Array.iteri (fun i v -> if f (i / Kernel.n_slots) (i mod Kernel.n_slots) then s := !s +. v) c;
  !s

let phase_host_pct c ph =
  pct (sum_cells c (fun _ s -> Kernel.slot_phase s = ph)) (sum_cells c (fun _ _ -> true))

let bucket_host_pct c b = pct (sum_cells c (fun b' _ -> b' = b)) (sum_cells c (fun _ _ -> true))

let phase_vcycle_pct l ph =
  let in_phase = ref 0 and all = ref 0 in
  Array.iteri
    (fun s c ->
       all := !all + c;
       if Kernel.slot_phase s = ph then in_phase := !in_phase + c)
    l.vcyc;
  pct (float_of_int !in_phase) (float_of_int !all)

(* Slot -> the op kind it belongs to; waits and checkpoint copies are
   not ops. *)
let kinds =
  [ "compute"; "load"; "store"; "send"; "call"; "reply"; "receive"; "kcall";
    "spawn"; "yield" ]

let kind_of_slot s =
  match Kernel.slot_phase s with
  | Kernel.Ph_wait | Kernel.Ph_checkpoint -> None
  | _ ->
    (match Kernel.slot_detail s with
     | "compute" | "rand" | "now" -> Some "compute"
     | ("load" | "store" | "send" | "call" | "reply" | "receive" | "spawn"
       | "yield") as d ->
       Some d
     | "downtime" -> None
     | _ -> Some "kcall")

(* Host ns per op of a kind: every slot of the kind (the op, its
   instrumentation drag and its undo-log ride) over the op's own
   advances. *)
let ns_per_op l c kind =
  let ops =
    sum_cells (Array.map float_of_int l.cnt) (fun _ s ->
        kind_of_slot s = Some kind
        && match Kernel.slot_phase s with Kernel.Ph_instr | Kernel.Ph_log -> false | _ -> true)
  in
  if ops = 0. then 0. else sum_cells c (fun _ s -> kind_of_slot s = Some kind) /. ops

let advances l = Array.fold_left ( + ) 0 l.cnt

(* Conservation: the share of the watched run-phase wall that the
   sampling windows cover, so the ledger splits it. *)
let attributed_pct l = pct (covered l) l.wall_ns

let queue_mean l =
  if l.q_n = 0 then 0. else float_of_int l.q_sum /. float_of_int l.q_n

(* Host-ns flamegraph in the folded format [osiris profile] writes for
   virtual cycles, so the two profiles of one workload can be diffed. *)
let folded c =
  let b = Buffer.create 4096 in
  Array.iteri
    (fun i v ->
       if v >= 0.5 then
         let s = i mod Kernel.n_slots in
         Printf.bprintf b "%s;%s;%s %.0f\n" bucket_name.(i / Kernel.n_slots)
           (Kernel.phase_to_string (Kernel.slot_phase s))
           (Kernel.slot_detail s) v)
    c;
  Buffer.contents b
