(* The host-speed reference.

   On a shared host the speed at which this process executes swings by
   10-40% over seconds to minutes with co-tenant load, while its CPU
   time stays ~99% of wall: contention, not preemption. Timing a fixed
   probe next to every run and scaling host times by [ref_ms / probe
   ms] cancels most of it: over ten 20 s suite runs in a noisy hour,
   unscaled runs/s spread 19% (interquartile range over median) and
   scaled runs/s 1.5%.

   The probe does the simulator's kind of work — read-only Map and
   Hashtbl lookups, pointer chasing through records, closure calls —
   on data built once at start-up, and allocates nothing, so it never
   pays the simulator's GC debt and no change to the repo's code can
   change its cost. It mutates nothing, so pool workers share it. *)

module M = Map.Make (Int)

let keys = 16384

let map = List.fold_left (fun m i -> M.add (i * 7) (i * 3) m) M.empty (List.init keys Fun.id)

let tbl =
  let h = Hashtbl.create 8192 in
  for i = 0 to 8191 do Hashtbl.replace h i (i * 5) done;
  h

type node = { v : int; next : int; f : int -> int }

let fs = [| (fun x -> x + 1); (fun x -> x lxor 5); (fun x -> x * 3); (fun x -> x - 7) |]

let nodes =
  Array.init 32768 (fun i -> { v = i; next = ((i * 40503) + 17) land 32767; f = fs.(i land 3) })

let run () =
  let s = ref 0 and j = ref 0 in
  for i = 1 to 5_000 do
    s := !s + M.find (((i * 7919) land (keys - 1)) * 7) map;
    s := !s + Hashtbl.find tbl (i land 8191);
    let n = nodes.(!j) in
    s := !s + n.f (n.v + (!s land 1023));
    j := n.next
  done;
  !s

(* A warm-up pass first, so what is timed is the host's speed and not
   how much of the probe's data the last run evicted from the caches;
   the same either way, whatever ran before. *)
let time_ms () =
  ignore (Sys.opaque_identity (run ()));
  snd (Meter.time_ms (fun () -> ignore (Sys.opaque_identity (run ()))))

(* The timed pass on a quiet host of the kind this benchmark was
   written on (2 vCPUs of a shared Xeon): there, one reference ms is
   about one ms. *)
let ref_ms = 0.8
