(* Host-side measurement primitives shared by every workload: the
   monotonic clock, nearest-rank percentiles, Python-compatible
   quartiles, peak RSS and GC counter deltas. *)

let now_ns () = Int64.to_float (Monotonic_clock.now ())

(* Process-relative origin for span timestamps. *)
let epoch_ns = now_ns ()

let time_ms f =
  let t0 = now_ns () in
  let r = f () in
  (r, (now_ns () -. t0) /. 1e6)

let sorted xs =
  let a = Array.copy xs in
  Array.sort compare a;
  a

(* Nearest rank through the repo-wide definition, so a quantile quoted
   here matches the same quantile quoted by the library's reports. *)
let percentile xs ~num ~den =
  let n = Array.length xs in
  if n = 0 then 0.
  else (sorted xs).(Osiris_util.Stats.rank ~num ~den n - 1)

let median xs = percentile xs ~num:1 ~den:2

let mean xs =
  let n = Array.length xs in
  if n = 0 then 0. else Array.fold_left ( +. ) 0. xs /. float_of_int n

(* Python's [statistics.quantiles(xs, n=4)] (method "exclusive"): the
   definition the benchmark's spread rule is stated in. *)
let quartiles xs =
  let a = sorted xs in
  let ld = Array.length a in
  if ld < 2 then invalid_arg "Meter.quartiles: need at least two values";
  let m = ld + 1 in
  let q i =
    let j = max 1 (min (ld - 1) (i * m / 4)) in
    let delta = (i * m) - (j * 4) in
    ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
    /. 4.
  in
  (q 1, q 2, q 3)

(* VmHWM: the process' peak resident set, which is why each workload
   runs in a process of its own. *)
let peak_rss_mb () =
  let parse line =
    Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
  in
  try
    In_channel.with_open_text "/proc/self/status" (fun ic ->
        let rec scan () =
          match In_channel.input_line ic with
          | None -> 0.
          | Some l when String.starts_with ~prefix:"VmHWM:" l -> parse l
          | Some _ -> scan ()
        in
        scan ())
  with Sys_error _ | Scanf.Scan_failure _ | End_of_file -> 0.

(* Runtime counters of the whole process, for the per-layer GC
   figures. Per-run allocation is counted with [Gc.minor_words] in the
   run's own domain instead. *)
type gc = {
  promoted_words : float;
  minor_collections : int;
  major_collections : int;
}

let gc () =
  let s = Gc.quick_stat () in
  { promoted_words = s.Gc.promoted_words;
    minor_collections = s.Gc.minor_collections;
    major_collections = s.Gc.major_collections }

let gc_zero =
  { promoted_words = 0.; minor_collections = 0; major_collections = 0 }

let gc_add a b =
  { promoted_words = a.promoted_words +. b.promoted_words;
    minor_collections = a.minor_collections + b.minor_collections;
    major_collections = a.major_collections + b.major_collections }

let gc_since g0 =
  let g = gc () in
  { promoted_words = g.promoted_words -. g0.promoted_words;
    minor_collections = g.minor_collections - g0.minor_collections;
    major_collections = g.major_collections - g0.major_collections }
