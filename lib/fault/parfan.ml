type worker_stat = {
  w_tasks : int;
  w_busy_ns : float;
}

type stats = {
  pf_jobs : int;
  pf_tasks : int;
  pf_wall_ns : float;
  pf_workers : worker_stat array;
}

let now_ns () = Unix.gettimeofday () *. 1e9

(* One domain is left for the submitting/merging domain. *)
let default_jobs () =
  match Sys.getenv_opt "OSIRIS_JOBS" with
  | Some s ->
    (match int_of_string_opt (String.trim s) with
     | Some n when n > 0 -> n
     | _ -> max 1 (Domain.recommended_domain_count () - 1))
  | None -> max 1 (Domain.recommended_domain_count () - 1)

let resolve_jobs ?jobs n_tasks =
  let requested =
    match jobs with Some j when j > 0 -> j | Some _ | None -> default_jobs ()
  in
  max 1 (min requested (max 1 n_tasks))

(* Minor-heap size (in words) each worker domain adopts at startup.
   Spawned domains start with the runtime's *initial* minor heap
   (256k words unless OCAMLRUNPARAM says otherwise), and OCaml 5's
   stop-the-world minor collections serialize allocation-heavy
   domains badly at that size: every domain hitting its 2 MB nursery
   every few ms forces a global pause.  A simulation run allocates
   heavily, so workers bump their nursery to 4M words (32 MB on
   64-bit) — measured to recover near-linear scaling where the
   default collapses below sequential throughput.  On a 2-vCPU host
   the e2e campaign (2 workers, 10 alternating pairs of 20-s runs)
   peaked at 117-122 MB resident at 4M words and 51-53 MB at 1M, but
   1M lost throughput: 187.7 runs/s median against 207.9, below the
   4M side's lower quartile (197.7), and slower in 8 of 10 pairs.  An
   earlier measurement put 8M words at 360-410 MB with runs/s within
   noise of 4M.  Overridable via OSIRIS_MINOR_HEAP (words); the
   calling domain is never touched. *)
let default_worker_minor_heap_words = 4 * 1024 * 1024

let worker_minor_heap_words () =
  match Sys.getenv_opt "OSIRIS_MINOR_HEAP" with
  | Some s ->
    (match int_of_string_opt (String.trim s) with
     | Some n when n > 0 -> n
     | _ -> default_worker_minor_heap_words)
  | None -> default_worker_minor_heap_words

(* One task's landing slot. Exceptions are values too: the merger
   re-raises the first failure in submission order, after the pool has
   drained, so a crash in task 7 cannot leave domains running. *)
type 'b cell =
  | Pending
  | Done of 'b
  | Raised of exn * Printexc.raw_backtrace

type queue = {
  m : Mutex.t;
  cv : Condition.t;
  pending : int Queue.t;      (* task indices, submission order *)
  mutable closed : bool;      (* no further submissions *)
  mutable poisoned : bool;    (* a task raised; drain without running *)
  mutable completed : int;
}

let with_lock q f =
  Mutex.lock q.m;
  Fun.protect ~finally:(fun () -> Mutex.unlock q.m) f

let worker q tasks results progress total busy count () =
  let wsz = worker_minor_heap_words () in
  let g = Gc.get () in
  if g.Gc.minor_heap_size < wsz then
    Gc.set { g with Gc.minor_heap_size = wsz };
  let next () =
    with_lock q (fun () ->
        let rec wait () =
          if Queue.is_empty q.pending then
            if q.closed then None
            else begin
              Condition.wait q.cv q.m;
              wait ()
            end
          else Some (Queue.pop q.pending)
        in
        wait ())
  in
  let rec loop () =
    match next () with
    | None -> ()
    | Some i ->
      (if with_lock q (fun () -> q.poisoned) then ()
       else begin
         let t0 = now_ns () in
         (match tasks.(i) () with
          | r -> results.(i) <- Done r
          | exception e ->
            let bt = Printexc.get_raw_backtrace () in
            results.(i) <- Raised (e, bt);
            with_lock q (fun () -> q.poisoned <- true)
         );
         busy := !busy +. (now_ns () -. t0);
         incr count;
         with_lock q (fun () ->
             q.completed <- q.completed + 1;
             match progress with
             | Some p -> p ~completed:q.completed ~total
             | None -> ())
       end);
      loop ()
  in
  loop ()

let sequential ?stats ?progress f xs =
  let t0 = now_ns () in
  let total = List.length xs in
  let completed = ref 0 in
  let ys =
    List.map
      (fun x ->
         let y = f x in
         incr completed;
         (match progress with
          | Some p -> p ~completed:!completed ~total
          | None -> ());
         y)
      xs
  in
  let wall = now_ns () -. t0 in
  (match stats with
   | Some k ->
     k { pf_jobs = 1;
         pf_tasks = total;
         pf_wall_ns = wall;
         pf_workers = [| { w_tasks = total; w_busy_ns = wall } |] }
   | None -> ());
  ys

let map ?jobs ?stats ?progress f xs =
  let n = List.length xs in
  let jobs = resolve_jobs ?jobs n in
  if jobs <= 1 then sequential ?stats ?progress f xs
  else begin
    let t0 = now_ns () in
    let tasks = Array.of_list (List.map (fun x () -> f x) xs) in
    let results = Array.make n Pending in
    let q =
      { m = Mutex.create ();
        cv = Condition.create ();
        pending = Queue.create ();
        closed = false;
        poisoned = false;
        completed = 0 }
    in
    let busy = Array.init jobs (fun _ -> ref 0.) in
    let count = Array.init jobs (fun _ -> ref 0) in
    let domains =
      Array.init jobs (fun w ->
          Domain.spawn
            (worker q tasks results progress n busy.(w) count.(w)))
    in
    with_lock q (fun () ->
        Array.iteri (fun i _ -> Queue.push i q.pending) tasks;
        q.closed <- true;
        Condition.broadcast q.cv);
    Array.iter Domain.join domains;
    let wall = now_ns () -. t0 in
    (match stats with
     | Some k ->
       k { pf_jobs = jobs;
           pf_tasks = n;
           pf_wall_ns = wall;
           pf_workers =
             Array.init jobs (fun w ->
                 { w_tasks = !(count.(w)); w_busy_ns = !(busy.(w)) }) }
     | None -> ());
    (* Merge in submission order; surface the first failure. *)
    let first_error = ref None in
    let ys =
      Array.to_list
        (Array.map
           (function
             | Done r -> Some r
             | Raised (e, bt) ->
               if !first_error = None then first_error := Some (e, bt);
               None
             | Pending ->
               (* Only reachable when an earlier task poisoned the
                  pool and this one was abandoned. *)
               None)
           results)
    in
    match !first_error with
    | Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> List.map Option.get ys
  end

(* ---- derived metrics ---- *)

let runs_per_sec s =
  if s.pf_wall_ns <= 0. then 0.
  else float_of_int s.pf_tasks /. (s.pf_wall_ns /. 1e9)

(* Aggregate busy time over wall time: what the fan-out bought versus
   running the same tasks back to back on one domain. *)
let est_speedup s =
  if s.pf_wall_ns <= 0. then 1.
  else
    let busy =
      Array.fold_left (fun acc w -> acc +. w.w_busy_ns) 0. s.pf_workers
    in
    busy /. s.pf_wall_ns

let imbalance_pct s =
  let k = Array.length s.pf_workers in
  if k <= 1 || s.pf_tasks = 0 then 0.
  else begin
    let mn = ref max_int and mx = ref 0 in
    Array.iter
      (fun w ->
         if w.w_tasks < !mn then mn := w.w_tasks;
         if w.w_tasks > !mx then mx := w.w_tasks)
      s.pf_workers;
    let mean = float_of_int s.pf_tasks /. float_of_int k in
    if mean <= 0. then 0. else 100. *. float_of_int (!mx - !mn) /. mean
  end

let speedup_line s =
  Printf.sprintf
    "parallel: %d worker%s, %d runs in %.2f s (%.0f runs/s, est speedup \
     %.2fx, imbalance %.0f%%)"
    s.pf_jobs
    (if s.pf_jobs = 1 then "" else "s")
    s.pf_tasks (s.pf_wall_ns /. 1e9) (runs_per_sec s) (est_speedup s)
    (imbalance_pct s)
