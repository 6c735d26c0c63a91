(* Critical-path engine benchmark: whether the attribution pipeline
   keeps its exactness promises.

   Run with [dune exec bench/main.exe critpath] (artifact
   BENCH_critpath.json; [--smoke] for the runtest variant, see
   benchkit.ml). Both modes run the same checks. Exits non-zero when a
   gate fails.

   Informational, no gate: the host ns per event of [Runmodel.of_list]
   and of [Critpath.analyze] (which builds its own run model) over the
   fixture stream, best of the interleaved rounds ("ns_per_event").

   Gates:
     conservation       exact   every analyzed request's buckets sum to
                                exactly its end-to-end latency — zero
                                tolerance
     journal_parity     exact   attributing the decoded journal of a run
                                yields a byte-identical rendering to
                                attributing the live event stream
     blame_identity     exact   the per-spec p99-blame rollup is
                                byte-identical across re-runs and across
                                domain-pool worker counts (jobs:1 vs
                                jobs:4, submission-order merge) *)

let workload_seed = 42

let collect_events ~spec ~crash =
  let header =
    match
      Flight.make_header ~seed:workload_seed ~spec ~workload:"quickstart"
        ~crash ()
    with
    | Ok h -> h
    | Error m -> failwith m
  in
  let c = Obs_collector.create () in
  ignore (Flight.run ~event_hook:(Obs_collector.record c) header);
  (header, Obs_collector.events c)

(* Canonical rendering used by the parity and identity gates — every
   field of every breakdown, in analysis order. *)
let render_result (r : Critpath.result) =
  let buf = Buffer.create 1024 in
  Printf.bprintf buf "incomplete=%d\n" r.Critpath.cr_incomplete;
  List.iter
    (fun (b : Critpath.breakdown) ->
       Printf.bprintf buf
         "ep=%d rid=%d inj=%b a=%d x=%d own=%d q=%d svc=[%s] ck=%d rb=%d \
          rs=%d col=%d path=[%s]\n"
         b.Critpath.cp_ep b.Critpath.cp_rid b.Critpath.cp_injected
         b.Critpath.cp_arrival b.Critpath.cp_exit b.Critpath.cp_own
         b.Critpath.cp_queue
         (String.concat ";"
            (List.map
               (fun (ep, c) -> Printf.sprintf "%d:%d" ep c)
               b.Critpath.cp_service))
         b.Critpath.cp_checkpoint b.Critpath.cp_rollback
         b.Critpath.cp_restart b.Critpath.cp_collateral
         (String.concat ";" (List.map string_of_int b.Critpath.cp_path)))
    r.Critpath.cr_requests;
  Buffer.contents buf

let render_profile = function
  | None -> "no-profile\n"
  | Some tp ->
    let buf = Buffer.create 256 in
    Printf.bprintf buf "n=%d p50=%d p99=%d\n" tp.Tailprof.tp_n
      tp.Tailprof.tp_p50 tp.Tailprof.tp_p99;
    List.iter
      (fun (bk, delta) ->
         let bi = Tailprof.bucket_index bk in
         Printf.bprintf buf "%s lo=%d hi=%d d=%d\n"
           (Tailprof.bucket_name bk)
           tp.Tailprof.tp_low.Tailprof.co_mean10.(bi)
           tp.Tailprof.tp_high.Tailprof.co_mean10.(bi)
           delta)
      tp.Tailprof.tp_blame;
    Buffer.contents buf

let blame_specs = [ "enhanced"; "pessimistic"; "enhanced,ds=stateless" ]

let blame_rollup ~jobs =
  String.concat "--\n"
    (Parfan.map ~jobs
       (fun spec ->
          let _, events = collect_events ~spec ~crash:"ds" in
          let r = Critpath.analyze events in
          render_profile (Tailprof.profile r.Critpath.cr_requests))
       blame_specs)

let run () =
  Printf.printf
    "\n================================================================\n\
     Critical-path engine: conservation, parity\n\
     ================================================================\n";
  (* ---- conservation ---- *)
  let header, events = collect_events ~spec:"enhanced" ~crash:"ds" in
  let result = Critpath.analyze events in
  let n_requests = List.length result.Critpath.cr_requests in
  let conserved =
    n_requests > 0
    && List.for_all
         (fun b -> Critpath.breakdown_sum b = Critpath.total b)
         result.Critpath.cr_requests
  in
  Printf.printf "conservation: %d requests, buckets %s\n" n_requests
    (if conserved then "exact" else "VIOLATED");
  (* ---- journal parity ---- *)
  let live_render = render_result result in
  let parity =
    match Journal.read_string (Journal.of_events header events) with
    | Error m -> failwith ("critpath bench: journal decode: " ^ m)
    | Ok (_, decoded) ->
      String.equal live_render
        (render_result (Critpath.analyze (Array.to_list decoded)))
  in
  Printf.printf "journal parity: attribution of decoded journal %s\n"
    (if parity then "byte-identical to live" else "DIFFERS");
  (* ---- blame identity ---- *)
  let b1 = blame_rollup ~jobs:1 in
  let b1' = blame_rollup ~jobs:1 in
  let b4 = blame_rollup ~jobs:4 in
  let blame_identical = String.equal b1 b1' && String.equal b1 b4 in
  Printf.printf
    "blame rollup (%d specs): re-run %s, jobs:1 vs jobs:4 %s\n"
    (List.length blame_specs)
    (if String.equal b1 b1' then "identical" else "DIFFERS")
    (if String.equal b1 b4 then "identical" else "DIFFERS");
  (* ---- per-event cost of the two layers ---- *)
  let n_events = List.length events in
  let best, rounds =
    Benchkit.best_of
      [ Benchkit.timed (fun () -> ignore (Runmodel.of_list events));
        Benchkit.timed (fun () -> ignore (Critpath.analyze events)) ]
  in
  let per_event i = best.(i) /. float_of_int n_events in
  Printf.printf
    "per event (%d events, best of %d rounds): Runmodel.of_list %.0f ns, \
     Critpath.analyze %.0f ns\n"
    n_events rounds (per_event 0) (per_event 1);
  Benchkit.finish ~bench:"critpath"
    [ ("workload_seed", string_of_int workload_seed);
      ( "conservation",
        Printf.sprintf "{\"requests\": %d, \"event_exact\": %b}" n_requests
          conserved );
      ("journal_parity", string_of_bool parity);
      ( "blame",
        Printf.sprintf "{\"specs\": %d, \"bytes\": %d, \"identical\": %b}"
          (List.length blame_specs) (String.length b1) blame_identical );
      ( "ns_per_event",
        Printf.sprintf
          "{\"events\": %d, \"rounds\": %d, \"runmodel_of_list\": %.1f, \
           \"critpath_analyze\": %.1f}"
          n_events rounds (per_event 0) (per_event 1) ) ]
    [ Benchkit.exact "conservation" conserved;
      Benchkit.exact "journal_parity" parity;
      Benchkit.exact "blame_identity" blame_identical ]
