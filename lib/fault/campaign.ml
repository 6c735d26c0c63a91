type outcome = Pass | Fail | Shutdown | Crash

let outcome_name = function
  | Pass -> "pass"
  | Fail -> "fail"
  | Shutdown -> "shutdown"
  | Crash -> "crash"

module Keys = Hashtbl.Make (struct
    type t = int

    let equal = Int.equal
    let hash k = k land max_int
  end)

let profile_sites_conf ?(seed = 42) conf =
  let sys = System.build ~seed conf in
  let seen = Keys.create 4096 in
  let order = ref [] in
  Kernel.set_fault_hook ~scope:System.core_servers (System.kernel sys)
    (Some
       (fun site ->
          let key = Kernel.site_key site in
          if not (Keys.mem seen key) then begin
            Keys.add seen key ();
            order := site :: !order
          end;
          None));
  let (_ : Kernel.halt) = System.run sys ~root:Testsuite.driver in
  List.rev !order

let profile_sites ?seed policy = profile_sites_conf ?seed (Sysconf.uniform policy)

(* Identity-derived sampling: a site's rank is a hash of its *name*
   (mixed with the selection seed), not its position in the profiled
   list. A position-based shuffle reshuffles the whole selection the
   moment the site list grows (a new handler, a deeper suite run
   renumbering everything after it); ranking by identity keeps the
   selection stable up to the marginal displacement the new sites
   themselves cause. Selection = the [sample] smallest ranks, ties
   broken by name; the chosen sites are returned in rank order
   (deterministic, independent of input order). *)
let site_rank seed name =
  (* FNV-1a over the site name, seed folded into the offset basis;
     self-contained so the fixture test pins bytes, not stdlib
     internals. Masked to 62 bits to stay a nonnegative OCaml int. *)
  let mask = (1 lsl 62) - 1 in
  let h = ref ((0x811c9dc5 lxor (seed * 0x01000193)) land mask) in
  String.iter
    (fun c -> h := (!h lxor Char.code c) * 0x01000193 land mask)
    name;
  !h

let select_sites ?(seed = 7) ~sample sites =
  if sample <= 0 || sample >= List.length sites then sites
  else
    List.map snd
      (List.filteri
         (fun i _ -> i < sample)
         (List.sort
            (fun (a, _) (b, _) -> compare a b)
            (List.map
               (fun s ->
                  let name = Kernel.site_to_string s in
                  ((site_rank seed name, name), s))
               sites)))

let classify halt (results : Testsuite.results) =
  match halt with
  | Kernel.H_shutdown _ -> Shutdown
  | Kernel.H_panic _ | Kernel.H_hang -> Crash
  | Kernel.H_completed status ->
    if not results.Testsuite.complete then Crash
    else if results.Testsuite.failed > 0 || status <> 0 then Fail
    else Pass

(* One injection run: a fresh boot with [faults] armed, the suite, and
   the outcome. *)
let armed_run ~seed conf faults =
  let sys = System.build ~seed conf in
  Kernel.arm (System.kernel sys) faults;
  let halt = System.run sys ~root:Testsuite.driver in
  (sys, classify halt (Testsuite.parse_results (System.log_lines sys)))

let run_one ?(seed = 42) policy site action =
  snd (armed_run ~seed (Sysconf.uniform policy) [ (site, action) ])

(* ---- per-run telemetry summaries ----

   A campaign-grade run must not pay observability overhead: attaching
   an event hook flips the kernel's [observing] flag and every event
   record gets constructed. The summary therefore reads only kernel
   introspection counters after the run — crash instants, recovery
   episodes, lifetime counters — which cost nothing while the
   simulation executes. *)

type run_summary = {
  sm_outcome : outcome;
  sm_spec : string;
  sm_site : string;
  sm_final_vtime : int;
  sm_crashes : int;
  sm_restarts : int;
  sm_crash_times : int list;                (* oldest first *)
  sm_episodes : (string * int * int) list;  (* (server, crashed_at,
                                               recovered_at), oldest first *)
  sm_mttr : Histogram.t;                    (* per-run recovery latencies *)
}

let summarize ~spec ~site sys outcome =
  let k = System.kernel sys in
  let episodes =
    List.rev_map
      (fun (ep, c, r) -> (Endpoint.server_name ep, c, r))
      (Kernel.recovery_episodes k)
  in
  let h = Histogram.create () in
  List.iter (fun (_, c, r) -> Histogram.observe h (r - c)) episodes;
  { sm_outcome = outcome;
    sm_spec = spec;
    sm_site = site;
    sm_final_vtime = Kernel.now k;
    sm_crashes = Kernel.crashes k;
    sm_restarts = Kernel.restarts k;
    sm_crash_times = List.rev (Kernel.crash_times k);
    sm_episodes = episodes;
    sm_mttr = h }

let run_one_summary ?(seed = 42) conf site action =
  let sys, outcome = armed_run ~seed conf [ (site, action) ] in
  summarize ~spec:(Sysconf.name conf) ~site:(Kernel.site_to_string site) sys
    outcome

type row = {
  row_policy : string;
  runs : int;
  pass : int;
  fail : int;
  shutdown : int;
  crash : int;
}

let run_multi ?(seed = 42) policy faults =
  snd (armed_run ~seed (Sysconf.uniform policy) faults)

(* ---- parallel fan-out ----

   Every injection run is an independent deterministic simulation
   (fresh [System.build], no shared mutable state — the kernel's slot
   tables are frozen at module init), so campaigns fan the runs out
   across a {!Parfan} domain pool. The task list is built in row-major
   (spec-major) order and [Parfan.map] merges results in submission
   order, so the counted rows — and every artifact derived from them —
   are byte-identical to the sequential path ([jobs = 1], the oracle
   in test/test_parfan.ml and bench/parfan_bench.ml). *)

let count_rows ~label ~runs_per_row rows outcomes =
  let arr = Array.of_list outcomes in
  List.mapi
    (fun ri row ->
       let counts = Hashtbl.create 4 in
       let bump o =
         Hashtbl.replace counts o
           (1 + Option.value ~default:0 (Hashtbl.find_opt counts o))
       in
       for i = 0 to runs_per_row - 1 do
         bump arr.((ri * runs_per_row) + i)
       done;
       let get o = Option.value ~default:0 (Hashtbl.find_opt counts o) in
       { row_policy = label row;
         runs = runs_per_row;
         pass = get Pass;
         fail = get Fail;
         shutdown = get Shutdown;
         crash = get Crash })
    rows

let survivability_multi ?(seed = 42) ?(sample = 60) ?jobs ?stats ?progress ~k
    model policies =
  let sites = Array.of_list (profile_sites ~seed Policy.enhanced) in
  let rng = Osiris_util.Rng.create (seed + 2) in
  let groups =
    List.init (max 1 sample) (fun _ ->
        (* k distinct sites per run *)
        let chosen = Hashtbl.create k in
        let rec pick acc n =
          if n = 0 then acc
          else
            let i = Osiris_util.Rng.int rng (Array.length sites) in
            if Hashtbl.mem chosen i then pick acc n
            else begin
              Hashtbl.replace chosen i ();
              let site = sites.(i) in
              pick ((site, Edfi.action_for model site) :: acc) (n - 1)
            end
        in
        pick [] (min k (Array.length sites)))
  in
  let tasks =
    List.concat_map
      (fun policy -> List.map (fun faults -> (policy, faults)) groups)
      policies
  in
  let outcomes =
    Parfan.map ?jobs ?stats ?progress
      (fun (policy, faults) -> run_multi ~seed policy faults)
      tasks
  in
  count_rows ~label:(fun (p : Policy.t) -> p.Policy.name)
    ~runs_per_row:(List.length groups) policies outcomes


let fraction row outcome =
  let n = match outcome with
    | Pass -> row.pass
    | Fail -> row.fail
    | Shutdown -> row.shutdown
    | Crash -> row.crash
  in
  if row.runs = 0 then 0. else float_of_int n /. float_of_int row.runs

(* ---- campaign rollup ----

   Per-run summaries merged in submission order into one campaign-level
   telemetry artifact. Every section below is a pure fold over the
   ordered summary list (and the histogram merge is commutative
   anyway), so the rollup is byte-identical at any [--jobs] — the same
   contract as the counted rows, extended to telemetry, and gated by
   bench/timeseries_bench.ml. Pool statistics are the one quantity
   that physically varies with the worker count; they ride in the
   artifact's optional "pool" section, which the identity contract
   explicitly excludes. *)

let crash_bins = 64

type rollup = {
  ro_runs : int;
  ro_pass : int;
  ro_fail : int;
  ro_shutdown : int;
  ro_crash : int;
  ro_crashes_total : int;
  ro_restarts_total : int;
  ro_mttr : Histogram.t;
  ro_mttr_by_server : (string * Histogram.t) list;  (* sorted by name *)
  ro_crash_storm : int array;   (* [crash_bins] counts over vtime *)
  ro_bin_width : int;
  ro_max_vtime : int;
}

let rollup_of_summaries summaries =
  let runs = List.length summaries in
  let count o =
    List.length (List.filter (fun s -> s.sm_outcome = o) summaries)
  in
  let mttr = Histogram.create () in
  (* The campaign histogram is the per-run histograms merged — the
     production use of [Histogram.merge_into]; QCheck asserts merged
     percentiles equal observing the union stream. *)
  List.iter (fun s -> Histogram.merge_into ~into:mttr s.sm_mttr) summaries;
  let by_server = Hashtbl.create 8 in
  List.iter
    (fun s ->
       List.iter
         (fun (srv, c, r) ->
            let h =
              match Hashtbl.find_opt by_server srv with
              | Some h -> h
              | None ->
                let h = Histogram.create () in
                Hashtbl.replace by_server srv h;
                h
            in
            Histogram.observe h (r - c))
         s.sm_episodes)
    summaries;
  let mttr_by_server =
    List.sort
      (fun (a, _) (b, _) -> compare a b)
      (Hashtbl.fold (fun k v acc -> (k, v) :: acc) by_server [])
  in
  let max_vtime =
    List.fold_left (fun acc s -> max acc s.sm_final_vtime) 0 summaries
  in
  let bin_width = max 1 ((max_vtime + crash_bins - 1) / crash_bins) in
  let storm = Array.make crash_bins 0 in
  List.iter
    (fun s ->
       List.iter
         (fun at ->
            let b = min (crash_bins - 1) (max 0 (at / bin_width)) in
            storm.(b) <- storm.(b) + 1)
         s.sm_crash_times)
    summaries;
  { ro_runs = runs;
    ro_pass = count Pass;
    ro_fail = count Fail;
    ro_shutdown = count Shutdown;
    ro_crash = count Crash;
    ro_crashes_total =
      List.fold_left (fun acc s -> acc + s.sm_crashes) 0 summaries;
    ro_restarts_total =
      List.fold_left (fun acc s -> acc + s.sm_restarts) 0 summaries;
    ro_mttr = mttr;
    ro_mttr_by_server = mttr_by_server;
    ro_crash_storm = storm;
    ro_bin_width = bin_width;
    ro_max_vtime = max_vtime }

(* Profiling runs under uniform enhanced: the site stream is produced
   by a fault-free suite run, and the enhanced stream is a superset of
   every evaluation policy's (asserted by test_compartment's profile-
   superset test, replacing the old "in practice" hand-wave).

   [sample] defaults to 0 — the full profiled site set, as in the
   paper's 757-site campaigns. The domain pool makes that the normal
   path; pass a positive [sample] for a quick sampled estimate. *)
let survivability_matrix_rollup ?(seed = 42) ?(sample = 0) ?jobs ?stats
    ?progress model confs =
  let sites = profile_sites ~seed Policy.enhanced in
  let sites = select_sites ~seed:(seed + 1) ~sample sites in
  let faults = List.map (fun s -> (s, Edfi.action_for model s)) sites in
  let tasks =
    List.concat_map
      (fun conf ->
         List.map (fun (site, action) -> (conf, site, action)) faults)
      confs
  in
  let summaries =
    Parfan.map ?jobs ?stats ?progress
      (fun (conf, site, action) -> run_one_summary ~seed conf site action)
      tasks
  in
  let rows =
    count_rows ~label:Sysconf.name ~runs_per_row:(List.length faults) confs
      (List.map (fun s -> s.sm_outcome) summaries)
  in
  (rows, rollup_of_summaries summaries)

let survivability_matrix ?seed ?sample ?jobs ?stats ?progress model confs =
  fst
    (survivability_matrix_rollup ?seed ?sample ?jobs ?stats ?progress model
       confs)

(* Tables II/III are the uniform diagonal of the matrix: a uniform spec
   of each evaluation policy (row labels coincide — [Sysconf.uniform p]
   is named [p.name]). *)
let survivability ?seed ?sample ?jobs ?stats ?progress model policies =
  survivability_matrix ?seed ?sample ?jobs ?stats ?progress model
    (List.map Sysconf.uniform policies)

let add_int_array b vals =
  Buffer.add_char b '[';
  Array.iteri
    (fun i v ->
       if i > 0 then Buffer.add_char b ',';
       Buffer.add_string b (string_of_int v))
    vals;
  Buffer.add_char b ']'

let add_hist b h =
  Buffer.add_string b
    (Printf.sprintf
       "{\"count\":%d,\"sum\":%d,\"min\":%d,\"max\":%d,\"p50\":%d,\"p95\":%d,\"p99\":%d,\"buckets\":["
       (Histogram.count h) (Histogram.sum h) (Histogram.min_value h)
       (Histogram.max_value h)
       (int_of_float (Histogram.p50 h))
       (int_of_float (Histogram.p95 h))
       (int_of_float (Histogram.p99 h)));
  List.iteri
    (fun i (ub, c) ->
       if i > 0 then Buffer.add_char b ',';
       Buffer.add_string b (Printf.sprintf "[%d,%d]" ub c))
    (Histogram.buckets h);
  Buffer.add_string b "]}"

let rollup_to_json ?pool ro =
  let b = Buffer.create 4096 in
  Buffer.add_string b
    (Printf.sprintf
       "{\"runs\":%d,\"pass\":%d,\"fail\":%d,\"shutdown\":%d,\"crash\":%d,\"crashes_total\":%d,\"restarts_total\":%d,\"mttr\":"
       ro.ro_runs ro.ro_pass ro.ro_fail ro.ro_shutdown ro.ro_crash
       ro.ro_crashes_total ro.ro_restarts_total);
  add_hist b ro.ro_mttr;
  Buffer.add_string b ",\"mttr_by_server\":[";
  List.iteri
    (fun i (srv, h) ->
       if i > 0 then Buffer.add_char b ',';
       Buffer.add_string b "{\"server\":";
       Buffer.add_string b (Chrome_trace.escaped srv);
       Buffer.add_string b ",\"mttr\":";
       add_hist b h;
       Buffer.add_char b '}')
    ro.ro_mttr_by_server;
  Buffer.add_string b
    (Printf.sprintf "],\"crash_storm\":{\"bin_width\":%d,\"max_vtime\":%d,\"bins\":"
       ro.ro_bin_width ro.ro_max_vtime);
  add_int_array b ro.ro_crash_storm;
  Buffer.add_string b "}";
  (match pool with
   | None -> ()
   | Some (st : Parfan.stats) ->
     (* Wall-clock worker utilization: real time, so this section is
        excluded from the byte-identity contract (it is the only part
        of the artifact allowed to vary with --jobs or across runs). *)
     Buffer.add_string b
       (Printf.sprintf ",\"pool\":{\"jobs\":%d,\"tasks\":%d,\"wall_ms\":%.1f,\"workers\":["
          st.Parfan.pf_jobs st.Parfan.pf_tasks
          (st.Parfan.pf_wall_ns /. 1e6));
     Array.iteri
       (fun i (w : Parfan.worker_stat) ->
          if i > 0 then Buffer.add_char b ',';
          Buffer.add_string b
            (Printf.sprintf "{\"worker\":%d,\"tasks\":%d,\"busy_ms\":%.1f}" i
               w.Parfan.w_tasks (w.Parfan.w_busy_ns /. 1e6)))
       st.Parfan.pf_workers;
     Buffer.add_string b "]}");
  Buffer.add_char b '}';
  Buffer.contents b
