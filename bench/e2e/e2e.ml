(* End-to-end benchmark: four workloads, host speed and simulated
   results, with a sampled host-ns ledger per layer. See README.md.

     e2e.exe run --workload W [--seed N] [--seconds S] [--trace 0|1] [--out DIR]
     e2e.exe smoke --benchmark BENCHMARK.json
     e2e.exe calibrate

   [run] measures one workload in this process and prints every metric
   as "W name value unit", the checks, and last a JSON result line.
   [smoke] runs every workload at a tiny size, untraced and traced, and
   fails unless every check passes and every metric BENCHMARK.json
   names is printed. [calibrate], from the repo root, runs [run] in
   child processes over two sets of ten seeds and writes each metric's
   median, quartiles and spread to bench/e2e/baseline.json. *)

let workloads =
  [ ("suite", (Suite_wl.run, Suite_wl.trace));
    ("campaign", (Campaign_wl.run, Campaign_wl.trace));
    ("load", (Load_wl.run, Load_wl.trace));
    ("observe", (Observe_wl.run, Observe_wl.trace)) ]

let die fmt = Printf.ksprintf (fun m -> prerr_endline ("e2e: " ^ m); exit 2) fmt

let parse_opts args allowed =
  let rec go acc = function
    | [] -> acc
    | k :: v :: rest when List.mem k allowed -> go ((k, v) :: acc) rest
    | k :: _ -> die "unknown or incomplete option %s (expected one of %s)" k (String.concat " " allowed)
  in
  go [] args

let opt opts k default conv =
  match List.assoc_opt k opts with
  | None -> default
  | Some v -> (try conv v with _ -> die "bad value %S for %s" v k)

(* ---- one workload's output ---- *)

let render ~workload ~trace (rep : Harness.report) =
  let catalogue = if trace then Harness.per_layer else Harness.end_to_end in
  List.iter
    (fun (n, _) ->
       if not (List.mem_assoc n catalogue) then
         invalid_arg ("e2e: metric missing from the catalogue: " ^ n))
    rep.Harness.metrics;
  let value n = Option.value ~default:0. (List.assoc_opt n rep.Harness.metrics) in
  let c = rep.Harness.checks in
  let b = Buffer.create 8192 in
  List.iter (fun (n, u) -> Printf.bprintf b "%s %s %s %s\n" workload n (Harness.num (value n)) u) catalogue;
  Printf.bprintf b "%s failed_pct %s %%\n" workload
    (Harness.num (100. *. float_of_int c.Harness.failed /. float_of_int (max 1 c.Harness.attempted)));
  Printf.bprintf b "%s sim_digest %s\n" workload rep.Harness.digest;
  List.iter (fun (k, v) -> Printf.bprintf b "%s %s %s\n" workload k v) rep.Harness.info;
  if trace then begin
    (* The ledger must account for the traced run-phase wall, and on
       the suite its 2^6 shares must match a per-advance run. *)
    let att = value "kernel.attributed_pct" in
    Printf.bprintf b "%s trace_check attribution %s %.2f%%\n" workload
      (if Float.abs (att -. 100.) <= 2. then "ok" else "OFF") att;
    if workload = "suite" then begin
      let d = value "trace.exact_share_diff_pts" in
      Printf.bprintf b "%s trace_check exact_shares %s %.2f pts\n" workload
        (if d <= 3. then "ok" else "OFF") d
    end
  end;
  List.iter (fun m -> Printf.bprintf b "%s check FAILED %s\n" workload m) c.Harness.notes;
  Printf.bprintf b "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {"
    (c.Harness.failed = 0) c.Harness.attempted c.Harness.failed;
  List.iteri
    (fun i (n, u) ->
       Printf.bprintf b "%s%S: {\"value\": %s, \"unit\": %S}"
         (if i = 0 then "" else ", ") n (Harness.num (value n)) u)
    catalogue;
  Buffer.add_string b "}}\n";
  Buffer.contents b

let default_out = Filename.concat "bench" (Filename.concat "e2e" "_out")

let measure ~workload ~trace cfg =
  match List.assoc_opt workload workloads with
  | None -> die "unknown workload %S (known: %s)" workload (String.concat ", " (List.map fst workloads))
  | Some (run, traced) -> (if trace then traced else run) cfg

let run_cmd args =
  let o = parse_opts args [ "--workload"; "--seed"; "--seconds"; "--trace"; "--out" ] in
  let workload = opt o "--workload" "" Fun.id in
  if workload = "" then die "run: --workload is required";
  let trace =
    opt o "--trace" false (function "0" -> false | "1" -> true | _ -> failwith "trace")
  in
  let cfg =
    { Harness.seed = opt o "--seed" 42 int_of_string;
      seconds = opt o "--seconds" 20. (fun s -> Float.max 0. (float_of_string s));
      size = Harness.Full;
      out = opt o "--out" default_out Fun.id }
  in
  print_string (render ~workload ~trace (measure ~workload ~trace cfg))

(* ---- BENCHMARK.json fields ----

   The file is this benchmark's own, written one metric per object, so
   a field scan stands in for a JSON parser. *)

let section text key =
  let find sub from =
    let n = String.length sub in
    let rec go i =
      if i + n > String.length text then die "no %s in the benchmark file" sub
      else if String.sub text i n = sub then i
      else go (i + 1)
    in
    go from
  in
  let start = find (Printf.sprintf "%S" key) 0 in
  String.sub text start (find "]" start - start)

(* Values of [field] in order of appearance: strings unquoted, numbers
   as written. *)
let fields sec field =
  let key = Printf.sprintf "%S" field in
  let n = String.length key and len = String.length sec in
  let rec go i acc =
    if i + n > len then List.rev acc
    else if String.sub sec i n <> key then go (i + 1) acc
    else begin
      let j = ref (i + n) in
      while !j < len && (sec.[!j] = ' ' || sec.[!j] = ':') do incr j done;
      let quoted = !j < len && sec.[!j] = '"' in
      if quoted then incr j;
      let k = ref !j in
      while !k < len && (if quoted then sec.[!k] <> '"' else not (String.contains ",}\n " sec.[!k])) do
        incr k
      done;
      go !k (String.sub sec !j (!k - !j) :: acc)
    end
  in
  go 0 []

let metric_table text key =
  let sec = section text key in
  List.combine (fields sec "name") (fields sec "unit")

let read_file path =
  try In_channel.with_open_bin path In_channel.input_all
  with Sys_error m -> die "%s" m

(* ---- smoke ---- *)

let printed out ~workload (n, u) =
  List.exists
    (fun line ->
       match String.split_on_char ' ' line with
       | [ w; n'; _; u' ] -> w = workload && n' = n && u' = u
       | _ -> false)
    (String.split_on_char '\n' out)

let smoke_cmd args =
  let o = parse_opts args [ "--benchmark" ] in
  let text = read_file (opt o "--benchmark" "BENCHMARK.json" Fun.id) in
  let ok = ref true in
  let fail fmt = Printf.ksprintf (fun m -> prerr_endline ("smoke: " ^ m); ok := false) fmt in
  let e2e = metric_table text "end_to_end" and layers = metric_table text "per_layer" in
  if e2e <> Harness.end_to_end then fail "end_to_end metrics differ from the catalogue";
  if layers <> Harness.per_layer then fail "per_layer metrics differ from the catalogue";
  List.iter
    (fun (workload, _) ->
       List.iter
         (fun trace ->
            let cfg =
              { Harness.seed = 42; seconds = 0.; size = Harness.Smoke; out = default_out }
            in
            let rep = measure ~workload ~trace cfg in
            let s = render ~workload ~trace rep in
            print_string s;
            let c = rep.Harness.checks in
            if c.Harness.failed > 0 || c.Harness.attempted = 0 then
              fail "%s (trace %b): %d of %d checks failed" workload trace c.Harness.failed
                c.Harness.attempted;
            List.iter
              (fun m -> if not (printed s ~workload m) then fail "%s: %s not printed" workload (fst m))
              (if trace then layers else e2e))
         [ false; true ])
    workloads;
  if not !ok then exit 1

(* ---- calibrate ---- *)

let child_lines exe args =
  let ic = Unix.open_process_args_in exe (Array.of_list (exe :: args)) in
  let out = In_channel.input_all ic in
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> Some (String.split_on_char '\n' out)
  | _ -> None

let git_head () =
  try
    match child_lines "git" [ "describe"; "--always"; "--dirty"; "--abbrev=12" ] with
    | Some (l :: _) when l <> "" -> l
    | _ -> "unknown"
  with Unix.Unix_error _ -> "unknown"

let cpu_model () =
  try
    In_channel.with_open_text "/proc/cpuinfo" (fun ic ->
        let rec scan () =
          match In_channel.input_line ic with
          | None -> "unknown"
          | Some l when String.starts_with ~prefix:"model name" l ->
            String.trim (List.nth (String.split_on_char ':' l) 1)
          | Some _ -> scan ()
        in
        scan ())
  with Sys_error _ -> "unknown"

(* Two sets of ten seeds each, every workload per seed, at the
   benchmark's own run length. A metric's spread is the wider of the
   two sets'; its drift is the second set's median against the
   first's. *)
let runs = 10
let sets = 2
let seed_base = 1000

let calibrate_cmd () =
  let text = read_file "BENCHMARK.json" in
  let e2e = section text "end_to_end" in
  let names = fields e2e "name" and units = fields e2e "unit" in
  let betters = fields e2e "better" in
  let bounds = List.map float_of_string (fields e2e "bound") in
  let seconds =
    match fields text "run_seconds" with s :: _ -> s | [] -> die "no run_seconds in BENCHMARK.json"
  in
  let exe = Sys.executable_name in
  let values = Hashtbl.create 64 and bad = ref 0 in
  for set = 0 to sets - 1 do
    for r = 1 to runs do
      List.iter
        (fun w ->
           let seed = seed_base + (set * runs) + r in
           match
             child_lines exe
               [ "run"; "--workload"; w; "--seed"; string_of_int seed; "--seconds"; seconds;
                 "--trace"; "0" ]
           with
           | None ->
             incr bad;
             Printf.printf "%s seed %d: run failed\n%!" w seed
           | Some lines ->
             let correct =
               List.exists (fun l -> String.starts_with ~prefix:"{\"correct\": true" l) lines
             in
             if not correct then incr bad;
             List.iter
               (fun l ->
                  match String.split_on_char ' ' l with
                  | [ w'; n; v; _ ] when w' = w && List.mem n names ->
                    let key = (set, w, n) in
                    Hashtbl.replace values key
                      (float_of_string v :: Option.value ~default:[] (Hashtbl.find_opt values key))
                  | _ -> ())
               lines;
             Printf.printf "%s seed %d: correct %b\n%!" w seed correct)
        (List.map fst workloads)
    done
  done;
  let within = ref true in
  let b = Buffer.create 8192 in
  Printf.bprintf b
    "{\"host\": {\"nproc\": %d, \"cpu\": %s, \"ocaml\": %S, \"commit\": %S},\n \"run_seconds\": %s, \"runs\": %d, \"sets\": %d,\n \"workloads\": {"
    (Domain.recommended_domain_count ()) (Chrome_trace.escaped (cpu_model ()))
    Sys.ocaml_version
    (git_head ())
    seconds runs sets;
  Printf.printf "\n%-9s %-22s %12s %12s %8s %7s %8s  %s\n" "workload" "metric" "median" "IQR"
    "spread" "bound" "drift" "verdict";
  List.iteri
    (fun wi w ->
       Printf.bprintf b "%s\n  %S: {" (if wi = 0 then "" else ",") w;
       List.iteri
         (fun mi (((n, u), better), bound) ->
            let vals set = Array.of_list (Option.value ~default:[] (Hashtbl.find_opt values (set, w, n))) in
            let v = vals 0 in
            if Array.length v >= 2 then begin
              let q1, med, q3 = Meter.quartiles v in
              (* The wider of the two sets' spreads. *)
              let spread_of v =
                let q1, med, q3 = Meter.quartiles v in
                if med = 0. then infinity else (q3 -. q1) /. med
              in
              let spread =
                if Array.length (vals 1) < 2 then spread_of v
                else Float.max (spread_of v) (spread_of (vals 1))
              in
              (* A positive drift is the second set's median moving the
                 worse way, as a share of the first's. *)
              let drift =
                if Array.length (vals 1) < 2 then 0.
                else
                  let _, m2, _ = Meter.quartiles (vals 1) in
                  (if better = "lower" then m2 -. med else med -. m2) /. med
              in
              let verdict =
                if drift > bound then "DRIFT"
                else if spread <= bound /. 3. then "ok"
                else if spread <= bound then "within bound, above a third"
                else "WIDE"
              in
              if verdict = "DRIFT" || verdict = "WIDE" then within := false;
              Printf.printf "%-9s %-22s %12.6g %12.6g %7.2f%% %6.0f%% %7.2f%%  %s\n" w n med
                (q3 -. q1) (100. *. spread) (100. *. bound) (100. *. drift) verdict;
              Printf.bprintf b
                "%s\n    %S: {\"unit\": %S, \"better\": %S, \"bound\": %s, \"median\": %s, \"q1\": %s, \"q3\": %s, \"spread\": %s, \"values\": [%s]}"
                (if mi = 0 then "" else ",") n u better (Harness.num bound) (Harness.num med) (Harness.num q1) (Harness.num q3)
                (Harness.num spread)
                (String.concat ", " (List.map Harness.num (List.concat_map (fun set -> Array.to_list (vals set)) (List.init sets Fun.id))))
            end)
         (List.combine (List.combine (List.combine names units) betters) bounds);
       Buffer.add_string b "}")
    (List.map fst workloads);
  Buffer.add_string b "}}\n";
  let baseline = Filename.concat "bench" (Filename.concat "e2e" "baseline.json") in
  Harness.write_file baseline (Buffer.contents b);
  Printf.printf "\n%d run(s) failed or incorrect; baseline written to %s\n" !bad baseline;
  if !bad > 0 || not !within then exit 1

let () =
  match Array.to_list Sys.argv with
  | _ :: "run" :: args -> run_cmd args
  | _ :: "smoke" :: args -> smoke_cmd args
  | [ _; "calibrate" ] -> calibrate_cmd ()
  | _ -> die "usage: e2e.exe (run|smoke|calibrate) [--option value]..."
