(* Cross-run differential diagnosis: see the .mli. *)

type mttr = { mt_episodes : int; mt_total : int; mt_max : int }

type latency = { lt_count : int; lt_p50 : int; lt_p95 : int; lt_p99 : int }

type side = {
  sd_label : string;
  sd_header : Journal.header;
  sd_records : int;
  sd_halt : Kernel.halt option;
  sd_kind_counts : int array;
  sd_server_events : int array;
  sd_latency : latency array;
  sd_mttr : mttr;
  sd_requests : int;
  sd_blame : int array option;
}

type report = {
  rd_a : side;
  rd_b : side;
  rd_headers_equal : bool;
  rd_divergence : Replay.divergence option;
}

let decode ~label s =
  Result.map_error (Printf.sprintf "%s: %s" label) (Journal.read_string s)

let latency_of h =
  let pc p = int_of_float (Histogram.percentile h p) in
  { lt_count = Histogram.count h;
    lt_p50 = pc 50.;
    lt_p95 = pc 95.;
    lt_p99 = pc 99. }

let side_of ~label header events model =
  let kind_counts = Array.make Journal.n_kinds 0 in
  let server_events = Array.make (Endpoint.bdev + 1) 0 in
  let lat = Array.init (Endpoint.bdev + 1) (fun _ -> Histogram.create ()) in
  let halt = ref None in
  Array.iter
    (fun ev ->
       let k = Journal.event_kind ev in
       kind_counts.(k) <- kind_counts.(k) + 1;
       (match Journal.event_ep ev with
        | Some ep when ep >= 0 && ep <= Endpoint.bdev ->
          server_events.(ep) <- server_events.(ep) + 1
        | _ -> ());
       match ev with
       | Kernel.E_msg { call = true; dst; rid; time; _ }
         when dst >= Endpoint.pm && dst <= Endpoint.bdev ->
         (match Runmodel.reply_time model rid with
          | Some r -> Histogram.observe lat.(dst) (r - time)
          | None -> ())
       | Kernel.E_halt { halt = h; _ } -> halt := Some h
       | _ -> ())
    events;
  let mttrs =
    List.filter_map
      (fun (e : Runmodel.episode) ->
         if Runmodel.closed e then Some (e.e_restart - e.e_crash) else None)
      (Runmodel.episodes model)
  in
  let cp = Critpath.analyze_model model (Array.to_list events) in
  let blame =
    Option.map
      (fun p ->
         let a = Array.make Tailprof.n_buckets 0 in
         List.iter
           (fun (b, v) -> a.(Tailprof.bucket_index b) <- v)
           p.Tailprof.tp_blame;
         a)
      (Tailprof.profile cp.Critpath.cr_requests)
  in
  { sd_label = label;
    sd_header = header;
    sd_records = Array.length events;
    sd_halt = !halt;
    sd_kind_counts = kind_counts;
    sd_server_events = server_events;
    sd_latency = Array.map latency_of lat;
    sd_mttr =
      { mt_episodes = List.length mttrs;
        mt_total = List.fold_left ( + ) 0 mttrs;
        mt_max = List.fold_left max 0 mttrs };
    sd_requests = List.length cp.Critpath.cr_requests;
    sd_blame = blame }

(* Structural first-divergence between the two recorded streams —
   Replay's diff shape (A plays "recorded", B "replayed"), with the
   causal chain resolved from whichever side still has events. *)
let diverge (a, ma) (b, mb) =
  let na = Array.length a and nb = Array.length b in
  let n = min na nb in
  let rec find i =
    if i >= n then None else if a.(i) <> b.(i) then Some i else find (i + 1)
  in
  let mk i ea eb =
    let rid =
      match ea, eb with
      | Some ev, _ | None, Some ev -> Journal.event_rid ev
      | None, None -> 0
    in
    let chain =
      Replay.chain_of_parents (Runmodel.parent (if i < na then ma else mb)) rid
    in
    Some
      { Replay.div_index = i;
        div_recorded = ea;
        div_replayed = eb;
        div_rid = rid;
        div_chain = chain }
  in
  match find 0 with
  | Some i -> mk i (Some a.(i)) (Some b.(i))
  | None ->
    if na > n then mk n (Some a.(n)) None
    else if nb > n then mk n None (Some b.(n))
    else None

let headers_equal (a : Journal.header) (b : Journal.header) = a = b

let compare_runs ~label_a ~label_b ja jb =
  match decode ~label:label_a ja with
  | Error m -> Error m
  | Ok (ha, ea) ->
    (match decode ~label:label_b jb with
     | Error m -> Error m
     | Ok (hb, eb) ->
       let ma = Runmodel.of_array ea and mb = Runmodel.of_array eb in
       Ok
         { rd_a = side_of ~label:label_a ha ea ma;
           rd_b = side_of ~label:label_b hb eb mb;
           rd_headers_equal = headers_equal ha hb;
           rd_divergence = diverge (ea, ma) (eb, mb) })

let exit_code r =
  if r.rd_divergence <> None || not r.rd_headers_equal then 2 else 0

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let header_fields (h : Journal.header) =
  [ "seed", string_of_int h.Journal.jh_seed;
    ( "arch",
      match h.Journal.jh_arch with
      | Kernel.Microkernel -> "microkernel"
      | Kernel.Monolithic -> "monolithic" );
    "spec", h.Journal.jh_spec;
    "workload", h.Journal.jh_workload;
    "crash", h.Journal.jh_crash;
    "crash_count", string_of_int h.Journal.jh_crash_count;
    "cost_fingerprint", string_of_int h.Journal.jh_cost_fingerprint ]

let render r =
  let b = Buffer.create 2048 in
  let a = r.rd_a and bb = r.rd_b in
  Printf.bprintf b "diff: A = %s\n      B = %s\n" a.sd_label bb.sd_label;
  Printf.bprintf b "A: %s\n" (Journal.header_to_string a.sd_header);
  Printf.bprintf b "B: %s\n" (Journal.header_to_string bb.sd_header);
  if r.rd_headers_equal then Buffer.add_string b "headers: identical\n"
  else begin
    Buffer.add_string b "headers: DIFFER\n";
    List.iter2
      (fun (k, va) (_, vb) ->
         if va <> vb then Printf.bprintf b "  %-16s A=%s  B=%s\n" k va vb)
      (header_fields a.sd_header)
      (header_fields bb.sd_header)
  end;
  (match r.rd_divergence with
   | None ->
     Printf.bprintf b
       "trajectory: identical (%d records, no structural divergence)\n"
       a.sd_records
   | Some d ->
     Printf.bprintf b "trajectory: DIVERGES at record %d\n"
       d.Replay.div_index;
     Printf.bprintf b "  A: %s\n"
       (match d.Replay.div_recorded with
        | Some ev -> Replay.pp_event ev
        | None -> "<stream ended>");
     Printf.bprintf b "  B: %s\n"
       (match d.Replay.div_replayed with
        | Some ev -> Replay.pp_event ev
        | None -> "<stream ended>");
     Printf.bprintf b "  causal chain: %s\n"
       (if d.Replay.div_chain = [] then "(root context)"
        else String.concat " < " (List.map string_of_int d.Replay.div_chain)));
  Printf.bprintf b "records: A=%d B=%d  halt: A=%s B=%s\n" a.sd_records
    bb.sd_records
    (match a.sd_halt with
     | Some h -> Kernel.halt_to_string h
     | None -> "<none>")
    (match bb.sd_halt with
     | Some h -> Kernel.halt_to_string h
     | None -> "<none>");
  Buffer.add_string b "\nevent mix (kind: A B delta):\n";
  Array.iteri
    (fun k ca ->
       let cb = bb.sd_kind_counts.(k) in
       if ca <> 0 || cb <> 0 then
         Printf.bprintf b "  %-14s %8d %8d %+d\n" (Journal.kind_name k) ca cb
           (cb - ca))
    a.sd_kind_counts;
  Buffer.add_string b
    "\nper-server (events A B | turnaround p50/p95/p99 A -> B):\n";
  Array.iteri
    (fun ep ca ->
       let cb = bb.sd_server_events.(ep) in
       let la = a.sd_latency.(ep) and lb = bb.sd_latency.(ep) in
       if ca <> 0 || cb <> 0 || la.lt_count <> 0 || lb.lt_count <> 0 then
         Printf.bprintf b
           "  %-8s %8d %8d | %d/%d/%d -> %d/%d/%d (p99 %+d)\n"
           (Endpoint.server_name ep) ca cb la.lt_p50 la.lt_p95 la.lt_p99
           lb.lt_p50 lb.lt_p95 lb.lt_p99
           (lb.lt_p99 - la.lt_p99))
    a.sd_server_events;
  let ma = a.sd_mttr and mb = bb.sd_mttr in
  Printf.bprintf b
    "\nrecovery: episodes A=%d B=%d, total MTTR A=%d B=%d, max A=%d B=%d\n"
    ma.mt_episodes mb.mt_episodes ma.mt_total mb.mt_total ma.mt_max
    mb.mt_max;
  Printf.bprintf b "requests completed: A=%d B=%d\n" a.sd_requests
    bb.sd_requests;
  (match a.sd_blame, bb.sd_blame with
   | Some ba, Some bbl ->
     Buffer.add_string b
       "critpath p99-vs-p50 blame (tenths of cycles, A B delta):\n";
     Array.iteri
       (fun i va ->
          Printf.bprintf b "  %-12s %8d %8d %+d\n"
            (Tailprof.bucket_name (Tailprof.bucket_of_index i))
            va bbl.(i) (bbl.(i) - va))
       ba
   | _ -> Buffer.add_string b "critpath blame: unavailable on a side\n");
  Buffer.contents b

let json_side b name s =
  Printf.bprintf b "  %s: {\n" name;
  Printf.bprintf b "    \"label\": %s,\n" (Chrome_trace.escaped s.sd_label);
  Printf.bprintf b "    \"header\": %s,\n"
    (Chrome_trace.escaped (Journal.header_to_string s.sd_header));
  Printf.bprintf b "    \"records\": %d,\n" s.sd_records;
  Printf.bprintf b "    \"halt\": %s,\n"
    (match s.sd_halt with
     | Some h -> Chrome_trace.escaped (Kernel.halt_to_string h)
     | None -> "null");
  Printf.bprintf b "    \"kinds\": {%s},\n"
    (String.concat ", "
       (List.filter_map
          (fun k ->
             if s.sd_kind_counts.(k) = 0 then None
             else
               Some
                 (Printf.sprintf "%s: %d"
                    (Chrome_trace.escaped (Journal.kind_name k))
                    s.sd_kind_counts.(k)))
          (List.init Journal.n_kinds Fun.id)));
  Printf.bprintf b "    \"servers\": {%s},\n"
    (String.concat ", "
       (List.filter_map
          (fun ep ->
             let l = s.sd_latency.(ep) in
             if s.sd_server_events.(ep) = 0 && l.lt_count = 0 then None
             else
               Some
                 (Printf.sprintf
                    "%s: {\"events\": %d, \"turnarounds\": %d, \"p50\": \
                     %d, \"p95\": %d, \"p99\": %d}"
                    (Chrome_trace.escaped (Endpoint.server_name ep))
                    s.sd_server_events.(ep) l.lt_count l.lt_p50 l.lt_p95
                    l.lt_p99))
          (List.init (Endpoint.bdev + 1) Fun.id)));
  Printf.bprintf b
    "    \"mttr\": {\"episodes\": %d, \"total\": %d, \"max\": %d},\n"
    s.sd_mttr.mt_episodes s.sd_mttr.mt_total s.sd_mttr.mt_max;
  Printf.bprintf b "    \"requests\": %d,\n" s.sd_requests;
  (match s.sd_blame with
   | Some blame ->
     Printf.bprintf b "    \"blame\": {%s}\n"
       (String.concat ", "
          (List.init Tailprof.n_buckets (fun i ->
               Printf.sprintf "%s: %d"
                 (Chrome_trace.escaped
                    (Tailprof.bucket_name (Tailprof.bucket_of_index i)))
                 blame.(i))))
   | None -> Buffer.add_string b "    \"blame\": null\n");
  Buffer.add_string b "  }"

let to_json r =
  let b = Buffer.create 2048 in
  Buffer.add_string b "{\n";
  Printf.bprintf b "  \"headers_equal\": %b,\n" r.rd_headers_equal;
  (match r.rd_divergence with
   | None -> Buffer.add_string b "  \"divergence\": null,\n"
   | Some d ->
     Printf.bprintf b
       "  \"divergence\": {\"index\": %d, \"a\": %s, \"b\": %s, \"rid\": \
        %d, \"chain\": [%s]},\n"
       d.Replay.div_index
       (match d.Replay.div_recorded with
        | Some ev -> Chrome_trace.escaped (Replay.pp_event ev)
        | None -> "null")
       (match d.Replay.div_replayed with
        | Some ev -> Chrome_trace.escaped (Replay.pp_event ev)
        | None -> "null")
       d.Replay.div_rid
       (String.concat ", " (List.map string_of_int d.Replay.div_chain)));
  json_side b "\"a\"" r.rd_a;
  Buffer.add_string b ",\n";
  json_side b "\"b\"" r.rd_b;
  Printf.bprintf b ",\n  \"exit_code\": %d\n}\n" (exit_code r);
  Buffer.contents b
