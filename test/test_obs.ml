(* Tests for lib/obs: the causal event sequence through a crash, span
   trees, histogram primitives, the report's metrics table, and the
   Chrome trace export
   (validated with a small structural JSON parser — no JSON library in
   the tree, and the export must stay loadable by Perfetto). *)

(* ------------------------------------------------------------------ *)
(* Shared driver: the quickstart workload with a collector attached
   from boot and one crash injected at the first in-window Reply of a
   chosen server — by Reply time the handler's stores are in the undo
   log, so the trace shows logged stores before the crash.             *)
(* ------------------------------------------------------------------ *)

let run_with_crash ?(policy = Policy.enhanced) ?(crash = Some Endpoint.ds)
    ?(root = Workgen.quickstart) () =
  let collector = Obs_collector.create () in
  let sys =
    System.build ~event_hook:(Obs_collector.record collector) (Sysconf.uniform policy)
  in
  let kernel = System.kernel sys in
  (match crash with
   | None -> ()
   | Some ep ->
     let armed = ref true in
     Kernel.set_fault_hook kernel
       (Some
          (fun site ->
             if !armed
                && site.Kernel.site_ep = ep
                && site.Kernel.site_kind = Kernel.Op_reply
                && Kernel.window_is_open kernel ep
             then begin
               armed := false;
               Some (Kernel.F_crash "test crash")
             end
             else None)));
  let halt = System.run sys ~root in
  (sys, collector, halt)

(* ------------------------------------------------------------------ *)
(* The exact recovery event sequence                                   *)
(* ------------------------------------------------------------------ *)

(* Match [pattern] as an ordered (not necessarily contiguous)
   subsequence of [events]; return the unmatched tail of the pattern. *)
let rec unmatched pattern events =
  match pattern, events with
  | [], _ -> []
  | _, [] -> pattern
  | p :: ps, e :: es ->
    if p e then unmatched ps es else unmatched pattern es

let test_crash_event_sequence () =
  let _sys, collector, halt = run_with_crash () in
  Alcotest.(check bool) "run completed" true
    (match halt with Kernel.H_completed _ -> true | _ -> false);
  let ds = Endpoint.ds in
  let pattern =
    [ (function Kernel.E_window_open { ep; _ } -> ep = ds | _ -> false);
      (function Kernel.E_store_logged { ep; _ } -> ep = ds | _ -> false);
      (function
        | Kernel.E_crash { ep; window_open; _ } -> ep = ds && window_open
        | _ -> false);
      (function Kernel.E_rollback_begin { ep; _ } -> ep = ds | _ -> false);
      (function
        | Kernel.E_rollback_end { ep; bytes; _ } -> ep = ds && bytes > 0
        | _ -> false);
      (function Kernel.E_restart { ep; _ } -> ep = ds | _ -> false) ]
  in
  Alcotest.(check int)
    "window_open -> store_logged -> in-window crash -> rollback begin/end \
     -> restart, in order"
    0
    (List.length (unmatched pattern (Obs_collector.events collector)))

let test_crash_rid_matches_request () =
  (* The E_crash rid is the rid of the request being handled, i.e. the
     rid of a prior call-E_msg into the crashed server. *)
  let _sys, collector, _halt = run_with_crash () in
  let events = Obs_collector.events collector in
  let crash_rid =
    List.find_map
      (function Kernel.E_crash { rid; _ } -> Some rid | _ -> None)
      events
  in
  match crash_rid with
  | None -> Alcotest.fail "no crash recorded"
  | Some rid ->
    Alcotest.(check bool) "crash attributed to a request" true (rid > 0);
    Alcotest.(check bool) "that request was delivered to ds" true
      (List.exists
         (function
           | Kernel.E_msg { rid = r; dst; call; _ } ->
             r = rid && dst = Endpoint.ds && call
           | _ -> false)
         events)

(* ------------------------------------------------------------------ *)
(* Span trees                                                          *)
(* ------------------------------------------------------------------ *)

let test_recovery_span_nested_under_request () =
  let _sys, collector, _halt = run_with_crash () in
  let spans = Span.build (Obs_collector.events collector) in
  let recovery =
    Span.find (fun s -> s.Span.sp_kind = Span.Recovery) spans
  in
  match recovery with
  | None -> Alcotest.fail "no recovery span built"
  | Some r ->
    Alcotest.(check bool) "recovery runs on ds" true (r.Span.sp_ep = Endpoint.ds);
    Alcotest.(check bool) "rollback child labelled with bytes" true
      (List.exists
         (fun c ->
            c.Span.sp_kind = Span.Rollback
            && String.length c.Span.sp_name > String.length "rollback")
         r.Span.sp_children);
    (* the recovery span's parent is a request span rooted at the user *)
    let parent =
      Span.find (fun s -> s.Span.sp_id = r.Span.sp_parent) spans
    in
    (match parent with
     | None -> Alcotest.fail "recovery span is an orphan"
     | Some p ->
       Alcotest.(check bool) "parent is a request span" true
         (p.Span.sp_kind = Span.Request);
       Alcotest.(check bool) "triggered from the user program" true
         (p.Span.sp_src = Endpoint.first_user);
       Alcotest.(check bool) "recovery really is its child" true
         (List.exists (fun c -> c.Span.sp_id = r.Span.sp_id)
            p.Span.sp_children))

let rec well_formed parent_start s =
  s.Span.sp_end >= s.Span.sp_start
  && s.Span.sp_start >= parent_start
  && (s.Span.sp_kind <> Span.Rollback || s.Span.sp_parent < 0)
  && List.for_all (well_formed s.Span.sp_start) s.Span.sp_children

let ordered_by_start spans =
  let rec ok = function
    | a :: (b :: _ as rest) ->
      a.Span.sp_start <= b.Span.sp_start && ok rest
    | _ -> true
  in
  ok spans

let prop_span_trees_well_formed =
  QCheck.Test.make ~name:"span trees well-formed across seeds/crashes"
    ~count:8
    QCheck.(int_range 0 10_000)
    (fun seed ->
       (* vary both the workload and the crashed server with the seed *)
       let crash =
         match seed mod 5 with
         | 0 -> None
         | 1 -> Some Endpoint.pm
         | 2 -> Some Endpoint.vfs
         | 3 -> Some Endpoint.vm
         | _ -> Some Endpoint.ds
       in
       let _sys, collector, _halt =
         run_with_crash ~crash ~root:(Workgen.generate ~seed ()) ()
       in
       let events = Obs_collector.events collector in
       let spans = Span.build events in
       let flat = Span.flatten spans in
       let ids = List.map (fun s -> s.Span.sp_id) flat in
       List.for_all (well_formed min_int) spans
       && ordered_by_start spans
       && List.length ids = List.length (List.sort_uniq compare ids)
       && Span.count spans = List.length flat
       (* every crash produced a recovery span and vice versa *)
       && List.length
            (List.filter (fun s -> s.Span.sp_kind = Span.Recovery) flat)
          = List.length
              (List.filter
                 (function Kernel.E_crash _ -> true | _ -> false)
                 events))

(* ------------------------------------------------------------------ *)
(* Chrome trace export: structural validation with a tiny JSON parser  *)
(* ------------------------------------------------------------------ *)

module Json = struct
  type t =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | List of t list
    | Obj of (string * t) list

  exception Bad of string

  let parse (s : string) : t =
    let n = String.length s in
    let pos = ref 0 in
    let peek () = if !pos < n then s.[!pos] else raise (Bad "eof") in
    let advance () = incr pos in
    let rec skip_ws () =
      if !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true
                                        | _ -> false)
      then (advance (); skip_ws ())
    in
    let expect c =
      skip_ws ();
      if peek () <> c then
        raise (Bad (Printf.sprintf "expected %c at %d" c !pos));
      advance ()
    in
    let parse_string () =
      expect '"';
      let b = Buffer.create 16 in
      let rec go () =
        match peek () with
        | '"' -> advance (); Buffer.contents b
        | '\\' ->
          advance ();
          (match peek () with
           | 'n' -> Buffer.add_char b '\n'
           | 't' -> Buffer.add_char b '\t'
           | 'u' ->
             (* keep the escape verbatim; structure is what we check *)
             Buffer.add_string b "\\u"
           | c -> Buffer.add_char b c);
          advance (); go ()
        | c -> Buffer.add_char b c; advance (); go ()
      in
      go ()
    in
    let parse_number () =
      let start = !pos in
      let rec go () =
        if !pos < n
           && (match s.[!pos] with
               | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
               | _ -> false)
        then (advance (); go ())
      in
      go ();
      if start = !pos then raise (Bad "empty number");
      Num (float_of_string (String.sub s start (!pos - start)))
    in
    let rec parse_value () =
      skip_ws ();
      match peek () with
      | '{' ->
        advance (); skip_ws ();
        if peek () = '}' then (advance (); Obj [])
        else
          let rec members acc =
            let key = parse_string () in
            expect ':';
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | ',' -> advance (); skip_ws (); members ((key, v) :: acc)
            | '}' -> advance (); Obj (List.rev ((key, v) :: acc))
            | c -> raise (Bad (Printf.sprintf "bad object char %c" c))
          in
          members []
      | '[' ->
        advance (); skip_ws ();
        if peek () = ']' then (advance (); List [])
        else
          let rec elements acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | ',' -> advance (); elements (v :: acc)
            | ']' -> advance (); List (List.rev (v :: acc))
            | c -> raise (Bad (Printf.sprintf "bad array char %c" c))
          in
          elements []
      | '"' -> Str (parse_string ())
      | 't' -> pos := !pos + 4; Bool true
      | 'f' -> pos := !pos + 5; Bool false
      | 'n' -> pos := !pos + 4; Null
      | _ -> parse_number ()
    in
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then raise (Bad "trailing garbage");
    v

  let mem key = function
    | Obj kvs -> List.assoc_opt key kvs
    | _ -> None
end

let test_chrome_trace_structure () =
  let _sys, collector, _halt = run_with_crash () in
  let events = Obs_collector.events collector in
  let spans = Span.build events in
  let json = Chrome_trace.of_spans ~events spans in
  let root =
    try Json.parse json
    with Json.Bad m -> Alcotest.fail ("export is not valid JSON: " ^ m)
  in
  let trace_events =
    match Json.mem "traceEvents" root with
    | Some (Json.List l) -> l
    | _ -> Alcotest.fail "no traceEvents array"
  in
  Alcotest.(check bool) "nonempty" true (trace_events <> []);
  let num k ev = match Json.mem k ev with Some (Json.Num _) -> true | _ -> false in
  let str k ev = match Json.mem k ev with Some (Json.Str _) -> true | _ -> false in
  List.iter
    (fun ev ->
       let ph =
         match Json.mem "ph" ev with
         | Some (Json.Str p) -> p
         | _ -> Alcotest.fail "event without ph"
       in
       Alcotest.(check bool) "pid/tid numeric" true (num "pid" ev && num "tid" ev);
       match ph with
       | "M" -> Alcotest.(check bool) "metadata named" true (str "name" ev)
       | "X" ->
         Alcotest.(check bool) "complete event has name/ts/dur" true
           (str "name" ev && num "ts" ev && num "dur" ev)
       | "i" ->
         Alcotest.(check bool) "instant has name/ts/s" true
           (str "name" ev && num "ts" ev && str "s" ev)
       | other -> Alcotest.fail ("unexpected phase " ^ other))
    trace_events;
  Alcotest.(check bool) "a recovery span is exported" true
    (List.exists
       (fun ev ->
          Json.mem "cat" ev = Some (Json.Str "recovery")
          && Json.mem "ph" ev = Some (Json.Str "X"))
       trace_events);
  (* spans and instants survive the round trip countwise: every span
     plus one instant per crash/hang/halt plus per-track metadata *)
  let x_events =
    List.filter (fun ev -> Json.mem "ph" ev = Some (Json.Str "X")) trace_events
  in
  Alcotest.(check int) "one X event per span" (Span.count spans)
    (List.length x_events)

(* Hostile names — quotes, backslashes, control characters, DEL, and
   non-UTF-8 bytes — must round-trip through a JSON parser, both via
   [Chrome_trace.escaped] (shared by every artifact writer) and via a
   full trace export carrying them as track/series names. *)
let test_chrome_trace_hostile_names () =
  let hostile = "evil\"name\\\n\tctrl\x01del\x7fbyte\xff" in
  (* the test parser decodes the two-character escapes and keeps
     backslash-u escapes verbatim, so the expected decoding is exact *)
  let expected = "evil\"name\\\n\tctrl\\u0001del\\u007fbyte\\u00ff" in
  (match Json.parse ("{\"name\": " ^ Chrome_trace.escaped hostile ^ "}") with
   | Json.Obj [ ("name", Json.Str s) ] ->
     Alcotest.(check string) "escaped literal round-trips" expected s
   | _ -> Alcotest.fail "escaped literal did not parse as an object"
   | exception Json.Bad m ->
     Alcotest.fail ("escaped literal is not valid JSON: " ^ m));
  let counters =
    [ { Chrome_trace.cs_track = hostile; cs_ts = 10;
        cs_values = [ (hostile, 1); ("plain", 2) ] } ]
  in
  let json = Chrome_trace.of_spans ~counters [] in
  match Json.parse json with
  | root ->
    let trace_events =
      match Json.mem "traceEvents" root with
      | Some (Json.List l) -> l
      | _ -> Alcotest.fail "no traceEvents array"
    in
    Alcotest.(check bool) "hostile counter name survives export" true
      (List.exists
         (fun ev -> Json.mem "name" ev = Some (Json.Str expected))
         trace_events)
  | exception Json.Bad m ->
    Alcotest.fail ("export with hostile names is not valid JSON: " ^ m)

(* ------------------------------------------------------------------ *)
(* Histogram primitives and the derived metrics table                  *)
(* ------------------------------------------------------------------ *)

let test_histogram_basics () =
  let h = Histogram.create () in
  Alcotest.(check int) "empty count" 0 (Histogram.count h);
  Alcotest.(check (float 1e-9)) "empty percentile" 0. (Histogram.p50 h);
  List.iter (Histogram.observe h) [ 1; 2; 3; 100 ];
  Alcotest.(check int) "count" 4 (Histogram.count h);
  Alcotest.(check int) "sum" 106 (Histogram.sum h);
  Alcotest.(check int) "max exact" 100 (Histogram.max_value h);
  Alcotest.(check int) "min exact" 1 (Histogram.min_value h);
  Alcotest.(check (float 1e-9)) "p100 clamps to exact max" 100.
    (Histogram.percentile h 100.);
  (* log-bucketed estimates overshoot by < 2x and never undershoot
     the true quantile's bucket lower bound *)
  let p50 = Histogram.p50 h in
  Alcotest.(check bool) "p50 within bucket bounds" true (p50 >= 2. && p50 <= 4.);
  Alcotest.(check bool) "percentiles monotone" true
    (Histogram.p50 h <= Histogram.p95 h
     && Histogram.p95 h <= Histogram.p99 h
     && Histogram.p99 h <= Histogram.percentile h 100.);
  Histogram.clear h;
  Alcotest.(check int) "cleared" 0 (Histogram.count h)

let test_histogram_buckets () =
  let h = Histogram.create () in
  List.iter (Histogram.observe h) [ 0; 1; 1; 2; 3; 4 ];
  (* buckets: 0 -> ub 0; 1 -> ub 1 (x2); 2,3 -> ub 3; 4 -> ub 7 *)
  Alcotest.(check (list (pair int int))) "bucket layout"
    [ (0, 1); (1, 2); (3, 2); (7, 1) ] (Histogram.buckets h)

let test_histogram_percentile_edges () =
  (* the edge cases documented on [Histogram.percentile] *)
  let h = Histogram.create () in
  List.iter
    (fun p ->
       Alcotest.(check (float 1e-9))
         (Printf.sprintf "empty p%g" p) 0. (Histogram.percentile h p))
    [ 0.; 50.; 100.; 150. ];
  Alcotest.(check (float 1e-9)) "empty mean" 0. (Histogram.mean h);
  (* single sample: exact for every p (clamp makes the sole bucket's
     upper bound exact) *)
  Histogram.observe h 5;
  List.iter
    (fun p ->
       Alcotest.(check (float 1e-9))
         (Printf.sprintf "single-sample p%g" p) 5. (Histogram.percentile h p))
    [ 0.; 50.; 99.; 100. ];
  (* all-equal samples: still exact *)
  Histogram.observe h 5;
  Histogram.observe h 5;
  Alcotest.(check (float 1e-9)) "all-equal p50" 5. (Histogram.p50 h);
  Alcotest.(check (float 1e-9)) "all-equal p99" 5. (Histogram.p99 h);
  (* p <= 0 is the minimum rank; p > 100 saturates to the exact max *)
  let h2 = Histogram.create () in
  Histogram.observe h2 1;
  Histogram.observe h2 1000;
  Alcotest.(check (float 1e-9)) "p0 = first bucket" 1.
    (Histogram.percentile h2 0.);
  Alcotest.(check (float 1e-9)) "p<0 = first bucket" 1.
    (Histogram.percentile h2 (-10.));
  Alcotest.(check (float 1e-9)) "p>100 = exact max" 1000.
    (Histogram.percentile h2 200.);
  (* negatives: bucket 0 for quantiles, exact for sum/mean/min *)
  let h3 = Histogram.create () in
  Histogram.observe h3 (-5);
  Alcotest.(check int) "negative counted" 1 (Histogram.count h3);
  Alcotest.(check int) "negative summed as given" (-5) (Histogram.sum h3);
  Alcotest.(check (float 1e-9)) "negative mean exact" (-5.)
    (Histogram.mean h3);
  Alcotest.(check int) "min keeps the negative" (-5) (Histogram.min_value h3);
  Alcotest.(check int) "max never negative" 0 (Histogram.max_value h3);
  Alcotest.(check (float 1e-9)) "negative p50 is the bucket-0 bound" 0.
    (Histogram.p50 h3)

let test_histogram_merge () =
  let a = Histogram.create () and b = Histogram.create () in
  List.iter (Histogram.observe a) [ 1; 2; 3; 100 ];
  List.iter (Histogram.observe b) [ 5; 7; 9000 ];
  let m = Histogram.merge a b in
  (* inputs untouched *)
  Alcotest.(check int) "left input unchanged" 4 (Histogram.count a);
  Alcotest.(check int) "right input unchanged" 3 (Histogram.count b);
  (* the merge is exactly the union stream *)
  let u = Histogram.create () in
  List.iter (Histogram.observe u) [ 1; 2; 3; 100; 5; 7; 9000 ];
  Alcotest.(check int) "count" (Histogram.count u) (Histogram.count m);
  Alcotest.(check int) "sum" (Histogram.sum u) (Histogram.sum m);
  Alcotest.(check int) "min" (Histogram.min_value u) (Histogram.min_value m);
  Alcotest.(check int) "max" (Histogram.max_value u) (Histogram.max_value m);
  Alcotest.(check (list (pair int int))) "buckets"
    (Histogram.buckets u) (Histogram.buckets m);
  List.iter
    (fun p ->
       Alcotest.(check (float 1e-9)) (Printf.sprintf "p%g" p)
         (Histogram.percentile u p) (Histogram.percentile m p))
    [ 0.; 50.; 95.; 99.; 100. ];
  (* merging the empty histogram is the identity *)
  let id = Histogram.merge a (Histogram.create ()) in
  Alcotest.(check (list (pair int int))) "merge with empty = copy"
    (Histogram.buckets a) (Histogram.buckets id);
  Alcotest.(check int) "identity min" (Histogram.min_value a)
    (Histogram.min_value id);
  (* merge_into mutates only [into]; self-merge doubles *)
  Histogram.merge_into ~into:a b;
  Alcotest.(check int) "merge_into accumulates" 7 (Histogram.count a);
  Alcotest.(check int) "merge_into src untouched" 3 (Histogram.count b);
  let d = Histogram.create () in
  Histogram.observe d 9;
  Histogram.merge_into ~into:d d;
  Alcotest.(check int) "self-merge doubles count" 2 (Histogram.count d);
  Alcotest.(check int) "self-merge doubles sum" 18 (Histogram.sum d)

let test_histogram_of_buckets () =
  let h = Histogram.create () in
  List.iter (Histogram.observe h) [ 1; 2; 3; 100; -4 ];
  (* full round trip with the exact fields supplied *)
  let r =
    Histogram.of_buckets ~sum:(Histogram.sum h)
      ~min_value:(Histogram.min_value h) ~max_value:(Histogram.max_value h)
      (Histogram.buckets h)
  in
  Alcotest.(check (list (pair int int))) "buckets round-trip"
    (Histogram.buckets h) (Histogram.buckets r);
  Alcotest.(check int) "count round-trips" (Histogram.count h)
    (Histogram.count r);
  Alcotest.(check int) "sum round-trips" (Histogram.sum h) (Histogram.sum r);
  Alcotest.(check int) "min round-trips" (Histogram.min_value h)
    (Histogram.min_value r);
  Alcotest.(check int) "max round-trips" (Histogram.max_value h)
    (Histogram.max_value r);
  List.iter
    (fun p ->
       Alcotest.(check (float 1e-9))
         (Printf.sprintf "p%g round-trips" p)
         (Histogram.percentile h p) (Histogram.percentile r p))
    [ 0.; 50.; 95.; 99.; 100. ];
  (* without the optional exacts, estimates bound the truth from above *)
  let e = Histogram.of_buckets (Histogram.buckets h) in
  Alcotest.(check (list (pair int int))) "buckets alone still round-trip"
    (Histogram.buckets h) (Histogram.buckets e);
  Alcotest.(check bool) "estimated sum bounds from above" true
    (Histogram.sum e >= Histogram.sum h);
  Alcotest.(check bool) "estimated max bounds from above" true
    (Histogram.max_value e >= Histogram.max_value h);
  (* degenerate inputs *)
  Alcotest.(check int) "empty list -> empty histogram" 0
    (Histogram.count (Histogram.of_buckets []));
  Alcotest.(check int) "all-zero counts -> empty histogram" 0
    (Histogram.count (Histogram.of_buckets [ (1, 0); (7, 0) ]));
  Alcotest.check_raises "negative count rejected"
    (Invalid_argument "Histogram.of_buckets: negative count")
    (fun () -> ignore (Histogram.of_buckets [ (1, -2) ]))

let prop_histogram_merge_matches_union =
  QCheck.Test.make
    ~name:"Histogram.merge percentiles match observing the union stream"
    ~count:100
    QCheck.(pair (list small_nat) (list small_nat))
    (fun (xs, ys) ->
       let observe_all vs =
         let h = Histogram.create () in
         List.iter (Histogram.observe h) vs;
         h
       in
       let m = Histogram.merge (observe_all xs) (observe_all ys) in
       let u = observe_all (xs @ ys) in
       Histogram.count m = Histogram.count u
       && Histogram.sum m = Histogram.sum u
       && Histogram.min_value m = Histogram.min_value u
       && Histogram.max_value m = Histogram.max_value u
       && Histogram.buckets m = Histogram.buckets u
       && List.for_all
            (fun p -> Histogram.percentile m p = Histogram.percentile u p)
            [ 0.; 25.; 50.; 75.; 90.; 95.; 99.; 100. ]
       (* bucket serialization of the merge also round-trips *)
       && Histogram.buckets
            (Histogram.of_buckets ~sum:(Histogram.sum m)
               ~min_value:(Histogram.min_value m)
               ~max_value:(Histogram.max_value m) (Histogram.buckets m))
          = Histogram.buckets u)

let test_derived_counters_agree () =
  (* the event-derived osiris.* counters must agree with the kernel's
     own lifetime counters over the same run *)
  let sys, collector, _halt = run_with_crash () in
  let kernel = System.kernel sys in
  let counters = Obs_report.event_counters (Obs_collector.events collector) in
  let counter name =
    match List.assoc_opt name counters with
    | Some v -> v
    | None -> Alcotest.fail ("missing counter " ^ name)
  in
  Alcotest.(check int) "crashes" (Kernel.crashes kernel)
    (counter "osiris.crashes");
  Alcotest.(check int) "restarts" (Kernel.restarts kernel)
    (counter "osiris.restarts");
  Alcotest.(check int) "messages delivered" (Kernel.messages_delivered kernel)
    (counter "osiris.msgs_delivered");
  Alcotest.(check int) "sixteen counters" 16 (List.length counters);
  Alcotest.(check bool) "rollback bytes surfaced" true
    (counter "osiris.rollback_bytes" > 0)

(* ------------------------------------------------------------------ *)
(* Interleaved observers: collector + vtime sampler together           *)
(* ------------------------------------------------------------------ *)

let test_observers_interleaved () =
  (* One run with both observers attached at once: the collector as
     the event hook, and a vtime-sampled timeseries through
     [System.build ~telemetry]. Each must see the complete picture, and
     the sampler must not disturb the collector or its views. *)
  let collector = Obs_collector.create () in
  let interval = 1024 in
  let ts = Timeseries.create ~interval ~capacity:4096 () in
  let sys =
    System.build ~event_hook:(Obs_collector.record collector) ~telemetry:ts
      (Sysconf.uniform Policy.enhanced)
  in
  let kernel = System.kernel sys in
  let armed = ref true in
  Kernel.set_fault_hook kernel
    (Some
       (fun site ->
          if !armed
             && site.Kernel.site_ep = Endpoint.ds
             && site.Kernel.site_kind = Kernel.Op_reply
             && Kernel.window_is_open kernel Endpoint.ds
          then begin
            armed := false;
            Some (Kernel.F_crash "test crash")
          end
          else None));
  let halt = System.run sys ~root:Workgen.quickstart in
  Alcotest.(check bool) "run completed" true
    (match halt with Kernel.H_completed _ -> true | _ -> false);
  (* the timeline renders the whole stream, one line per event, and
     ends with the halt *)
  let events = Obs_collector.events collector in
  Alcotest.(check bool) "events recorded" true (events <> []);
  Alcotest.(check (list string)) "timeline is the rendered stream"
    (List.map Obs_collector.pp_event events)
    (Obs_collector.timeline ~last:max_int collector);
  Alcotest.(check bool) "stream ends with the halt" true
    (match List.rev events with Kernel.E_halt _ :: _ -> true | _ -> false);
  (* the sampler ran on the fixed vtime grid, nothing dropped *)
  let n = Timeseries.samples_taken ts in
  Alcotest.(check bool) "samples taken" true (n > 0);
  Alcotest.(check int) "ring held every sample" 0 (Timeseries.dropped ts);
  let times = Timeseries.times ts in
  Array.iteri
    (fun i at ->
       if at <> (i + 1) * interval then
         Alcotest.failf "sample %d stamped %d, expected the grid %d" i at
           ((i + 1) * interval))
    times;
  (* the standard kernel source set is registered and coherent *)
  List.iter
    (fun name ->
       Alcotest.(check bool) ("source " ^ name) true
         (Timeseries.index_of ts name <> None))
    [ "kernel.ops"; "kernel.delivered"; "kernel.crashes"; "kernel.restarts";
      "kernel.runq"; "srv.ds.inbox"; "srv.ds.alive"; "phase.user.cycles" ];
  let series name =
    match Timeseries.index_of ts name with
    | Some source -> Timeseries.values ts ~source
    | None -> Alcotest.fail ("missing source " ^ name)
  in
  let sum a = Array.fold_left ( + ) 0 a in
  (* delta series resum to the lifetime counter at the last boundary *)
  let last_t = times.(Array.length times - 1) in
  Alcotest.(check int) "crash deltas resum to crashes before last sample"
    (List.length
       (List.filter (fun t -> t <= last_t) (Kernel.crash_times kernel)))
    (sum (series "kernel.crashes"));
  Alcotest.(check bool) "op deltas accumulate" true
    (sum (series "kernel.ops") > 0
     && sum (series "kernel.ops") <= Kernel.total_ops kernel);
  (* the telemetry build enabled cycle counts: phases carry data *)
  Alcotest.(check bool) "phase series carry cycles" true
    (List.exists
       (fun ph ->
          sum (series ("phase." ^ Kernel.phase_to_string ph ^ ".cycles")) > 0)
       Kernel.all_phases);
  Array.iter
    (fun v ->
       if v <> 0 && v <> 1 then Alcotest.failf "alive sample %d not 0/1" v)
    (series "srv.ds.alive");
  (* the collector still agrees with the kernel despite the sampler *)
  let crash_events =
    List.length
      (List.filter (function Kernel.E_crash _ -> true | _ -> false) events)
  in
  Alcotest.(check int) "collector crash count matches kernel" crash_events
    (Kernel.crashes kernel)

let test_report_renders () =
  let sys, collector, _halt = run_with_crash () in
  let events = Obs_collector.events collector in
  let report =
    Obs_report.render ~kernel:(System.kernel sys) ~events (Span.build events)
  in
  List.iter
    (fun needle ->
       let found =
         let nl = String.length needle and rl = String.length report in
         let rec scan i =
           i + nl <= rl && (String.sub report i nl = needle || scan (i + 1))
         in
         scan 0
       in
       Alcotest.(check bool) ("report mentions " ^ needle) true found)
    [ "per-handler latency"; "recovery latency"; "ds_publish";
      "osiris.rollback_bytes"; "ds.rollback_bytes" ]

let () =
  Alcotest.run "osiris_obs"
    [ ( "events",
        [ Alcotest.test_case "crash sequence" `Quick test_crash_event_sequence;
          Alcotest.test_case "crash rid" `Quick test_crash_rid_matches_request ] );
      ( "spans",
        [ Alcotest.test_case "recovery nesting" `Quick
            test_recovery_span_nested_under_request;
          QCheck_alcotest.to_alcotest prop_span_trees_well_formed ] );
      ( "export",
        [ Alcotest.test_case "chrome trace structure" `Quick
            test_chrome_trace_structure;
          Alcotest.test_case "hostile names round-trip" `Quick
            test_chrome_trace_hostile_names ] );
      ( "metrics",
        [ Alcotest.test_case "histogram" `Quick test_histogram_basics;
          Alcotest.test_case "histogram buckets" `Quick test_histogram_buckets;
          Alcotest.test_case "histogram percentile edges" `Quick
            test_histogram_percentile_edges;
          Alcotest.test_case "histogram merge" `Quick test_histogram_merge;
          Alcotest.test_case "histogram of_buckets" `Quick
            test_histogram_of_buckets;
          QCheck_alcotest.to_alcotest prop_histogram_merge_matches_union;
          Alcotest.test_case "collector series" `Quick
            test_derived_counters_agree;
          Alcotest.test_case "interleaved observers" `Quick
            test_observers_interleaved;
          Alcotest.test_case "report" `Quick test_report_renders ] ) ]
