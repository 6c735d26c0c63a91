(* Observability tour: run a random-but-deterministic workload with the
   full lib/obs pipeline attached — the event collector from boot, a
   mid-run fault, then span trees, latency/recovery/metrics tables, and
   a Perfetto-loadable Chrome trace.

     dune exec examples/observability.exe [seed]        (default 2026)

   Load the written observability_trace.json at https://ui.perfetto.dev
   to browse the same run visually: one track per server, request spans
   nested under the user program, the crash's recovery span nested
   under the request that triggered it. *)

let () =
  let seed =
    if Array.length Sys.argv > 1 then int_of_string Sys.argv.(1) else 2026
  in
  Printf.printf "workload plan (seed %d):\n" seed;
  List.iteri (fun i a -> Printf.printf "  %2d. %s\n" (i + 1) a)
    (Workgen.describe ~seed ());
  (* The collector, attached before boot so the trace includes boot
     traffic; the closing timeline, the spans, the metrics table and
     the Perfetto export all read its one event stream. *)
  let collector = Obs_collector.create () in
  let sys =
    System.build ~seed ~event_hook:(Obs_collector.record collector)
      (Sysconf.uniform Policy.enhanced)
  in
  (* Crash VFS once, mid-workload, inside a window. *)
  let fired = ref false in
  Kernel.set_fault_hook (System.kernel sys)
    (Some
       (fun site ->
          if (not !fired)
             && site.Kernel.site_ep = Endpoint.vfs
             && site.Kernel.site_handler = Some Message.Tag.T_open
          then begin
            fired := true;
            Some (Kernel.F_crash "demo fault in open()")
          end
          else None));
  let halt = System.run sys ~root:(Workgen.generate ~seed ()) in
  Printf.printf "\nrun: %s (%d crashes, %d recoveries)\n"
    (Kernel.halt_to_string halt)
    (Kernel.crashes (System.kernel sys))
    (Kernel.restarts (System.kernel sys));
  print_endline "last events:";
  List.iter (fun l -> print_endline ("  " ^ l))
    (Obs_collector.timeline ~last:24 collector);
  (match Mfs.check_invariants (System.mfs sys) ~bdev:(System.bdev sys) with
   | Ok () -> print_endline "\nfsck: clean — block conservation holds"
   | Error m -> Printf.printf "\nfsck: CORRUPT: %s\n" m);
  (* Span forest: show the trees that contain recovery work. *)
  let events = Obs_collector.events collector in
  let spans = Span.build events in
  let recovering =
    List.filter
      (fun s ->
         Span.find (fun x -> x.Span.sp_kind = Span.Recovery) [ s ] <> None)
      spans
  in
  Printf.printf "\n%d events folded into %d spans; trees with recovery:\n"
    (Obs_collector.count collector) (Span.count spans);
  List.iter (fun l -> print_endline ("  " ^ l))
    (Span.render_tree recovering);
  (* Latency / recovery / metrics tables. *)
  print_newline ();
  print_endline (Obs_report.render ~kernel:(System.kernel sys) ~events spans);
  (* Perfetto export. *)
  let path = "observability_trace.json" in
  let oc = open_out path in
  output_string oc (Chrome_trace.of_spans ~events spans);
  close_out oc;
  Printf.printf "wrote %s — open it at https://ui.perfetto.dev\n" path
