(* A resilient application on OSIRIS: a two-process pipeline (producer
   feeding a consumer through a pipe) that checkpoints its progress in
   the Data Store, running under sustained fault injection into the OS
   servers beneath it. Every crash is recovered by RS; the application
   sees at most E_CRASH error codes, which its (libc-provided) retries
   absorb — so the pipeline completes and its checkpointed progress is
   exact.

     dune exec examples/resilient_app.exe *)

let items = 40

(* Under sustained churn a retried call can itself be hit by the next
   fault; a bounded application-level retry finishes the job (always
   safe: an E_CRASH reply means the rolled-back server did nothing). *)
let rec retrying ?(n = 8) call =
  let r = call () in
  if r = Errno.to_code Errno.E_CRASH && n > 0 then retrying ~n:(n - 1) call
  else r

let producer wfd =
  let rec go n =
    if n > items then begin
      let _ = Syscall.close wfd in
      Syscall.exit 0
    end
    else
      let chunk = Printf.sprintf "item-%03d." n in
      let w = retrying (fun () -> Syscall.write ~fd:wfd chunk) in
      if w <> String.length chunk then Syscall.exit 1
      else
        (* Checkpoint progress in DS after every item. *)
        let r =
          retrying (fun () -> Syscall.ds_publish ~key:"app.produced" ~value:n)
        in
        if r < 0 then Syscall.exit 2 else go (n + 1)
  in
  go 1

let consumer rfd =
  let rec go seen buf =
    (* Items are 9 bytes each; consume them from the stream. *)
    if String.length buf >= 9 then
      let r =
        retrying (fun () ->
            Syscall.ds_publish ~key:"app.consumed" ~value:(seen + 1))
      in
      if r < 0 then Syscall.exit 3
      else go (seen + 1) (String.sub buf 9 (String.length buf - 9))
    else
      match Syscall.read ~fd:rfd ~len:64 with
      | Ok "" -> Syscall.exit (if seen = items then 0 else 4)
      | Ok s -> go seen (buf ^ s)
      | Error Errno.E_CRASH -> go seen buf (* retried away upstream *)
      | Error _ -> Syscall.exit 5
  in
  go 0 ""

let app () =
  match Syscall.pipe () with
  | Error _ -> Syscall.exit 10
  | Ok (rfd, wfd) ->
    let prod =
      Syscall.fork (fun () ->
          let _ = Syscall.close rfd in
          producer wfd)
    in
    let cons =
      Syscall.fork (fun () ->
          let _ = Syscall.close wfd in
          consumer rfd)
    in
    let _ = Syscall.close rfd in
    let _ = Syscall.close wfd in
    let _, s1 = Syscall.waitpid prod in
    let _, s2 = Syscall.waitpid cons in
    let produced = Syscall.ds_retrieve ~key:"app.produced" in
    let consumed = Syscall.ds_retrieve ~key:"app.consumed" in
    Syscall.print (Printf.sprintf "producer exit %d, consumer exit %d" s1 s2);
    Syscall.print
      (match produced, consumed with
       | Ok p, Ok c -> Printf.sprintf "checkpointed: produced %d, consumed %d" p c
       | _ -> "checkpoint lost!");
    Syscall.exit (if s1 = 0 && s2 = 0 then 0 else 11)

let () =
  print_endline
    "pipeline of two processes + DS progress checkpoints, with fail-stop\n\
     faults injected into VFS and DS inside their recovery windows\n\
     (roughly one crash per ten requests):";
  let sys = System.build ~max_crashes:10_000 (Sysconf.uniform Policy.enhanced) in
  let kernel = System.kernel sys in
  let countdown = ref 0 in
  Kernel.set_fault_hook kernel
    (Some
       (fun site ->
          if (site.Kernel.site_ep = Endpoint.vfs
              || site.Kernel.site_ep = Endpoint.ds)
             && Kernel.window_is_open kernel site.Kernel.site_ep
          then begin
            incr countdown;
            (* One crash every 1200 in-window server operations — about
               one crash per ten requests against these handlers. *)
            if !countdown mod 1200 = 0 then Some (Kernel.F_crash "churn")
            else None
          end
          else None));
  let halt = System.run sys ~root:app in
  List.iter (fun l -> print_endline ("  [console] " ^ l)) (System.log_lines sys);
  Printf.printf
    "outcome: %s after %d crashes and %d recoveries\n"
    (Kernel.halt_to_string halt)
    (Kernel.crashes kernel) (Kernel.restarts kernel);
  print_endline
    "(consistent component recovery makes every retry safe: the app's\n\
     only concession to the fault load is a bounded retry loop, with no\n\
     state reconstruction or recovery protocol of its own)"
