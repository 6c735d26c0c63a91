(* Compare the four recovery policies on the same fault: a crash in the
   Data Store while it handles a publish. One boot per policy, same
   workload, same injected fault — four different fates (paper
   Tables II/III in miniature).

     dune exec examples/policy_comparison.exe *)

let workload () =
  (* Publish a value, trigger the crash, then check what survived. *)
  let r1 =
    Kernel.Op.call Endpoint.ds (Message.Ds_publish { key = "before"; value = 7 })
  in
  Syscall.print
    (match r1 with
     | Message.R_ok _ -> "publish(before=7): ok"
     | _ -> "publish(before=7): failed");
  (* The poisoned request: the fault hook crashes DS inside this
     handler. Sent without the libc retry so each policy's raw answer is
     visible. *)
  let r2 =
    Kernel.Op.call Endpoint.ds (Message.Ds_publish { key = "poison"; value = 1 })
  in
  Syscall.print
    (match r2 with
     | Message.R_ok _ -> "publish(poison): ok (fault did not fire?)"
     | Message.R_err Errno.E_CRASH -> "publish(poison): E_CRASH (error virtualization)"
     | Message.R_err e -> "publish(poison): error " ^ Errno.to_string e
     | _ -> "publish(poison): ?");
  let v = Syscall.ds_retrieve ~key:"before" in
  Syscall.print
    (match v with
     | Ok 7 -> "retrieve(before): 7 - state intact"
     | Ok n -> Printf.sprintf "retrieve(before): %d - state corrupted!" n
     | Error e -> "retrieve(before): lost (" ^ Errno.to_string e ^ ")");
  Syscall.exit 0

let run_under policy =
  Printf.printf "=== policy: %s ===\n" policy.Policy.name;
  let sys = System.build (Sysconf.uniform policy) in
  (* Arm the fault on the SECOND publish the Data Store handles: the
     first one ("before") must land, the second ("poison") dies. *)
  let activations = ref 0 in
  let fired = ref false in
  Kernel.set_fault_hook (System.kernel sys)
    (Some
       (fun site ->
          if site.Kernel.site_ep = Endpoint.ds
             && site.Kernel.site_handler = Some Message.Tag.T_ds_publish
             && site.Kernel.site_kind = Kernel.Op_store
             && site.Kernel.site_occ = 0
          then begin
            incr activations;
            if !activations = 2 && not !fired then begin
              fired := true;
              Some (Kernel.F_crash "injected")
            end
            else None
          end
          else None));
  let halt = System.run sys ~root:workload in
  (* Filter the periodic RS heartbeat chatter; under stateless/naive the
     workload hangs (no error reply ever comes) and the system idles on
     heartbeats until the virtual-time cutoff. *)
  let interesting l =
    not (String.length l >= 6 && (String.sub l 0 3 = "rs:" || String.sub l 0 3 = "ds:"))
  in
  List.iter
    (fun l -> if interesting l then print_endline ("  [console] " ^ l))
    (System.log_lines sys);
  Printf.printf "halt: %s, crashes: %d, recoveries: %d\n\n"
    (Kernel.halt_to_string halt)
    (Kernel.crashes (System.kernel sys))
    (Kernel.restarts (System.kernel sys))

let () =
  List.iter run_under Policy.all_evaluated;
  print_endline
    "summary: stateless loses the store and leaves the caller waiting;\n\
     naive resumes with whatever half-written state the crash left;\n\
     pessimistic shuts down unless the window is provably open;\n\
     enhanced rolls back and turns the crash into an error code."
