(* Tests for the fault-injection machinery: site profiling, fault-model
   action selection, and campaign classification. *)

let site_t =
  Alcotest.testable
    (Fmt.of_to_string Kernel.site_to_string)
    (fun a b -> Kernel.compare_site a b = 0)

(* ---------------- profiling --------------------------------------- *)

let test_profile_nonempty_and_core_only () =
  let sites = Campaign.profile_sites Policy.enhanced in
  Alcotest.(check bool) "hundreds of sites" true (List.length sites > 200);
  List.iter
    (fun s ->
       Alcotest.(check bool) "core server site" true
         (List.mem s.Kernel.site_ep System.core_servers))
    sites

let test_profile_deterministic () =
  let a = Campaign.profile_sites Policy.enhanced in
  let b = Campaign.profile_sites Policy.enhanced in
  Alcotest.(check (list site_t)) "same sites, same order" a b

let test_profile_occurrence_capped () =
  let sites = Campaign.profile_sites Policy.enhanced in
  List.iter
    (fun s ->
       Alcotest.(check bool) "occ <= 16" true (s.Kernel.site_occ <= 16))
    sites

let test_profile_distinct () =
  let sites = Campaign.profile_sites Policy.enhanced in
  let sorted = List.sort_uniq Kernel.compare_site sites in
  Alcotest.(check int) "no duplicates" (List.length sites) (List.length sorted)

let test_profile_covers_all_servers () =
  let sites = Campaign.profile_sites Policy.enhanced in
  List.iter
    (fun ep ->
       Alcotest.(check bool)
         (Endpoint.server_name ep ^ " has sites") true
         (List.exists (fun s -> s.Kernel.site_ep = ep) sites))
    System.core_servers

(* ---------------- selection --------------------------------------- *)

let test_select_sample_size () =
  let sites = Campaign.profile_sites Policy.enhanced in
  let sel = Campaign.select_sites ~sample:25 sites in
  Alcotest.(check int) "sample size" 25 (List.length sel)

let test_select_zero_takes_all () =
  let sites = Campaign.profile_sites Policy.enhanced in
  let sel = Campaign.select_sites ~sample:0 sites in
  Alcotest.(check int) "all sites" (List.length sites) (List.length sel)

let test_select_deterministic () =
  let sites = Campaign.profile_sites Policy.enhanced in
  let a = Campaign.select_sites ~seed:3 ~sample:10 sites in
  let b = Campaign.select_sites ~seed:3 ~sample:10 sites in
  Alcotest.(check (list site_t)) "same selection" a b

(* Sampling is a pure function of site *identity* (a hash of the site
   name folded with the seed), not of list position. Pin the seed-42
   head of the ranking, and check that permuting or thinning the input
   cannot move the sample. *)
let test_select_seed42_fixture () =
  let sites = Campaign.profile_sites ~seed:42 Policy.enhanced in
  let sel = Campaign.select_sites ~seed:42 ~sample:5 sites in
  Alcotest.(check (list string)) "seed-42 top-5 ranking"
    [ "vfs/rename/call/0"; "pm/fork/call/1"; "pm/fork/call/0";
      "vfs/vfs_exec/reply/0"; "pm/getpid/reply/0" ]
    (List.map Kernel.site_to_string sel)

let test_select_position_independent () =
  let sites = Campaign.profile_sites Policy.enhanced in
  let a = Campaign.select_sites ~seed:42 ~sample:10 sites in
  let b = Campaign.select_sites ~seed:42 ~sample:10 (List.rev sites) in
  Alcotest.(check (list site_t)) "reversing the input moves nothing" a b

let test_select_survives_thinning () =
  let sites = Campaign.profile_sites Policy.enhanced in
  let sel = Campaign.select_sites ~seed:42 ~sample:10 sites in
  let chosen = Hashtbl.create 16 in
  List.iter (fun s -> Hashtbl.replace chosen (Kernel.site_to_string s) ()) sel;
  (* Drop every other unselected site; under positional sampling this
     would reshuffle the whole selection. *)
  let keep = ref true in
  let thinned =
    List.filter
      (fun s ->
         Hashtbl.mem chosen (Kernel.site_to_string s)
         || (keep := not !keep; !keep))
      sites
  in
  let sel' = Campaign.select_sites ~seed:42 ~sample:10 thinned in
  Alcotest.(check (list site_t)) "selection unchanged by thinning" sel sel'

(* ---------------- fault models ------------------------------------ *)

let test_fail_stop_always_crashes () =
  let site =
    { Kernel.site_ep = Endpoint.pm; site_handler = Some Message.Tag.T_fork;
      site_kind = Kernel.Op_store; site_occ = 3 }
  in
  match Edfi.action_for Edfi.Fail_stop site with
  | Kernel.F_crash _ -> ()
  | _ -> Alcotest.fail "fail-stop model must crash"

let arb_site =
  let gen =
    QCheck.Gen.(
      map3
        (fun ep kind occ ->
           let kinds =
             [| Kernel.Op_compute; Kernel.Op_load; Kernel.Op_store;
                Kernel.Op_send; Kernel.Op_call; Kernel.Op_reply;
                Kernel.Op_receive; Kernel.Op_kcall |]
           in
           { Kernel.site_ep = ep;
             site_handler = Some Message.Tag.T_fork;
             site_kind = kinds.(kind mod Array.length kinds);
             site_occ = occ mod 17 })
        (int_range 1 5) (int_range 0 7) small_nat)
  in
  QCheck.make ~print:Kernel.site_to_string gen

let prop_edfi_applicable =
  (* Store faults only on stores; message corruption only on
     send/call/reply. *)
  QCheck.Test.make ~name:"full-EDFI actions applicable to op kind" ~count:300
    arb_site
    (fun site ->
       match Edfi.action_for Edfi.Full_edfi site with
       | Kernel.F_corrupt_store | Kernel.F_drop_store ->
         site.Kernel.site_kind = Kernel.Op_store
       | Kernel.F_corrupt_msg ->
         List.mem site.Kernel.site_kind
           [ Kernel.Op_send; Kernel.Op_call; Kernel.Op_reply ]
       | Kernel.F_crash _ | Kernel.F_hang | Kernel.F_skip_handler
       | Kernel.F_benign -> true)

let prop_edfi_deterministic =
  QCheck.Test.make ~name:"full-EDFI action deterministic per site" ~count:200
    arb_site
    (fun site ->
       Edfi.action_for Edfi.Full_edfi site = Edfi.action_for Edfi.Full_edfi site)

(* ---------------- outcomes ---------------------------------------- *)

let test_outcome_names () =
  Alcotest.(check string) "pass" "pass" (Campaign.outcome_name Campaign.Pass);
  Alcotest.(check string) "crash" "crash" (Campaign.outcome_name Campaign.Crash)

let test_run_one_benign_site_passes () =
  let sites = Campaign.profile_sites Policy.enhanced in
  let site = List.hd sites in
  let outcome = Campaign.run_one Policy.enhanced site Kernel.F_benign in
  Alcotest.(check string) "benign fault passes" "pass"
    (Campaign.outcome_name outcome)

let test_survivability_small () =
  let rows =
    Campaign.survivability ~sample:8 Edfi.Fail_stop
      [ Policy.stateless; Policy.enhanced ]
  in
  Alcotest.(check int) "two rows" 2 (List.length rows);
  List.iter
    (fun r ->
       Alcotest.(check int) "eight runs" 8 r.Campaign.runs;
       Alcotest.(check int) "buckets sum" 8
         (r.Campaign.pass + r.Campaign.fail + r.Campaign.shutdown
          + r.Campaign.crash))
    rows;
  let enhanced = List.nth rows 1 in
  Alcotest.(check int) "enhanced never crashes under fail-stop" 0
    enhanced.Campaign.crash

(* ---------------- machine checks ---------------------------------- *)

(* vfs/pipe/store/8 is the site where full-EDFI store corruption
   scribbles over a pipe-table row index: the next table access walks
   out of [0,16) and Layout raises Invalid_argument at host level. The
   kernel must absorb that as a machine-check crash of the offending
   server (recoverable like any crash), not let it escape and kill the
   whole campaign — full sweeps hit this site on every run. *)
let mc_site () =
  match
    List.find_opt
      (fun s -> Kernel.site_to_string s = "vfs/pipe/store/8")
      (Campaign.profile_sites ~seed:42 Policy.enhanced)
  with
  | Some s -> s
  | None -> Alcotest.fail "profiled sites no longer include vfs/pipe/store/8"

let test_machine_check_absorbed_and_recovered () =
  let site = mc_site () in
  let sys = System.build ~seed:42 (Sysconf.uniform Policy.enhanced) in
  let k = System.kernel sys in
  let fired = ref false in
  Kernel.set_fault_hook k
    (Some
       (fun s ->
          if (not !fired) && Kernel.compare_site s site = 0 then begin
            fired := true;
            Some Kernel.F_corrupt_store
          end
          else None));
  let mc_reasons = ref [] in
  Kernel.set_event_hook k
    (Some
       (function
         | Kernel.E_crash { reason; _ } ->
           if String.length reason >= 14
              && String.sub reason 0 14 = "machine check:"
           then mc_reasons := reason :: !mc_reasons
         | _ -> ()));
  let halt = System.run sys ~root:Testsuite.driver in
  Alcotest.(check bool) "fault fired" true !fired;
  Alcotest.(check bool) "machine-check crash observed" true
    (!mc_reasons <> []);
  Alcotest.(check string) "enhanced recovers and the suite completes"
    "completed(0)" (Kernel.halt_to_string halt)

let test_machine_check_campaign_classifies () =
  let site = mc_site () in
  (* Before the machine-check boundary this raised Invalid_argument
     out of the campaign; now it must classify like any other run.
     Enhanced recovery restores VFS and the suite runs to completion,
     but the scribbled pipe row already lost data in flight — one
     suite test fails, so the run classifies as a detected failure. *)
  let outcome = Campaign.run_one Policy.enhanced site Kernel.F_corrupt_store in
  Alcotest.(check string) "wild store under enhanced" "fail"
    (Campaign.outcome_name outcome)

(* A host exception in a user program's own code is that program's
   machine check: it exits 255 through PM. The exception must never be
   charged to the server whose reply, fork or exec started the code. *)
let run_raising_root ?extra_register root =
  let sys =
    System.build ~seed:42 ?extra_register (Sysconf.uniform Policy.enhanced)
  in
  let k = System.kernel sys in
  let crashed = ref [] in
  Kernel.set_event_hook k
    (Some
       (function
         | Kernel.E_crash { ep; _ } -> crashed := ep :: !crashed
         | _ -> ()));
  let halt = System.run sys ~root in
  Alcotest.(check (list int)) "no server crashed" [] !crashed;
  Alcotest.(check string) "the root exits 255" "completed(255)"
    (Kernel.halt_to_string halt)

let test_machine_check_after_reply () =
  run_raising_root (fun () ->
      let _ = Syscall.getpid () in
      invalid_arg "x")

let test_machine_check_in_forked_child () =
  run_raising_root (fun () ->
      let pid = Syscall.fork (fun () -> invalid_arg "child") in
      let _, status = Syscall.waitpid pid in
      Syscall.exit status)

(* The exec'd program runs in the exec'd process, never in PM's fiber,
   so an exception it raises is that process' machine check. *)
let test_machine_check_in_execd_program () =
  run_raising_root
    ~extra_register:(fun reg ->
        Registry.register reg "/bin/bad" (fun _ -> invalid_arg "bad factory"))
    (fun () ->
       let pid =
         Syscall.fork (fun () ->
             let _ = Syscall.exec "/bin/bad" 0 in
             Syscall.exit 9)
       in
       let _, status = Syscall.waitpid pid in
       Syscall.exit status)

(* With no fault armed, nothing may ever trip a machine check: one
   would mean a runner bug, which a recovery policy would otherwise
   absorb and count as a recovered fault. Every workload under every
   evaluated policy, at several seeds. *)
let test_no_spontaneous_machine_checks () =
  List.iter
    (fun workload ->
       List.iter
         (fun (policy : Policy.t) ->
            List.iter
              (fun seed ->
                 let header =
                   match
                     Flight.make_header ~seed ~spec:policy.Policy.name
                       ~workload ()
                   with
                   | Ok h -> h
                   | Error e -> Alcotest.fail e
                 in
                 let checks = ref [] in
                 let event_hook = function
                   | Kernel.E_crash { reason; _ }
                     when String.starts_with ~prefix:"machine check:" reason ->
                     checks := reason :: !checks
                   | _ -> ()
                 in
                 ignore (Flight.run ~event_hook header);
                 Alcotest.(check (list string))
                   (Printf.sprintf "%s/%s/seed %d" workload policy.Policy.name seed)
                   [] !checks)
              [ 42; 7; 1 ])
         Policy.all_evaluated)
    (List.map fst Flight.workloads)

(* ---------------- disruption -------------------------------------- *)

let test_disruption_no_faults_reference () =
  let bench = Option.get (Unixbench.find "syscall") in
  let r = Disruption.run ~bench ~interval:0 () in
  Alcotest.(check bool) "completes" true r.Disruption.dis_completed;
  Alcotest.(check int) "no restarts" 0 r.Disruption.dis_restarts

let test_disruption_injects_and_survives () =
  let bench = Option.get (Unixbench.find "spawn") in
  let r = Disruption.run ~bench ~interval:150_000 () in
  Alcotest.(check bool) "completes under fault load" true
    r.Disruption.dis_completed;
  Alcotest.(check bool) "recoveries happened" true (r.Disruption.dis_restarts > 0)

let test_disruption_pm_independent_bench_flat () =
  let bench = Option.get (Unixbench.find "dhry2reg") in
  let quiet = Disruption.run ~bench ~interval:0 () in
  let stormy = Disruption.run ~bench ~interval:150_000 () in
  (* dhry2reg only touches PM at its final exit; the one recovery on
     that path bounds the deviation to a few percent, versus the 2-5x
     degradation of PM-bound workloads. *)
  Alcotest.(check bool) "flat" true
    (abs_float (stormy.Disruption.dis_score -. quiet.Disruption.dis_score)
     /. quiet.Disruption.dis_score
     < 0.08)

let test_disruption_pm_dependent_bench_degrades () =
  let bench = Option.get (Unixbench.find "spawn") in
  let quiet = Disruption.run ~bench ~interval:0 () in
  let stormy = Disruption.run ~bench ~interval:100_000 () in
  Alcotest.(check bool) "slower under faults" true
    (stormy.Disruption.dis_score < quiet.Disruption.dis_score)

let () =
  Alcotest.run "osiris_fault"
    [ ( "profiling",
        [ Alcotest.test_case "nonempty, core-only" `Quick
            test_profile_nonempty_and_core_only;
          Alcotest.test_case "deterministic" `Quick test_profile_deterministic;
          Alcotest.test_case "occurrence capped" `Quick
            test_profile_occurrence_capped;
          Alcotest.test_case "distinct" `Quick test_profile_distinct;
          Alcotest.test_case "covers all servers" `Quick
            test_profile_covers_all_servers ] );
      ( "selection",
        [ Alcotest.test_case "sample size" `Quick test_select_sample_size;
          Alcotest.test_case "zero takes all" `Quick test_select_zero_takes_all;
          Alcotest.test_case "deterministic" `Quick test_select_deterministic;
          Alcotest.test_case "seed-42 fixture" `Quick test_select_seed42_fixture;
          Alcotest.test_case "position independent" `Quick
            test_select_position_independent;
          Alcotest.test_case "survives thinning" `Quick
            test_select_survives_thinning ] );
      ( "models",
        [ Alcotest.test_case "fail-stop crashes" `Quick test_fail_stop_always_crashes;
          QCheck_alcotest.to_alcotest prop_edfi_applicable;
          QCheck_alcotest.to_alcotest prop_edfi_deterministic ] );
      ( "campaign",
        [ Alcotest.test_case "outcome names" `Quick test_outcome_names;
          Alcotest.test_case "benign passes" `Quick test_run_one_benign_site_passes;
          Alcotest.test_case "small survivability" `Slow test_survivability_small ] );
      ( "machine-check",
        [ Alcotest.test_case "absorbed and recovered" `Quick
            test_machine_check_absorbed_and_recovered;
          Alcotest.test_case "campaign classifies" `Quick
            test_machine_check_campaign_classifies;
          Alcotest.test_case "raise after a reply" `Quick
            test_machine_check_after_reply;
          Alcotest.test_case "raise in a forked child" `Quick
            test_machine_check_in_forked_child;
          Alcotest.test_case "raise in an exec'd program" `Quick
            test_machine_check_in_execd_program;
          Alcotest.test_case "none without faults" `Quick
            test_no_spontaneous_machine_checks ] );
      ( "disruption",
        [ Alcotest.test_case "reference run" `Quick test_disruption_no_faults_reference;
          Alcotest.test_case "survives injection" `Quick
            test_disruption_injects_and_survives;
          Alcotest.test_case "pm-independent flat" `Quick
            test_disruption_pm_independent_bench_flat;
          Alcotest.test_case "pm-dependent degrades" `Quick
            test_disruption_pm_dependent_bench_degrades ] ) ]
