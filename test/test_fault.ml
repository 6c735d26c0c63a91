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

(* The seed-42 profile, pinned whole: its length and a digest of the
   site names in first-seen order. Any change to how sites are
   recorded, deduplicated or ordered moves it. *)
let test_profile_order_fixture () =
  let sites = Campaign.profile_sites ~seed:42 Policy.enhanced in
  Alcotest.(check int) "site count" 660 (List.length sites);
  Alcotest.(check string) "first-seen order"
    "c0a8a58b2e6d863e541c3166bf0bf5d2"
    (Digest.to_hex
       (Digest.string
          (String.concat "," (List.map Kernel.site_to_string sites))))

(* [compare_site] compares field by field; it must order sites exactly
   as polymorphic [compare] on the record does, and [site_key] must be
   injective and ordered the same way. Loop-code sites ([None]
   handler) are mixed in so both handler cases meet. *)
let test_compare_site_matches_compare () =
  let profiled = Campaign.profile_sites ~seed:42 Policy.enhanced in
  let loop_sites =
    List.map
      (fun (s : Kernel.site) -> { s with Kernel.site_handler = None })
      (List.filteri (fun i _ -> i mod 7 = 0) profiled)
  in
  let sites = List.rev_append loop_sites profiled in
  let names l = List.map Kernel.site_to_string l in
  let by_compare = List.sort compare sites in
  Alcotest.(check (list string)) "same sorted order" (names by_compare)
    (names (List.sort Kernel.compare_site sites));
  Alcotest.(check (list string)) "site_key orders the same" (names by_compare)
    (names
       (List.sort
          (fun a b -> Int.compare (Kernel.site_key a) (Kernel.site_key b))
          sites));
  let a = Array.of_list sites in
  let n = Array.length a in
  for i = 0 to n - 1 do
    let j = (i * 37 + 11) mod n in
    Alcotest.(check int) "same sign"
      (compare (compare a.(i) a.(j)) 0)
      (compare (Kernel.compare_site a.(i) a.(j)) 0);
    Alcotest.(check bool) "key equal iff site equal" (a.(i) = a.(j))
      (Kernel.site_key a.(i) = Kernel.site_key a.(j))
  done;
  Alcotest.(check int) "no operation has occurrence 17" (-1)
    (Kernel.site_key { a.(0) with Kernel.site_occ = 17 })

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

(* ---------------- armed sites vs the closure oracle ---------------- *)

(* The closure every campaign armed its faults with before
   [Kernel.arm]: a hook that compares each operation's site record and
   fires each fault once, the first unfired match in list order. *)
let closure_oracle k faults =
  let armed = List.map (fun (site, action) -> (site, action, ref false)) faults in
  Kernel.set_fault_hook k
    (Some
       (fun s ->
          let rec find = function
            | [] -> None
            | (site, action, fired) :: rest ->
              if (not !fired) && Kernel.compare_site s site = 0 then begin
                fired := true;
                Some action
              end
              else find rest
          in
          find armed))

let classify halt (r : Testsuite.results) =
  match halt with
  | Kernel.H_shutdown _ -> Campaign.Shutdown
  | Kernel.H_panic _ | Kernel.H_hang -> Campaign.Crash
  | Kernel.H_completed status ->
    if not r.Testsuite.complete then Campaign.Crash
    else if r.Testsuite.failed > 0 || status <> 0 then Campaign.Fail
    else Campaign.Pass

(* A run armed through [arm] (or the oracle), reduced to what a
   campaign reads of it. *)
let armed_run ~arm conf faults =
  let sys = System.build ~seed:42 conf in
  let k = System.kernel sys in
  arm k faults;
  let halt = System.run sys ~root:Testsuite.driver in
  let outcome = classify halt (Testsuite.parse_results (System.log_lines sys)) in
  (outcome, Kernel.now k, List.rev (Kernel.crash_times k),
   List.rev (Kernel.recovery_episodes k), Kernel.restarts k)

let test_arm_summary_matches_oracle () =
  let sites =
    Campaign.select_sites ~seed:43 ~sample:40
      (Campaign.profile_sites ~seed:42 Policy.enhanced)
  in
  let crashed = ref 0 in
  List.iter
    (fun policy ->
       let conf = Sysconf.uniform policy in
       List.iter
         (fun model ->
            List.iter
              (fun site ->
                 let action = Edfi.action_for model site in
                 let what =
                   Printf.sprintf "%s %s %s" policy.Policy.name
                     (Edfi.model_name model) (Kernel.site_to_string site)
                 in
                 let sm = Campaign.run_one_summary ~seed:42 conf site action in
                 let outcome, vtime, crash_times, episodes, restarts =
                   armed_run ~arm:closure_oracle conf [ (site, action) ]
                 in
                 let eps =
                   List.map
                     (fun (ep, c, r) -> (Endpoint.server_name ep, c, r))
                     episodes
                 in
                 let h = Histogram.create () in
                 List.iter (fun (_, c, r) -> Histogram.observe h (r - c)) eps;
                 let check_int name = Alcotest.(check int) (what ^ " " ^ name) in
                 Alcotest.(check string) (what ^ " outcome")
                   (Campaign.outcome_name outcome)
                   (Campaign.outcome_name sm.Campaign.sm_outcome);
                 Alcotest.(check string) (what ^ " spec") (Sysconf.name conf)
                   sm.Campaign.sm_spec;
                 Alcotest.(check string) (what ^ " site")
                   (Kernel.site_to_string site) sm.Campaign.sm_site;
                 check_int "final vtime" vtime sm.Campaign.sm_final_vtime;
                 check_int "crashes" (List.length crash_times)
                   sm.Campaign.sm_crashes;
                 check_int "restarts" restarts sm.Campaign.sm_restarts;
                 Alcotest.(check (list int)) (what ^ " crash times") crash_times
                   sm.Campaign.sm_crash_times;
                 Alcotest.(check (list (triple string int int)))
                   (what ^ " episodes") eps sm.Campaign.sm_episodes;
                 Alcotest.(check (list (pair int int))) (what ^ " mttr buckets")
                   (Histogram.buckets h)
                   (Histogram.buckets sm.Campaign.sm_mttr);
                 check_int "mttr sum" (Histogram.sum h)
                   (Histogram.sum sm.Campaign.sm_mttr);
                 if crash_times <> [] then incr crashed)
              sites)
         [ Edfi.Fail_stop; Edfi.Full_edfi ])
    [ Policy.enhanced; Policy.pessimistic ];
  (* The comparison means something only if faults fired. *)
  Alcotest.(check bool) "most fail-stop faults crashed a server" true
    (!crashed > 40)

(* Several armed faults: list order decides between unfired faults at
   one site, and faults at one endpoint do not disarm each other. *)
let test_arm_multi_matches_oracle () =
  let sites = Array.of_list (Campaign.profile_sites ~seed:42 Policy.enhanced) in
  let at ep nth =
    List.nth (List.filter (fun s -> s.Kernel.site_ep = ep) (Array.to_list sites)) nth
  in
  let crash s = (s, Kernel.F_crash "multi") in
  let edfi s = (s, Edfi.action_for Edfi.Full_edfi s) in
  let pm0 = at Endpoint.pm 3 and pm1 = at Endpoint.pm 40 in
  let vfs0 = at Endpoint.vfs 25 and ds0 = at Endpoint.ds 5 in
  let groups =
    [ [ crash pm0; crash pm1 ];
      [ crash pm0; edfi pm1; crash vfs0 ];
      [ edfi vfs0; crash ds0; crash pm1 ];
      [ (pm0, Kernel.F_benign); crash pm0 ];
      [ crash pm0; (pm0, Kernel.F_benign); crash pm0 ] ]
  in
  let multi_crash = ref 0 in
  List.iter
    (fun policy ->
       List.iter
         (fun faults ->
            let conf = Sysconf.uniform policy in
            let what =
              String.concat "+"
                (List.map (fun (s, _) -> Kernel.site_to_string s) faults)
            in
            let oracle = armed_run ~arm:closure_oracle conf faults in
            let outcome, _, crash_times, _, _ = oracle in
            Alcotest.(check bool) (what ^ " same run") true
              (oracle = armed_run ~arm:Kernel.arm conf faults);
            Alcotest.(check string) (what ^ " run_multi outcome")
              (Campaign.outcome_name outcome)
              (Campaign.outcome_name (Campaign.run_multi ~seed:42 policy faults));
            if List.length crash_times > 1 then incr multi_crash)
         groups)
    [ Policy.enhanced; Policy.pessimistic ];
  Alcotest.(check bool) "some runs fired more than one fault" true
    (!multi_crash > 0)

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
            test_profile_covers_all_servers;
          Alcotest.test_case "seed-42 order fixture" `Quick
            test_profile_order_fixture;
          Alcotest.test_case "compare_site orders like compare" `Quick
            test_compare_site_matches_compare ] );
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
      ( "arm",
        [ Alcotest.test_case "summaries match the closure oracle" `Slow
            test_arm_summary_matches_oracle;
          Alcotest.test_case "run_multi matches the closure oracle" `Quick
            test_arm_multi_matches_oracle ] );
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
