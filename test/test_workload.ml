(* Tests for the workload library: registry, result parsing, test-suite
   integrity, and the Unixbench descriptors. *)

(* ---------------- registry ---------------------------------------- *)

let test_registry_roundtrip () =
  let reg = Registry.create () in
  Registry.register reg "/bin/a" ignore;
  Registry.register reg "/bin/b" ignore;
  Alcotest.(check bool) "lookup hit" true (Registry.lookup reg "/bin/a" <> None);
  Alcotest.(check bool) "lookup miss" true (Registry.lookup reg "/bin/c" = None);
  Alcotest.(check (list string)) "sorted paths" [ "/bin/a"; "/bin/b" ]
    (Registry.paths reg)

let test_registry_replace () =
  let reg = Registry.create () in
  Registry.register reg "/bin/x" ignore;
  Registry.register reg "/bin/x" ignore;
  Alcotest.(check int) "one path" 1 (List.length (Registry.paths reg))

(* ---------------- result parsing ---------------------------------- *)

let test_parse_results_mixed () =
  let lines =
    [ "RESULT a 0"; "noise line"; "RESULT b 3"; "RESULT c 0"; "SUITE_DONE" ]
  in
  let r = Testsuite.parse_results lines in
  Alcotest.(check int) "passed" 2 r.Testsuite.passed;
  Alcotest.(check int) "failed" 1 r.Testsuite.failed;
  Alcotest.(check bool) "complete" true r.Testsuite.complete;
  Alcotest.(check (list (pair string int))) "failures" [ ("b", 3) ]
    r.Testsuite.failures

let test_parse_results_incomplete () =
  let r = Testsuite.parse_results [ "RESULT a 0" ] in
  Alcotest.(check bool) "not complete" false r.Testsuite.complete

let test_parse_results_garbage () =
  let r = Testsuite.parse_results [ "RESULT"; "RESULT x"; "RESULT x y z" ] in
  Alcotest.(check int) "nothing parsed" 0 (r.Testsuite.passed + r.Testsuite.failed)

(* ---------------- suite integrity --------------------------------- *)

let test_suite_size () =
  (* The paper's prototype suite has 89 programs; ours must stay in that
     league to drive comparable coverage. *)
  Alcotest.(check bool) "at least 70 tests" true
    (List.length Testsuite.tests >= 70)

let test_suite_names_unique () =
  let names = Testsuite.names in
  Alcotest.(check int) "unique" (List.length names)
    (List.length (List.sort_uniq compare names))

let test_register_adds_binaries () =
  let reg = Registry.create () in
  Testsuite.register reg;
  List.iter
    (fun name ->
       Alcotest.(check bool) ("t_" ^ name ^ " registered") true
         (Registry.lookup reg ("/bin/t_" ^ name) <> None))
    Testsuite.names;
  Alcotest.(check bool) "aux binaries too" true
    (Registry.lookup reg "/bin/true" <> None
     && Registry.lookup reg "/bin/chain" <> None)

(* ---------------- unixbench descriptors --------------------------- *)

let test_bench_roster () =
  let names = List.map (fun b -> b.Unixbench.b_name) Unixbench.all in
  Alcotest.(check int) "twelve benchmarks" 12 (List.length names);
  Alcotest.(check (list string)) "paper order"
    [ "dhry2reg"; "whetstone-double"; "execl"; "fstime"; "fsbuffer";
      "fsdisk"; "pipe"; "context1"; "spawn"; "syscall"; "shell1"; "shell8" ]
    names

let test_bench_find () =
  Alcotest.(check bool) "find hit" true (Unixbench.find "pipe" <> None);
  Alcotest.(check bool) "find miss" true (Unixbench.find "nope" = None)

let test_bench_iters_positive () =
  List.iter
    (fun b ->
       Alcotest.(check bool)
         (b.Unixbench.b_name ^ " iters > 0") true (b.Unixbench.b_iters > 0))
    Unixbench.all

let test_bench_pm_flags () =
  let uses b = (Option.get (Unixbench.find b)).Unixbench.b_uses_pm in
  Alcotest.(check bool) "spawn uses pm" true (uses "spawn");
  Alcotest.(check bool) "shell8 uses pm" true (uses "shell8");
  Alcotest.(check bool) "dhry2reg does not" false (uses "dhry2reg")

let test_bench_register_adds_drivers () =
  let reg = Registry.create () in
  Unixbench.register reg;
  List.iter
    (fun b ->
       Alcotest.(check bool)
         ("/bin/ub_" ^ b.Unixbench.b_name) true
         (Registry.lookup reg ("/bin/ub_" ^ b.Unixbench.b_name) <> None))
    Unixbench.all

(* ---------------- syscall stubs in vivo ---------------------------- *)

let halt_t = Alcotest.testable (Fmt.of_to_string Kernel.halt_to_string) ( = )

let run_root root =
  let sys = System.build (Sysconf.uniform Policy.enhanced) in
  System.run sys ~root

let test_stub_error_codes () =
  (* Stubs must surface errno codes with the C sign convention. *)
  let root () =
    if Syscall.open_ "/no/such/file" Message.rdonly <> Errno.to_code Errno.ENOENT
    then Syscall.exit 1;
    if Syscall.close 42 <> Errno.to_code Errno.EBADF then Syscall.exit 2;
    if Syscall.kill ~pid:4242 ~signal:9 <> Errno.to_code Errno.ESRCH then
      Syscall.exit 3;
    Syscall.exit 0
  in
  Alcotest.check halt_t "codes" (Kernel.H_completed 0) (run_root root)

let test_stub_print_reaches_log () =
  let sys = System.build (Sysconf.uniform Policy.enhanced) in
  let root () =
    Syscall.print "custom-marker-line";
    Syscall.exit 0
  in
  let (_ : Kernel.halt) = System.run sys ~root in
  Alcotest.(check bool) "marker present" true
    (List.mem "custom-marker-line" (System.log_lines sys))

(* ---------------- workload generator ------------------------------ *)

let test_workgen_deterministic () =
  let a = Workgen.describe ~seed:5 () in
  let b = Workgen.describe ~seed:5 () in
  Alcotest.(check (list string)) "same plan" a b;
  let c = Workgen.describe ~seed:6 () in
  Alcotest.(check bool) "different seeds differ" true (a <> c)

let test_workgen_spec_size () =
  let d = Workgen.describe ~spec:{ Workgen.g_actions = 7; g_fork_depth = 0 }
      ~seed:1 () in
  Alcotest.(check int) "seven actions" 7 (List.length d)

let test_workgen_runs_clean () =
  for seed = 100 to 109 do
    let sys = System.build ~seed (Sysconf.uniform Policy.enhanced) in
    let halt = System.run sys ~root:(Workgen.generate ~seed ()) in
    Alcotest.check halt_t
      (Printf.sprintf "seed %d clean" seed)
      (Kernel.H_completed 0) halt
  done

let () =
  Alcotest.run "osiris_workload"
    [ ( "registry",
        [ Alcotest.test_case "roundtrip" `Quick test_registry_roundtrip;
          Alcotest.test_case "replace" `Quick test_registry_replace ] );
      ( "results",
        [ Alcotest.test_case "mixed" `Quick test_parse_results_mixed;
          Alcotest.test_case "incomplete" `Quick test_parse_results_incomplete;
          Alcotest.test_case "garbage" `Quick test_parse_results_garbage ] );
      ( "suite",
        [ Alcotest.test_case "size" `Quick test_suite_size;
          Alcotest.test_case "unique names" `Quick test_suite_names_unique;
          Alcotest.test_case "registration" `Quick test_register_adds_binaries ] );
      ( "unixbench",
        [ Alcotest.test_case "roster" `Quick test_bench_roster;
          Alcotest.test_case "find" `Quick test_bench_find;
          Alcotest.test_case "iters" `Quick test_bench_iters_positive;
          Alcotest.test_case "pm flags" `Quick test_bench_pm_flags;
          Alcotest.test_case "driver registration" `Quick
            test_bench_register_adds_drivers ] );
      ( "workgen",
        [ Alcotest.test_case "deterministic" `Quick test_workgen_deterministic;
          Alcotest.test_case "spec size" `Quick test_workgen_spec_size;
          Alcotest.test_case "runs clean" `Quick test_workgen_runs_clean ] );
      ( "stubs",
        [ Alcotest.test_case "error codes" `Quick test_stub_error_codes;
          Alcotest.test_case "print" `Quick test_stub_print_reaches_log ] ) ]
