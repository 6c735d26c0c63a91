(* Regression gate for the kernel run queue: the vtime telemetry grid
   and the halt of the seed-42 quickstart run must not move when the
   run queue's structure does: any correct (key, seq) queue pops the
   same stream.  The golden digest below was captured from the boxed
   binary-heap run queue. *)

(* Recaptured when the kernel.shed series joined the standard kernel
   sources (the grid gained a column; the sampled values and every
   other series are unchanged). *)
let golden_digest = "fc30955885a17122ddf64d6c05348c86"

(* The same run's halt, pinned beside the grid. *)
let golden_halt = "completed(0)"

let run_grid () =
  let ts = Timeseries.create ~interval:2048 () in
  let sys =
    System.build ~seed:42 ~telemetry:ts
      (Sysconf.uniform Policy.enhanced)
  in
  let halt = System.run sys ~root:Workgen.quickstart in
  (halt, Timeseries.to_csv ts)

let test_grid_golden () =
  let halt, csv = run_grid () in
  Alcotest.(check string) "halt (seed-42 quickstart)" golden_halt
    (Kernel.halt_to_string halt);
  let d = Digest.to_hex (Digest.string csv) in
  Alcotest.(check string) "telemetry grid digest (seed-42 quickstart)"
    golden_digest d

let () =
  Alcotest.run "telemetry_grid"
    [ ("grid",
       [ Alcotest.test_case "golden" `Quick test_grid_golden ]) ]
