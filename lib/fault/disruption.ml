type result = {
  dis_bench : string;
  dis_interval : int;
  dis_score : float;
  dis_restarts : int;
  dis_completed : bool;
}

let run ?(seed = 42) ~bench ~interval () =
  (* Periodic injection expects *many* recovered crashes per run; the
     crash-storm cutoff is a runaway guard, not a budget. *)
  let sys = System.build ~seed ~max_crashes:1_000_000 (Sysconf.uniform Policy.enhanced) in
  let kernel = System.kernel sys in
  if interval > 0 then begin
    let last = ref 0 in
    Kernel.set_fault_hook ~scope:[ Endpoint.pm ] kernel
      (Some
         (fun (_ : Kernel.site) ->
            if Kernel.window_is_open kernel Endpoint.pm
               && Kernel.proc_vtime kernel Endpoint.pm - !last >= interval
            then begin
              last := Kernel.proc_vtime kernel Endpoint.pm;
              Some (Kernel.F_crash "periodic injected fault")
            end
            else None))
  end;
  let t0 = Kernel.now kernel in
  let halt = System.run sys ~root:bench.Unixbench.b_driver in
  let t1 = Kernel.now kernel in
  let seconds = Costs.cycles_to_seconds (max 1 (t1 - t0)) in
  { dis_bench = bench.Unixbench.b_name;
    dis_interval = interval;
    dis_score = float_of_int bench.Unixbench.b_iters /. seconds;
    dis_restarts = Kernel.restarts kernel;
    dis_completed = (halt = Kernel.H_completed 0) }

let default_intervals =
  [ 0; 102_400_000; 51_200_000; 25_600_000; 12_800_000; 6_400_000;
    3_200_000; 1_600_000; 800_000; 400_000; 200_000; 100_000 ]

(* Each interval is an independent simulation; fan the sweep out over
   the domain pool. Results merge in interval order, so the figure's
   columns are byte-identical to the sequential path. *)
let sweep ?(seed = 42) ?(intervals = default_intervals) ?jobs ?stats bench =
  Parfan.map ?jobs ?stats
    (fun interval -> run ~seed ~bench ~interval ())
    intervals
