module Tablefmt = Osiris_util.Tablefmt

(* Crashes within the window that flag a loop when the compartment has
   no restart budget. *)
let crash_loop_n = 3

(* Sliding-window width in virtual cycles: the kernel's hang-detection
   horizon. *)
let crash_loop_window = 2_000_000

type t = Runmodel.t

let create () = Runmodel.create ()

(* Feed from the kernel event stream: compose with any other consumer
   (the collector, say) in the same event hook. *)
let observe = Runmodel.observe

type status = Healthy | Degraded | Crash_looping | Failed

let status_to_string = function
  | Healthy -> "healthy"
  | Degraded -> "degraded"
  | Crash_looping -> "crash-looping"
  | Failed -> "failed"

type comp = {
  co_ep : Endpoint.t;
  co_name : string;
  co_policy : string;
  co_alive : bool;
  co_crashes : int;
  co_restarts : int;
  co_recent_crashes : int;  (* within the sliding window *)
  co_crash_loop_threshold : int;
  co_mttr : float;
  co_success_ratio : float;
  co_overhead_pct : float option;
  co_recovery_pct : float option;
  co_status : status;
}

let snapshot ?profiler ?budget_for t kernel =
  let now = Kernel.now kernel in
  List.map
    (fun ep ->
       let eps = Runmodel.server_episodes t ep in
       let crashes = List.length eps in
       let restarts = Runmodel.restarts t ep in
       let threshold =
         match budget_for with
         | Some f ->
           (* A compartment with a restart budget of b is looping once
              it has burned the whole budget inside one window; an
              unbudgeted compartment uses the global default. *)
           (match f ep with
            | Some b -> max 2 b
            | None -> crash_loop_n)
         | None -> crash_loop_n
       in
       let horizon = now - crash_loop_window in
       let recent =
         List.length
           (List.filter (fun (e : Runmodel.episode) -> e.e_crash >= horizon) eps)
       in
       let alive = Kernel.proc_alive kernel ep in
       let closed = List.filter Runmodel.closed eps in
       let mttr =
         if closed = [] then 0.
         else
           float_of_int
             (List.fold_left
                (fun acc (e : Runmodel.episode) ->
                   acc + max 0 (e.e_restart - e.e_crash))
                0 closed)
           /. float_of_int (List.length closed)
       in
       let success_ratio =
         if crashes = 0 then 1.
         else min 1. (float_of_int restarts /. float_of_int crashes)
       in
       let overhead_pct, recovery_pct =
         match profiler with
         | None -> (None, None)
         | Some prof ->
           let user = Profiler.phase_cycles prof ep Kernel.Ph_user in
           if user = 0 then (None, None)
           else
             let pct phases =
               Some
                 (100.
                  *. float_of_int
                       (List.fold_left
                          (fun acc ph -> acc + Profiler.phase_cycles prof ep ph)
                          0 phases)
                  /. float_of_int user)
             in
             ( pct [ Kernel.Ph_instr; Kernel.Ph_log; Kernel.Ph_checkpoint ],
               pct [ Kernel.Ph_rollback; Kernel.Ph_restart ] )
       in
       let status =
         if not alive then Failed
         else if recent >= threshold then Crash_looping
         else if crashes > restarts then Degraded
         else Healthy
       in
       { co_ep = ep;
         co_name = Endpoint.server_name ep;
         co_policy =
           (match Kernel.proc_policy_name kernel ep with
            | Some n -> n
            | None -> "-");
         co_alive = alive;
         co_crashes = crashes;
         co_restarts = restarts;
         co_recent_crashes = recent;
         co_crash_loop_threshold = threshold;
         co_mttr = mttr;
         co_success_ratio = success_ratio;
         co_overhead_pct = overhead_pct;
         co_recovery_pct = recovery_pct;
         co_status = status })
    (Kernel.server_endpoints kernel)

let render comps =
  if comps = [] then ""
  else
    let rows =
      List.map
        (fun c ->
           [ c.co_name;
             c.co_policy;
             status_to_string c.co_status;
             string_of_int c.co_crashes;
             string_of_int c.co_restarts;
             Printf.sprintf "%d/%d" c.co_recent_crashes c.co_crash_loop_threshold;
             Tablefmt.fixed 0 c.co_mttr;
             Tablefmt.pct c.co_success_ratio;
             (match c.co_overhead_pct with
              | Some p -> Tablefmt.pct (p /. 100.)
              | None -> "-");
             (match c.co_recovery_pct with
              | Some p -> Tablefmt.pct (p /. 100.)
              | None -> "-") ])
        comps
    in
    Tablefmt.render ~title:"recovery health (per compartment)"
      ~header:
        [ "compartment"; "policy"; "status"; "crashes"; "restarts"; "loop";
          "mttr"; "success"; "overhead"; "recovery" ]
      ~align:
        [ Tablefmt.Left; Tablefmt.Left; Tablefmt.Left; Tablefmt.Right;
          Tablefmt.Right; Tablefmt.Right; Tablefmt.Right; Tablefmt.Right;
          Tablefmt.Right; Tablefmt.Right ]
      rows

let to_json comps =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\n  \"compartments\": [";
  List.iteri
    (fun i c ->
       if i > 0 then Buffer.add_char buf ',';
       Buffer.add_string buf "\n    {\"name\": ";
       Buffer.add_string buf (Chrome_trace.escaped c.co_name);
       Buffer.add_string buf ", \"policy\": ";
       Buffer.add_string buf (Chrome_trace.escaped c.co_policy);
       Buffer.add_string buf
         (Printf.sprintf
            ", \"status\": \"%s\", \"alive\": %b, \"crashes\": %d, \
             \"restarts\": %d, \"recent_crashes\": %d, \
             \"crash_loop_threshold\": %d, \"mttr_cycles\": %.1f, \
             \"success_ratio\": %.3f"
            (status_to_string c.co_status) c.co_alive c.co_crashes
            c.co_restarts c.co_recent_crashes c.co_crash_loop_threshold
            c.co_mttr c.co_success_ratio);
       (match c.co_overhead_pct with
        | Some p -> Buffer.add_string buf (Printf.sprintf ", \"overhead_pct\": %.3f" p)
        | None -> ());
       (match c.co_recovery_pct with
        | Some p -> Buffer.add_string buf (Printf.sprintf ", \"recovery_pct\": %.3f" p)
        | None -> ());
       Buffer.add_string buf "}")
    comps;
  Buffer.add_string buf "\n  ]\n}\n";
  Buffer.contents buf
