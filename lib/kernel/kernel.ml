let src = Logs.Src.create "osiris.kernel" ~doc:"OSIRIS simulated kernel"

module Log = (val Logs.src_log src : Logs.LOG)

type arch = Microkernel | Monolithic

type op_kind =
  | Op_compute
  | Op_load
  | Op_store
  | Op_send
  | Op_call
  | Op_reply
  | Op_receive
  | Op_kcall
  | Op_spawn
  | Op_yield

let op_kind_index = function
  | Op_compute -> 0
  | Op_load -> 1
  | Op_store -> 2
  | Op_send -> 3
  | Op_call -> 4
  | Op_reply -> 5
  | Op_receive -> 6
  | Op_kcall -> 7
  | Op_spawn -> 8
  | Op_yield -> 9

let n_op_kinds = 10

let op_kind_to_string = function
  | Op_compute -> "compute"
  | Op_load -> "load"
  | Op_store -> "store"
  | Op_send -> "send"
  | Op_call -> "call"
  | Op_reply -> "reply"
  | Op_receive -> "receive"
  | Op_kcall -> "kcall"
  | Op_spawn -> "spawn"
  | Op_yield -> "yield"

(* Cycle-attribution phases: every advance of a process' virtual clock
   is charged to exactly one of these, so a profiler summing hook
   emissions reconstructs each clock exactly (conservation). *)
type phase =
  | Ph_user        (* executing the component's own instructions *)
  | Ph_instr       (* recovery-window instrumentation drag (c_instr_op) *)
  | Ph_log         (* undo-log writes riding on logged stores *)
  | Ph_checkpoint  (* window-open checkpoint / snapshot copy *)
  | Ph_rollback    (* rolling state back after an in-window crash *)
  | Ph_restart     (* restart machinery: clone transfer, clear, go *)
  | Ph_wait        (* blocked on IPC: clock jumps to a peer's time *)

let phase_index = function
  | Ph_user -> 0
  | Ph_instr -> 1
  | Ph_log -> 2
  | Ph_checkpoint -> 3
  | Ph_rollback -> 4
  | Ph_restart -> 5
  | Ph_wait -> 6

let n_phases = 7

let phase_to_string = function
  | Ph_user -> "user"
  | Ph_instr -> "instr"
  | Ph_log -> "undo_log"
  | Ph_checkpoint -> "checkpoint"
  | Ph_rollback -> "rollback"
  | Ph_restart -> "restart"
  | Ph_wait -> "ipc_wait"

let all_phases =
  [ Ph_user; Ph_instr; Ph_log; Ph_checkpoint; Ph_rollback; Ph_restart;
    Ph_wait ]

(* Attribution slots: every static emission point of the cycle hook is
   registered at module init as a (phase, detail) pair and identified
   by a dense integer id. The hook passes the id, not the pair, so a
   profiler can count cycles in flat arrays — no hashing, no string
   comparison on the hot path — which is what keeps the attached-
   profiler overhead inside its gate (bench/profiler_bench.ml). *)
type slot = int

(* The slot table is built by the [mk_slot] calls below, which run
   exactly once, at module initialization — before any domain can be
   spawned. [freeze_slots] (called right after the last registration)
   locks the builder and drops the accumulators, so the only state a
   concurrently running kernel can observe is the immutable arrays
   ([slot_info], [slot_drag]) derived from them. Registering a slot
   after the freeze is a programming error and raises. *)
let slot_defs : (phase * string) list ref = ref []
let n_slot_defs = ref 0
let drag_pairs : (int * int) list ref = ref []
let slots_frozen = ref false

let mk_slot phase detail : slot =
  if !slots_frozen then
    invalid_arg "Kernel.mk_slot: slot table is frozen (module init is over)";
  let id = !n_slot_defs in
  incr n_slot_defs;
  slot_defs := (phase, detail) :: !slot_defs;
  id

(* A slot charged through [charge] gets a [Ph_instr] twin carrying the
   same detail, so recovery-window instrumentation drag is attributed
   per operation. *)
let mk_charged phase detail : slot =
  let m = mk_slot phase detail in
  let d = mk_slot Ph_instr detail in
  drag_pairs := (m, d) :: !drag_pairs;
  m

(* Interpreter operations: busy work, charged with drag. *)
let sl_compute = mk_charged Ph_user "compute"
let sl_load = mk_charged Ph_user "load"
let sl_store = mk_charged Ph_user "store"
let sl_send = mk_charged Ph_user "send"
let sl_call = mk_charged Ph_user "call"
let sl_receive = mk_charged Ph_user "receive"
let sl_reply = mk_charged Ph_user "reply"
let sl_yield = mk_charged Ph_user "yield"
let sl_spawn = mk_charged Ph_user "spawn"
let sl_rand = mk_charged Ph_user "rand"
let sl_now = mk_charged Ph_user "now"

(* Kernel calls, one slot each: recovery-machinery kcalls are
   attributed to the recovery phases even though the Recovery Server
   issues them like any other operation. *)
let sl_kc_fork = mk_charged Ph_user "fork"
let sl_kc_exec = mk_charged Ph_user "exec"
let sl_kc_kill = mk_charged Ph_user "kill"
let sl_kc_crash_context = mk_charged Ph_user "crash_context"
let sl_kc_mk_clone = mk_charged Ph_restart "mk_clone"
let sl_kc_rollback = mk_charged Ph_rollback "rollback"
let sl_kc_clear_state = mk_charged Ph_restart "clear_state"
let sl_kc_go = mk_charged Ph_restart "go"
let sl_kc_reply_error = mk_charged Ph_restart "reply_error"
let sl_kc_shutdown = mk_charged Ph_user "shutdown"
let sl_kc_alarm = mk_charged Ph_user "alarm"
let sl_kc_mmu = mk_charged Ph_user "mmu"
let sl_kc_replay = mk_charged Ph_restart "replay"
let sl_kc_live_update = mk_charged Ph_user "live_update"
let sl_kc_kill_requester = mk_charged Ph_restart "kill_requester"

(* Dragless advances: undo-log rides, checkpoint copies, recovery
   transfers, and IPC-wait clock jumps. The mk_clone / clear_state
   image transfers share the kcall slots of the same name. *)
let sl_log_store = mk_slot Ph_log "store"
let sl_ckpt_snapshot = mk_slot Ph_checkpoint "snapshot"
let sl_ckpt_undo = mk_slot Ph_checkpoint "undo_log"
let sl_restart_downtime = mk_slot Ph_restart "downtime"
let sl_restart_live_update = mk_slot Ph_restart "live_update"
let sl_wait_resume = mk_slot Ph_wait "resume"
let sl_wait_reply = mk_slot Ph_wait "reply"
let sl_wait_spawn = mk_slot Ph_wait "spawn"
let sl_wait_fork = mk_slot Ph_wait "fork"
let sl_wait_exec = mk_slot Ph_wait "exec"
let sl_wait_kill = mk_slot Ph_wait "kill"
let sl_wait_inbox = mk_slot Ph_wait "inbox"

let n_slots = !n_slot_defs

let slot_info : (phase * string) array = Array.of_list (List.rev !slot_defs)

let slot_phase (s : slot) = fst slot_info.(s)
let slot_detail (s : slot) = snd slot_info.(s)

(* Main slot -> its Ph_instr drag twin; -1 for dragless slots. *)
let slot_drag =
  let a = Array.make n_slots (-1) in
  List.iter (fun (m, d) -> a.(m) <- d) !drag_pairs;
  a

(* Freeze: from here on the slot tables are the immutable arrays
   above; the builder refs are emptied so no mutable module state
   survives into the (possibly multi-domain) run. *)
let () =
  slots_frozen := true;
  slot_defs := [];
  n_slot_defs := n_slots;
  drag_pairs := []

let all_slots = List.init n_slots (fun s -> s)

(* slot -> phase index, precomputed so the attribution hot path can
   maintain the kernel-global per-phase cycle totals with two unsafe
   array ops instead of consumers re-scanning every slot row (the
   vtime sampler reads [total_phase_cycles] once per tick). *)
let slot_phase_idx = Array.init n_slots (fun s -> phase_index (slot_phase s))

type site = {
  site_ep : Endpoint.t;
  site_handler : Message.Tag.t option;
  site_kind : op_kind;
  site_occ : int;
}

let site_to_string s =
  Printf.sprintf "%s/%s/%s/%d"
    (Endpoint.server_name s.site_ep)
    (match s.site_handler with
     | None -> "-"
     | Some tag -> Message.Tag.to_string tag)
    (op_kind_to_string s.site_kind)
    s.site_occ

(* Handler code in a site key: 0 for loop/init code, else 1 + the
   tag's dense index — [None] before every [Some], as [compare] had it. *)
let[@inline] handler_code = function
  | None -> 0
  | Some tag -> 1 + Message.Tag.to_index tag

let compare_site a b =
  let c = Int.compare a.site_ep b.site_ep in
  if c <> 0 then c
  else
    let c =
      Int.compare (handler_code a.site_handler) (handler_code b.site_handler)
    in
    if c <> 0 then c
    else
      let c =
        Int.compare (op_kind_index a.site_kind) (op_kind_index b.site_kind)
      in
      if c <> 0 then c else Int.compare a.site_occ b.site_occ

(* Occurrence indices are capped here (see [op_site_hooked]), so a
   site is one int in mixed radix over (ep, handler code, kind, occ):
   injective for ep >= 0 and occ in [0, occ_cap]. *)
let occ_cap = 16

let[@inline] pack_site ep handler kind occ =
  (((((ep * (Message.Tag.n_tags + 1)) + handler) * n_op_kinds) + kind)
   * (occ_cap + 1))
  + occ

let site_key s =
  if s.site_ep < 0 || s.site_occ < 0 || s.site_occ > occ_cap then -1
  else
    pack_site s.site_ep (handler_code s.site_handler)
      (op_kind_index s.site_kind) s.site_occ

type fault_action =
  | F_crash of string
  | F_hang
  | F_corrupt_store
  | F_drop_store
  | F_corrupt_msg
  | F_skip_handler
  | F_benign

type server = {
  srv_ep : Endpoint.t;
  srv_name : string;
  srv_image : Memimage.t;
  srv_clone_extra_kb : int;
  srv_init : unit -> unit;
  srv_loop : unit -> unit;
  srv_multithreaded : bool;
}

type halt =
  | H_completed of int
  | H_shutdown of string
  | H_panic of string
  | H_hang

let halt_to_string = function
  | H_completed status -> Printf.sprintf "completed(%d)" status
  | H_shutdown reason -> Printf.sprintf "shutdown(%s)" reason
  | H_panic reason -> Printf.sprintf "panic(%s)" reason
  | H_hang -> "hang"

type config = {
  arch : arch;
  policy : Policy.t;
  policies : (Endpoint.t * Policy.t) list;
      (* per-compartment overrides, resolved once per process at
         creation; [policy] covers user processes and unlisted servers *)
  costs : Costs.t;
  seed : int;
  max_ops : int;
  max_vtime : int;
  hang_detect_cycles : int;
  max_crashes : int;
  lookup_program : string -> (int -> unit) option;
  log_sink : (string -> unit) option;
}

let costs_of_arch = function
  | Microkernel -> Costs.microkernel
  | Monolithic -> Costs.monolithic

let default_config ?(arch = Microkernel) ?(seed = 42) ?(policies = []) policy
    ~lookup_program () =
  { arch;
    policy;
    policies;
    costs = costs_of_arch arch;
    seed;
    max_ops = 400_000_000;
    max_vtime = 2_000_000_000;
    hang_detect_cycles = 2_000_000;
    max_crashes = 64;
    lookup_program;
    log_sink = None }

(* ------------------------------------------------------------------ *)
(* Processes and threads                                               *)
(* ------------------------------------------------------------------ *)

type req = {
  rq_src : Endpoint.t;
  rq_src_tid : int;
  rq_tag : Message.Tag.t;
  rq_call : bool;
  rq_msg : Message.t;
  rq_rid : int;  (* causal request id; preserved across K_replay *)
}

(* A table walk of the C servers ([Op.Mem.scan]) with its predicate as
   data: each row evaluates the tests in order and fails at the first
   that fails, as [&&] does, so the kernel knows every load a row
   makes. Each load is an [Op.Mem.get_int] / [get_str] of its own —
   entered, covered, sited, charged — but a walk of many rows runs in
   one host call (see "Row searches" below). *)
type scan_test =
  | Hit
  | Int_eq of Layout.int_field * int * scan_test
  | Int_ne of Layout.int_field * int * scan_test
  | Str_eq of Layout.str_field * string * scan_test
  | Row_ne of int * scan_test

(* Every thread runs as an effect fiber (see "The fiber runner" below).
   A suspended fiber's continuation lives in its thread's state until
   the kernel resumes it or releases it; a continuation is used at most
   once, so whoever takes one out of a state leaves [T_running]. *)
type tstate =
  | T_running
      (* Executing, or finished/released: holds no continuation. *)
  | T_new of (unit -> unit)
      (* Not started: the fiber begins by running this program. *)
  | T_ready of (unit, unit) Effect.Deep.continuation
      (* Suspended at an operation's entry, a yield or a hang. *)
  | T_scan of (int, unit) Effect.Deep.continuation
      (* A row search preempted at a load: the walk's position is in
         the thread record ([w_*]), and the kernel runs it on from
         there without the fiber, continuing it only with the walk's
         result (see [resume_walk]). *)
  | T_replied of (Message.t, unit) Effect.Deep.continuation * Message.t
      (* A reply waiting for the thread's own next slice: the caller's
         code runs there, so its host exceptions are its own. *)
  | T_call_wait of (Message.t, unit) Effect.Deep.continuation
      (* Waiting for the reply to the call in the thread's [call_dst]
         and [call_child]. *)
  | T_recv_wait of (unit, unit) Effect.Deep.continuation
      (* Parked in Receive; resuming re-executes the receive. *)
  | T_idle of (unit -> unit)
      (* Parked in Receive at the top of the server loop, with no
         fiber: a message starts the loop program afresh, whose first
         operation is that receive. *)

(* A walk cursor (see "Row searches"): what a batched walk derives
   before its loop — each column test's absolute offset in row 0 and
   string length by position in the test chain, the table's row size
   and rows, the image's size, the per-load cost and drag, the window
   and stop state — and the walk's live position: row, test index,
   clock, and the loads made since they were committed to the process
   and the kernel ([walk_commit]). The kernel owns two, one per walk of
   the lockstep, so a walk allocates nothing. The walk's test chain,
   image and backing are the lockstep's to keep ([walk_load]): a
   pointer stored in a record pays the write barrier, so a lone batch
   passes them instead. *)
type cursor = {
  mutable cu_off : int array;
  mutable cu_len : int array;
  mutable cu_rows : int;       (* the walk's end row *)
  mutable cu_rs : int;
  mutable cu_trows : int;      (* the table's rows *)
  mutable cu_size : int;
  mutable cu_cint : int;
  mutable cu_drag : int;
  mutable cu_wopen : bool;
  mutable cu_stopped : bool;   (* the process is stopped, or the kernel halted *)
  mutable cu_row : int;
  mutable cu_i : int;
  mutable cu_vt : int;
  (* Loads not committed yet: all of them, the string loads among them,
     and the string loads' cycles and their count with a non-zero cost. *)
  mutable cu_n : int;
  mutable cu_ns : int;
  mutable cu_cs : int;
  mutable cu_es : int;
  mutable cu_batch : bool;     (* the walk may run batched *)
  mutable cu_head : scan_test;
  mutable cu_img : Memimage.t;
  mutable cu_d : Bytes.t;
}

(* The [cu_img] of a cursor that has run no walk yet. *)
let no_image = Memimage.create ~name:"no walk" ~size:0

let new_cursor () =
  { cu_off = Array.make 8 0; cu_len = Array.make 8 0; cu_rows = 0; cu_rs = 0;
    cu_trows = 0; cu_size = 0; cu_cint = 0; cu_drag = 0; cu_wopen = false;
    cu_stopped = false; cu_row = 0; cu_i = 0; cu_vt = 0; cu_n = 0; cu_ns = 0;
    cu_cs = 0; cu_es = 0; cu_batch = false; cu_head = Hit; cu_img = no_image;
    cu_d = Bytes.empty }

type crash_ctx = {
  cc_window_open : bool;
  cc_requester : (Endpoint.t * int) option;
  cc_reason : string;
  cc_request : req option;
  cc_rlocal : bool;  (* a requester-local SEEP was crossed in-window *)
}

type kind = Server_proc | User_proc

(* Run-queue items are packed ints — [(endpoint lsl 2) lor tag] — so a
   push allocates nothing (see Sched).  Tags: *)
let tag_run = 0
let tag_alarm = 1
let tag_hangcheck = 2

type event =
  | E_msg of { time : int; src : Endpoint.t; dst : Endpoint.t;
               tag : Message.Tag.t; call : bool;
               rid : int; parent : int; cls : Seep.cls }
  | E_reply of { time : int; src : Endpoint.t; dst : Endpoint.t;
                 tag : Message.Tag.t; rid : int }
  | E_window_open of { time : int; ep : Endpoint.t; rid : int }
  | E_window_close of { time : int; ep : Endpoint.t; rid : int; policy : bool }
  | E_checkpoint of { time : int; ep : Endpoint.t; rid : int; cycles : int }
  | E_store_logged of { time : int; ep : Endpoint.t; rid : int; bytes : int }
  | E_kcall of { time : int; ep : Endpoint.t; rid : int; kc : string }
  | E_crash of { time : int; ep : Endpoint.t; reason : string;
                 window_open : bool; rid : int; policy : string }
  | E_hang_detected of { time : int; ep : Endpoint.t }
  | E_rollback_begin of { time : int; ep : Endpoint.t; rid : int }
  | E_rollback_end of { time : int; ep : Endpoint.t; rid : int; bytes : int }
  | E_restart of { time : int; ep : Endpoint.t; rid : int; policy : string }
  | E_halt of { time : int; halt : halt }
  | E_spawn of { time : int; ep : Endpoint.t; parent : int }

(* Raw event capture: the only place an event is written. The
   emission sites append each event's scalar fields to a log — a
   handful of unboxed int stores, no closure call — and invoke
   [cap_drain] only when an append would overflow. Entry layout is
   documented in the .mli; it is written by the appenders below and
   read by [event_at] (the event hook's decoder) and the journal's
   transcoder. *)
type capture = {
  mutable cap_buf : int array;
  mutable cap_pos : int;
  mutable cap_strs : string array;
  mutable cap_spos : int;
  mutable cap_drain : unit -> unit;
}

type thread = {
  tid : int;
  mutable tstate : tstate;
  mutable started : bool;
  mutable cause : int;    (* rid of the request this thread is handling; 0 = root *)
  (* The request this thread is handling, as [req]'s fields: they hold
     it while [cause] is non-zero (a rid is never 0), and are stale
     otherwise. A [req] is built from them only where one is kept. *)
  mutable hd_src : Endpoint.t;
  mutable hd_src_tid : int;
  mutable hd_call : bool;
  mutable hd_msg : Message.t;
  mutable out_rid : int;  (* rid of this thread's outstanding Call, for reply matching *)
  (* The call [Park_call] waits for: its endpoint, and the body of the
     child a fork call starts. [K_fork] runs the body in the new
     process (a fiber continuation is one-shot, so the caller's own
     cannot be resumed twice); it is never part of the message, which
     is journaled. *)
  mutable call_dst : Endpoint.t;
  mutable call_child : (unit -> unit) option;
  occ : int array;
  (* The walk parked in [T_scan]: its table, rows and test chain, and
     the row and test index of the load it stopped at. *)
  mutable w_tbl : Layout.Table.t;
  mutable w_rows : int;
  mutable w_head : scan_test;
  mutable w_row : int;
  mutable w_i : int;
  (* The running slot [Op] reads while this thread runs, built at its
     first slice. *)
  mutable run : running option;
}

and proc = {
  ep : Endpoint.t;
  mutable pname : string;
  kind : kind;
  policy : Policy.t;  (* compartment policy, fixed at process creation *)
  image : Memimage.t option;
  window : Window.t option;
  logging : Window.instrumentation;  (* the window's mode; [Never] without one *)
  mutable threads : thread list;
  runq : runq;
  mutable active : thread option;
  mutable vtime : int;
  inbox : inbox;
  mutable alive : bool;
  mutable stalled : bool;
  mutable hung : bool;
  mutable in_heap : bool;
  mutable covering : bool;  (* booted server: coverage/site accounting applies *)
  mutable loop_prog : (unit -> unit) option;
  mutable baseline_ready : bool;  (* boot image recorded in the Memimage baseline *)
  mutable restore_saved : int;    (* bytes dirty-region restarts did not blit *)
  clone_extra_kb : int;
  multithreaded : bool;
  mutable crash_ctx : crash_ctx option;
  mutable rlocal_crossed : bool;
  mutable window_seeps : int;
  mutable crashed_at : int;
  handler_tally : int array;  (* handled requests by tag index *)
  mutable tid_counter : int;
  mutable ops_total : int;
  mutable ops_in_window : int;
  mutable busy_cycles : int;
  mutable restart_count : int;
  mutable exit_status : int;  (* user procs: status at exit, -1 while alive *)
  mutable exit_vtime : int;   (* user procs: own clock at the exit call *)
  (* Per-slot cycle/event counters, interleaved [2*slot] = cycles and
     [2*slot+1] = events; [||] until [enable_cycle_counts]. Kept on
     the proc so the hot path is a flat array bump with no closure
     call and no lookup — the proc record is already in hand at every
     emission point. *)
  mutable prof : int array;
}

and t = {
  cfg : config;
  rng : Osiris_util.Rng.t;
  procs : (int, proc) Hashtbl.t;
  (* [procs] indexed by endpoint, for the lookups IPC makes per message
     (an array read, no hashing). [procs] stays the registry that is
     iterated: its order steers boot's multi-megabyte baseline copies,
     and with them the major GC of a cold process. *)
  mutable by_ep : proc option array;
  mutable servers : Endpoint.t list;
  sched : Sched.t;
  (* [Sched.next_key sched], refreshed after every push and pop: the
     fiber runner compares it with the process clock at every
     operation's entry. *)
  mutable due : int;
  mutable run_items : int;
  mutable booted : bool;
  mutable halted : halt option;
  mutable halt_on_exit : Endpoint.t option;
  mutable next_user_ep : int;
  mutable fault_hook : (site -> fault_action option) option;
  (* The endpoints [fault_hook] is called at ([None]: every server's),
     and the same as a mask by endpoint, '\001' where it is called. *)
  mutable hook_scope : Endpoint.t list option;
  mutable hook_mask : Bytes.t;
  (* One-shot faults armed by [arm]: each site's [site_key] (-1 once it
     has fired; no operation's key is negative) beside its action,
     boxed once here so that firing allocates nothing. *)
  mutable armed_keys : int array;
  mutable armed_fire : fault_action option array;
  mutable armed_left : int;
  (* Cached [fault_hook <> None || armed_left > 0]: [op_site] runs per
     op and must not pay a polymorphic compare there. *)
  mutable siting : bool;
  (* By endpoint, '\001' where operations are sited (see [sited]): the
     hook's endpoints and, while an armed site is left, the endpoints
     of the armed sites. Nowhere else can a fault fire. *)
  mutable site_mask : Bytes.t;
  mutable event_hook : (event -> unit) option;
  (* The log emission appends to: the installed capture, else
     [hook_log] — the kernel's own log for a hook alone, reset after
     every decode so it holds at most one entry and never drains. *)
  mutable tap : capture;
  hook_log : capture;
  (* A hook or a capture is installed, cached: the emission sites test
     observability once per event, and a single flag load beats two
     compares on the hot path. *)
  mutable observing : bool;
  mutable cycle_hook : (Endpoint.t -> slot -> int -> unit) option;
  mutable profiling : bool;  (* procs carry per-slot counter rows *)
  (* Kernel-global cycles per phase, maintained on the attribution
     path while [profiling]; indexed by [phase_index]. Survives proc
     replacement across restarts, unlike summing per-proc rows. *)
  phase_prof : int array;
  mutable n_ops : int;
  (* The fiber runner's stop tests are due at the next operation's
     entry (see [enter]). *)
  mutable op_check : bool;
  mutable n_crashes : int;
  mutable n_restarts : int;
  mutable n_orphans : int;
  mutable n_delivered : int;
  mutable n_users : int;
  mutable live_users : int;
  mutable halt_on_drain : bool;
  mutable global_now : int;
  (* Crash instants and (ep, crashed_at, recovered_at) recovery spans,
     newest first. Consing here is off the hot path: crashes are rare
     and bounded by [max_crashes]. *)
  mutable crash_log : int list;
  mutable episode_log : (Endpoint.t * int * int) list;
  (* Virtual-time sampler: fires at every multiple of
     [sample_interval] the global clock crosses. [next_sample] is
     [max_int] when no sampler is installed, so the untelemetered
     clock-advance path pays exactly one compare. *)
  mutable sample_interval : int;
  mutable next_sample : int;
  mutable sample_hook : (int -> unit) option;
  mutable next_rid : int;
  mutable n_shed : int;  (* user exits with EAGAIN shed status 75 *)
  (* Row-search state (see [scan_batch]): the two walk cursors, and
     where a batch stopped for the per-load path. *)
  walk_a : cursor;
  walk_b : cursor;
  mutable sc_row : int;
  mutable sc_i : int;
  (* Fiber-runner counters: fibers parked ready ([Park], [Park_scan]),
     parked walks run on by the kernel, the lockstep's episodes and
     alternations, the walks handed back to their fiber to go on load
     by load, and the loads row searches made batched and load by
     load. *)
  mutable n_parks : int;
  mutable n_walk_resumes : int;
  mutable n_walk_locksteps : int;
  mutable n_walk_switches : int;
  mutable n_walk_fallbacks : int;
  mutable n_walk_batched : int;
  mutable n_walk_single : int;
}

(* A process' ready threads, oldest first: a ring over [rq_buf] that
   doubles when full, so a push allocates nothing once it has grown. *)
and runq = {
  mutable rq_buf : thread array;
  mutable rq_head : int;
  mutable rq_len : int;
}

(* A process' pending messages, oldest first: a ring like [runq], with
   each message's scalars in [ib_ints] ([ib_stride] slots: sender,
   sender's thread, call flag, the sender's clock at send, rid) and the
   message itself in [ib_msgs]. Delivery allocates nothing once the
   ring has grown. *)
and inbox = {
  mutable ib_ints : int array;
  mutable ib_msgs : Message.t array;
  mutable ib_head : int;
  mutable ib_len : int;
}

(* The executing thread, for [Op]: one slot per domain (campaign runs
   kernels on several pool domains at once) holds the thread's own
   [run]. *)
and running = { rt : t; rp : proc; rth : thread }

let create cfg =
  let rec hook_log =
    { cap_buf = Array.make 16 0; cap_pos = 0;
      cap_strs = Array.make 2 ""; cap_spos = 0;
      cap_drain = (fun () -> hook_log.cap_pos <- 0; hook_log.cap_spos <- 0) }
  in
  { cfg;
    rng = Osiris_util.Rng.create cfg.seed;
    procs = Hashtbl.create 64;
    by_ep = Array.make 128 None;
    servers = [];
    sched = Sched.create ();
    due = max_int;
    run_items = 0;
    booted = false;
    halted = None;
    halt_on_exit = None;
    next_user_ep = Endpoint.first_user;
    fault_hook = None;
    hook_scope = None;
    hook_mask = Bytes.empty;
    armed_keys = [||];
    armed_fire = [||];
    armed_left = 0;
    siting = false;
    site_mask = Bytes.empty;
    event_hook = None;
    tap = hook_log;
    hook_log;
    observing = false;
    cycle_hook = None;
    profiling = false;
    phase_prof = Array.make n_phases 0;
    n_ops = 0;
    op_check = false;
    n_crashes = 0;
    n_restarts = 0;
    n_orphans = 0;
    n_delivered = 0;
    n_users = 0;
    live_users = 0;
    halt_on_drain = false;
    global_now = 0;
    crash_log = [];
    episode_log = [];
    sample_interval = 0;
    next_sample = max_int;
    sample_hook = None;
    next_rid = 0;
    n_shed = 0;
    walk_a = new_cursor ();
    walk_b = new_cursor ();
    sc_row = 0;
    sc_i = 0;
    n_parks = 0;
    n_walk_resumes = 0;
    n_walk_locksteps = 0;
    n_walk_switches = 0;
    n_walk_fallbacks = 0;
    n_walk_batched = 0;
    n_walk_single = 0 }

(* '\001' at each endpoint of [eps]; negative ones are dropped. *)
let endpoint_mask eps =
  let m = Bytes.make (List.fold_left max (-1) eps + 1) '\000' in
  List.iter (fun ep -> if ep >= 0 then Bytes.set m ep '\001') eps;
  m

let[@inline] in_mask m ep =
  ep >= 0 && ep < Bytes.length m && Bytes.unsafe_get m ep = '\001'

let hook_endpoints t =
  match t.fault_hook, t.hook_scope with
  | None, _ -> []
  | Some _, Some eps -> eps
  | Some _, None -> t.servers

(* The endpoint of a [site_key]: its most significant digit. *)
let key_ep key = key / ((Message.Tag.n_tags + 1) * n_op_kinds * (occ_cap + 1))

(* Once no armed site is left this allocates nothing: the site mask is
   the hook's. *)
let refresh_siting t =
  t.siting <- t.fault_hook <> None || t.armed_left > 0;
  t.site_mask <-
    (if t.armed_left = 0 then t.hook_mask
     else
       endpoint_mask
         (Array.fold_left
            (fun acc key -> if key >= 0 then key_ep key :: acc else acc)
            (hook_endpoints t) t.armed_keys))

let set_fault_hook ?scope t hook =
  t.fault_hook <- hook;
  t.hook_scope <- scope;
  t.hook_mask <- endpoint_mask (hook_endpoints t);
  refresh_siting t

(* A site matches only operations of its own endpoint, so the armed
   sites widen [site_mask] by their endpoints alone. *)
let arm t faults =
  t.armed_keys <- Array.of_list (List.map (fun (s, _) -> site_key s) faults);
  t.armed_fire <- Array.of_list (List.map (fun (_, a) -> Some a) faults);
  t.armed_left <- Array.length t.armed_keys;
  refresh_siting t

let set_event_hook t hook =
  t.event_hook <- hook;
  t.observing <- hook <> None || t.tap != t.hook_log

let set_capture t c =
  t.tap <- Option.value c ~default:t.hook_log;
  t.observing <- t.event_hook <> None || c <> None

let set_vtime_sampler t ~interval hook =
  match hook with
  | None ->
    t.sample_hook <- None;
    t.sample_interval <- 0;
    t.next_sample <- max_int
  | Some _ ->
    if interval <= 0 then
      invalid_arg "Kernel.set_vtime_sampler: interval must be positive";
    t.sample_hook <- hook;
    t.sample_interval <- interval;
    (* First boundary strictly ahead of the current clock, so sample
       timestamps are the fixed grid k*interval regardless of when the
       sampler was installed. *)
    t.next_sample <- ((t.global_now / interval) + 1) * interval

(* All global-clock advances funnel through here. The clock only moves
   forward; when it crosses one or more sample boundaries the hook
   fires once per boundary, with the boundary time — so a run's sample
   timestamps are a deterministic grid independent of scheduling
   detail. With no sampler installed [next_sample] is [max_int] and
   the cost is one compare. *)
let[@inline] bump_now t v =
  if v > t.global_now then begin
    t.global_now <- v;
    if v >= t.next_sample then
      match t.sample_hook with
      | None -> t.next_sample <- max_int
      | Some hook ->
        while t.global_now >= t.next_sample do
          let at = t.next_sample in
          t.next_sample <- t.next_sample + t.sample_interval;
          hook at
        done
  end

(* Every emission site must check this first: with no observer
   installed nothing is appended and the hot path pays a single
   branch. The per-constructor helpers below then append the entry to
   [t.tap] and, when a hook is installed, hand it the event decoded
   from the slots just written — the only place an event record is
   built. *)
let[@inline] observed t = t.observing

(* ---- the entry appenders: the layout's one writer ---------------- *)

(* Reserve room for a whole entry before writing any slot, so the log
   always sits at an entry boundary when [cap_drain] sweeps it. The
   drain contract leaves >= 16 buffer slots and >= 2 string slots
   free — at least one entry of any kind. *)
let[@inline] cap_room c ni =
  if c.cap_pos + ni > Array.length c.cap_buf then c.cap_drain ()

let[@inline] cap_room_s c ni ns =
  if c.cap_pos + ni > Array.length c.cap_buf
     || c.cap_spos + ns > Array.length c.cap_strs
  then c.cap_drain ()

let[@inline] cap_str c s =
  Array.unsafe_set c.cap_strs c.cap_spos s;
  c.cap_spos <- c.cap_spos + 1

let[@inline] cls_code = function
  | Seep.Read_only -> 0
  | Seep.State_modifying -> 1
  | Seep.Reply -> 2

let[@inline] halt_kind = function
  | H_completed _ -> 0
  | H_shutdown _ -> 1
  | H_panic _ -> 2
  | H_hang -> 3

let[@inline] cap_msg c ~time ~src ~dst ~tag ~call ~rid ~parent ~cls =
  cap_room c 9;
  let a = c.cap_buf and p = c.cap_pos in
  Array.unsafe_set a p 0;
  Array.unsafe_set a (p + 1) time;
  Array.unsafe_set a (p + 2) src;
  Array.unsafe_set a (p + 3) dst;
  Array.unsafe_set a (p + 4) (Message.Tag.to_index tag);
  Array.unsafe_set a (p + 5) (Bool.to_int call);
  Array.unsafe_set a (p + 6) rid;
  Array.unsafe_set a (p + 7) parent;
  Array.unsafe_set a (p + 8) (cls_code cls);
  c.cap_pos <- p + 9

let[@inline] cap_reply c ~time ~src ~dst ~tag ~rid =
  cap_room c 6;
  let a = c.cap_buf and p = c.cap_pos in
  Array.unsafe_set a p 1;
  Array.unsafe_set a (p + 1) time;
  Array.unsafe_set a (p + 2) src;
  Array.unsafe_set a (p + 3) dst;
  Array.unsafe_set a (p + 4) (Message.Tag.to_index tag);
  Array.unsafe_set a (p + 5) rid;
  c.cap_pos <- p + 6

(* The 3/4/5-slot entry shapes share these appenders; [kind] is the
   entry's wire code (see the .mli layout table). *)
let[@inline] cap3 c kind ~time ~ep =
  cap_room c 3;
  let a = c.cap_buf and p = c.cap_pos in
  Array.unsafe_set a p kind;
  Array.unsafe_set a (p + 1) time;
  Array.unsafe_set a (p + 2) ep;
  c.cap_pos <- p + 3

let[@inline] cap4 c kind ~time ~ep ~rid =
  cap_room c 4;
  let a = c.cap_buf and p = c.cap_pos in
  Array.unsafe_set a p kind;
  Array.unsafe_set a (p + 1) time;
  Array.unsafe_set a (p + 2) ep;
  Array.unsafe_set a (p + 3) rid;
  c.cap_pos <- p + 4

let[@inline] cap5 c kind ~time ~ep ~rid ~x =
  cap_room c 5;
  let a = c.cap_buf and p = c.cap_pos in
  Array.unsafe_set a p kind;
  Array.unsafe_set a (p + 1) time;
  Array.unsafe_set a (p + 2) ep;
  Array.unsafe_set a (p + 3) rid;
  Array.unsafe_set a (p + 4) x;
  c.cap_pos <- p + 5

let[@inline] cap_str4 c kind ~time ~ep ~rid ~s =
  cap_room_s c 4 1;
  let a = c.cap_buf and p = c.cap_pos in
  Array.unsafe_set a p kind;
  Array.unsafe_set a (p + 1) time;
  Array.unsafe_set a (p + 2) ep;
  Array.unsafe_set a (p + 3) rid;
  c.cap_pos <- p + 4;
  cap_str c s

let[@inline] cap_crash c ~time ~ep ~reason ~window_open ~rid ~policy =
  cap_room_s c 5 2;
  let a = c.cap_buf and p = c.cap_pos in
  Array.unsafe_set a p 7;
  Array.unsafe_set a (p + 1) time;
  Array.unsafe_set a (p + 2) ep;
  Array.unsafe_set a (p + 3) (Bool.to_int window_open);
  Array.unsafe_set a (p + 4) rid;
  c.cap_pos <- p + 5;
  cap_str c reason;
  cap_str c policy

let[@inline] cap_halt c ~time ~halt =
  (match halt with
   | H_shutdown s | H_panic s ->
     cap_room_s c 4 1;
     cap_str c s
   | H_completed _ | H_hang -> cap_room c 4);
  let a = c.cap_buf and p = c.cap_pos in
  Array.unsafe_set a p 12;
  Array.unsafe_set a (p + 1) time;
  Array.unsafe_set a (p + 2) (halt_kind halt);
  Array.unsafe_set a (p + 3)
    (match halt with H_completed status -> status | _ -> 0);
  c.cap_pos <- p + 4

let capture_event c = function
  | E_msg { time; src; dst; tag; call; rid; parent; cls } ->
    cap_msg c ~time ~src ~dst ~tag ~call ~rid ~parent ~cls
  | E_reply { time; src; dst; tag; rid } ->
    cap_reply c ~time ~src ~dst ~tag ~rid
  | E_window_open { time; ep; rid } -> cap4 c 2 ~time ~ep ~rid
  | E_window_close { time; ep; rid; policy } ->
    cap5 c 3 ~time ~ep ~rid ~x:(Bool.to_int policy)
  | E_checkpoint { time; ep; rid; cycles } -> cap5 c 4 ~time ~ep ~rid ~x:cycles
  | E_store_logged { time; ep; rid; bytes } -> cap5 c 5 ~time ~ep ~rid ~x:bytes
  | E_kcall { time; ep; rid; kc } -> cap_str4 c 6 ~time ~ep ~rid ~s:kc
  | E_crash { time; ep; reason; window_open; rid; policy } ->
    cap_crash c ~time ~ep ~reason ~window_open ~rid ~policy
  | E_hang_detected { time; ep } -> cap3 c 8 ~time ~ep
  | E_rollback_begin { time; ep; rid } -> cap4 c 9 ~time ~ep ~rid
  | E_rollback_end { time; ep; rid; bytes } -> cap5 c 10 ~time ~ep ~rid ~x:bytes
  | E_restart { time; ep; rid; policy } ->
    cap_str4 c 11 ~time ~ep ~rid ~s:policy
  | E_halt { time; halt } -> cap_halt c ~time ~halt
  | E_spawn { time; ep; parent } -> cap4 c 13 ~time ~ep ~rid:parent

(* ---- the entry decoder: what the event hook sees ----------------- *)

(* Slots per entry, by wire code, and the strings the entry at [p]
   carries. *)
let entry_slots = [| 9; 6; 4; 5; 5; 5; 4; 5; 3; 4; 5; 4; 4; 4 |]

let[@inline] entry_strs a p =
  match a.(p) with
  | 6 | 11 -> 1
  | 7 -> 2
  | 12 -> (match a.(p + 2) with 1 | 2 -> 1 | _ -> 0)
  | _ -> 0

(* Indexed by [Message.Tag.to_index]: decoding a tag is an array read,
   where [Message.Tag.of_index] would box an option. *)
let tag_of_index = Array.of_list Message.Tag.all

(* The event of the entry at slot [p], whose strings start at [si].
   The record (and a halt's payload) is all it allocates. *)
let event_at c p si =
  let a = c.cap_buf and s = c.cap_strs in
  let time = a.(p + 1) in
  match a.(p) with
  | 0 ->
    E_msg { time; src = a.(p + 2); dst = a.(p + 3);
            tag = tag_of_index.(a.(p + 4)); call = a.(p + 5) <> 0;
            rid = a.(p + 6); parent = a.(p + 7);
            cls = (match a.(p + 8) with
                | 0 -> Seep.Read_only
                | 1 -> Seep.State_modifying
                | _ -> Seep.Reply) }
  | 1 ->
    E_reply { time; src = a.(p + 2); dst = a.(p + 3);
              tag = tag_of_index.(a.(p + 4)); rid = a.(p + 5) }
  | 2 -> E_window_open { time; ep = a.(p + 2); rid = a.(p + 3) }
  | 3 ->
    E_window_close { time; ep = a.(p + 2); rid = a.(p + 3);
                     policy = a.(p + 4) <> 0 }
  | 4 ->
    E_checkpoint { time; ep = a.(p + 2); rid = a.(p + 3); cycles = a.(p + 4) }
  | 5 ->
    E_store_logged { time; ep = a.(p + 2); rid = a.(p + 3); bytes = a.(p + 4) }
  | 6 -> E_kcall { time; ep = a.(p + 2); rid = a.(p + 3); kc = s.(si) }
  | 7 ->
    E_crash { time; ep = a.(p + 2); reason = s.(si);
              window_open = a.(p + 3) <> 0; rid = a.(p + 4);
              policy = s.(si + 1) }
  | 8 -> E_hang_detected { time; ep = a.(p + 2) }
  | 9 -> E_rollback_begin { time; ep = a.(p + 2); rid = a.(p + 3) }
  | 10 ->
    E_rollback_end { time; ep = a.(p + 2); rid = a.(p + 3); bytes = a.(p + 4) }
  | 11 -> E_restart { time; ep = a.(p + 2); rid = a.(p + 3); policy = s.(si) }
  | 12 ->
    E_halt { time;
             halt = (match a.(p + 2) with
                 | 0 -> H_completed a.(p + 3)
                 | 1 -> H_shutdown s.(si)
                 | 2 -> H_panic s.(si)
                 | _ -> H_hang) }
  | 13 -> E_spawn { time; ep = a.(p + 2); parent = a.(p + 3) }
  | k -> invalid_arg (Printf.sprintf "Kernel: corrupt capture entry kind %d" k)

let iter_capture c f =
  let p = ref 0 and si = ref 0 in
  while !p < c.cap_pos do
    let ev = event_at c !p !si in
    si := !si + entry_strs c.cap_buf !p;
    p := !p + entry_slots.(c.cap_buf.(!p));
    f ev
  done;
  if !p <> c.cap_pos || !si <> c.cap_spos then
    invalid_arg "Kernel.iter_capture: entries do not tile the log"

(* After an entry of wire code [kind] is appended to [t.tap]: hand the
   hook that entry, decoded. [hook_log] is reset before the call, so
   it never holds more than the one entry. *)
let[@inline] tell t kind =
  match t.event_hook with
  | None -> ()
  | Some f ->
    let c = t.tap in
    let p = c.cap_pos - entry_slots.(kind) in
    let ev = event_at c p (c.cap_spos - entry_strs c.cap_buf p) in
    if c == t.hook_log then begin
      c.cap_pos <- 0;
      c.cap_spos <- 0
    end;
    f ev

let[@inline never] emit_msg t ~time ~src ~dst ~tag ~call ~rid ~parent ~cls =
  cap_msg t.tap ~time ~src ~dst ~tag ~call ~rid ~parent ~cls; tell t 0

let[@inline never] emit_reply t ~time ~src ~dst ~tag ~rid =
  cap_reply t.tap ~time ~src ~dst ~tag ~rid; tell t 1

let[@inline never] emit_window_open t ~time ~ep ~rid =
  cap4 t.tap 2 ~time ~ep ~rid; tell t 2

let[@inline never] emit_window_close t ~time ~ep ~rid ~policy =
  cap5 t.tap 3 ~time ~ep ~rid ~x:(Bool.to_int policy); tell t 3

let[@inline never] emit_checkpoint t ~time ~ep ~rid ~cycles =
  cap5 t.tap 4 ~time ~ep ~rid ~x:cycles; tell t 4

let[@inline never] emit_store_logged t ~time ~ep ~rid ~bytes =
  cap5 t.tap 5 ~time ~ep ~rid ~x:bytes; tell t 5

let[@inline never] emit_kcall t ~time ~ep ~rid ~kc =
  cap_str4 t.tap 6 ~time ~ep ~rid ~s:kc; tell t 6

let[@inline never] emit_crash t ~time ~ep ~reason ~window_open ~rid ~policy =
  cap_crash t.tap ~time ~ep ~reason ~window_open ~rid ~policy; tell t 7

let[@inline never] emit_hang_detected t ~time ~ep =
  cap3 t.tap 8 ~time ~ep; tell t 8

let[@inline never] emit_rollback_begin t ~time ~ep ~rid =
  cap4 t.tap 9 ~time ~ep ~rid; tell t 9

let[@inline never] emit_rollback_end t ~time ~ep ~rid ~bytes =
  cap5 t.tap 10 ~time ~ep ~rid ~x:bytes; tell t 10

let[@inline never] emit_restart t ~time ~ep ~rid ~policy =
  cap_str4 t.tap 11 ~time ~ep ~rid ~s:policy; tell t 11

let[@inline never] emit_halt t ~time ~halt =
  cap_halt t.tap ~time ~halt; tell t 12

let[@inline never] emit_spawn t ~time ~ep ~parent =
  cap4 t.tap 13 ~time ~ep ~rid:parent; tell t 13

let set_cycle_hook t hook = t.cycle_hook <- hook

(* Cycle attribution, two consumers:
   - per-process slot counters ([enable_cycle_counts]): a flat array
     bump with no closure call, cheap enough to stay inside the
     attached-profiler overhead gate of bench/profiler_bench.ml;
   - the optional closure hook, for consumers that need the event
     stream itself (e.g. the profiler's counter-track sampler). Its
     arguments are immediate ints, so an invocation allocates nothing.
   With neither enabled an emission point pays two branches.
   [cycles_bulk] is the counter half alone, for [n] advances of [slot]
   totalling [c] cycles, none of them zero (the row search charges a
   whole batch of loads at once, with no cycle hook installed). *)
let[@inline] cycles_bulk t p slot c n =
  if c > 0 then begin
    let a = p.prof in
    if Array.length a <> 0 then begin
      let i = 2 * slot in
      Array.unsafe_set a i (Array.unsafe_get a i + c);
      Array.unsafe_set a (i + 1) (Array.unsafe_get a (i + 1) + n);
      let ph = Array.unsafe_get slot_phase_idx slot in
      let g = t.phase_prof in
      Array.unsafe_set g ph (Array.unsafe_get g ph + c)
    end
  end

let[@inline] cycles t p slot c =
  cycles_bulk t p slot c 1;
  if c > 0 then
    match t.cycle_hook with
    | Some f -> f p.ep slot c
    | None -> ()

let prof_row () = Array.make (2 * n_slots) 0

let enable_cycle_counts t =
  t.profiling <- true;
  Hashtbl.iter
    (fun _ p -> if Array.length p.prof = 0 then p.prof <- prof_row ())
    t.procs

(* vtime-only advance (no busy_cycles): checkpoint costs and recovery
   image transfers model elapsed time during which the component is
   not executing its own instructions. *)
let[@inline] advance t p slot c =
  p.vtime <- p.vtime + c;
  cycles t p slot c

(* Max-jump resynchronisation: the process was blocked until [target]
   (a peer's clock, an inbox timestamp, the global clock). *)
let[@inline] sync_to t p slot target =
  if target > p.vtime then begin
    cycles t p slot (target - p.vtime);
    p.vtime <- target
  end

(* Causal request id allocation: every delivered message gets a fresh
   rid; its parent is the sender thread's current cause (the rid of the
   request that thread is itself handling, 0 at a root). Allocation is
   unconditional — an int increment — so attaching a hook mid-run never
   changes numbering. *)
let[@inline] alloc_rid t =
  t.next_rid <- t.next_rid + 1;
  t.next_rid

let shed_exits t = t.n_shed

let set_halt_on_exit t ep = t.halt_on_exit <- Some ep

(* The [w_tbl] of a thread that has parked no walk yet. *)
let no_table =
  let spec = Layout.spec () in
  Layout.seal spec;
  Layout.Table.alloc (Memimage.create ~name:"no table" ~size:0) ~spec ~rows:0

(* The message a thread's [hd_msg] and an empty inbox slot hold. *)
let no_msg = Message.Getpid

let new_thread tid prog ~started =
  { tid; tstate = T_new prog; started; cause = 0;
    hd_src = 0; hd_src_tid = 0; hd_call = false; hd_msg = no_msg; out_rid = 0;
    call_dst = 0; call_child = None;
    occ = Array.make n_op_kinds 0;
    w_tbl = no_table; w_rows = 0; w_head = Hit; w_row = 0; w_i = 0;
    run = None }

let fresh_thread p ?(started = true) prog =
  let tid = p.tid_counter in
  p.tid_counter <- p.tid_counter + 1;
  new_thread tid prog ~started

(* An empty run-queue slot. *)
let no_thread = new_thread (-1) ignore ~started:false

(* ---- the rings --------------------------------------------------- *)

let new_runq () = { rq_buf = [||]; rq_head = 0; rq_len = 0 }

let runq_push q th =
  let cap = Array.length q.rq_buf in
  if q.rq_len = cap then begin
    let buf = Array.make (Int.max 2 (2 * cap)) no_thread in
    for i = 0 to cap - 1 do
      buf.(i) <- q.rq_buf.((q.rq_head + i) mod cap)
    done;
    q.rq_buf <- buf;
    q.rq_head <- 0
  end;
  let cap = Array.length q.rq_buf in
  let i = q.rq_head + q.rq_len in
  Array.unsafe_set q.rq_buf (if i >= cap then i - cap else i) th;
  q.rq_len <- q.rq_len + 1

(* The oldest ready thread, taken out; the queue must not be empty. *)
let runq_pop q =
  let i = q.rq_head in
  let th = Array.unsafe_get q.rq_buf i in
  Array.unsafe_set q.rq_buf i no_thread;
  let i = i + 1 in
  q.rq_head <- (if i = Array.length q.rq_buf then 0 else i);
  q.rq_len <- q.rq_len - 1;
  th

let runq_clear q =
  Array.fill q.rq_buf 0 (Array.length q.rq_buf) no_thread;
  q.rq_head <- 0;
  q.rq_len <- 0

let ib_stride = 5

let new_inbox () = { ib_ints = [||]; ib_msgs = [||]; ib_head = 0; ib_len = 0 }

let inbox_push b ~src ~src_tid ~call ~time ~rid msg =
  let cap = Array.length b.ib_msgs in
  if b.ib_len = cap then begin
    let ncap = Int.max 4 (2 * cap) in
    let ints = Array.make (ncap * ib_stride) 0 in
    let msgs = Array.make ncap no_msg in
    for i = 0 to cap - 1 do
      let j = (b.ib_head + i) mod cap in
      Array.blit b.ib_ints (j * ib_stride) ints (i * ib_stride) ib_stride;
      msgs.(i) <- b.ib_msgs.(j)
    done;
    b.ib_ints <- ints;
    b.ib_msgs <- msgs;
    b.ib_head <- 0
  end;
  let cap = Array.length b.ib_msgs in
  let i = b.ib_head + b.ib_len in
  let i = if i >= cap then i - cap else i in
  let o = i * ib_stride in
  let ints = b.ib_ints in
  Array.unsafe_set ints o src;
  Array.unsafe_set ints (o + 1) src_tid;
  Array.unsafe_set ints (o + 2) (Bool.to_int call);
  Array.unsafe_set ints (o + 3) time;
  Array.unsafe_set ints (o + 4) rid;
  Array.unsafe_set b.ib_msgs i msg;
  b.ib_len <- b.ib_len + 1

(* The oldest message is read in place at [ib_head] (its scalars from
   [ib_head * ib_stride]); this drops it. *)
let inbox_drop b =
  let i = b.ib_head in
  Array.unsafe_set b.ib_msgs i no_msg;
  let i = i + 1 in
  b.ib_head <- (if i = Array.length b.ib_msgs then 0 else i);
  b.ib_len <- b.ib_len - 1

let inbox_clear b =
  Array.fill b.ib_msgs 0 (Array.length b.ib_msgs) no_msg;
  b.ib_head <- 0;
  b.ib_len <- 0

(* The payload a released fiber is discontinued with; its handler
   absorbs it. *)
exception Thread_killed

(* Drop a thread's suspended fiber, if it has one, by discontinuing it:
   the fiber unwinds and its stack is freed (an unresumed continuation
   would hold its stack forever). *)
let release th =
  let st = th.tstate in
  th.tstate <- T_running;
  match st with
  | T_ready k | T_recv_wait k -> Effect.Deep.discontinue k Thread_killed
  | T_scan k -> Effect.Deep.discontinue k Thread_killed
  | T_replied (k, _) -> Effect.Deep.discontinue k Thread_killed
  | T_call_wait k -> Effect.Deep.discontinue k Thread_killed
  | T_running | T_new _ | T_idle _ -> ()

let proc_of t ep =
  if ep >= 0 && ep < Array.length t.by_ep then Array.unsafe_get t.by_ep ep
  else None

let register t ep p =
  Hashtbl.replace t.procs ep p;
  let n = Array.length t.by_ep in
  if ep >= n then begin
    let a = Array.make (max (ep + 1) (2 * n)) None in
    Array.blit t.by_ep 0 a 0 n;
    t.by_ep <- a
  end;
  t.by_ep.(ep) <- Some p

(* The exit(status) through PM that ends a user thread whose program
   returned, failed or was killed. The call is an operation, defined
   with the others below; [Op] fills in [exit_call]. *)
let exit_call : (int -> unit) ref = ref (fun _ -> ())
let exit_prog status () = !exit_call status

let get_proc t ep =
  match proc_of t ep with
  | Some p -> p
  | None -> failwith (Printf.sprintf "kernel: unknown endpoint %d" ep)

let runnable p =
  p.alive && (not p.stalled) && (not p.hung)
  && (match p.active with
      | Some _ -> true
      | None -> p.runq.rq_len > 0)

let sched_push t ~key item =
  Sched.push t.sched ~key item;
  t.due <- Sched.next_key t.sched

let push_run t ep ~key =
  t.run_items <- t.run_items + 1;
  sched_push t ~key ((ep lsl 2) lor tag_run)

let push_alarm t ep ~key = sched_push t ~key ((ep lsl 2) lor tag_alarm)

let push_hangcheck t ep ~key =
  sched_push t ~key ((ep lsl 2) lor tag_hangcheck)

let schedule t p =
  if (not p.in_heap) && runnable p then begin
    p.in_heap <- true;
    push_run t p.ep ~key:p.vtime
  end

(* Ready the first receive-parked thread of [threads], in place. *)
let rec wake_first t p = function
  | [] -> ()
  | th :: rest ->
    match th.tstate with
    | T_recv_wait k ->
      th.tstate <- T_ready k;
      runq_push p.runq th;
      schedule t p
    | T_idle loop ->
      th.tstate <- T_new loop;
      runq_push p.runq th;
      schedule t p
    | _ -> wake_first t p rest

(* Wake a receive-parked thread if a message is available. *)
let wake_receiver t p =
  if p.alive && (not p.stalled) && p.inbox.ib_len > 0 then
    wake_first t p p.threads

let halt t h =
  if t.halted = None then begin
    t.halted <- Some h;
    if observed t then emit_halt t ~time:t.global_now ~halt:h
  end

let panic t reason =
  Log.err (fun m -> m "PANIC: %s" reason);
  halt t (H_panic reason)

(* ------------------------------------------------------------------ *)
(* Windows and coverage                                                *)
(* ------------------------------------------------------------------ *)

let close_window_if_open ?(policy = false) ?(rid = 0) t p =
  match p.window with
  | Some w when Window.is_open w ->
    if policy then Window.note_policy_close w;
    Window.close_window w;
    if observed t then
      emit_window_close t ~time:p.vtime ~ep:p.ep ~rid ~policy
  | _ -> ()

let policy_close ?tag ?(rid = 0) t p cls =
  (* The sender's recovery window closes when a policy-forbidden SEEP
     is crossed (paper Section IV-B). Requester-local SEEPs (extension,
     Section VII) keep the window open but are remembered: crossing one
     switches the reconciliation to kill-requester. *)
  let requester_local =
    match tag with
    | Some tag -> List.mem tag p.policy.Policy.requester_local
    | None -> false
  in
  match p.window with
  | Some w when Window.is_open w ->
    p.window_seeps <- p.window_seeps + 1;
    (* Graduated policies (extension): past the budget, the window
       hardens to pessimistic and any interaction closes it. *)
    let hardened =
      match p.policy.Policy.graduated with
      | Some k -> p.window_seeps > k
      | None -> false
    in
    if requester_local && not hardened then p.rlocal_crossed <- true
    else if hardened || p.policy.Policy.closes_window cls then
      close_window_if_open ~policy:true ~rid t p
  | _ -> ()

let open_handler_window ?(rid = 0) t p =
  if p.policy.Policy.window_on_receive then
    match p.window with
    | Some w ->
      if Window.is_open w then Window.close_window w;
      p.rlocal_crossed <- false;
      p.window_seeps <- 0;
      Window.open_window w;
      if observed t then
        emit_window_open t ~time:p.vtime ~ep:p.ep ~rid;
      (* Full-copy checkpointing pays for the image copy at every
         window open; the undo log pays per store instead. *)
      let snapshot = Window.instrumentation w = Window.Snapshot in
      let cost =
        if snapshot then
          max t.cfg.costs.Costs.c_checkpoint (Memimage.size (Window.image w) / 8)
        else t.cfg.costs.Costs.c_checkpoint
      in
      advance t p (if snapshot then sl_ckpt_snapshot else sl_ckpt_undo) cost;
      if observed t then
        emit_checkpoint t ~time:p.vtime ~ep:p.ep ~rid ~cycles:cost
    | None -> ()

(* ------------------------------------------------------------------ *)
(* Crash handling                                                      *)
(* ------------------------------------------------------------------ *)

let requester_of p =
  (* The endpoint whose in-flight request was being handled by the
     active thread when the crash hit, if it is still awaiting a
     reply. *)
  match p.active with
  | Some th when th.cause <> 0 && th.hd_call -> Some (th.hd_src, th.hd_src_tid)
  | _ -> None

let deliver_to_inbox t ?at ~src ~src_tid ~call ~rid ~parent dst msg =
  let at = match at with Some a -> a | None -> t.global_now in
  match proc_of t dst with
  | None ->
    t.n_orphans <- t.n_orphans + 1;
    Log.debug (fun m -> m "message to unknown endpoint %d dropped" dst)
  | Some p ->
    if not p.alive && not p.stalled then
      (* Retired process: request is lost; a calling sender stays
         blocked forever (visible as a hang). *)
      t.n_orphans <- t.n_orphans + 1
    else begin
      if observed t then begin
        let tag = Message.Tag.of_msg msg in
        emit_msg t ~time:at ~src ~dst ~tag ~call ~rid ~parent
          ~cls:(Seep.classify ~dst tag)
      end;
      inbox_push p.inbox ~src ~src_tid ~call ~time:at ~rid msg;
      t.n_delivered <- t.n_delivered + 1;
      wake_receiver t p;
      schedule t p
    end

let rec crash_proc t p reason =
  t.n_crashes <- t.n_crashes + 1;
  Log.info (fun m -> m "crash: %s (%s) at t=%d" p.pname reason p.vtime);
  if t.n_crashes > t.cfg.max_crashes then
    panic t (Printf.sprintf "crash storm (> %d crashes)" t.cfg.max_crashes)
  else begin
    let window_open =
      match p.window with Some w -> Window.is_open w | None -> false
    in
    let requester = requester_of p in
    let request =
      match p.active with
      | Some th when th.cause <> 0 ->
        Some { rq_src = th.hd_src; rq_src_tid = th.hd_src_tid;
               rq_tag = Message.Tag.of_msg th.hd_msg; rq_call = th.hd_call;
               rq_msg = th.hd_msg;
               rq_rid = th.cause }
      | _ -> None
    in
    let cause = match p.active with Some th -> th.cause | None -> 0 in
    p.crash_ctx <-
      Some
        { cc_window_open = window_open;
          cc_requester = requester;
          cc_reason = reason;
          cc_request = request;
          cc_rlocal = p.rlocal_crossed };
    (* Inactive threads are part of the component state and survive
       recovery (paper Section IV-E): call-waiting threads and yielded
       ready threads persist. The crashing active thread dies, and the
       receive-parked main loop is replaced by a fresh one at K_go. *)
    let active_tid = match p.active with Some th -> th.tid | None -> -1 in
    let survives th =
      match th.tstate with
      | T_call_wait _ -> true
      | T_new _ | T_ready _ | T_scan _ | T_replied _ -> th.tid <> active_tid
      | T_running | T_recv_wait _ | T_idle _ -> false
    in
    let live, dead = List.partition survives p.threads in
    p.threads <- live;
    List.iter release dead;
    (* The run queue already contains exactly the non-active ready
       threads; leave it as the surviving schedule. *)
    p.active <- None;
    p.alive <- false;
    p.stalled <- true;
    p.hung <- false;
    p.crashed_at <- max p.vtime t.global_now;
    t.crash_log <- p.crashed_at :: t.crash_log;
    if observed t then
      emit_crash t ~time:p.crashed_at ~ep:p.ep ~reason ~window_open
        ~rid:cause ~policy:p.policy.Policy.name;
    match p.policy.Policy.recovery with
    | Policy.No_recovery -> panic t (Printf.sprintf "unrecovered crash in %s: %s" p.pname reason)
    | _ ->
      if p.ep = Endpoint.rs then kernel_recover_rs t p
      else
        (* The notification is parented under the crashed request, so
           RS' recovery handling nests causally beneath the user request
           that triggered the crash. *)
        deliver_to_inbox t ~src:Endpoint.kernel ~src_tid:0 ~call:false
          ~rid:(alloc_rid t) ~parent:cause Endpoint.rs
          (Message.Crash_notify { ep = p.ep; reason })
  end

(* Recovery primitives, shared between RS-driven recovery (kcalls) and
   the kernel's self-recovery path for RS itself. *)

and k_mk_clone t p =
  p.restart_count <- p.restart_count + 1;
  t.n_restarts <- t.n_restarts + 1;
  Log.info (fun m -> m "restart: clone of %s takes over endpoint %d" p.pname p.ep)

and k_clear_state t p =
  runq_clear p.runq;
  List.iter release p.threads;
  (match p.image with
   | Some img when p.baseline_ready ->
     (* Stateless restart: back to the boot image. Only dirty granules
        are blitted — O(touched state), not O(image). *)
     let restored = Memimage.restore_baseline img in
     p.restore_saved <- p.restore_saved + (Memimage.size img - restored);
     (match p.window with
      | Some w -> Window.close_window w; Window.reinstall_hook w
      | None -> ())
   | _ -> ());
  p.threads <- [];
  inbox_clear p.inbox;
  ignore t

and k_rollback t p =
  match p.window, p.crash_ctx with
  | Some w, Some ctx when ctx.cc_window_open ->
    let rid = match ctx.cc_request with Some rq -> rq.rq_rid | None -> 0 in
    let at = max t.global_now p.vtime in
    if observed t then
      emit_rollback_begin t ~time:at ~ep:p.ep ~rid;
    let before = Undo_log.rollback_bytes (Window.log w) in
    Window.rollback w;
    if observed t then begin
      let bytes =
        if Window.instrumentation w = Window.Snapshot then
          Memimage.size (Window.image w)
        else Undo_log.rollback_bytes (Window.log w) - before
      in
      emit_rollback_end t ~time:at ~ep:p.ep ~rid ~bytes
    end;
    true
  | _ -> false

and k_go t p =
  if p.kind = Server_proc && observed t then begin
    let rid =
      match p.crash_ctx with
      | Some { cc_request = Some rq; _ } -> rq.rq_rid
      | _ -> 0
    in
    emit_restart t ~time:(max t.global_now p.vtime) ~ep:p.ep ~rid
      ~policy:p.policy.Policy.name
  end;
  let recovering = p.crashed_at > 0 in
  if p.kind = Server_proc && recovering then begin
    let recovered_at = max (max t.global_now p.vtime) p.crashed_at in
    t.episode_log <- (p.ep, p.crashed_at, recovered_at) :: t.episode_log;
    p.crashed_at <- 0
  end;
  (match p.kind with
   | Server_proc ->
     (match p.loop_prog with
      | Some loop ->
        let th = fresh_thread p loop in
        p.threads <- p.threads @ [ th ];
        runq_push p.runq th
      | None -> ())
   | User_proc -> ());
  p.alive <- true;
  p.stalled <- false;
  p.crash_ctx <- None;
  (* Jump to the global clock: crash downtime when recovering, plain
     wait when a freshly forked/stalled process is released. *)
  if recovering then sync_to t p sl_restart_downtime t.global_now
  else sync_to t p sl_wait_resume t.global_now;
  wake_receiver t p;
  schedule t p

and k_reply_error t ~target ~err =
  (* Error virtualization: resume the requester that will never get a
     real reply from the crashed component. *)
  match proc_of t target with
  | None -> false
  | Some rp ->
    let rec find = function
      | [] -> None
      | th :: rest ->
        (match th.tstate with
         | T_call_wait k ->
           (match proc_of t th.call_dst with
            | Some cp when (not cp.alive) || cp.stalled -> Some (th, k)
            | _ -> find rest)
         | _ -> find rest)
    in
    (match find rp.threads with
     | None -> false
     | Some (th, k) ->
       (* The virtualized error closes the requester's in-flight call:
          report it as a reply so its span completes. *)
       if observed t then
         emit_reply t ~time:t.global_now ~src:th.call_dst ~dst:target
           ~tag:(Message.Tag.of_msg (Message.R_err err)) ~rid:th.out_rid;
       th.tstate <- T_replied (k, Message.R_err err);
       th.call_child <- None;
       sync_to t rp sl_wait_reply t.global_now;
       runq_push rp.runq th;
       schedule t rp;
       true)

and kernel_recover_rs t p =
  (* RS cannot recover itself through message passing; the kernel holds
     a prepared clone and applies the active policy directly (paper
     Section IV-C: "for core system servers, RS replaces the deceased
     component with a clone prepared ahead of time" — for RS the kernel
     plays that role). *)
  let ctx = match p.crash_ctx with Some c -> c | None -> assert false in
  match p.policy.Policy.recovery with
  | Policy.No_recovery -> ()
  | Policy.Restart_fresh ->
    k_mk_clone t p; k_clear_state t p; k_go t p
  | Policy.Restart_keep_state ->
    k_mk_clone t p;
    k_go t p
  | Policy.Rollback_or_shutdown | Policy.Rollback_replay ->
    (* RS recovers itself with error virtualization even under the
       replay extension: replaying into RS itself risks recursion. *)
    if ctx.cc_window_open then begin
      k_mk_clone t p;
      ignore (k_rollback t p);
      (match ctx.cc_requester with
       | Some (req_ep, _) -> ignore (k_reply_error t ~target:req_ep ~err:Errno.E_CRASH)
       | None -> ());
      k_go t p
    end
    else halt t (H_shutdown (Printf.sprintf "rs crashed outside recovery window (%s)" ctx.cc_reason))

(* ------------------------------------------------------------------ *)
(* Server / user creation                                              *)
(* ------------------------------------------------------------------ *)

let add_server t srv =
  (* Per-compartment resolution happens exactly once, here: everything
     downstream (window machinery, SEEP closing, recovery dispatch)
     reads the policy pinned on the process. *)
  let policy =
    match List.assoc_opt srv.srv_ep t.cfg.policies with
    | Some p -> p
    | None -> t.cfg.policy
  in
  let window =
    if policy.Policy.instrumentation <> Window.Never
       || policy.Policy.window_on_receive
    then
      Some
        (Window.create ~dedup:policy.Policy.dedup_log
           policy.Policy.instrumentation srv.srv_image)
    else None
  in
  let p =
    { ep = srv.srv_ep;
      pname = srv.srv_name;
      kind = Server_proc;
      policy;
      image = Some srv.srv_image;
      window;
      logging =
        (match window with Some w -> Window.instrumentation w | None -> Window.Never);
      threads = [];
      runq = new_runq ();
      active = None;
      vtime = 0;
      inbox = new_inbox ();
      alive = true;
      stalled = false;
      hung = false;
      in_heap = false;
      covering = false;
      loop_prog = Some srv.srv_loop;
      baseline_ready = false;
      restore_saved = 0;
      clone_extra_kb = srv.srv_clone_extra_kb;
      multithreaded = srv.srv_multithreaded;
      crash_ctx = None;
      rlocal_crossed = false;
      window_seeps = 0;
      crashed_at = 0;
      handler_tally = Array.make Message.Tag.n_tags 0;
      tid_counter = 0;
      ops_total = 0;
      ops_in_window = 0;
      busy_cycles = 0;
      restart_count = 0;
      exit_status = -1;
      exit_vtime = -1;
      prof = (if t.profiling then prof_row () else [||]) }
  in
  let main =
    fresh_thread p (fun () -> srv.srv_init (); srv.srv_loop ())
  in
  p.threads <- [ main ];
  runq_push p.runq main;
  register t srv.srv_ep p;
  t.servers <- t.servers @ [ srv.srv_ep ];
  (* An unscoped hook is called at this server too. *)
  if t.fault_hook <> None then set_fault_hook ?scope:t.hook_scope t t.fault_hook;
  schedule t p

let spawn_user_at t ~at ~name ~prog ~parent =
  let start = if at > t.global_now then at else t.global_now in
  let ep = t.next_user_ep in
  t.next_user_ep <- t.next_user_ep + 1;
  t.n_users <- t.n_users + 1;
  t.live_users <- t.live_users + 1;
  let p =
    { ep;
      pname = name;
      kind = User_proc;
      policy = t.cfg.policy;
      image = None;
      window = None;
      logging = Window.Never;
      threads = [];
      runq = new_runq ();
      active = None;
      vtime = start;
      inbox = new_inbox ();
      alive = true;
      stalled = false;
      hung = false;
      in_heap = false;
      covering = false;
      loop_prog = None;
      baseline_ready = false;
      restore_saved = 0;
      clone_extra_kb = 0;
      multithreaded = false;
      crash_ctx = None;
      rlocal_crossed = false;
      window_seeps = 0;
      crashed_at = 0;
      handler_tally = Array.make Message.Tag.n_tags 0;
      tid_counter = 0;
      ops_total = 0;
      ops_in_window = 0;
      busy_cycles = 0;
      restart_count = 0;
      exit_status = -1;
      exit_vtime = -1;
      prof = (if t.profiling then prof_row () else [||]) }
  in
  let th = fresh_thread p prog in
  p.threads <- [ th ];
  runq_push p.runq th;
  register t ep p;
  (* Arrival record for the analysis layer: the process' birth instant
     enters the event stream, so latency attribution can anchor
     arrival -> exit without access to workload metadata. [parent] is
     the spawning endpoint; 0 marks harness-injected load. *)
  if observed t then emit_spawn t ~time:start ~ep ~parent;
  (* The clock starts at the global now (or the future arrival
     instant): attribute the pre-existence span so per-process
     attribution still sums to the final clock. *)
  cycles t p sl_wait_spawn start;
  schedule t p;
  ep

let spawn_user t ~name ~prog ~parent =
  spawn_user_at t ~at:min_int ~name ~prog ~parent

let destroy_user t p =
  if p.alive then t.live_users <- t.live_users - 1;
  p.alive <- false;
  p.stalled <- true;
  List.iter release p.threads;
  p.threads <- [];
  runq_clear p.runq;
  inbox_clear p.inbox;
  p.active <- None

(* ------------------------------------------------------------------ *)
(* Live update (extension)                                             *)
(* ------------------------------------------------------------------ *)

let live_update_internal t ep loop =
  match proc_of t ep with
  | None -> Error "unknown endpoint"
  | Some p when p.kind <> Server_proc -> Error "not a server"
  | Some p when not p.alive || p.stalled -> Error "component is recovering"
  | Some p ->
    (* Quiescence: every thread parked in Receive, nothing scheduled,
       window closed. The same condition under which a checkpoint is a
       complete description of the component. *)
    let quiescent =
      p.active = None
      && p.runq.rq_len = 0
      && List.for_all
           (fun th ->
              match th.tstate with
              | T_recv_wait _ | T_idle _ -> true
              | _ -> false)
           p.threads
      && (match p.window with Some w -> not (Window.is_open w) | None -> true)
    in
    if not quiescent then Error "component is mid-request"
    else begin
      p.loop_prog <- Some loop;
      (* Retire the old loop thread(s) and start the new code over the
         preserved state, exactly like a recovered clone. *)
      List.iter release p.threads;
      p.threads <- [];
      let th = fresh_thread p loop in
      p.threads <- [ th ];
      runq_push p.runq th;
      sync_to t p sl_wait_resume t.global_now;
      (* A real update would also transfer the image into the new
         version's layout; versions here share the layout, so the
         state carries over as-is. Charge the state-transfer cost. *)
      (match p.image with
       | Some img ->
         advance t p sl_restart_live_update (Memimage.size img / 8)
       | None -> ());
      wake_receiver t p;
      schedule t p;
      Ok ()
    end

(* ------------------------------------------------------------------ *)
(* Kcall execution                                                     *)
(* ------------------------------------------------------------------ *)

let exec_kcall t p kc : Prog.kresult =
  match kc with
  | Prog.K_fork { parent } ->
    (match proc_of t parent with
     | None -> Prog.Kr_err Errno.ESRCH
     | Some pp ->
       let rec find_child = function
         | [] -> None
         | th :: rest ->
           (match th.tstate, th.call_child with
            | T_call_wait _, Some f when th.call_dst = p.ep -> Some f
            | _ -> find_child rest)
       in
       (match find_child pp.threads with
        | None -> Prog.Kr_err Errno.EINVAL
        | Some body ->
          (* The child runs the body the caller's fork supplied, in its
             own fiber, so its host exceptions are its own. *)
          let cep =
            spawn_user t ~name:(pp.pname ^ "+") ~prog:body ~parent
          in
          let cp = get_proc t cep in
          (* The child starts running only after PM finishes the fork
             bookkeeping and issues K_go. *)
          cp.stalled <- true;
          sync_to t cp sl_wait_fork p.vtime;
          Prog.Kr_ep cep))
  | Prog.K_exec { proc; path; arg } ->
    (match proc_of t proc with
     | None -> Prog.Kr_err Errno.ESRCH
     | Some pp ->
       (match t.cfg.lookup_program path with
        | None -> Prog.Kr_err Errno.ENOENT
        | Some f ->
          (* The program runs from its first line in the exec'd
             process' own fiber, so its exceptions are that process'
             machine checks, never PM's. *)
          let th = fresh_thread pp (fun () -> f arg) in
          List.iter release pp.threads;
          pp.threads <- [ th ];
          runq_clear pp.runq;
          pp.active <- None;
          runq_push pp.runq th;
          pp.pname <- Filename.basename path;
          sync_to t pp sl_wait_exec p.vtime;
          schedule t pp;
          Prog.Kr_ok))
  | Prog.K_kill { proc; status } ->
    (match proc_of t proc with
     | None -> Prog.Kr_err Errno.ESRCH
     | Some pp ->
       (* Completion record for the load engine: the dying process'
          own clock at its exit call — PM teardown excluded. *)
       pp.exit_status <- status;
       pp.exit_vtime <- pp.vtime;
       (* EAGAIN-shed storm requests exit with status 75; count them
          so saturation sweeps can plot shedding alongside goodput. *)
       if status = 75 then t.n_shed <- t.n_shed + 1;
       destroy_user t pp;
       (match t.halt_on_exit with
        | Some root when root = proc -> halt t (H_completed status)
        | _ -> ());
       if t.halt_on_drain && t.live_users = 0 && t.halted = None then
         halt t (H_completed 0);
       Prog.Kr_ok)
  | Prog.K_crash_context ep ->
    (match proc_of t ep with
     | Some { crash_ctx = Some c; _ } ->
       Prog.Kr_context
         { window_open = c.cc_window_open;
           requester = Option.map fst c.cc_requester;
           reason = c.cc_reason;
           rlocal = c.cc_rlocal }
     | _ -> Prog.Kr_err Errno.ESRCH)
  | Prog.K_mk_clone ep ->
    (match proc_of t ep with
     | Some cp when cp.crash_ctx <> None ->
       k_mk_clone t cp;
       (* The restart phase copies the dead component's data sections
          into the clone; the Recovery Server pays for the transfer
          (~8 bytes/cycle). *)
       (match cp.image with
        | Some img -> advance t p sl_kc_mk_clone (Memimage.size img / 8)
        | None -> ());
       Prog.Kr_ok
     | _ -> Prog.Kr_err Errno.ESRCH)
  | Prog.K_rollback ep ->
    (match proc_of t ep with
     | Some cp when cp.crash_ctx <> None ->
       if k_rollback t cp then Prog.Kr_ok else Prog.Kr_err Errno.EINVAL
     | _ -> Prog.Kr_err Errno.ESRCH)
  | Prog.K_clear_state ep ->
    (match proc_of t ep with
     | Some cp ->
       k_clear_state t cp;
       (match cp.image with
        | Some img ->
          advance t p sl_kc_clear_state (Memimage.size img / 8)
        | None -> ());
       Prog.Kr_ok
     | None -> Prog.Kr_err Errno.ESRCH)
  | Prog.K_go ep ->
    (match proc_of t ep with
     | Some cp -> k_go t cp; Prog.Kr_ok
     | None -> Prog.Kr_err Errno.ESRCH)
  | Prog.K_reply_error { proc; err } ->
    if k_reply_error t ~target:proc ~err then Prog.Kr_ok
    else Prog.Kr_err Errno.ESRCH
  | Prog.K_shutdown reason ->
    halt t (H_shutdown reason);
    Prog.Kr_ok
  | Prog.K_alarm { ticks } ->
    push_alarm t p.ep ~key:(p.vtime + ticks);
    Prog.Kr_ok
  | Prog.K_mmu { proc = _ } ->
    (* Page-table manipulation: observable cost only. *)
    Prog.Kr_ok
  | Prog.K_replay ep ->
    (match proc_of t ep with
     | Some ({ crash_ctx = Some { cc_request = Some rq; _ }; _ } as cp) ->
       (* Re-delivery keeps the original rid: the replayed handling is
          the same causal request, not a new one. *)
       inbox_push cp.inbox ~src:rq.rq_src ~src_tid:rq.rq_src_tid
         ~call:rq.rq_call ~time:p.vtime ~rid:rq.rq_rid rq.rq_msg;
       Prog.Kr_ok
     | _ -> Prog.Kr_err Errno.ESRCH)
  | Prog.K_live_update { proc; loop } ->
    (match live_update_internal t proc loop with
     | Ok () -> Prog.Kr_ok
     | Error _ -> Prog.Kr_err Errno.EAGAIN)
  | Prog.K_kill_requester { proc } ->
    (match proc_of t proc with
     | Some rp when rp.kind = User_proc && rp.alive ->
       (* Terminate through the normal exit path so PM/VM/VFS clean up
          every trace of the requester. *)
       List.iter
         (fun th ->
            release th;
            th.tstate <- T_new (exit_prog 137))
         rp.threads;
       runq_clear rp.runq;
       (match rp.threads with
        | th :: _ ->
          runq_push rp.runq th;
          rp.active <- None;
          sync_to t rp sl_wait_kill p.vtime;
          schedule t rp
        | [] -> ());
       Prog.Kr_ok
     | _ -> Prog.Kr_err Errno.ESRCH)

(* ------------------------------------------------------------------ *)
(* Operation accounting                                                *)
(* ------------------------------------------------------------------ *)

(* An operation reads its component's window state once, and passes
   it to [coverage] and, as [logs], to [charge]. *)
let[@inline] window_open p =
  match p.window with Some w -> Window.is_open w | None -> false

(* [Window.would_log], from the state already read. *)
let[@inline] logs p wopen =
  match p.logging with
  | Window.Always -> true
  | Window.When_open -> wopen
  | Window.Never | Window.Snapshot -> false

let[@inline] charge t p ~logged slot c =
  (* Instrumentation drag: while stores are being logged, every
     operation of the component carries the undo-log cost of the
     machine-level stores it stands for. The drag is attributed
     separately (the slot's Ph_instr twin) so the profiler can isolate
     window cost from the operation's own phase. *)
  let drag = if logged then t.cfg.costs.Costs.c_instr_op else 0 in
  p.vtime <- p.vtime + c + drag;
  p.busy_cycles <- p.busy_cycles + c + drag;
  cycles t p slot c;
  cycles t p (Array.unsafe_get slot_drag slot) drag

(* Like [charge] but without instrumentation drag: the undo-log part
   of a logged store already rides on the same operation, which paid
   the drag once via its base [charge]. *)
let[@inline] charge_flat t p slot c =
  p.vtime <- p.vtime + c;
  p.busy_cycles <- p.busy_cycles + c;
  cycles t p slot c

let[@inline] coverage p wopen =
  if p.covering then begin
    p.ops_total <- p.ops_total + 1;
    if wopen then p.ops_in_window <- p.ops_in_window + 1
  end

(* The first armed, unfired site whose key is [key] fires: it is
   disarmed, and siting turns off once none is left and no hook is
   set. Integer compares only; allocates nothing. *)
let rec find_armed (keys : int array) (key : int) i =
  if i >= Array.length keys then -1
  else if Array.unsafe_get keys i = key then i
  else find_armed keys key (i + 1)

let fire_armed t key =
  let i = find_armed t.armed_keys key 0 in
  if i < 0 then None
  else begin
    Array.unsafe_set t.armed_keys i (-1);
    t.armed_left <- t.armed_left - 1;
    if t.armed_left = 0 then refresh_siting t;
    Array.unsafe_get t.armed_fire i
  end

(* [Some tag] by tag index, boxed once: a site record for the fault
   hook shares them. *)
let some_tag = Array.map Option.some tag_of_index

(* Match this op's site against the armed sites, then build it for the
   fault hook if none fired. *)
let op_site_hooked t p th kind =
  let idx = op_kind_index kind in
  (* Cap the occurrence index: a fault site models a *static* program
     location, and loop iterations re-execute the same location. The
     cap collapses spins and long scans into one trailing site. *)
  let n = th.occ.(idx) in
  let occ = if n < occ_cap then n else occ_cap in
  th.occ.(idx) <- n + 1;
  let fired =
    if t.armed_left = 0 then None
    else
      let handler =
        if th.cause = 0 then 0
        else 1 + Message.Tag.to_index (Message.Tag.of_msg th.hd_msg)
      in
      fire_armed t (pack_site p.ep handler idx occ)
  in
  match fired, t.fault_hook with
  | Some _, _ | None, None -> fired
  | None, Some hook when in_mask t.hook_mask p.ep ->
    hook
      { site_ep = p.ep;
        site_handler =
          (if th.cause = 0 then None
           else
             Array.unsafe_get some_tag
               (Message.Tag.to_index (Message.Tag.of_msg th.hd_msg)));
        site_kind = kind;
        site_occ = occ }
  | None, Some _ -> None

(* Whether [p]'s operations are sited: a post-boot server's at an
   endpoint where a fault can fire. *)
let[@inline] sited t p = p.covering && t.siting && in_mask t.site_mask p.ep

let[@inline] op_site t p th kind =
  if sited t p then op_site_hooked t p th kind else None

(* Constant strings: naming a kcall for the event stream allocates
   nothing. *)
let kcall_name : Prog.kcall -> string = function
  | Prog.K_fork _ -> "fork"
  | Prog.K_exec _ -> "exec"
  | Prog.K_kill _ -> "kill"
  | Prog.K_crash_context _ -> "crash_context"
  | Prog.K_mk_clone _ -> "mk_clone"
  | Prog.K_rollback _ -> "rollback"
  | Prog.K_clear_state _ -> "clear_state"
  | Prog.K_go _ -> "go"
  | Prog.K_reply_error _ -> "reply_error"
  | Prog.K_shutdown _ -> "shutdown"
  | Prog.K_alarm _ -> "alarm"
  | Prog.K_mmu _ -> "mmu"
  | Prog.K_replay _ -> "replay"
  | Prog.K_live_update _ -> "live_update"
  | Prog.K_kill_requester _ -> "kill_requester"

(* Attribution slot of a kcall's interpretation cost (see the slot
   registry at the top of this file). *)
let kcall_slot : Prog.kcall -> slot = function
  | Prog.K_fork _ -> sl_kc_fork
  | Prog.K_exec _ -> sl_kc_exec
  | Prog.K_kill _ -> sl_kc_kill
  | Prog.K_crash_context _ -> sl_kc_crash_context
  | Prog.K_mk_clone _ -> sl_kc_mk_clone
  | Prog.K_rollback _ -> sl_kc_rollback
  | Prog.K_clear_state _ -> sl_kc_clear_state
  | Prog.K_go _ -> sl_kc_go
  | Prog.K_reply_error _ -> sl_kc_reply_error
  | Prog.K_shutdown _ -> sl_kc_shutdown
  | Prog.K_alarm _ -> sl_kc_alarm
  | Prog.K_mmu _ -> sl_kc_mmu
  | Prog.K_replay _ -> sl_kc_replay
  | Prog.K_live_update _ -> sl_kc_live_update
  | Prog.K_kill_requester _ -> sl_kc_kill_requester

let deactivate t p =
  (* The active thread stops running: in a multithreaded component the
     next thread's writes would interleave, so the window must close
     (paper Section IV-E). *)
  if p.multithreaded && List.length p.threads > 1 then begin
    let rid = match p.active with Some th -> th.cause | None -> 0 in
    close_window_if_open ~rid t p
  end;
  p.active <- None

let finish_thread t p th =
  match p.kind with
  | Server_proc ->
    if p.multithreaded then close_window_if_open ~rid:th.cause t p;
    p.threads <- List.filter (fun x -> x.tid <> th.tid) p.threads;
    p.active <- None
  | User_proc ->
    (* A user program that returns without calling exit() is given an
       implicit exit(0) through PM, keeping the process table sound. *)
    th.tstate <- T_new (exit_prog 0)

(* ------------------------------------------------------------------ *)
(* The fiber runner                                                    *)
(* ------------------------------------------------------------------ *)

(* Each thread runs as an [Effect.Deep] fiber. [exec_proc] resumes the
   active thread's fiber for a slice; the slice ends when the fiber
   suspends (one of the effects below, whose handler stores the
   continuation in the thread state), finishes, or raises.

   Operations that cannot block run as plain calls inside the fiber
   ([op_load], [op_store], ...), and so do the IPC and kernel calls up
   to the point where they must wait. Programs reach them through
   [Op]. *)
type _ Effect.t +=
  | Park : unit Effect.t
      (* Give the CPU back to the loop and stay ready: preemption,
         halt or a stopped process at an op's entry, a yield, a hang. *)
  | Park_recv : unit Effect.t
      (* Wait in Receive for a message. *)
  | Park_scan : int Effect.t
      (* A row search stopped at a load because another item is due:
         the thread's [w_*] fields hold the walk's position, and the
         kernel continues the fiber with the walk's result, or with
         [scan_slow] and the position in [sc_row]/[sc_i]. *)
  | Park_call : Message.t Effect.t
      (* Wait for the reply to the call in the thread's [call_dst] and
         [call_child]. *)

(* Ends the executing fiber: a crash, a skipped handler, a finished or
   failed program. The thread's state says what comes next. *)
exception Thread_finished

(* Every operation starts here. The scheduling contract is that
   [exec_proc]'s stop tests — preemption (another scheduler item is due
   before this process' clock), then halt, then runnability — are made
   after every operation, once the code that follows it has run: a
   host exception in that code is a machine check before any
   preemption. A slice may run many operations, so [op_check] is set
   when an operation returns without suspending, and the next
   operation's entry makes the tests. When one holds, the fiber parks
   and the loop repeats the tests and acts on them. A slice starts
   with the flag clear: the loop has just made the tests. *)
let[@inline] enter t p =
  if t.op_check
     && (t.due < p.vtime
         || (match t.halted with Some _ -> true | None -> false)
         || (not p.alive) || p.stalled || p.hung)
  then Effect.perform Park;
  t.op_check <- true;
  t.n_ops <- t.n_ops + 1;
  if t.n_ops > t.cfg.max_ops then halt t H_hang

let crash_now t p reason =
  crash_proc t p reason;
  raise Thread_finished

let skip_now t p th =
  finish_thread t p th;
  raise Thread_finished

(* The component stops making progress until the heartbeat crashes it,
   which releases this fiber: the park never returns. *)
let hang t p =
  p.hung <- true;
  push_hangcheck t p.ep ~key:(p.vtime + t.cfg.hang_detect_cycles);
  Effect.perform Park;
  raise Thread_finished

(* The fault actions that stop an operation before it takes effect. *)
let[@inline] stop_on t p th = function
  | Some (F_crash r) -> crash_now t p r
  | Some F_hang -> hang t p
  | Some F_skip_handler -> skip_now t p th
  | _ -> ()

let[@inline] image_of t p =
  match p.image with
  | Some img -> img
  | None ->
    panic t (p.pname ^ ": memory op in user process");
    raise Thread_finished

let op_compute t p th c =
  enter t p;
  let wopen = window_open p in
  coverage p wopen;
  stop_on t p th (op_site t p th Op_compute);
  charge t p ~logged:(logs p wopen) sl_compute (Int.max c 1)

let op_load t p th off =
  enter t p;
  let wopen = window_open p in
  coverage p wopen;
  let img = image_of t p in
  stop_on t p th (op_site t p th Op_load);
  charge t p ~logged:(logs p wopen) sl_load t.cfg.costs.Costs.c_load;
  Memimage.get_word img off

let op_store t p th off v =
  enter t p;
  let wopen = window_open p in
  coverage p wopen;
  let img = image_of t p in
  let action = op_site t p th Op_store in
  stop_on t p th action;
  let costs = t.cfg.costs in
  let logged = logs p wopen in
  charge t p ~logged sl_store costs.Costs.c_store;
  if logged then charge_flat t p sl_log_store costs.Costs.c_log;
  if logged && observed t then
    emit_store_logged t ~time:p.vtime ~ep:p.ep ~rid:th.cause ~bytes:8;
  match action with
  | Some F_drop_store -> ()
  | Some F_corrupt_store ->
    Memimage.set_word img off (v lxor (1 lsl Osiris_util.Rng.int t.rng 16))
  | _ -> Memimage.set_word img off v

(* A string load up to its read, which the caller makes in the image
   returned. String accesses know no hang action. *)
let load_str t p th ~len =
  enter t p;
  let wopen = window_open p in
  coverage p wopen;
  let img = image_of t p in
  (match op_site t p th Op_load with
   | Some (F_crash r) -> crash_now t p r
   | Some F_skip_handler -> skip_now t p th
   | _ -> ());
  charge t p ~logged:(logs p wopen) sl_load
    (t.cfg.costs.Costs.c_load + (len / 8));
  img

let op_load_str t p th ~off ~len =
  Memimage.get_string (load_str t p th ~len) ~off ~len

(* The same load, compared with [s] in place instead of returned. *)
let op_load_str_eq t p th ~off ~len s =
  Memimage.equal_string (load_str t p th ~len) ~off ~len s

let op_store_str t p th ~off ~len v =
  enter t p;
  let wopen = window_open p in
  coverage p wopen;
  let img = image_of t p in
  let action = op_site t p th Op_store in
  (match action with
   | Some (F_crash r) -> crash_now t p r
   | Some F_skip_handler -> skip_now t p th
   | _ -> ());
  let costs = t.cfg.costs in
  let logged = logs p wopen in
  charge t p ~logged sl_store
    (costs.Costs.c_store + (len * costs.Costs.c_store_per_byte));
  if logged then
    charge_flat t p sl_log_store
      (costs.Costs.c_log + (len * costs.Costs.c_log_per_byte));
  if logged && observed t then
    emit_store_logged t ~time:p.vtime ~ep:p.ep ~rid:th.cause ~bytes:len;
  match action with
  | Some F_drop_store -> ()
  | Some F_corrupt_store ->
    Memimage.set_string img ~off ~len
      (Message.(match corrupt t.rng (Diag { line = v }) with
           | Diag { line } -> line
           | _ -> v))
  | _ -> Memimage.set_string img ~off ~len v

(* Outbound IPC shares its fault handling: stop, or corrupt the
   message. *)
let outbound t p th kind msg =
  let action = op_site t p th kind in
  stop_on t p th action;
  match action with
  | Some F_corrupt_msg -> Message.corrupt t.rng msg
  | _ -> msg

let log_diag t msg =
  match msg, t.cfg.log_sink with
  | Message.Diag { line }, Some sink -> sink line
  | _ -> ()

let op_send t p th dst msg =
  enter t p;
  let wopen = window_open p in
  coverage p wopen;
  let msg = outbound t p th Op_send msg in
  charge t p ~logged:(logs p wopen) sl_send t.cfg.costs.Costs.c_send;
  if p.kind = Server_proc then
    policy_close ~tag:(Message.Tag.of_msg msg) ~rid:th.cause t p
      (Seep.classify_msg ~dst msg);
  if dst = Endpoint.kernel then log_diag t msg
  else
    deliver_to_inbox t ~src:p.ep ~src_tid:th.tid ~call:false
      ~rid:(alloc_rid t) ~parent:th.cause dst msg

let op_call t p th ~child dst msg =
  enter t p;
  let wopen = window_open p in
  coverage p wopen;
  let msg = outbound t p th Op_call msg in
  charge t p ~logged:(logs p wopen) sl_call t.cfg.costs.Costs.c_call;
  if p.kind = Server_proc then
    policy_close ~tag:(Message.Tag.of_msg msg) ~rid:th.cause t p
      (Seep.classify_msg ~dst msg);
  if dst = Endpoint.kernel then begin
    log_diag t msg;
    Message.R_ok 0
  end
  else begin
    let rid = alloc_rid t in
    th.out_rid <- rid;
    deliver_to_inbox t ~at:p.vtime ~src:p.ep ~src_tid:th.tid ~call:true
      ~rid ~parent:th.cause dst msg;
    deactivate t p;
    th.call_dst <- dst;
    th.call_child <- child;
    Effect.perform Park_call
  end

(* A receive that finds the inbox empty parks; a message wakes it and
   the whole operation runs again. *)
let rec op_receive t p th =
  enter t p;
  let wopen = window_open p in
  coverage p wopen;
  (* Back at the top of the loop: the previous request is done and its
     effects are committed — even when the handler sent no reply (a
     deferred waitpid, a notification). Rolling back past this point
     would silently undo state other components rely on, so the
     window must close here, not at the next checkpoint. *)
  if p.kind = Server_proc then close_window_if_open ~rid:th.cause t p;
  th.cause <- 0;
  (match op_site t p th Op_receive with
   | Some (F_crash r) -> crash_now t p r
   | Some F_hang -> hang t p
   | _ -> ());
  charge t p ~logged:(logs p (window_open p)) sl_receive
    t.cfg.costs.Costs.c_receive;
  if p.kind = User_proc then begin
    panic t (p.pname ^ ": receive in user process");
    raise Thread_finished
  end;
  let b = p.inbox in
  if b.ib_len = 0 then begin
    deactivate t p;
    Effect.perform Park_recv;
    op_receive t p th
  end
  else begin
    let o = b.ib_head * ib_stride in
    let ints = b.ib_ints in
    let src = Array.unsafe_get ints o in
    let time = Array.unsafe_get ints (o + 3) in
    let rid = Array.unsafe_get ints (o + 4) in
    let msg = Array.unsafe_get b.ib_msgs b.ib_head in
    let tag = Message.Tag.of_msg msg in
    th.hd_src <- src;
    th.hd_src_tid <- Array.unsafe_get ints (o + 1);
    th.hd_call <- Array.unsafe_get ints (o + 2) <> 0;
    th.hd_msg <- msg;
    inbox_drop b;
    sync_to t p sl_wait_inbox time;
    th.cause <- rid;
    if t.booted then begin
      let i = Message.Tag.to_index tag in
      p.handler_tally.(i) <- p.handler_tally.(i) + 1
    end;
    Array.fill th.occ 0 n_op_kinds 0;
    open_handler_window ~rid t p;
    (src, msg)
  end

(* The thread of [threads] waiting in Call on [callee] whose tid is
   [tid], else the first one waiting on it ([first] once found), else
   [no_thread]. *)
let rec reply_target callee tid first = function
  | [] -> first
  | x :: rest ->
    match x.tstate with
    | T_call_wait _ when x.call_dst = callee ->
      if x.tid = tid then x
      else reply_target callee tid (if first == no_thread then x else first) rest
    | _ -> reply_target callee tid first rest

let op_reply t p th dst msg =
  enter t p;
  let wopen = window_open p in
  coverage p wopen;
  let msg = outbound t p th Op_reply msg in
  charge t p ~logged:(logs p wopen) sl_reply t.cfg.costs.Costs.c_reply;
  if p.kind = Server_proc then policy_close ~rid:th.cause t p Seep.Reply;
  match proc_of t dst with
  | None -> t.n_orphans <- t.n_orphans + 1
  | Some rp ->
    (* The thread whose request [th] is handling, if it waits on [p],
       else the first thread that does. *)
    let tid = if th.cause <> 0 && th.hd_src = dst then th.hd_src_tid else -1 in
    let th' = reply_target p.ep tid no_thread rp.threads in
    (match th'.tstate with
     | T_call_wait k ->
       if observed t then
         emit_reply t ~time:p.vtime ~src:p.ep ~dst
           ~tag:(Message.Tag.of_msg msg) ~rid:th'.out_rid;
       th'.tstate <- T_replied (k, msg);
       th'.call_child <- None;
       sync_to t rp sl_wait_reply p.vtime;
       runq_push rp.runq th';
       schedule t rp
     | _ -> t.n_orphans <- t.n_orphans + 1)

let op_yield t p th =
  enter t p;
  let wopen = window_open p in
  coverage p wopen;
  charge t p ~logged:(logs p wopen) sl_yield t.cfg.costs.Costs.c_yield;
  runq_push p.runq th;
  deactivate t p;
  Effect.perform Park

let op_spawn t p th prog =
  enter t p;
  let wopen = window_open p in
  coverage p wopen;
  (match op_site t p th Op_spawn with
   | Some (F_crash r) -> crash_now t p r
   | _ -> ());
  charge t p ~logged:(logs p wopen) sl_spawn t.cfg.costs.Costs.c_spawn;
  (* The handler thread handles the spawner's request. *)
  let nth = fresh_thread p ~started:false prog in
  nth.cause <- th.cause;
  nth.hd_src <- th.hd_src;
  nth.hd_src_tid <- th.hd_src_tid;
  nth.hd_call <- th.hd_call;
  nth.hd_msg <- th.hd_msg;
  p.threads <- p.threads @ [ nth ];
  runq_push p.runq nth

let op_kcall t p th kc =
  enter t p;
  let wopen = window_open p in
  coverage p wopen;
  stop_on t p th (op_site t p th Op_kcall);
  charge t p ~logged:(logs p wopen) (kcall_slot kc)
    t.cfg.costs.Costs.c_kcall;
  if observed t then
    emit_kcall t ~time:p.vtime ~ep:p.ep ~rid:th.cause ~kc:(kcall_name kc);
  if p.kind = Server_proc then begin
    let cls =
      match kc with
      | Prog.K_crash_context _ -> Seep.Read_only
      | _ -> Seep.State_modifying
    in
    policy_close ~rid:th.cause t p cls
  end;
  exec_kcall t p kc

let op_rand t p bound =
  enter t p;
  let wopen = window_open p in
  coverage p wopen;
  charge t p ~logged:(logs p wopen) sl_rand 1;
  Osiris_util.Rng.int t.rng (Int.max bound 1)

let op_now t p =
  enter t p;
  let wopen = window_open p in
  coverage p wopen;
  charge t p ~logged:(logs p wopen) sl_now 1;
  p.vtime

(* The end of a thread's program is an operation too. *)
let op_done t p th =
  enter t p;
  finish_thread t p th;
  raise Thread_finished

let op_fail t p th reason =
  enter t p;
  match p.kind with
  | Server_proc -> crash_now t p reason
  | User_proc ->
    (* Abnormal user termination: routed through PM as exit(255) so
       the process table stays consistent. *)
    Log.debug (fun m -> m "user %s fail-stop: %s" p.pname reason);
    th.tstate <- T_new (exit_prog 255);
    raise Thread_finished

(* ---- Row searches ------------------------------------------------- *)

let next_test = function
  | Hit -> Hit
  | Int_eq (_, _, next) | Int_ne (_, _, next) | Str_eq (_, _, next)
  | Row_ne (_, next) ->
    next

let rec nth_test node i = if i = 0 then node else nth_test (next_test node) (i - 1)

(* A test's load through the per-load path: exactly the [Op.Mem]
   access and comparison the C loop makes, minus the string. *)
let scan_load t p th tbl row = function
  | Int_eq (f, v, _) -> op_load t p th (Layout.Table.addr_int tbl ~row f) = v
  | Int_ne (f, v, _) -> op_load t p th (Layout.Table.addr_int tbl ~row f) <> v
  | Str_eq (f, s, _) ->
    op_load_str_eq t p th ~off:(Layout.Table.addr_str tbl ~row f)
      ~len:(Layout.Table.str_len f) s
  | Hit | Row_ne _ -> true

let scan_room c i =
  let n = Array.length c.cu_off in
  if i >= n then begin
    let off = Array.make (2 * (i + 1)) 0 and len = Array.make (2 * (i + 1)) 0 in
    Array.blit c.cu_off 0 off 0 n;
    Array.blit c.cu_len 0 len 0 n;
    c.cu_off <- off;
    c.cu_len <- len
  end

let rec scan_prepare c base node i =
  match node with
  | Hit -> ()
  | Row_ne (_, next) -> scan_prepare c base next (i + 1)
  | Int_eq (f, _, next) | Int_ne (f, _, next) ->
    scan_room c i;
    Array.unsafe_set c.cu_off i (base + Layout.int_offset f);
    scan_prepare c base next (i + 1)
  | Str_eq (f, _, next) ->
    scan_room c i;
    Array.unsafe_set c.cu_off i (base + Layout.str_offset f);
    Array.unsafe_set c.cu_len i (Layout.Table.str_len f);
    scan_prepare c base next (i + 1)

let sl_load_drag = slot_drag.(sl_load)

external bytes_get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external bswap64 : int64 -> int64 = "%bswap_int64"

(* The word at [off] of an image whose backing is [d], [blen] bytes
   long: [off] is in the image and the word is wholly in the backing
   or wholly past it. *)
let[@inline] scan_word d blen off =
  if off <= blen - 8 then begin
    let w = bytes_get64 d off in
    Int64.to_int (if Sys.big_endian then bswap64 w else w)
  end
  else 0

(* [walk_on]'s results besides a matched row (>= 0). *)
let scan_none = -1
let scan_slow = -2 (* the load at the cursor's position takes the per-load path *)
let scan_park = -3 (* the load at the cursor's position parks: another item is due *)
let scan_more = -4

(* Point [c] at [p]'s walk of [rows] rows of [tbl] under the tests from
   [head], at [p]'s clock: everything its batches derive before their
   loop. The position is [walk_at]'s. *)
let walk_setup t c p img tbl rows head =
  scan_prepare c (Layout.Table.base tbl) head 0;
  c.cu_rows <- rows;
  c.cu_rs <- Layout.Table.row_size tbl;
  c.cu_trows <- Layout.Table.rows tbl;
  c.cu_size <- Memimage.size img;
  let costs = t.cfg.costs in
  let wopen = window_open p in
  c.cu_cint <- costs.Costs.c_load;
  c.cu_drag <- (if logs p wopen then costs.Costs.c_instr_op else 0);
  c.cu_wopen <- wopen;
  c.cu_stopped <-
    (match t.halted with Some _ -> true | None -> false)
    || (not p.alive) || p.stalled || p.hung;
  c.cu_vt <- p.vtime

let[@inline] walk_at c row i =
  c.cu_row <- row;
  c.cu_i <- i

(* The batched path, for a process that is not sited while no cycle
   hook is installed: nothing observes a single load, so the rows run
   with the load count, clock and charged cycles in locals, read
   straight out of the image's backing, and are left in the cursor
   ([walk_commit] writes them to the process and the kernel). Between
   two loads no other process runs, so the stop tests of a load's
   entry reduce to the clock against [due] and the [max_ops] budget
   ([budget] loads more). A load parks at its entry when the clock is
   past [due] (or, with the process stopped, at any clock), unless it
   is the slice's first operation ([checked] false, no load made yet
   in this call). The first load that would stop there, read past the
   table or outside the image, or read a word the backing only partly
   holds, ends the batch at that load: it takes the per-load path
   ([scan_slow]), which parks, halts or raises exactly as an [Op.Mem]
   load does — except the load that stops only because another item is
   due, which the walk parks at as data ([scan_park], see
   [resume_walk]). Rows past the backed prefix read as zeros. [head],
   [img] and [d] are the walk's test chain, image and its backing. This
   is the one load loop: fresh walks, parked walks run on and the walk
   lockstep all run it. *)
let walk_on c head img d ~due ~checked ~budget =
  let rs = c.cu_rs and trows = c.cu_trows and rows = c.cu_rows in
  let blen = Bytes.length d and size = c.cu_size in
  let c_int = c.cu_cint and drag = c.cu_drag in
  let ci = c_int + drag in
  let stopped = c.cu_stopped in
  let due = if stopped then min_int else due in
  let sc_off = c.cu_off and sc_len = c.cu_len in
  let vt = ref c.cu_vt and n = ref 0 in
  (* String loads, apart: their cost depends on the field length. *)
  let ns = ref 0 and cs = ref 0 and es = ref 0 in
  let row = ref c.cu_row and i = ref c.cu_i in
  let node = ref (nth_test head !i) in
  let res = ref (if !row >= rows then scan_none else scan_more) in
  while !res = scan_more do
    let fail =
      match !node with
      | Hit ->
        res := !row;
        false
      | Row_ne (v, next) ->
        if !row <> v then begin
          node := next;
          incr i;
          false
        end
        else true
      | (Int_eq (_, v, next) | Int_ne (_, v, next)) as test ->
        let off = Array.unsafe_get sc_off !i + (!row * rs) in
        if (due < !vt && (checked || !n > 0)) || !n >= budget || !row >= trows
           || off < 0
           || (off > blen - 8 && (off < blen || off > size - 8))
        then begin
          res := scan_slow;
          false
        end
        else begin
          incr n;
          vt := !vt + ci;
          let w = scan_word d blen off in
          if (match test with Int_eq _ -> w = v | _ -> w <> v) then begin
            node := next;
            incr i;
            false
          end
          else true
        end
      | Str_eq (_, key, next) ->
        let off = Array.unsafe_get sc_off !i + (!row * rs)
        and len = Array.unsafe_get sc_len !i in
        if (due < !vt && (checked || !n > 0)) || !n >= budget || !row >= trows
           || off < 0 || off > size - len
        then begin
          res := scan_slow;
          false
        end
        else begin
          let c = c_int + (len / 8) in
          incr n;
          vt := !vt + c + drag;
          incr ns;
          if c > 0 then begin
            cs := !cs + c;
            incr es
          end;
          if Memimage.equal_string img ~off ~len key then begin
            node := next;
            incr i;
            false
          end
          else true
        end
    in
    if fail then begin
      incr row;
      if !row >= rows then res := scan_none
      else begin
        node := head;
        i := 0
      end
    end
  done;
  let n = !n and row = !row in
  walk_at c row !i;
  c.cu_vt <- !vt;
  c.cu_n <- c.cu_n + n;
  c.cu_ns <- c.cu_ns + !ns;
  c.cu_cs <- c.cu_cs + !cs;
  c.cu_es <- c.cu_es + !es;
  (* The due test comes first at a load's entry: a stop it makes parks,
     whatever else the load would meet — but for a row outside the
     table, whose address raises before the load is entered. *)
  if !res = scan_slow && (not stopped) && due < !vt && (checked || n > 0)
     && 0 <= row && row < trows
  then scan_park
  else !res

(* Write the loads [c] holds to [p] and the kernel: counts, clock, busy
   and charged cycles. Loads of one cursor sum: every load of a walk
   costs the same cycles but for the string loads, counted apart. *)
let walk_commit t p c =
  let n = c.cu_n in
  if n > 0 then begin
    let c_int = c.cu_cint and ns = c.cu_ns in
    t.n_ops <- t.n_ops + n;
    if p.covering then begin
      p.ops_total <- p.ops_total + n;
      if c.cu_wopen then p.ops_in_window <- p.ops_in_window + n
    end;
    let ni = n - ns in
    let cu = (ni * c_int) + c.cu_cs and dr = n * c.cu_drag in
    p.vtime <- c.cu_vt;
    p.busy_cycles <- p.busy_cycles + cu + dr;
    cycles_bulk t p sl_load cu ((if c_int > 0 then ni else 0) + c.cu_es);
    cycles_bulk t p sl_load_drag dr n;
    t.n_walk_batched <- t.n_walk_batched + n;
    c.cu_n <- 0;
    c.cu_ns <- 0;
    c.cu_cs <- 0;
    c.cu_es <- 0
  end

(* One batch of [p]'s walk in [c], committed, as a slice's operation
   after [checked]: a stop leaves the position in [sc_row]/[sc_i]. *)
let walk_slice t p c head img ~checked =
  let r =
    walk_on c head img (Memimage.backing img) ~due:t.due ~checked
      ~budget:(t.cfg.max_ops - t.n_ops)
  in
  if c.cu_n > 0 then t.op_check <- true;
  walk_commit t p c;
  if r = scan_slow || r = scan_park then begin
    t.sc_row <- c.cu_row;
    t.sc_i <- c.cu_i
  end;
  r

(* Rows [row, rows) from the [i]th test, batched. *)
let scan_batch t p img tbl rows head row i =
  let c = t.walk_a in
  walk_setup t c p img tbl rows head;
  walk_at c row i;
  walk_slice t p c head img ~checked:t.op_check

(* Whether [p]'s walks may run batched: it is not sited while no cycle
   hook is installed. *)
let[@inline] batches t p =
  (match t.cycle_hook with None -> true | Some _ -> false) && not (sited t p)

(* Rows [row, rows) from test [node], the [i]th: batched while
   [scan_batch] applies, else load by load. A load that the due test
   parks at, at the walk's entry or in a batch, parks the walk as data
   ([Park_scan]); the kernel runs it on from there. *)
let rec scan_go t p th tbl rows head row node i =
  if row >= rows then None
  else
    match node with
    | Hit -> Some row
    | Row_ne (v, next) ->
      if row <> v then scan_go t p th tbl rows head row next (i + 1)
      else scan_go t p th tbl rows head (row + 1) head 0
    | Int_eq _ | Int_ne _ | Str_eq _ ->
      match p.image with
      | Some img when batches t p ->
        if t.op_check && t.due < p.vtime && 0 <= row && row < Layout.Table.rows tbl
        then begin
          t.sc_row <- row;
          t.sc_i <- i;
          scan_result t p th tbl rows head scan_park
        end
        else scan_result t p th tbl rows head (scan_batch t p img tbl rows head row i)
      | _ -> scan_step t p th tbl rows head row node i

(* Act on [scan_batch]'s result. *)
and scan_result t p th tbl rows head r =
  if r >= 0 then Some r
  else if r = scan_none then None
  else if r = scan_park then begin
    th.w_tbl <- tbl;
    th.w_rows <- rows;
    th.w_head <- head;
    th.w_row <- t.sc_row;
    th.w_i <- t.sc_i;
    scan_result t p th tbl rows head (Effect.perform Park_scan)
  end
  else scan_step t p th tbl rows head t.sc_row (nth_test head t.sc_i) t.sc_i

and scan_step t p th tbl rows head row node i =
  t.n_walk_single <- t.n_walk_single + 1;
  if scan_load t p th tbl row node then
    scan_go t p th tbl rows head row (next_test node) (i + 1)
  else scan_go t p th tbl rows head (row + 1) head 0

(* Run on, at the start of a slice, the walk parked in [th]'s [w_*]
   fields, from the load it stopped at: that load is the slice's first
   operation, which no stop test parks. Another stop at the due test
   moves the position and leaves the walk parked ([scan_park]); any
   other result is the fiber's to act on, as [scan_result] does —
   [scan_slow] with the position in [sc_row]/[sc_i] when a load must
   take the per-load path, or the process is sited or a cycle hook
   was installed while the walk was parked. *)
let resume_walk t p th =
  let r =
    match p.image with
    | Some img when batches t p ->
      t.n_walk_resumes <- t.n_walk_resumes + 1;
      let c = t.walk_a in
      walk_setup t c p img th.w_tbl th.w_rows th.w_head;
      walk_at c th.w_row th.w_i;
      walk_slice t p c th.w_head img ~checked:t.op_check
    | _ ->
      t.sc_row <- th.w_row;
      t.sc_i <- th.w_i;
      scan_slow
  in
  if r = scan_park then begin
    th.w_row <- t.sc_row;
    th.w_i <- t.sc_i
  end
  else if r = scan_slow then t.n_walk_fallbacks <- t.n_walk_fallbacks + 1;
  r

(* Point [c] at the walk parked in [th]'s [w_*] fields, at [p]'s clock,
   for the lockstep: [cu_batch] says whether it runs on batched, and
   only then is the rest of the batch derived and its test chain, image
   and backing kept. *)
let walk_load t c p th =
  (match p.image with
   | Some img when batches t p ->
     c.cu_batch <- true;
     walk_setup t c p img th.w_tbl th.w_rows th.w_head;
     c.cu_head <- th.w_head;
     c.cu_img <- img;
     c.cu_d <- Memimage.backing img
   | _ ->
     c.cu_batch <- false;
     c.cu_vt <- p.vtime);
  walk_at c th.w_row th.w_i

(* Commit both walks of a lockstep episode and its [turns] turns since
   the last sync, and leave the state a turn of [pump]'s leaves: each
   parked walk's position in its thread, both processes counted as
   queued, [op_check] as the last slice left it ([k] loads). Every turn
   runs a batch but a last one that hands [run]'s walk to its fiber. *)
let walk_sync t run rth rc wait wth wc ~k ~turns =
  walk_commit t run rc;
  walk_commit t wait wc;
  t.n_walk_switches <- t.n_walk_switches + turns;
  t.n_walk_resumes <- t.n_walk_resumes + (if rc.cu_batch then turns else turns - 1);
  rth.w_row <- rc.cu_row;
  rth.w_i <- rc.cu_i;
  wth.w_row <- wc.cu_row;
  wth.w_i <- wc.cu_i;
  run.in_heap <- true;
  wait.in_heap <- true;
  t.op_check <- k > 0

(* Activate the next ready thread of [p], handling window bookkeeping
   for handler threads that start running for the first time. *)
let activate_next t p =
  match p.active with
  | Some _ -> true
  | None ->
    if p.runq.rq_len = 0 then false
    else begin
      let th = runq_pop p.runq in
      p.active <- Some th;
      if not th.started then begin
        th.started <- true;
        Array.fill th.occ 0 n_op_kinds 0;
        if p.kind = Server_proc then open_handler_window t p
      end;
      true
    end

(* A simulated program tripped a host-level exception: a corrupted
   table row driving an out-of-bounds [Layout] access, offset
   arithmetic walking off an image, division by corrupted data. On
   real hardware this is an MMU fault or machine check delivered to
   the kernel — the offending process dies and the recovery policy
   decides what happens next; it must never take down the simulation
   harness (injected corruption is the only way here on a healthy
   tree). Only the exception constructors corrupted data can provoke
   are absorbed; anything else (Assert_failure, Out_of_memory, ...)
   still propagates as a harness bug. *)
let machine_check t p th exn =
  let reason =
    Printf.sprintf "machine check: %s" (Printexc.to_string exn)
  in
  match p.kind with
  | Server_proc -> crash_proc t p reason
  | User_proc ->
    Log.debug (fun m -> m "user %s %s" p.pname reason);
    th.tstate <- T_new (exit_prog 255)

let running : running option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let fiber_handler t p th : (unit, unit) Effect.Deep.handler =
  (* The parks' handlers, built once per fiber: a park allocates only
     its continuation and the state holding it. *)
  let park = Some (fun k -> t.n_parks <- t.n_parks + 1; th.tstate <- T_ready k)
  and park_recv = Some (fun k -> th.tstate <- T_recv_wait k)
  and park_scan = Some (fun k -> t.n_parks <- t.n_parks + 1; th.tstate <- T_scan k)
  and park_call = Some (fun k -> th.tstate <- T_call_wait k) in
  { retc = (fun () -> ());
    exnc =
      (function
        | Thread_finished | Thread_killed -> ()
        | (Invalid_argument _ | Failure _ | Not_found | Division_by_zero) as exn
          ->
          machine_check t p th exn
        | exn -> raise exn);
    effc =
      (fun (type a) (e : a Effect.t)
        : ((a, unit) Effect.Deep.continuation -> unit) option ->
         match e with
         | Park -> park
         | Park_recv -> park_recv
         | Park_scan -> park_scan
         | Park_call -> park_call
         | _ -> None) }

(* Continue the active thread's fiber, handing a parked walk its
   result [res]. *)
let continue_fiber t p th res =
  let cur = Domain.DLS.get running in
  (cur :=
     match th.run with
     | Some _ as run -> run
     | None ->
       let run = Some { rt = t; rp = p; rth = th } in
       th.run <- run;
       run);
  (match th.tstate with
   | T_new prog ->
     th.tstate <- T_running;
     Effect.Deep.match_with
       (fun f -> f (); op_done t p th)
       prog (fiber_handler t p th)
   | T_ready k ->
     th.tstate <- T_running;
     Effect.Deep.continue k ()
   | T_scan k ->
     th.tstate <- T_running;
     Effect.Deep.continue k res
   | T_replied (k, msg) ->
     th.tstate <- T_running;
     Effect.Deep.continue k msg
   | T_running | T_call_wait _ | T_recv_wait _ | T_idle _ ->
     (* Parked while marked active: clear and pick next. *)
     p.active <- None);
  cur := None

(* Run the active thread for one slice. A parked walk that parks again
   ends the slice without touching the fiber. *)
let resume t p th =
  t.op_check <- false;
  let res = match th.tstate with T_scan _ -> resume_walk t p th | _ -> scan_none in
  if res <> scan_park then continue_fiber t p th res

(* [p] can be dispatched and its active thread holds a parked walk
   that [resume_walk] runs on batched. *)
let parked_walker t p =
  p.alive && (not p.stalled) && (not p.hung)
  && (match p.active with Some { tstate = T_scan _; _ } -> true | _ -> false)
  && (match p.image with Some _ -> batches t p | None -> false)

let[@inline] run_item p = (p.ep lsl 2) lor tag_run

(* Run [p]'s threads until one is preempted or none is left: the
   slices [dispatch] gives a process. The stop tests before each slice
   are [pump]'s and [dispatch]'s; after a slice, another item due
   before [p]'s clock preempts it. *)
let rec exec_proc t p =
  if (match t.halted with Some _ -> true | None -> false)
     || not (p.alive && (not p.stalled) && not p.hung)
     || not (activate_next t p)
  then bump_now t p.vtime
  else
    match p.active with
    | None -> bump_now t p.vtime
    | Some th ->
      resume t p th;
      after_slice t p th

(* Preemption check: if another item in the queue is due before [p]'s
   clock ([t.due] is the scheduler's next key, [max_int] when empty),
   give it the CPU — through the walk lockstep when [p] parked a walk
   and the item is another parked walk. *)
and after_slice t p th =
  if t.due < p.vtime then begin
    match th.tstate with
    | T_scan _
      when (match t.halted with None -> true | Some _ -> false)
           && (not p.in_heap) && parked_walker t p ->
      let item = Sched.peek t.sched in
      if item land 3 = tag_run && Sched.next_key t.sched <= t.cfg.max_vtime then
        match proc_of t (item lsr 2) with
        | Some ({ active = Some wth; _ } as w) when w != p && parked_walker t w ->
          lockstep t p th w wth
        | _ -> preempt t p
      else preempt t p
    | _ -> preempt t p
  end
  else exec_proc t p

and preempt t p =
  schedule t p;
  bump_now t p.vtime

(* The walk lockstep. [a] has just parked a walk and is preempted; the
   run queue's head is [b], another parked walk. Rather than push [a]
   and have [pump] pop [b], the kernel pops [b] once and alternates the
   two walks, each run while its clock is at or below min(the other's
   clock, the queue's next key): an episode.

   This is the schedule [pump] makes, not an approximation. Between two
   switches only batched loads run: they emit nothing, push nothing and
   touch only their own process, so the queue does not change. The
   waiting walker counts as pushed after everything queued — it loses
   a tie with a queued item, as a real push would — and the bookkeeping
   [pump] and [dispatch] do per item ([run_items], [in_heap], the clock
   bump that fires the sampler, the [max_vtime] cutoff) is made as at
   those points. *)
and lockstep t a ath b bth =
  a.in_heap <- true;
  t.run_items <- t.run_items + 1;
  bump_now t a.vtime;
  match t.halted with
  | Some _ -> sched_push t ~key:a.vtime (run_item a)
  | None ->
    ignore (Sched.pop t.sched);
    bump_now t (Sched.popped_key t.sched);
    t.run_items <- t.run_items - 1;
    b.in_heap <- false;
    t.n_walk_locksteps <- t.n_walk_locksteps + 1;
    walk_lockstep t b bth a ath

(* An episode, one loop over the two cursors: the walks are prepared
   once and the queue's next key read once, and a turn makes only what
   [pump] would — the clock bump, the counters, the [max_vtime] test on
   the waiter. Each walk's loads stay in its cursor, and the counters in
   locals, until the episode ends ([walk_sync]); the budget counts
   them. A bump that fires the vtime sampler syncs first, so the
   sampler's hook reads what it would between two [pump] items, and
   after it everything is derived afresh: the hook may have pushed,
   halted, installed a hook or stopped a process. *)
and walk_lockstep t b bth a ath =
  let max_vtime = t.cfg.max_vtime in
  let next = ref (Sched.next_key t.sched) in
  let due = ref (Int.min !next a.vtime) in
  let run = ref b and rth = ref bth and rc = ref t.walk_a in
  let wait = ref a and wth = ref ath and wc = ref t.walk_b in
  walk_load t !rc b bth;
  walk_load t !wc a ath;
  (* The loads [max_ops] leaves, less those the cursors hold. *)
  let left = ref (t.cfg.max_ops - t.n_ops) in
  let turns = ref 0 and k = ref 0 and res = ref scan_park and going = ref true in
  while !going do
    incr turns;
    let c = !rc and w = !wc in
    let n0 = c.cu_n in
    let r =
      if c.cu_batch then
        walk_on c c.cu_head c.cu_img c.cu_d ~due:!due ~checked:false ~budget:!left
      else scan_slow
    in
    k := c.cu_n - n0;
    left := !left - !k;
    if r <> scan_park then begin
      res := r;
      going := false
    end
    else begin
      let v = c.cu_vt in
      (* [run] counts as pushed from here; [pump]'s pop of [wait] bumps
         no further, [v] being past [wait]'s clock. *)
      let fired = v >= t.next_sample in
      if fired then begin
        t.due <- !due;
        walk_sync t !run !rth c !wait !wth w ~k:!k ~turns:!turns;
        turns := 0;
        t.run_items <- t.run_items + 1;
        bump_now t v;
        next := Sched.next_key t.sched;
        walk_load t c !run !rth;
        walk_load t w !wait !wth
      end
      else bump_now t v;
      if !next <= w.cu_vt || w.cu_vt > max_vtime
         || (fired && match t.halted with Some _ -> true | None -> false)
      then begin
        (* A queued item comes before [wait], or [pump] stops: both walks
           go to the queue, the older push first. *)
        if not fired then begin
          walk_sync t !run !rth c !wait !wth w ~k:!k ~turns:!turns;
          t.run_items <- t.run_items + 1
        end;
        sched_push t ~key:!wait.vtime (run_item !wait);
        sched_push t ~key:!run.vtime (run_item !run);
        going := false
      end
      else begin
        (* [wait] is the head ([run] parked past its clock): [pump]'s
           pop. *)
        if fired then t.run_items <- t.run_items - 1;
        let p = !run and th = !rth in
        run := !wait;
        rth := !wth;
        rc := w;
        wait := p;
        wth := th;
        wc := c;
        due := Int.min !next v
      end
    end
  done;
  let r = !res in
  if r <> scan_park then begin
    (* [run]'s walk ended, or goes on load by load: [wait] is pushed,
       and [run]'s fiber takes the result in the slice it is in. *)
    let run = !run and rth = !rth and c = !rc and wait = !wait in
    walk_sync t run rth c wait !wth !wc ~k:!k ~turns:!turns;
    run.in_heap <- false;
    if r = scan_slow then begin
      t.sc_row <- c.cu_row;
      t.sc_i <- c.cu_i;
      t.n_walk_fallbacks <- t.n_walk_fallbacks + 1
    end;
    sched_push t ~key:wait.vtime (run_item wait);
    continue_fiber t run rth r;
    after_slice t run rth
  end

(* ------------------------------------------------------------------ *)
(* Operations                                                          *)
(* ------------------------------------------------------------------ *)

module Op = struct
  let[@inline] cur () =
    match !(Domain.DLS.get running) with
    | Some r -> r
    | None -> invalid_arg "Kernel.Op: no thread is running"

  let compute c =
    let r = cur () in
    op_compute r.rt r.rp r.rth c

  let load off =
    let r = cur () in
    op_load r.rt r.rp r.rth off

  let store off v =
    let r = cur () in
    op_store r.rt r.rp r.rth off v

  let load_str ~off ~len =
    let r = cur () in
    op_load_str r.rt r.rp r.rth ~off ~len

  let store_str ~off ~len v =
    let r = cur () in
    op_store_str r.rt r.rp r.rth ~off ~len v

  let send dst msg =
    let r = cur () in
    op_send r.rt r.rp r.rth dst msg

  let call ?child dst msg =
    let r = cur () in
    op_call r.rt r.rp r.rth ~child dst msg

  let receive () =
    let r = cur () in
    op_receive r.rt r.rp r.rth

  let reply dst msg =
    let r = cur () in
    op_reply r.rt r.rp r.rth dst msg

  let yield () =
    let r = cur () in
    op_yield r.rt r.rp r.rth

  let spawn prog =
    let r = cur () in
    op_spawn r.rt r.rp r.rth prog

  let kcall kc =
    let r = cur () in
    op_kcall r.rt r.rp r.rth kc

  let rand bound =
    let r = cur () in
    op_rand r.rt r.rp bound

  let now () =
    let r = cur () in
    op_now r.rt r.rp

  let fail reason =
    let r = cur () in
    op_fail r.rt r.rp r.rth reason

  module Mem = struct
    let get_int tbl ~row f = load (Layout.Table.addr_int tbl ~row f)
    let set_int tbl ~row f v = store (Layout.Table.addr_int tbl ~row f) v

    let get_str tbl ~row f =
      load_str ~off:(Layout.Table.addr_str tbl ~row f)
        ~len:(Layout.Table.str_len f)

    let set_str tbl ~row f v =
      store_str ~off:(Layout.Table.addr_str tbl ~row f)
        ~len:(Layout.Table.str_len f) v

    let get_cell c = load (Layout.Cell.addr c)
    let set_cell c v = store (Layout.Cell.addr c) v

    type test = scan_test =
      | Hit
      | Int_eq of Layout.int_field * int * test
      | Int_ne of Layout.int_field * int * test
      | Str_eq of Layout.str_field * string * test
      | Row_ne of int * test

    let scan_from tbl ~rows ~from tests =
      let r = cur () in
      scan_go r.rt r.rp r.rth tbl rows tests from tests 0

    let scan tbl ~rows tests = scan_from tbl ~rows ~from:0 tests
  end
end

let () =
  exit_call := fun status -> ignore (Op.call Endpoint.pm (Message.Exit { status }))

(* ------------------------------------------------------------------ *)
(* Main loops                                                          *)
(* ------------------------------------------------------------------ *)

let dispatch t item =
  let ep = item lsr 2 in
  let tag = item land 3 in
  if tag = tag_run then begin
    t.run_items <- t.run_items - 1;
    match proc_of t ep with
    | None -> ()
    | Some p ->
      p.in_heap <- false;
      if runnable p then exec_proc t p
  end
  else if tag = tag_alarm then
    deliver_to_inbox t ~src:Endpoint.kernel ~src_tid:0 ~call:false
      ~rid:(alloc_rid t) ~parent:0 ep Message.Alarm
  else
    match proc_of t ep with
    | Some p when p.hung && p.alive ->
      p.hung <- false;
      if observed t then
        emit_hang_detected t ~time:t.global_now ~ep:p.ep;
      crash_proc t p "hang detected by heartbeat"
    | _ -> ()

let pump t ~until_quiescent =
  let continue = ref true in
  while !continue && t.halted = None do
    if until_quiescent && t.run_items = 0 then continue := false
    else begin
      let item = Sched.pop t.sched in
      t.due <- Sched.next_key t.sched;
      if item < 0 then continue := false
      else begin
        let key = Sched.popped_key t.sched in
        bump_now t key;
        (* Virtual-time cutoff: a system that is past the deadline is
           hung (deadlocked processes, spinning readers, or an idle
           timer chain with no forward progress). *)
        if (not until_quiescent) && key > t.cfg.max_vtime then
          halt t H_hang
        else dispatch t item
      end
    end
  done

let boot t =
  pump t ~until_quiescent:true;
  (match t.halted with
   | Some h -> failwith ("kernel: boot failed: " ^ halt_to_string h)
   | None -> ());
  Hashtbl.iter
    (fun _ p ->
       (* Flattened fast-path flag: coverage/site accounting applies
          to servers from boot on (see [coverage] / [op_site]). *)
       if p.kind = Server_proc then p.covering <- true;
       (* Quiescent means every server waits at the top of its loop —
          the state a stateless restart also starts from — so the boot
          fibers can go: a message starts the loop program afresh. A
          system built and never run then holds no fiber stacks. *)
       (match p.loop_prog with
        | Some loop when p.kind = Server_proc ->
          List.iter
            (fun th ->
               match th.tstate with
               | T_recv_wait _ ->
                 release th;
                 th.tstate <- T_idle loop
               | _ -> ())
            p.threads
        | _ -> ());
       match p.image with
       | Some img when p.kind = Server_proc ->
         (* The booted image is the pristine clone state: record it as
            the dirty-tracking baseline so stateless restarts blit only
            the granules touched since boot. *)
         Memimage.set_baseline img;
         p.baseline_ready <- true
       | _ -> ())
    t.procs;
  t.booted <- true

let run t =
  pump t ~until_quiescent:false;
  (* The run is over: free every fiber still suspended. *)
  Hashtbl.iter (fun _ p -> List.iter release p.threads) t.procs;
  match t.halted with
  | Some h -> h
  | None -> H_hang

(* ------------------------------------------------------------------ *)
(* Introspection                                                       *)
(* ------------------------------------------------------------------ *)

let now t = t.global_now

let total_ops t = t.n_ops
let fiber_parks t = t.n_parks
let walk_resumes t = t.n_walk_resumes
let walk_locksteps t = t.n_walk_locksteps
let walk_switches t = t.n_walk_switches
let walk_fallbacks t = t.n_walk_fallbacks
let walk_loads t = (t.n_walk_batched, t.n_walk_single)

type server_stats = {
  ss_name : string;
  ss_policy : string;
  ss_ops_total : int;
  ss_ops_in_window : int;
  ss_busy_cycles : int;
  ss_logged_stores : int;
  ss_skipped_stores : int;
  ss_deduped_stores : int;
  ss_undo_peak_bytes : int;
  ss_undo_entries_lifetime : int;
  ss_rollback_bytes : int;
  ss_restore_bytes_saved : int;
  ss_image_bytes : int;
  ss_image_used_bytes : int;
  ss_clone_extra_kb : int;
  ss_window_opens : int;
  ss_policy_closes : int;
  ss_restarts : int;
}

let server_stats t ep =
  let p = get_proc t ep in
  let logged, skipped, deduped, peak, lifetime, rollback_b, opens, closes =
    match p.window with
    | Some w ->
      ( Window.logged_stores w,
        Window.skipped_stores w,
        Window.deduped_stores w,
        Undo_log.peak_bytes (Window.log w),
        Undo_log.total_records (Window.log w),
        Undo_log.rollback_bytes (Window.log w),
        Window.opens w,
        Window.closes_by_policy w )
    | None -> (0, 0, 0, 0, 0, 0, 0, 0)
  in
  { ss_name = p.pname;
    ss_policy = p.policy.Policy.name;
    ss_ops_total = p.ops_total;
    ss_ops_in_window = p.ops_in_window;
    ss_busy_cycles = p.busy_cycles;
    ss_logged_stores = logged;
    ss_skipped_stores = skipped;
    ss_deduped_stores = deduped;
    ss_undo_peak_bytes = peak;
    ss_undo_entries_lifetime = lifetime;
    ss_rollback_bytes = rollback_b;
    ss_restore_bytes_saved = p.restore_saved;
    ss_image_bytes = (match p.image with Some i -> Memimage.size i | None -> 0);
    ss_image_used_bytes =
      (match p.image with Some i -> Memimage.allocated i | None -> 0);
    ss_clone_extra_kb = p.clone_extra_kb;
    ss_window_opens = opens;
    ss_policy_closes = closes;
    ss_restarts = p.restart_count }

let server_image t ep =
  match proc_of t ep with
  | Some { image = Some img; _ } -> Some (Memimage.snapshot img)
  | _ -> None

let server_resident_bytes t ep =
  match proc_of t ep with
  | Some { image = Some img; _ } -> Some (Memimage.resident_bytes img)
  | _ -> None

let server_endpoints t = t.servers

let handler_counts t ep =
  match proc_of t ep with
  | None -> []
  | Some p ->
    List.filter_map
      (fun tag ->
         let n = p.handler_tally.(Message.Tag.to_index tag) in
         if n > 0 then Some (tag, n) else None)
      Message.Tag.all

let crash_times t = t.crash_log
let recovery_episodes t = t.episode_log
let recovery_latencies t = List.map (fun (_, c, r) -> r - c) t.episode_log

let crashes t = t.n_crashes
let restarts t = t.n_restarts
let orphaned_replies t = t.n_orphans
let messages_delivered t = t.n_delivered

let run_queue_depth t = t.run_items

(* The per-proc readers below use [Hashtbl.find] + exception instead
   of [proc_of]: [Hashtbl.find_opt] allocates the [Some], and the
   vtime sampler reads dozens of these per tick under a zero-alloc
   gate (bench/timeseries_bench.ml). *)

let proc_alive t ep =
  match Hashtbl.find t.procs ep with
  | p -> p.alive
  | exception Not_found -> false

let proc_policy_name t ep =
  match proc_of t ep with Some p -> Some p.policy.Policy.name | None -> None

let proc_vtime t ep =
  match Hashtbl.find t.procs ep with
  | p -> p.vtime
  | exception Not_found -> 0

(* Server proc handles: server records are installed once by
   [add_server] and mutated in place across crash/recovery (only
   [spawn_user] ever replaces a procs entry), so a handle captured at
   telemetry registration stays valid for the kernel's lifetime and
   turns the per-tick inbox/alive reads into direct field loads. *)
type proc_handle = proc

let server_handle t ep =
  match Hashtbl.find t.procs ep with
  | p -> Some p
  | exception Not_found -> None

let handle_alive (p : proc_handle) = p.alive
let handle_inbox_depth (p : proc_handle) = p.inbox.ib_len

let slot_cycles t ep slot =
  match Hashtbl.find t.procs ep with
  | p -> if Array.length p.prof <> 0 then p.prof.(2 * slot) else 0
  | exception Not_found -> 0

let slot_events t ep slot =
  match Hashtbl.find t.procs ep with
  | p -> if Array.length p.prof <> 0 then p.prof.((2 * slot) + 1) else 0
  | exception Not_found -> 0

let total_phase_cycles t ph = t.phase_prof.(phase_index ph)

let profiled_procs t =
  Hashtbl.fold
    (fun _ p acc -> if Array.length p.prof <> 0 then acc + 1 else acc)
    t.procs 0

let window_is_open t ep =
  match Hashtbl.find t.procs ep with
  | { window = Some w; _ } -> Window.is_open w
  | _ -> false
  | exception Not_found -> false

let user_count t = t.n_users

let set_halt_on_drain t = t.halt_on_drain <- true

let user_exit t ep =
  match proc_of t ep with
  | Some p when p.exit_status >= 0 -> Some (p.exit_status, p.exit_vtime)
  | _ -> None

let live_update = live_update_internal
