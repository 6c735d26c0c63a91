(* The row-search operation, [Kernel.Op.Mem.scan]: the same run as a
   per-load reference loop over [Op.Mem] (the closure scan the servers
   used before), whichever path the kernel takes — batched, parked and
   run on by the kernel, or handed back to the fiber load by load — and
   allocation-free but for its result. *)

module Op = Kernel.Op
module Mem = Kernel.Op.Mem

(* A stub PM, so user programs can exit. *)
let pm_stub () : Kernel.server =
  let handle src msg =
    match msg with
    | Message.Exit { status } ->
      ignore (Op.kcall (Prog.K_kill { proc = src; status }))
    | _ -> Srvlib.reply_err src Errno.ENOSYS
  in
  { Kernel.srv_ep = Endpoint.pm;
    srv_name = "pm-stub";
    srv_image = Memimage.create ~name:"pm-stub" ~size:4096;
    srv_clone_extra_kb = 0;
    srv_init = ignore;
    srv_loop = Srvlib.simple_loop handle;
    srv_multithreaded = false }

(* A table at the DS endpoint: three int columns and a name. *)
type table = {
  image : Memimage.t;
  tbl : Layout.Table.t;
  f_a : Layout.int_field;
  f_b : Layout.int_field;
  f_c : Layout.int_field;
  f_name : Layout.str_field;
}

let make_table ~pad ~rows =
  let spec = Layout.spec () in
  let f_a = Layout.int spec "a" in
  let f_b = Layout.int spec "b" in
  let f_c = Layout.int spec "c" in
  let f_name = Layout.str spec "name" ~len:13 in
  Layout.seal spec;
  let image = Memimage.create ~name:"table" ~size:16384 in
  ignore (Memimage.alloc image pad);
  { image; tbl = Layout.Table.alloc image ~spec ~rows; f_a; f_b; f_c; f_name }

let table_server ?(ep = Endpoint.ds) tb ~init ~handle : Kernel.server =
  { Kernel.srv_ep = ep;
    srv_name = "table";
    srv_image = tb.image;
    srv_clone_extra_kb = 0;
    srv_init = init;
    srv_loop = Srvlib.simple_loop handle;
    srv_multithreaded = false }

(* ---------------- the reference loop ------------------------------ *)

let rec ref_row tbl row = function
  | Mem.Hit -> true
  | Mem.Int_eq (f, v, next) -> Mem.get_int tbl ~row f = v && ref_row tbl row next
  | Mem.Int_ne (f, v, next) -> Mem.get_int tbl ~row f <> v && ref_row tbl row next
  | Mem.Str_eq (f, s, next) ->
    String.equal (Mem.get_str tbl ~row f) s && ref_row tbl row next
  | Mem.Row_ne (v, next) -> row <> v && ref_row tbl row next

let ref_scan tbl ~rows ~from tests =
  let rec go row =
    if row >= rows then None else if ref_row tbl row tests then Some row
    else go (row + 1)
  in
  go from

(* ---------------- one case ---------------------------------------- *)

type test_spec =
  | T_eq of int * int  (* column 0..2, value *)
  | T_ne of int * int
  | T_name of string
  | T_row of int

type hook =
  | No_hook
  | Cycle_hook             (* per-row path: a cycle hook is installed *)
  | Site_recorder          (* per-row path: a fault hook records sites *)
  | Fire of int * Kernel.fault_action  (* the hook fires at the k-th DS load *)
  | Fire_here of int * Kernel.fault_action
  (* per-row path: the same hook scoped to DS, the scanning endpoint *)
  | Fire_elsewhere of int * Kernel.fault_action
  (* batched: a hook scoped to PM fires at PM's k-th operation *)
  | Armed of int * Kernel.fault_action (* [Kernel.arm] at the k-th handler load *)

(* What the rival process installs before one of its computes, while
   the table server may have a walk parked. *)
type install =
  | Install_cycle_hook
  | Install_ds_hook  (* a site recorder scoped to DS *)

type case = {
  rows : int;                      (* table rows *)
  written : int;                   (* rows [srv_init] writes; the rest stay unbacked *)
  pad : int;                       (* image bytes before the table *)
  cells : (int * int * int * string) list;  (* the written rows' contents *)
  queries : (test_spec list * int * bool) list;
  (* tests, scan rows and whether every matching row is walked, per request *)
  calls : int;                     (* requests the user makes *)
  rival_at : int;                  (* arrival of a computing rival process *)
  rival_ops : int list;            (* the cycles of each of the rival's computes *)
  install : (int * install) option;  (* before the rival's k-th compute *)
  second : bool;                   (* a second server walks its own table *)
  pessimistic : bool;
  diag_between : bool;             (* a read-only SEEP between the queries *)
  counts : bool;                   (* cycle counts on *)
  free_loads : bool;               (* loads cost 0 cycles *)
  budget : int option;             (* max_ops: a share (%) of the post-boot ops *)
  hook : hook;
  sampler : int option;            (* a vtime sampler's interval *)
}

let names = [| ""; "a"; "ab"; "abc"; "a\000" |]

let show_spec = function
  | T_eq (c, v) -> Printf.sprintf "col%d=%d" c v
  | T_ne (c, v) -> Printf.sprintf "col%d<>%d" c v
  | T_name s -> Printf.sprintf "name=%S" s
  | T_row r -> Printf.sprintf "row<>%d" r

let show_action = function
  | Kernel.F_crash _ -> "crash"
  | Kernel.F_hang -> "hang"
  | Kernel.F_skip_handler -> "skip"
  | _ -> "other"

let show_case c =
  Printf.sprintf
    "rows %d written %d pad %d calls %d rival %d [%s] install %s second %b \
     pess %b diag %b counts %b free %b budget %s hook %s sampler %s queries [%s]"
    c.rows c.written c.pad c.calls c.rival_at
    (String.concat " " (List.map string_of_int c.rival_ops))
    (match c.install with
     | None -> "-"
     | Some (k, Install_cycle_hook) -> Printf.sprintf "cycle hook at %d" k
     | Some (k, Install_ds_hook) -> Printf.sprintf "ds hook at %d" k)
    c.second c.pessimistic c.diag_between c.counts c.free_loads
    (match c.budget with None -> "-" | Some b -> string_of_int b)
    (match c.hook with
     | No_hook -> "none"
     | Cycle_hook -> "cycle"
     | Site_recorder -> "sites"
     | Fire (k, a) -> Printf.sprintf "fire %s at %d" (show_action a) k
     | Fire_here (k, a) -> Printf.sprintf "fire %s at %d, scoped to ds" (show_action a) k
     | Fire_elsewhere (k, a) ->
       Printf.sprintf "fire %s at pm op %d, scoped to pm" (show_action a) k
     | Armed (k, a) -> Printf.sprintf "armed %s at %d" (show_action a) k)
    (match c.sampler with None -> "-" | Some i -> string_of_int i)
    (String.concat "; "
       (List.map
          (fun (ts, n, all) ->
             Printf.sprintf "%s /%d%s" (String.concat " && " (List.map show_spec ts)) n
               (if all then " all" else ""))
          c.queries))

let chain tb specs =
  List.fold_right
    (fun s next ->
       let col = function 0 -> tb.f_a | 1 -> tb.f_b | _ -> tb.f_c in
       match s with
       | T_eq (c, v) -> Mem.Int_eq (col c, v, next)
       | T_ne (c, v) -> Mem.Int_ne (col c, v, next)
       | T_name s -> Mem.Str_eq (tb.f_name, s, next)
       | T_row r -> Mem.Row_ne (r, next))
    specs Mem.Hit

(* What a run leaves that either scan could move. *)
type outcome = {
  o_results : int list list;  (* the rows each query found *)
  o_halt : string;
  o_now : int;
  o_ops : int;
  o_stats : int * int * int;
  o_slots : (int * int) list;
  o_phases : int list;
  o_sites : string list;
  o_events : string list;
  o_crashes : int list;
  o_resident : int;  (* backed bytes of the table's image at the end *)
  o_advances : int;  (* hash of every (endpoint, slot, cycles) a cycle hook saw *)
  o_samples : (int * int * int * int) list;
  (* per vtime sample: its time, the kernel's ops, DS's ops and busy cycles *)
}

let show_event = function
  | Kernel.E_crash { time; reason; _ } -> Printf.sprintf "crash@%d %s" time reason
  | Kernel.E_halt { time; halt } ->
    Printf.sprintf "halt@%d %s" time (Kernel.halt_to_string halt)
  | Kernel.E_msg { time; src; dst; rid; _ } ->
    Printf.sprintf "msg@%d %d->%d #%d" time src dst rid
  | Kernel.E_reply { time; src; dst; rid; _ } ->
    Printf.sprintf "reply@%d %d->%d #%d" time src dst rid
  | Kernel.E_window_close { time; ep; _ } -> Printf.sprintf "close@%d %d" time ep
  | Kernel.E_restart { time; ep; _ } -> Printf.sprintf "restart@%d %d" time ep
  | Kernel.E_hang_detected { time; ep } -> Printf.sprintf "hang@%d %d" time ep
  | _ -> "-"

(* A point where test code runs — a table server starting or ending a
   scan, the rival computing, the vtime sampler's hook, the halt when
   the [max_ops] budget runs out, the end of the run — with the
   kernel's walk counters there: lockstep episodes and turns, walks run
   on, walks handed back to their fiber, loads made load by load. *)
type point_kind = Scan_call | Scan_return | Rival | Sampled | Budget_halt | Run_end

type point = {
  kind : point_kind;
  eps : int;
  turns : int;
  resumes : int;
  falls : int;
  single : int;
}

let point k kind =
  { kind; eps = Kernel.walk_locksteps k; turns = Kernel.walk_switches k;
    resumes = Kernel.walk_resumes k; falls = Kernel.walk_fallbacks k;
    single = snd (Kernel.walk_loads k) }

(* How lockstep episodes ended, as far as the points show it; every
   count is a lower bound. While RS makes no operation only the two
   table servers walk, so every episode pairs their walks, and no test
   code runs inside an episode but the sampler's hook: an episode that
   hands its running walk a row (or none) ends at that server's scan
   return, one that hands it to the per-load path counts a fallback,
   and one that ends because a queued item is due lets no code run.
   Between two points where no walk fell back, then, all episodes but
   one ending at a scan return (or running on at a sampler's hook)
   ended on a due item. If every resumption there was a lockstep turn
   too, an episode alone between two points ran all their turns, and
   ended at the second if it is a scan return — with its first
   waiter's walk if the turns are even. [budget] counts budget halts
   at the first per-load load after an episode's fallback, which with
   no hook installed only the budget makes, and [sampled] the intervals
   after a sampler's hook with turns but no new episode. *)
type ends = {
  after_switch : int;   (* the running walk ended after a switch *)
  first_waiter : int;   (* the first waiter's walk ended *)
  next_due : int;       (* a queued item fell due *)
  budget : int;         (* [max_ops] ran out in an episode *)
  sampled : int;        (* the sampler's hook ran in an episode *)
}

let no_ends = { after_switch = 0; first_waiter = 0; next_due = 0; budget = 0; sampled = 0 }

let classify ~hooked points =
  let rec go e = function
    | p :: (q :: _ as rest) ->
      let eps = q.eps - p.eps and turns = q.turns - p.turns in
      let falls = q.falls - p.falls in
      let lockstep_only = q.resumes - p.resumes = turns in
      let e =
        if falls = 0 then
          let alone =
            lockstep_only && eps = 1 && p.kind <> Sampled && q.kind = Scan_return
          in
          let at_return = q.kind = Scan_return || q.kind = Sampled in
          { e with
            after_switch = (e.after_switch + if alone && turns >= 2 then 1 else 0);
            first_waiter =
              (e.first_waiter + if alone && turns >= 2 && turns mod 2 = 0 then 1 else 0);
            next_due = e.next_due + max 0 (if at_return then eps - 1 else eps) }
        else e
      in
      let e =
        if q.kind = Budget_halt && falls >= 1 && lockstep_only && q.single - p.single = 1
           && not hooked
        then { e with budget = e.budget + 1 }
        else e
      in
      let e =
        if p.kind = Sampled && eps = 0 && turns > 0 then { e with sampled = e.sampled + 1 }
        else e
      in
      go e rest
    | _ -> e
  in
  go no_ends points

(* What the kernel's counters say the fused scan did in a run: the most
   walks one scan ran on from a parked load, the lockstep's episodes
   and turns and how its episodes ended, and the walks handed back to
   their fiber, in all and after the rival installed a hook. *)
type paths = {
  most_resumes : int;
  episodes : int;
  switches : int;
  ends : ends;
  fallbacks : int;
  fallbacks_after_install : int;
}

let max_samples = 200

(* Run a case with [scan] as the table walk. [max_ops] none: the
   kernel's default. *)
let run_case ?max_ops c
    (scan : Layout.Table.t -> rows:int -> from:int -> Mem.test -> int option) =
  let tb = make_table ~pad:c.pad ~rows:c.rows in
  let results = ref [] in
  let kernel = ref None in
  let most_resumes = ref 0 in
  let init tb () =
    List.iteri
      (fun row (a, b, cc, name) ->
         Mem.set_int tb.tbl ~row tb.f_a a;
         Mem.set_int tb.tbl ~row tb.f_b b;
         Mem.set_int tb.tbl ~row tb.f_c cc;
         Mem.set_str tb.tbl ~row tb.f_name name)
      c.cells
  in
  let resumes () = match !kernel with Some k -> Kernel.walk_resumes k | None -> 0 in
  let points = ref [] in
  let mark kind =
    match !kernel with Some k -> points := point k kind :: !points | None -> ()
  in
  let handle tb src msg =
    match msg with
    | Message.Ds_retrieve _ ->
      List.iteri
        (fun i (specs, rows, all) ->
           if i > 0 && c.diag_between then Srvlib.diag "table: between";
           let tests = chain tb specs in
           (* A walk over every match resumes past each hit, as the
              servers' all-matches loops do. *)
           let rec walk from found =
             let r0 = resumes () in
             mark Scan_call;
             let r = scan tb.tbl ~rows ~from tests in
             mark Scan_return;
             most_resumes := max !most_resumes (resumes () - r0);
             match r with
             | Some row when all -> walk (row + 1) (row :: found)
             | Some row -> row :: found
             | None -> found
           in
           results := List.rev (walk 0 []) :: !results)
        c.queries;
      Srvlib.reply_ok src 0
    | _ -> Srvlib.reply_err src Errno.ENOSYS
  in
  let policy = if c.pessimistic then Policy.pessimistic else Policy.enhanced in
  let base = Kernel.default_config policy ~lookup_program:(fun _ -> None) () in
  let costs =
    if c.free_loads then { base.Kernel.costs with Costs.c_load = 0 }
    else base.Kernel.costs
  in
  let cfg =
    { base with
      Kernel.costs;
      max_ops = Option.value max_ops ~default:base.Kernel.max_ops;
      log_sink = Some ignore }
  in
  let k = Kernel.create cfg in
  kernel := Some k;
  let events = ref [] in
  Kernel.set_event_hook k
    (Some
       (fun e ->
          (match e with
           | Kernel.E_halt _ when Kernel.total_ops k > cfg.Kernel.max_ops -> mark Budget_halt
           | _ -> ());
          events := show_event e :: !events));
  Kernel.add_server k (pm_stub ());
  Kernel.add_server k (table_server tb ~init:(init tb) ~handle:(handle tb));
  (* The second server, at VM's endpoint: the same rows in a table of
     its own, walked for a second user. *)
  if c.second then begin
    let tb2 = make_table ~pad:c.pad ~rows:c.rows in
    Kernel.add_server k
      (table_server ~ep:Endpoint.vm tb2 ~init:(init tb2) ~handle:(handle tb2))
  end;
  Kernel.add_server k (Rs.server (Rs.create policy));
  if c.counts then Kernel.enable_cycle_counts k;
  Kernel.boot k;
  let boot_ops = Kernel.total_ops k in
  let sites = ref [] in
  let ds_loads = ref 0 in
  let fire_at_ds_load nth action s =
    sites := Kernel.site_to_string s :: !sites;
    if s.Kernel.site_ep = Endpoint.ds && s.Kernel.site_kind = Kernel.Op_load
    then begin
      incr ds_loads;
      if !ds_loads = nth then Some action else None
    end
    else None
  in
  (* A scoped hook handed another endpoint's site leaves a mark the
     property rejects. *)
  let in_scope ep hook s =
    if s.Kernel.site_ep <> ep then begin
      sites := "out of scope" :: !sites;
      None
    end
    else hook s
  in
  let advances = ref 0 in
  let cycle_hook = Some (fun ep sl c -> advances := Hashtbl.hash (!advances, ep, sl, c)) in
  let record_site s =
    sites := Kernel.site_to_string s :: !sites;
    None
  in
  (match c.hook with
   | No_hook -> ()
   | Cycle_hook -> Kernel.set_cycle_hook k cycle_hook
   | Site_recorder -> Kernel.set_fault_hook k (Some record_site)
   | Fire (nth, action) -> Kernel.set_fault_hook k (Some (fire_at_ds_load nth action))
   | Fire_here (nth, action) ->
     Kernel.set_fault_hook ~scope:[ Endpoint.ds ] k
       (Some (in_scope Endpoint.ds (fire_at_ds_load nth action)))
   | Fire_elsewhere (nth, action) ->
     let pm_ops = ref 0 in
     Kernel.set_fault_hook ~scope:[ Endpoint.pm ] k
       (Some
          (in_scope Endpoint.pm (fun s ->
               sites := Kernel.site_to_string s :: !sites;
               incr pm_ops;
               if !pm_ops = nth then Some action else None)))
   | Armed (occ, action) ->
     Kernel.arm k
       [ ( { Kernel.site_ep = Endpoint.ds;
             site_handler =
               Some (Message.Tag.of_msg (Message.Ds_retrieve { key = "" }));
             site_kind = Kernel.Op_load;
             site_occ = occ },
           action ) ]);
  let user dst () =
    for _ = 1 to c.calls do
      ignore (Op.call dst (Message.Ds_retrieve { key = "q" }))
    done
  in
  let ep = Kernel.spawn_user k ~name:"u" ~prog:(user Endpoint.ds) ~parent:0 in
  if c.second then
    ignore (Kernel.spawn_user k ~name:"u2" ~prog:(user Endpoint.vm) ~parent:0);
  let fallbacks_at_install = ref None in
  let rival () =
    List.iteri
      (fun i cycles ->
         (match c.install with
          | Some (at, what) when at = i ->
            fallbacks_at_install := Some (Kernel.walk_fallbacks k);
            (match what with
             | Install_cycle_hook -> Kernel.set_cycle_hook k cycle_hook
             | Install_ds_hook ->
               Kernel.set_fault_hook ~scope:[ Endpoint.ds ] k
                 (Some (in_scope Endpoint.ds record_site)))
          | _ -> ());
         mark Rival;
         Op.compute cycles)
      c.rival_ops
  in
  ignore (Kernel.spawn_user_at k ~at:c.rival_at ~name:"rival" ~prog:rival ~parent:0);
  Kernel.set_halt_on_exit k ep;
  (* The sampler's hook reads what the kernel has committed: a walk's
     loads must be in by the time it runs. It takes [max_samples] and
     goes, so that a clock leaping to a hang's detection does not run it
     a million times. *)
  let samples = ref [] and taken = ref 0 in
  Option.iter
    (fun interval ->
       Kernel.set_vtime_sampler k ~interval
         (Some
            (fun at ->
               mark Sampled;
               let s = Kernel.server_stats k Endpoint.ds in
               samples :=
                 (at, Kernel.total_ops k, s.Kernel.ss_ops_total, s.Kernel.ss_busy_cycles)
                 :: !samples;
               incr taken;
               if !taken = max_samples then Kernel.set_vtime_sampler k ~interval None)))
    c.sampler;
  let halt = Kernel.run k in
  mark Run_end;
  let s = Kernel.server_stats k Endpoint.ds in
  let outcome =
    { o_results = List.rev !results;
      o_halt = Kernel.halt_to_string halt;
      o_now = Kernel.now k;
      o_ops = Kernel.total_ops k;
      o_stats =
        (s.Kernel.ss_ops_total, s.Kernel.ss_ops_in_window, s.Kernel.ss_busy_cycles);
      o_slots =
        List.concat_map
          (fun ep ->
             List.map
               (fun sl -> (Kernel.slot_cycles k ep sl, Kernel.slot_events k ep sl))
               Kernel.all_slots)
          [ Endpoint.ds; Endpoint.pm; Endpoint.rs ];
      o_phases = List.map (Kernel.total_phase_cycles k) Kernel.all_phases;
      o_sites = List.rev !sites;
      o_events = List.rev !events;
      o_crashes = Kernel.crash_times k;
      o_resident = Memimage.resident_bytes tb.image;
      o_advances = !advances;
      o_samples = List.rev !samples }
  in
  let fallbacks = Kernel.walk_fallbacks k in
  let paths =
    { most_resumes = !most_resumes;
      episodes = Kernel.walk_locksteps k;
      switches = Kernel.walk_switches k;
      ends =
        (* Only while RS stays idle are the table servers the only
           walkers. *)
        (if (Kernel.server_stats k Endpoint.rs).Kernel.ss_ops_total > 0 then no_ends
         else
           classify
             ~hooked:((match c.hook with No_hook -> false | _ -> true) || c.install <> None)
             (List.rev !points));
      fallbacks;
      fallbacks_after_install =
        (match !fallbacks_at_install with Some f0 -> fallbacks - f0 | None -> 0) }
  in
  (outcome, boot_ops, paths)

(* ---------------- generators -------------------------------------- *)

let gen_spec =
  QCheck.Gen.(
    frequency
      [ (4, map2 (fun c v -> T_eq (c, v)) (int_range 0 2) (int_range 0 2));
        (3, map2 (fun c v -> T_ne (c, v)) (int_range 0 2) (int_range 0 2));
        (2, map (fun i -> T_name names.(i)) (int_range 0 (Array.length names - 1)));
        (1, map (fun r -> T_row r) (int_range 0 3)) ])

let gen_action =
  QCheck.Gen.oneofl
    [ Kernel.F_crash "scan fault"; Kernel.F_hang; Kernel.F_skip_handler ]

(* The hooks a case runs under. *)
let gen_hook =
  QCheck.Gen.(
    frequency
      [ (4, return No_hook);
        (2, return Cycle_hook);
        (2, return Site_recorder);
        (2, map2 (fun k a -> Fire (k, a)) (int_range 1 60) gen_action);
        (2, map2 (fun k a -> Fire_here (k, a)) (int_range 1 60) gen_action);
        (2, map2 (fun k a -> Fire_elsewhere (k, a)) (int_range 1 8) gen_action);
        (2, map2 (fun k a -> Armed (k, a)) (int_range 0 16) gen_action) ])

(* A case whose rival arrives and computes as [gen_rival] draws, with
   the second server, hook, install and sampler [gen_more] draws for the
   rival's computes; [budgeted] cases in 3 + [budgeted] have a budget. *)
let gen_case_of ?(budgeted = 1) gen_rival gen_more =
  let open QCheck.Gen in
  int_range 1 40 >>= fun rows ->
  int_range 0 (min rows 8) >>= fun written ->
  list_repeat written
    (quad (int_range 0 2) (int_range 0 2) (int_range 0 2)
       (map (fun i -> names.(i)) (int_range 0 3)))
  >>= fun cells ->
  list_size (int_range 1 3)
    (triple (list_size (int_range 0 4) gen_spec)
       (frequency
          [ (6, return rows); (2, int_range 0 rows);
            (1, int_range (rows + 1) (rows + 2)) ])
       bool)
  >>= fun queries ->
  oneofl [ 0; 96; 480; 504 ] >>= fun pad ->
  int_range 1 3 >>= fun calls ->
  gen_rival >>= fun (rival_at, rival_ops) ->
  bool >>= fun pessimistic ->
  bool >>= fun diag_between ->
  bool >>= fun counts ->
  frequency [ (5, return false); (1, return true) ] >>= fun free_loads ->
  frequency [ (3, return None); (budgeted, map Option.some (int_range 1 99)) ]
  >>= fun budget ->
  gen_more rival_ops >>= fun (second, hook, install, sampler) ->
  return
    { rows; written; pad; cells; queries; calls; rival_at; rival_ops; install;
      second; pessimistic; diag_between; counts; free_loads; budget; hook; sampler }

(* One server, a rival of six 37-cycle computes arriving anywhere in
   the first 3000 cycles, every hook. *)
let gen_case =
  QCheck.Gen.(
    gen_case_of
      (map (fun at -> (at, [ 37; 37; 37; 37; 37; 37 ])) (int_range 0 3000))
      (fun _ -> map (fun hook -> (false, hook, None, None)) gen_hook))

(* Every load of [queries] a string load: each column test compares
   the name instead. *)
let names_only queries =
  List.map
    (fun (specs, rows, all) ->
       ( List.map
           (function
             | T_eq (_, v) | T_ne (_, v) -> T_name names.(v + 1)
             | (T_name _ | T_row _) as s -> s)
           specs,
         rows,
         all ))
    queries

let strings_only c =
  List.exists (fun (specs, _, _) -> specs <> []) c.queries
  && List.for_all
       (fun (specs, _, _) ->
          List.for_all (function T_name _ | T_row _ -> true | _ -> false) specs)
       c.queries

(* Walks parked and run on by the kernel: a fine-grained rival arriving
   about when the walks start, whose clock passes the server's every
   few loads, so one walk parks and is run on many times; most cases
   with a second server walking its own table at the same time, the
   two in lockstep, and of those a third with nothing else; most of
   the rest with no hook but one the rival installs before its k-th
   compute, while a walk may be parked; half with a budget, so that
   some run out inside an episode; a quarter with a vtime sampler whose
   hook may run inside an episode, and one in five with string tests
   only, so that the lockstep runs string loads. *)
let gen_parked_case =
  QCheck.Gen.(
    pair
      (gen_case_of ~budgeted:3
         (pair (int_range 1500 3300) (list_size (int_range 20 400) (int_range 1 5)))
         (fun rival_ops ->
            bool >>= fun second ->
            frequency [ (1, return None); (1, map Option.some (int_range 20 400)) ]
            >>= fun sampler ->
            frequency
              [ ( 2,
                  map2
                    (fun k what -> (second, No_hook, Some (k, what), sampler))
                    (int_range 1 (List.length rival_ops - 1))
                    (oneofl [ Install_cycle_hook; Install_ds_hook ]) );
                (1, map (fun hook -> (second, hook, None, sampler)) gen_hook);
                (2, return (true, No_hook, None, sampler)) ]))
      (frequency [ (4, return false); (1, return true) ])
    >|= fun (c, strings) -> if strings then { c with queries = names_only c.queries } else c)

(* The case's [max_ops]: a budget that runs out after the boot,
   somewhere in the run. *)
let max_ops_of c =
  Option.map
    (fun share ->
       let full, boot_ops, _ = run_case c ref_scan in
       boot_ops + ((full.o_ops - boot_ops) * share / 100) + 1)
    c.budget

(* The fused run's [max_ops]: the case's budget, else twice the
   reference run's ops, so that a scan repeating loads it should not
   make stops there and fails the compare rather than running on. *)
let fused_max_ops max_ops reference =
  Option.value max_ops ~default:((2 * reference.o_ops) + 1000)

let check_same c =
  let max_ops = max_ops_of c in
  let per_op, _, _ = run_case ?max_ops c ref_scan in
  let fused, _, _ = run_case ~max_ops:(fused_max_ops max_ops per_op) c Mem.scan_from in
  if List.mem "out of scope" fused.o_sites || List.mem "out of scope" per_op.o_sites
  then QCheck.Test.fail_reportf "a scoped hook saw another endpoint's site"
  else if fused <> per_op then
    QCheck.Test.fail_reportf
      "fused %s / per-load %s: results %b halt %b now %d/%d ops %d/%d stats %b \
       slots %b phases %b sites %b events %b crashes %b advances %b"
      fused.o_halt per_op.o_halt (fused.o_results = per_op.o_results)
      (fused.o_halt = per_op.o_halt) fused.o_now per_op.o_now fused.o_ops
      per_op.o_ops (fused.o_stats = per_op.o_stats) (fused.o_slots = per_op.o_slots)
      (fused.o_phases = per_op.o_phases)
      (fused.o_sites = per_op.o_sites) (fused.o_events = per_op.o_events)
      (fused.o_crashes = per_op.o_crashes) (fused.o_advances = per_op.o_advances)
  else true

let prop_scan_matches_reference =
  QCheck.Test.make ~name:"fused scan = per-load reference loop" ~count:300
    (QCheck.make ~print:show_case gen_case)
    check_same

let prop_parked_walks_match_reference =
  QCheck.Test.make ~name:"walks parked and run on = per-load reference loop"
    ~count:200
    (QCheck.make ~print:show_case gen_parked_case)
    check_same

(* The properties are meaningful only if their cases reach the paths
   they name: count what a fixed sample of each did. *)
let test_cases_reach_every_path () =
  let rand = Random.State.make [| 7 |] in
  let cases =
    QCheck.Gen.generate ~rand ~n:300 gen_case
    @ QCheck.Gen.generate ~rand ~n:200 gen_parked_case
  in
  let halted = ref 0 and crashed = ref 0 and hit = ref 0 and unbacked = ref 0 in
  let fired_elsewhere = ref 0 and resumed_twice = ref 0 and fell_back = ref 0 in
  let fell_back_on_install = ref 0 and lockstep = ref 0 in
  let after_switch = ref 0 and first_waiter = ref 0 and next_due = ref 0 in
  let budget = ref 0 and sampled = ref 0 and strings = ref 0 in
  let row_size = Layout.Table.row_size (make_table ~pad:0 ~rows:1).tbl in
  List.iter
    (fun c ->
       let max_ops = max_ops_of c in
       let reference, _, _ = run_case ?max_ops c ref_scan in
       let o, _, paths =
         run_case ~max_ops:(fused_max_ops max_ops reference) c Mem.scan_from
       in
       (* With a second server, a walk's window counts its resumptions
          too. *)
       if paths.most_resumes >= 2 && not c.second then incr resumed_twice;
       if paths.switches > 0 then incr lockstep;
       let e = paths.ends in
       if e.after_switch > 0 then incr after_switch;
       if e.first_waiter > 0 then incr first_waiter;
       if e.next_due > 0 then incr next_due;
       if e.budget > 0 then incr budget;
       if e.sampled > 0 then incr sampled;
       (* An episode with a second turn made a load in its first: a
          string load, when every load is. *)
       if strings_only c && paths.switches > paths.episodes then incr strings;
       if paths.fallbacks > 0 then incr fell_back;
       if paths.fallbacks_after_install > 0 && not c.second then
         incr fell_back_on_install;
       if List.exists (fun r -> r <> []) o.o_results then incr hit;
       if o.o_crashes <> [] then incr crashed;
       if o.o_halt = "hang" then incr halted;
       (match c.hook with
        | Fire_elsewhere (nth, _) when List.length o.o_sites >= nth ->
          incr fired_elsewhere
        | _ -> ());
       if List.exists
           (fun (_, n, _) -> c.pad + (min n c.rows * row_size) > o.o_resident)
           c.queries
       then incr unbacked)
    cases;
  let at_least what n got =
    Alcotest.(check bool) (Printf.sprintf "%s: %d >= %d" what got n) true (got >= n)
  in
  at_least "runs with a matching scan" 50 !hit;
  at_least "runs with a crashed server" 20 !crashed;
  at_least "runs halted by their budget" 10 !halted;
  at_least "runs scanning rows past the backing" 50 !unbacked;
  at_least "runs where a hook scoped to PM fired" 10 !fired_elsewhere;
  at_least "runs where the kernel ran one walk on twice" 10 !resumed_twice;
  at_least "runs where two servers' walks ran on in lockstep" 10 !lockstep;
  at_least "runs where an episode's running walk ended after a switch" 8 !after_switch;
  at_least "runs where an episode's first waiter's walk ended" 5 !first_waiter;
  at_least "runs where an episode ended on a queued item falling due" 15 !next_due;
  at_least "runs where max_ops ran out in an episode" 2 !budget;
  at_least "runs where the sampler's hook ran in an episode" 6 !sampled;
  at_least "runs where an episode made string loads" 4 !strings;
  at_least "runs where a parked walk went on load by load" 10 !fell_back;
  at_least "runs where a hook installed mid-walk sent it load by load" 10
    !fell_back_on_install

(* Two servers whose walks cost the same per load start them at the
   same clock: each of the two users calls its server at once, and no
   rival arrives before the run ends. DS's walk makes a load and parks;
   VM's makes one, ties DS's clock, makes another and parks, and the
   lockstep begins. Each turn then makes two loads, the first of them
   tying the two clocks, which the running walk wins: 40 rows of one
   load each leave DS's walk ending on the 39th turn. *)
let tie_case =
  { rows = 40; written = 0; pad = 0; cells = [];
    queries = [ ([ T_eq (0, 1) ], 40, false) ];
    calls = 1; rival_at = 1_000_000; rival_ops = []; install = None; second = true;
    pessimistic = false; diag_between = false; counts = false; free_loads = false;
    budget = None; hook = No_hook; sampler = None }

(* The same walks with a rival arriving at 1167, a clock the waiting
   walker reaches at a switch: the rival's arrival, queued first, wins
   the tie and ends the episode. *)
let queued_tie_case = { tie_case with rival_at = 1167; rival_ops = [ 1 ] }

let test_ties () =
  List.iter
    (fun (what, c, pinned) ->
       let per_op, _, _ = run_case c ref_scan in
       let fused, _, paths = run_case c Mem.scan_from in
       Alcotest.(check bool) (what ^ ": fused = per-load reference") true (fused = per_op);
       Alcotest.(check (list int)) (what ^ ": episodes, turns") pinned
         [ paths.episodes; paths.switches ])
    [ ("walks alone", tie_case, [ 1; 39 ]);
      ("an arrival tied with the waiter", queued_tie_case, [ 3; 38 ]) ]

(* ---------------- allocation -------------------------------------- *)

(* A 256-row scan inside a server: the words it allocates, less those
   of an empty measurement, and the fiber parks and lockstep turns it
   spans, for a walk that matches at row 255 and one that matches
   nowhere. [beside]: VM walks a longer table meanwhile — its user calls
   at once and its rows cost four loads each — so DS's user, arriving
   while VM walks, has both scans run in lockstep beside VM's walk and
   end first. Nothing but the kernel runs while a scan of DS's is
   parked, so the words are the scan's own. *)
let scan_words ?(beside = false) setup =
  let tb = make_table ~pad:0 ~rows:256 and tb2 = make_table ~pad:0 ~rows:256 in
  let hit = Mem.Int_eq (tb.f_a, 1, Mem.Str_eq (tb.f_name, "k", Mem.Hit)) in
  let miss = Mem.Int_eq (tb.f_a, 1, Mem.Str_eq (tb.f_name, "none", Mem.Hit)) in
  let long =
    Mem.Int_ne (tb2.f_a, 1, Mem.Int_ne (tb2.f_b, 1, Mem.Int_ne (tb2.f_c, 1,
      Mem.Int_eq (tb2.f_a, 7, Mem.Hit))))
  in
  let kernel = ref None in
  let counters () =
    match !kernel with
    | Some k -> (Kernel.fiber_parks k, Kernel.walk_switches k)
    | None -> (0, 0)
  in
  let words = ref [] in
  let init () =
    List.iter
      (fun (row, name) ->
         Mem.set_int tb.tbl ~row tb.f_a 1;
         Mem.set_str tb.tbl ~row tb.f_name name)
      [ (100, "j"); (255, "k") ]
  in
  let handle src msg =
    match msg with
    | Message.Ds_retrieve _ ->
      let w0 = Gc.minor_words () in
      let w1 = Gc.minor_words () in
      let empty = w1 -. w0 in
      let measure tests =
        let parks0, turns0 = counters () in
        let w0 = Gc.minor_words () in
        let r = Mem.scan tb.tbl ~rows:256 tests in
        let w1 = Gc.minor_words () in
        ignore (Sys.opaque_identity r);
        let parks1, turns1 = counters () in
        (w1 -. w0 -. empty, parks1 - parks0, turns1 - turns0)
      in
      let h = measure hit in
      let m = measure miss in
      words := [ h; m ];
      Srvlib.reply_ok src 0
    | _ -> Srvlib.reply_err src Errno.ENOSYS
  in
  let handle_long src msg =
    match msg with
    | Message.Ds_retrieve _ ->
      ignore (Sys.opaque_identity (Mem.scan tb2.tbl ~rows:256 long));
      Srvlib.reply_ok src 0
    | _ -> Srvlib.reply_err src Errno.ENOSYS
  in
  let base =
    Kernel.default_config Policy.enhanced ~lookup_program:(fun _ -> None) ()
  in
  let k = Kernel.create base in
  kernel := Some k;
  Kernel.add_server k (pm_stub ());
  Kernel.add_server k (table_server tb ~init ~handle);
  if beside then
    Kernel.add_server k (table_server ~ep:Endpoint.vm tb2 ~init:ignore ~handle:handle_long);
  Kernel.boot k;
  setup k;
  let call dst () = ignore (Op.call dst (Message.Ds_retrieve { key = "" })) in
  let ep =
    if beside then begin
      ignore (Kernel.spawn_user k ~name:"long" ~prog:(call Endpoint.vm) ~parent:0);
      Kernel.spawn_user_at k ~at:(Kernel.now k + 1000) ~name:"u" ~prog:(call Endpoint.ds)
        ~parent:0
    end
    else Kernel.spawn_user k ~name:"u" ~prog:(call Endpoint.ds) ~parent:0
  in
  Kernel.set_halt_on_exit k ep;
  ignore (Kernel.run k);
  !words

let test_scan_allocates_its_result () =
  let never =
    (* A site the table server never reaches: it is sited, so its
       scans take the per-load path, and nothing fires. *)
    { Kernel.site_ep = Endpoint.ds; site_handler = None;
      site_kind = Kernel.Op_spawn; site_occ = 0 }
  in
  let total = ref 0 in
  let hook = Some (fun _ _ c -> total := !total + c) in
  List.iter
    (fun (what, setup) ->
       Alcotest.(check (list (float 0.))) (what ^ ": Some row, then nothing")
         [ 2.; 0. ] (List.map (fun (w, _, _) -> w) (scan_words setup)))
    [ ("batched", ignore);
      ("per-load, cycle hook", fun k -> Kernel.set_cycle_hook k hook);
      ("per-load, armed site", fun k -> Kernel.arm k [ (never, Kernel.F_benign) ]) ]

(* The words a fiber park allocates: its continuation and the thread
   state holding it (sched_bench's [preempt_alloc_exact]). *)
let park_words = 4.

let test_lockstep_allocates_its_result () =
  let per_scan = scan_words ~beside:true ignore in
  Alcotest.(check bool) "each scan ran 50 turns and more in lockstep" true
    (per_scan <> [] && List.for_all (fun (_, _, turns) -> turns >= 50) per_scan);
  Alcotest.(check (list (float 0.))) "Some row, then nothing, besides the fiber parks"
    [ 2.; 0. ]
    (List.map (fun (w, parks, _) -> w -. (park_words *. float_of_int parks)) per_scan)

let () =
  Alcotest.run "scan"
    [ ( "equivalence",
        [ QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 42 |])
            prop_scan_matches_reference;
          QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 43 |])
            prop_parked_walks_match_reference;
          Alcotest.test_case "cases reach every path" `Quick
            test_cases_reach_every_path;
          Alcotest.test_case "walks tied at every switch" `Quick test_ties ] );
      ( "allocation",
        [ Alcotest.test_case "256-row scan allocates only its result" `Quick
            test_scan_allocates_its_result;
          Alcotest.test_case "256-row scans in lockstep allocate only their result"
            `Quick test_lockstep_allocates_its_result ] ) ]
