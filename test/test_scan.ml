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
     pess %b diag %b counts %b free %b budget %s hook %s queries [%s]"
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

(* What the kernel's counters say the fused scan did in a run: the most
   walks one scan ran on from a parked load, the walks run on in
   lockstep with another server's, and the walks handed back to their
   fiber, in all and after the rival installed a hook. *)
type paths = {
  most_resumes : int;
  switches : int;
  fallbacks : int;
  fallbacks_after_install : int;
}

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
             let r = scan tb.tbl ~rows ~from tests in
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
  Kernel.set_event_hook k (Some (fun e -> events := show_event e :: !events));
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
         Op.compute cycles)
      c.rival_ops
  in
  ignore (Kernel.spawn_user_at k ~at:c.rival_at ~name:"rival" ~prog:rival ~parent:0);
  Kernel.set_halt_on_exit k ep;
  let halt = Kernel.run k in
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
      o_advances = !advances }
  in
  let fallbacks = Kernel.walk_fallbacks k in
  let paths =
    { most_resumes = !most_resumes;
      switches = Kernel.walk_switches k;
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
   the second server, hook and install [gen_more] draws for the rival's
   computes. *)
let gen_case_of gen_rival gen_more =
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
  frequency [ (3, return None); (1, map Option.some (int_range 1 99)) ]
  >>= fun budget ->
  gen_more rival_ops >>= fun (second, hook, install) ->
  return
    { rows; written; pad; cells; queries; calls; rival_at; rival_ops; install;
      second; pessimistic; diag_between; counts; free_loads; budget; hook }

(* One server, a rival of six 37-cycle computes arriving anywhere in
   the first 3000 cycles, every hook. *)
let gen_case =
  QCheck.Gen.(
    gen_case_of
      (map (fun at -> (at, [ 37; 37; 37; 37; 37; 37 ])) (int_range 0 3000))
      (fun _ -> map (fun hook -> (false, hook, None)) gen_hook))

(* Walks parked and run on by the kernel: a fine-grained rival arriving
   about when the walks start, whose clock passes the server's every
   few loads, so one walk parks and is run on many times; half the
   cases with a second server walking its own table at the same time;
   most with no hook but one the rival installs before its k-th
   compute, while a walk may be parked. *)
let gen_parked_case =
  QCheck.Gen.(
    gen_case_of
      (pair (int_range 1500 3300) (list_size (int_range 20 400) (int_range 1 5)))
      (fun rival_ops ->
         bool >>= fun second ->
         frequency
           [ ( 2,
               map2
                 (fun k what -> (second, No_hook, Some (k, what)))
                 (int_range 1 (List.length rival_ops - 1))
                 (oneofl [ Install_cycle_hook; Install_ds_hook ]) );
             (1, map (fun hook -> (second, hook, None)) gen_hook) ]))

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
  at_least "runs where a parked walk went on load by load" 10 !fell_back;
  at_least "runs where a hook installed mid-walk sent it load by load" 10
    !fell_back_on_install

(* ---------------- allocation -------------------------------------- *)

(* A 256-row scan inside a server: the words it allocates, less those
   of an empty measurement, for a walk that matches at row 255 and one
   that matches nowhere. *)
let scan_words setup =
  let tb = make_table ~pad:0 ~rows:256 in
  let hit = Mem.Int_eq (tb.f_a, 1, Mem.Str_eq (tb.f_name, "k", Mem.Hit)) in
  let miss = Mem.Int_eq (tb.f_a, 1, Mem.Str_eq (tb.f_name, "none", Mem.Hit)) in
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
      let measure tests =
        let w0 = Gc.minor_words () in
        let r = Mem.scan tb.tbl ~rows:256 tests in
        let w1 = Gc.minor_words () in
        ignore (Sys.opaque_identity r);
        w1 -. w0
      in
      let w0 = Gc.minor_words () in
      let w1 = Gc.minor_words () in
      let empty = w1 -. w0 in
      let h = measure hit in
      let m = measure miss in
      words := [ h -. empty; m -. empty ];
      Srvlib.reply_ok src 0
    | _ -> Srvlib.reply_err src Errno.ENOSYS
  in
  let base =
    Kernel.default_config Policy.enhanced ~lookup_program:(fun _ -> None) ()
  in
  let k = Kernel.create base in
  Kernel.add_server k (pm_stub ());
  Kernel.add_server k (table_server tb ~init ~handle);
  Kernel.boot k;
  setup k;
  let ep =
    Kernel.spawn_user k ~name:"u"
      ~prog:(fun () -> ignore (Op.call Endpoint.ds (Message.Ds_retrieve { key = "" })))
      ~parent:0
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
         [ 2.; 0. ] (scan_words setup))
    [ ("batched", ignore);
      ("per-load, cycle hook", fun k -> Kernel.set_cycle_hook k hook);
      ("per-load, armed site", fun k -> Kernel.arm k [ (never, Kernel.F_benign) ]) ]

let () =
  Alcotest.run "scan"
    [ ( "equivalence",
        [ QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 42 |])
            prop_scan_matches_reference;
          QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 43 |])
            prop_parked_walks_match_reference;
          Alcotest.test_case "cases reach every path" `Quick
            test_cases_reach_every_path ] );
      ( "allocation",
        [ Alcotest.test_case "256-row scan allocates only its result" `Quick
            test_scan_allocates_its_result ] ) ]
