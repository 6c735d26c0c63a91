(* The run model against the kernel's own episode list. The kernel
   records (ep, crashed_at, recovered_at) at each restart with no
   observer attached; the run model derives episodes from the event
   stream. Both must agree on every run, and the stream must satisfy
   the invariants the single episode definition relies on. *)

let specs =
  [ "enhanced"; "pessimistic"; "stateless"; "naive";
    "enhanced,ds=pessimistic,vfs=stateless" ]

let workloads = [ "quickstart"; "suite"; "workgen" ]
let crash_targets = [ "none"; "pm"; "vfs"; "vm"; "ds"; "rs" ]

type ep_state = { mutable open_ : bool; mutable rollback : bool }

(* Invariants checked on the raw stream, independently of the model:
   every E_msg carries a fresh rid, no server crashes while its episode
   is open, and every rollback begins and ends inside an open episode. *)
let check_invariants ~label events =
  let rids = Hashtbl.create 1024 in
  let eps = Hashtbl.create 8 in
  let state ep =
    match Hashtbl.find_opt eps ep with
    | Some s -> s
    | None ->
      let s = { open_ = false; rollback = false } in
      Hashtbl.replace eps ep s;
      s
  in
  let fail what = Alcotest.failf "%s: %s" label what in
  List.iter
    (function
      | Kernel.E_msg { rid; _ } ->
        if Hashtbl.mem rids rid then
          fail (Printf.sprintf "rid %d delivered twice" rid);
        Hashtbl.replace rids rid ()
      | Kernel.E_crash { ep; time; _ } ->
        let s = state ep in
        if s.open_ then
          fail (Printf.sprintf "%s crashed at %d inside an open episode"
                  (Endpoint.server_name ep) time);
        s.open_ <- true
      | Kernel.E_rollback_begin { ep; time; _ } ->
        let s = state ep in
        if not s.open_ then
          fail (Printf.sprintf "rollback of %s at %d outside an episode"
                  (Endpoint.server_name ep) time);
        s.rollback <- true
      | Kernel.E_rollback_end { ep; time; _ } ->
        let s = state ep in
        if not (s.open_ && s.rollback) then
          fail (Printf.sprintf "rollback end of %s at %d outside a rollback"
                  (Endpoint.server_name ep) time);
        s.rollback <- false
      | Kernel.E_restart { ep; _ } ->
        let s = state ep in
        s.open_ <- false;
        s.rollback <- false
      | _ -> ())
    events

let closed_episodes model =
  List.filter_map
    (fun (e : Runmodel.episode) ->
       if Runmodel.closed e then Some (e.e_ep, e.e_crash, e.e_restart)
       else None)
    (Runmodel.episodes model)

let triple = Alcotest.(list (triple int int int))

(* Feed the model live from the hook and keep the stream for the
   invariant check; the model built from the list must be the same. *)
let check_run ~label ~run =
  let live = Runmodel.create () in
  let events = ref [] in
  let kernel =
    run (fun ev ->
        Runmodel.observe live ev;
        events := ev :: !events)
  in
  let events = List.rev !events in
  check_invariants ~label events;
  let kernel_eps = List.rev (Kernel.recovery_episodes kernel) in
  Alcotest.check triple (label ^ ": live model = kernel") kernel_eps
    (closed_episodes (Runmodel.finish live));
  Alcotest.check triple (label ^ ": replayed model = kernel") kernel_eps
    (closed_episodes (Runmodel.of_list events));
  List.length kernel_eps

let test_matrix () =
  let episodes = ref 0 in
  List.iter
    (fun spec ->
       List.iter
         (fun workload ->
            List.iter
              (fun crash ->
                 List.iter
                   (fun count ->
                      let header =
                        match
                          Flight.make_header ~spec ~workload ~crash
                            ~crash_count:count ()
                        with
                        | Ok h -> h
                        | Error m -> Alcotest.fail m
                      in
                      let label =
                        Printf.sprintf "%s/%s/%s/%d" spec workload crash count
                      in
                      episodes :=
                        !episodes
                        + check_run ~label ~run:(fun hook ->
                            System.kernel
                              (fst (Flight.run ~event_hook:hook header))))
                   [ 1; 3 ])
              crash_targets)
         workloads)
    specs;
  (* 90 episodes at the time of writing: guard against a vacuous
     matrix, not against cost-model drift. *)
  Alcotest.(check bool) "the matrix recovers crashes" true (!episodes > 50)

(* A small fail-stop campaign slice: the suite under one armed EDFI
   site per run, crashes landing wherever the site is. The first 24
   sites of the campaign's rank order include loop-code crashes
   (rid 0) and crashes outside a recovery window (no rollback). *)
let test_campaign_slice () =
  let sites =
    Campaign.select_sites ~sample:24 (Campaign.profile_sites Policy.enhanced)
  in
  let episodes = ref 0 in
  List.iter
    (fun spec ->
       let conf =
         match Sysconf.parse spec with Ok c -> c | Error m -> Alcotest.fail m
       in
       List.iter
         (fun site ->
            let label = spec ^ "@" ^ Kernel.site_to_string site in
            episodes :=
              !episodes
              + check_run ~label ~run:(fun hook ->
                  let sys = System.build ~event_hook:hook conf in
                  let k = System.kernel sys in
                  Kernel.arm k [ (site, Edfi.action_for Edfi.Fail_stop site) ];
                  ignore (System.run sys ~root:Testsuite.driver : Kernel.halt);
                  k))
         sites)
    [ "enhanced"; "pessimistic"; "stateless"; "naive" ];
  Alcotest.(check bool) "the slice recovers crashes" true (!episodes > 10)

let () =
  Alcotest.run "osiris_runmodel"
    [ ( "episodes",
        [ Alcotest.test_case "spec x workload x crash matrix" `Slow test_matrix;
          Alcotest.test_case "fail-stop campaign slice" `Quick
            test_campaign_slice ] ) ]
