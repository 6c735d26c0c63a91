let workloads =
  [ "quickstart", "short fixed IPC exercise (the obs/trace default)";
    "suite", "the full prototype regression suite driver";
    "workgen", "seed-derived synthetic workload (Workgen.generate)" ]

let workload ~name ~seed =
  match name with
  | "quickstart" -> Ok Workgen.quickstart
  | "suite" -> Ok Testsuite.driver
  | "workgen" -> Ok (Workgen.generate ~seed ())
  | _ ->
    Error
      (Printf.sprintf "unknown workload %S (known: %s)" name
         (String.concat ", " (List.map fst workloads)))

let server_of_name = function
  | "pm" -> Some Endpoint.pm
  | "vfs" -> Some Endpoint.vfs
  | "vm" -> Some Endpoint.vm
  | "ds" -> Some Endpoint.ds
  | "rs" -> Some Endpoint.rs
  | _ -> None

(* The hook sites [ep] alone and removes itself at its last crash, so
   every other server, and [ep] after that, runs unsited. *)
let arm_crash ?(count = 1) kernel = function
  | Some ep when count > 0 ->
    let left = ref count in
    Kernel.set_fault_hook ~scope:[ ep ] kernel
      (Some
         (fun site ->
            if site.Kernel.site_kind = Kernel.Op_reply
               && Kernel.window_is_open kernel ep
            then begin
              decr left;
              if !left = 0 then Kernel.set_fault_hook kernel None;
              Some (Kernel.F_crash "injected for tracing")
            end
            else None))
  | _ -> ()

let perturbed_costs arch =
  let base = Kernel.costs_of_arch arch in
  { base with Costs.c_reply = base.Costs.c_reply + 1 }

(* Everything [run]/[record] need from a header, validated in one
   place so the two paths cannot drift. *)
let resolve header =
  match Sysconf.parse header.Journal.jh_spec with
  | Error m -> Error (Printf.sprintf "bad spec %S: %s" header.Journal.jh_spec m)
  | Ok conf ->
    (match workload ~name:header.Journal.jh_workload
             ~seed:header.Journal.jh_seed with
     | Error m -> Error m
     | Ok root ->
       if header.Journal.jh_crash = "none" then Ok (conf, root, None)
       else
         (match server_of_name header.Journal.jh_crash with
          | Some ep -> Ok (conf, root, Some ep)
          | None ->
            Error
              (Printf.sprintf "unknown crash server %S"
                 header.Journal.jh_crash)))

let make_header ?(arch = Kernel.Microkernel) ?(seed = 42) ?(spec = "enhanced")
    ?(workload = "quickstart") ?(crash = "none") ?(crash_count = 1) () =
  let header =
    { Journal.jh_version = Journal.version;
      jh_seed = seed;
      jh_arch = arch;
      jh_spec = spec;
      jh_workload = workload;
      jh_crash = crash;
      jh_crash_count = crash_count;
      jh_cost_fingerprint = Costs.fingerprint (Kernel.costs_of_arch arch) }
  in
  match resolve header with Ok _ -> Ok header | Error m -> Error m

let run_resolved ?costs ?event_hook ?journal ?profiler ?telemetry header
    (conf, root, crash) =
  let sys =
    System.build ~arch:header.Journal.jh_arch ~seed:header.Journal.jh_seed
      ?costs ?event_hook ?journal ?profiler ?telemetry conf
  in
  arm_crash ~count:header.Journal.jh_crash_count (System.kernel sys) crash;
  (sys, System.run sys ~root)

let run ?costs ?event_hook ?profiler ?telemetry header =
  match resolve header with
  | Error m -> invalid_arg ("Flight.run: " ^ m)
  | Ok resolved ->
    run_resolved ?costs ?event_hook ?profiler ?telemetry header resolved

type recording = {
  rec_halt : Kernel.halt;
  rec_records : int;
  rec_bytes : int;
  rec_snapshots : int;
}

(* Sidecar indexing at record time is a post-pass over the encoded
   bytes — the same [Journal.build_index] the [osiris index] rebuild
   runs, so the two paths cannot produce different sidecars. The
   summary scan is a small fraction of the run itself (the <5% gate in
   bench/query_bench.ml). *)
let write_sidecar ~path encoded =
  (* [encoded] was produced by this process moments ago, so the
     per-record CRC re-verification is skipped; [osiris index] rebuilds
     from disk keep it. *)
  match Journal.build_index ~verify_crc:false encoded with
  | Ok ix ->
    Journal.write_index_file ~path:(path ^ Journal.index_suffix) ix;
    Ok ()
  | Error m -> Error m

(* Ring mode's bounded memory: the newest [Array.length slots] events,
   and a copy of them taken at every E_crash (the crash is its newest
   event). A later crash replaces the copy, so the spill is the history
   leading up to the newest crash even though recovery traffic keeps
   evicting slots afterwards. *)
type ring = {
  slots : Kernel.event array;
  mutable next : int;
  mutable seen : int;
  mutable frozen : Kernel.event list;
  mutable crashes : int;
}

let ring_create capacity =
  let blank = Kernel.E_halt { time = 0; halt = Kernel.H_hang } in
  { slots = Array.make (max 1 capacity) blank;
    next = 0; seen = 0; frozen = []; crashes = 0 }

(* Oldest first: the occupied window ends just before [next]. *)
let ring_contents r =
  let cap = Array.length r.slots in
  let n = min r.seen cap in
  List.init n (fun i -> r.slots.((r.next - n + i + cap) mod cap))

let ring_record r ev =
  r.slots.(r.next) <- ev;
  r.next <- (r.next + 1) mod Array.length r.slots;
  r.seen <- r.seen + 1;
  match ev with
  | Kernel.E_crash _ ->
    r.frozen <- ring_contents r;
    r.crashes <- r.crashes + 1
  | _ -> ()

let record ~path ?ring ?costs ?(index = true) header =
  match resolve header with
  | Error m -> Error m
  | Ok resolved ->
    (match ring with
     | None when index ->
       (* The sidecar builder needs the encoded bytes anyway, so record
          into memory and write the file once rather than streaming to
          disk and reading it straight back. *)
       let w = Journal.to_memory header in
       let _, halt = run_resolved ?costs ~journal:w header resolved in
       Journal.close w;
       let encoded = Journal.contents w in
       (try
          Out_channel.with_open_bin path (fun oc ->
              Out_channel.output_string oc encoded);
          match write_sidecar ~path encoded with
          | Error m -> Error ("index: " ^ m)
          | Ok () ->
            Ok
              { rec_halt = halt;
                rec_records = Journal.records_written w;
                rec_bytes = Journal.bytes_written w;
                rec_snapshots = 0 }
        with Sys_error m -> Error m)
     | None ->
       let w = Journal.to_file ~path header in
       let _, halt = run_resolved ?costs ~journal:w header resolved in
       Journal.close w;
       Ok
         { rec_halt = halt;
           rec_records = Journal.records_written w;
           rec_bytes = Journal.bytes_written w;
           rec_snapshots = 0 }
     | Some capacity ->
       let r = ring_create capacity in
       let _, halt =
         run_resolved ?costs ~event_hook:(ring_record r) header resolved
       in
       (* Spill the crash snapshot — or, with no crash, the final ring
          contents, so the run's tail is preserved either way. *)
       let events = if r.crashes > 0 then r.frozen else ring_contents r in
       let encoded = Journal.of_events header events in
       (try
          Out_channel.with_open_bin path (fun oc ->
              Out_channel.output_string oc encoded);
          match (if index then write_sidecar ~path encoded else Ok ()) with
          | Error m -> Error ("index: " ^ m)
          | Ok () ->
            Ok
              { rec_halt = halt;
                rec_records = List.length events;
                rec_bytes = String.length encoded;
                rec_snapshots = r.crashes }
        with Sys_error m -> Error m))

(* Replay re-executes under the header arch's table unless [costs]
   overrides it (the perturbation fixture), and the outcome's
   fingerprint check is against that same table. *)
let replay_table ?costs header =
  Option.value costs ~default:(Kernel.costs_of_arch header.Journal.jh_arch)

let replay ?costs header events =
  let costs = replay_table ?costs header in
  Replay.run
    ~exec:(fun h ~hook -> snd (run ~costs ~event_hook:hook h))
    ~cost_fingerprint:(Costs.fingerprint costs) header events

let replay_stream ?costs header ~next =
  let costs = replay_table ?costs header in
  Replay.run_stream
    ~exec:(fun h ~hook -> snd (run ~costs ~event_hook:hook h))
    ~cost_fingerprint:(Costs.fingerprint costs) header ~next
