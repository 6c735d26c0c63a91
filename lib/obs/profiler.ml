module Tablefmt = Osiris_util.Tablefmt

type sample = {
  sa_ep : Endpoint.t;
  sa_ts : int;           (* process-local clock when the sample fired *)
  sa_phase : int array;  (* cumulative cycles per phase, Kernel.phase_index order *)
}

(* The counting itself lives in the kernel (per-process slot rows, see
   [Kernel.enable_cycle_counts]); this module is the view over those
   counters plus the optional counter-track sampler, which is the only
   consumer that needs the per-advance event stream. *)
type t = {
  mutable kernel : Kernel.t option;  (* set by [attach]; queries read it *)
  sample_every : int;  (* 0 = sampling off *)
  mutable samples : sample list;  (* newest first *)
  (* Sampler state, indexed by endpoint (grown on demand). *)
  mutable s_tot : int array;
  mutable s_next : int array;
}

let create ?(sample_every = 0) () =
  { kernel = None;
    sample_every;
    samples = [];
    s_tot = [||];
    s_next = [||] }

(* Slots grouped by phase, in registration (= detail-stable) order. *)
let phase_slots =
  let a = Array.make Kernel.n_phases [] in
  List.iter
    (fun s ->
       let pi = Kernel.phase_index (Kernel.slot_phase s) in
       a.(pi) <- s :: a.(pi))
    (List.rev Kernel.all_slots);
  a

let sum_slots f slots = List.fold_left (fun acc s -> acc + f s) 0 slots

let phase_cycles t ep phase =
  match t.kernel with
  | None -> 0
  | Some k ->
    sum_slots (Kernel.slot_cycles k ep) phase_slots.(Kernel.phase_index phase)

let proc_cycles t ep =
  match t.kernel with
  | None -> 0
  | Some k -> sum_slots (Kernel.slot_cycles k ep) Kernel.all_slots

let proc_events t ep =
  match t.kernel with
  | None -> 0
  | Some k -> sum_slots (Kernel.slot_events k ep) Kernel.all_slots

(* Every process the kernel knows: servers, then spawned users. *)
let known_endpoints kernel =
  let servers = Kernel.server_endpoints kernel in
  let users = ref [] in
  for i = Kernel.user_count kernel - 1 downto 0 do
    users := (Endpoint.first_user + i) :: !users
  done;
  servers @ !users

(* Compartments with attributed cycles, sorted. *)
let endpoints t =
  match t.kernel with
  | None -> []
  | Some k ->
    List.sort compare
      (List.filter (fun ep -> proc_cycles t ep > 0) (known_endpoints k))

let total_cycles t =
  List.fold_left (fun acc ep -> acc + proc_cycles t ep) 0 (endpoints t)

let total_phase t phase =
  List.fold_left (fun acc ep -> acc + phase_cycles t ep phase) 0 (endpoints t)

let n_records t =
  List.fold_left (fun acc ep -> acc + proc_events t ep) 0 (endpoints t)

let samples t = List.rev t.samples

(* ------------------------------------------------------------------ *)
(* Sampler (cycle-hook consumer; only installed when sampling is on)   *)
(* ------------------------------------------------------------------ *)

let phase_totals t ep =
  Array.init Kernel.n_phases
    (fun pi ->
       match t.kernel with
       | None -> 0
       | Some k -> sum_slots (Kernel.slot_cycles k ep) phase_slots.(pi))

let ensure_sampler t ep =
  if ep >= Array.length t.s_tot then begin
    let n = max (ep + 1) (max 128 (2 * Array.length t.s_tot)) in
    let tot = Array.make n 0 and next = Array.make n t.sample_every in
    Array.blit t.s_tot 0 tot 0 (Array.length t.s_tot);
    Array.blit t.s_next 0 next 0 (Array.length t.s_next);
    t.s_tot <- tot;
    t.s_next <- next
  end

let sample_hook t ep _slot c =
  ensure_sampler t ep;
  let tot = t.s_tot.(ep) + c in
  t.s_tot.(ep) <- tot;
  if tot >= t.s_next.(ep) then begin
    t.s_next.(ep) <- tot + t.sample_every;
    t.samples <-
      { sa_ep = ep; sa_ts = tot; sa_phase = phase_totals t ep } :: t.samples
  end

let attach t kernel =
  t.kernel <- Some kernel;
  Kernel.enable_cycle_counts kernel;
  if t.sample_every > 0 then
    Kernel.set_cycle_hook kernel (Some (sample_hook t))

(* ------------------------------------------------------------------ *)
(* Conservation                                                        *)
(* ------------------------------------------------------------------ *)

let check_conservation _t kernel =
  let errs = ref [] in
  List.iter
    (fun ep ->
       let want = Kernel.proc_vtime kernel ep in
       let got = sum_slots (Kernel.slot_cycles kernel ep) Kernel.all_slots in
       if want <> got then
         errs :=
           Printf.sprintf "%s: clock=%d attributed=%d (drift %+d)"
             (Endpoint.server_name ep) want got (got - want)
           :: !errs)
    (known_endpoints kernel);
  match List.rev !errs with
  | [] -> Ok ()
  | l -> Error (String.concat "; " l)

(* ------------------------------------------------------------------ *)
(* Rows and rendering                                                  *)
(* ------------------------------------------------------------------ *)

(* Non-zero (detail, cycles) pairs of [ep] in phase [pi], sorted by
   detail; slots sharing a (phase, detail) pair are merged. *)
let details_of t ep pi =
  match t.kernel with
  | None -> []
  | Some k ->
    let cells =
      List.filter_map
        (fun s ->
           let c = Kernel.slot_cycles k ep s in
           if c > 0 then Some (Kernel.slot_detail s, c) else None)
        phase_slots.(pi)
    in
    let sorted = List.sort compare cells in
    let rec merge = function
      | (d1, c1) :: (d2, c2) :: rest when String.equal d1 d2 ->
        merge ((d1, c1 + c2) :: rest)
      | x :: rest -> x :: merge rest
      | [] -> []
    in
    merge sorted

(* (endpoint, phase, detail, cycles) rows, deterministically sorted by
   endpoint, then phase index, then detail. *)
let rows t =
  let out = ref [] in
  List.iter
    (fun ep ->
       List.iter
         (fun ph ->
            List.iter
              (fun (d, c) -> out := (ep, ph, d, c) :: !out)
              (details_of t ep (Kernel.phase_index ph)))
         Kernel.all_phases)
    (endpoints t);
  List.rev !out

let report t =
  let eps = endpoints t in
  if eps = [] then ""
  else
    let rows_ =
      List.map
        (fun ep ->
           Endpoint.server_name ep
           :: List.map
                (fun ph -> string_of_int (phase_cycles t ep ph))
                Kernel.all_phases
           @ [ string_of_int (proc_cycles t ep) ])
        eps
    in
    let totals =
      "total"
      :: List.map (fun ph -> string_of_int (total_phase t ph))
           Kernel.all_phases
      @ [ string_of_int (total_cycles t) ]
    in
    Tablefmt.render ~title:"cycle attribution (virtual cycles)"
      ~header:
        ("compartment"
         :: List.map Kernel.phase_to_string Kernel.all_phases
         @ [ "total" ])
      ~align:
        (Tablefmt.Left
         :: List.map (fun _ -> Tablefmt.Right) Kernel.all_phases
         @ [ Tablefmt.Right ])
      (rows_ @ [ totals ])

let to_json t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\n  \"total_cycles\": ";
  Buffer.add_string buf (string_of_int (total_cycles t));
  Buffer.add_string buf ",\n  \"records\": ";
  Buffer.add_string buf (string_of_int (n_records t));
  Buffer.add_string buf ",\n  \"compartments\": [";
  let first_ep = ref true in
  List.iter
    (fun ep ->
       if !first_ep then first_ep := false else Buffer.add_char buf ',';
       Buffer.add_string buf "\n    {\"name\": ";
       Buffer.add_string buf (Chrome_trace.escaped (Endpoint.server_name ep));
       Buffer.add_string buf
         (Printf.sprintf ", \"ep\": %d, \"total\": %d" ep (proc_cycles t ep));
       Buffer.add_string buf ", \"phases\": {";
       let first_ph = ref true in
       List.iter
         (fun ph ->
            if !first_ph then first_ph := false else Buffer.add_string buf ", ";
            Buffer.add_string buf
              (Printf.sprintf "\"%s\": %d" (Kernel.phase_to_string ph)
                 (phase_cycles t ep ph)))
         Kernel.all_phases;
       Buffer.add_string buf "}, \"details\": {";
       let first_det = ref true in
       List.iter
         (fun ph ->
            List.iter
              (fun (d, c) ->
                 if !first_det then first_det := false
                 else Buffer.add_string buf ", ";
                 Buffer.add_string buf
                   (Chrome_trace.escaped
                      (Kernel.phase_to_string ph ^ ";" ^ d));
                 Buffer.add_string buf (Printf.sprintf ": %d" c))
              (details_of t ep (Kernel.phase_index ph)))
         Kernel.all_phases;
       Buffer.add_string buf "}}")
    (endpoints t);
  Buffer.add_string buf "\n  ]\n}\n";
  Buffer.contents buf
