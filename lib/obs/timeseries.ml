type kind = Gauge | Delta

type t = {
  ts_interval : int;
  cap : int;
  mask : int;   (* cap - 1; cap is a power of two *)
  (* Registration accumulators, reversed; frozen into the flat arrays
     below at attach / first sample. *)
  mutable reg : (string * kind * (unit -> int)) list;
  mutable n_reg : int;
  mutable frozen : bool;
  mutable attached : bool;
  mutable names : string array;
  mutable kinds : kind array;
  mutable reads : (unit -> int) array;
  mutable is_delta : bool array;
  mutable lasts : int array;  (* previous raw read, per source *)
  (* One flat backing array for every ring — source [i]'s slot for
     ring position [p] is [i * cap + p]. A single allocation at freeze
     (series setup is part of the attach-overhead gate) and one fewer
     indirection per store on the sampling hot path. *)
  mutable data : int array;
  mutable time_ring : int array;
  mutable total : int;              (* samples taken, monotonic *)
}

let rec pow2_at_least n acc = if acc >= n then acc else pow2_at_least n (acc * 2)

let create ?(interval = 4096) ?(capacity = 4096) () =
  if interval <= 0 then invalid_arg "Timeseries.create: interval must be positive";
  if capacity <= 0 then invalid_arg "Timeseries.create: capacity must be positive";
  let cap = pow2_at_least capacity 1 in
  { ts_interval = interval;
    cap;
    mask = cap - 1;
    reg = [];
    n_reg = 0;
    frozen = false;
    attached = false;
    names = [||];
    kinds = [||];
    reads = [||];
    is_delta = [||];
    lasts = [||];
    data = [||];
    time_ring = [||];
    total = 0 }

let interval t = t.ts_interval
let capacity t = t.cap

let add_source t ~name ~kind read =
  if t.frozen then
    invalid_arg "Timeseries.add_source: source set is frozen (already sampling)";
  if List.exists (fun (n, _, _) -> n = name) t.reg then
    invalid_arg ("Timeseries.add_source: duplicate source " ^ name);
  t.reg <- (name, kind, read) :: t.reg;
  t.n_reg <- t.n_reg + 1

let add_kernel_sources t k =
  add_source t ~name:"kernel.ops" ~kind:Delta (fun () -> Kernel.total_ops k);
  add_source t ~name:"kernel.delivered" ~kind:Delta
    (fun () -> Kernel.messages_delivered k);
  add_source t ~name:"kernel.crashes" ~kind:Delta (fun () -> Kernel.crashes k);
  add_source t ~name:"kernel.restarts" ~kind:Delta (fun () -> Kernel.restarts k);
  add_source t ~name:"kernel.shed" ~kind:Delta (fun () -> Kernel.shed_exits k);
  add_source t ~name:"kernel.runq" ~kind:Gauge
    (fun () -> Kernel.run_queue_depth k);
  List.iter
    (fun ep ->
       let name = Endpoint.server_name ep in
       (* Handle captured once: server records are stable for the
          kernel's lifetime, so the per-tick reads are field loads
          with no hashing. *)
       match Kernel.server_handle k ep with
       | Some h ->
         add_source t ~name:("srv." ^ name ^ ".inbox") ~kind:Gauge
           (fun () -> Kernel.handle_inbox_depth h);
         add_source t ~name:("srv." ^ name ^ ".alive") ~kind:Gauge
           (fun () -> if Kernel.handle_alive h then 1 else 0)
       | None -> ())
    (Kernel.server_endpoints k);
  List.iter
    (fun ph ->
       add_source t
         ~name:("phase." ^ Kernel.phase_to_string ph ^ ".cycles")
         ~kind:Delta
         (fun () -> Kernel.total_phase_cycles k ph))
    Kernel.all_phases

let freeze t =
  if not t.frozen then begin
    t.frozen <- true;
    let srcs = Array.of_list (List.rev t.reg) in
    t.reg <- [];
    let n = Array.length srcs in
    t.names <- Array.map (fun (nm, _, _) -> nm) srcs;
    t.kinds <- Array.map (fun (_, k, _) -> k) srcs;
    t.reads <- Array.map (fun (_, _, r) -> r) srcs;
    t.is_delta <- Array.map (fun (_, k, _) -> k = Delta) srcs;
    t.lasts <- Array.make (max n 1) 0;
    t.data <- Array.make (max 1 (n * t.cap)) 0;
    t.time_ring <- Array.make t.cap 0
  end

let sample t at =
  if not t.frozen then freeze t;
  let pos = t.total land t.mask in
  Array.unsafe_set t.time_ring pos at;
  let reads = t.reads in
  let data = t.data in
  let cap = t.cap in
  for i = 0 to Array.length reads - 1 do
    let v = (Array.unsafe_get reads i) () in
    let out =
      if Array.unsafe_get t.is_delta i then begin
        let d = v - Array.unsafe_get t.lasts i in
        Array.unsafe_set t.lasts i v;
        d
      end
      else v
    in
    Array.unsafe_set data ((i * cap) + pos) out
  done;
  t.total <- t.total + 1

let attach t k =
  if t.attached then invalid_arg "Timeseries.attach: already attached";
  if t.n_reg = 0 && not t.frozen then
    invalid_arg "Timeseries.attach: no sources registered";
  freeze t;
  t.attached <- true;
  Kernel.set_vtime_sampler k ~interval:t.ts_interval (Some (fun at -> sample t at))

let n_sources t = if t.frozen then Array.length t.names else t.n_reg

let source_names t =
  if t.frozen then Array.to_list t.names
  else List.rev_map (fun (n, _, _) -> n) t.reg

let source_kind t i =
  if not t.frozen then
    invalid_arg "Timeseries.source_kind: not frozen yet"
  else t.kinds.(i)

let index_of t name =
  let names = if t.frozen then t.names else Array.of_list (source_names t) in
  let rec go i =
    if i >= Array.length names then None
    else if names.(i) = name then Some i
    else go (i + 1)
  in
  go 0

let samples_taken t = t.total
let retained t = min t.total t.cap
let dropped t = t.total - retained t

(* Retained index [i] (oldest first) -> ring position. *)
let[@inline] ring_pos t i = (t.total - retained t + i) land t.mask

let time_at t i =
  if i < 0 || i >= retained t then invalid_arg "Timeseries.time_at";
  t.time_ring.(ring_pos t i)

let value_at t ~source i =
  if i < 0 || i >= retained t then invalid_arg "Timeseries.value_at";
  if source < 0 || source >= Array.length t.reads then
    invalid_arg "Timeseries.value_at: unknown source";
  t.data.((source * t.cap) + ring_pos t i)

let values t ~source =
  let n = retained t in
  if source < 0 || source >= Array.length t.reads then
    invalid_arg "Timeseries.values: unknown source";
  Array.init n (fun i -> t.data.((source * t.cap) + ring_pos t i))

let times t =
  let n = retained t in
  Array.init n (fun i -> t.time_ring.(ring_pos t i))

let kind_to_string = function Gauge -> "gauge" | Delta -> "delta"

let to_csv t =
  let b = Buffer.create 4096 in
  Buffer.add_string b "vtime";
  Array.iter
    (fun nm ->
       Buffer.add_char b ',';
       Buffer.add_string b nm)
    (if t.frozen then t.names else Array.of_list (source_names t));
  Buffer.add_char b '\n';
  let n = retained t in
  for i = 0 to n - 1 do
    Buffer.add_string b (string_of_int (time_at t i));
    for s = 0 to n_sources t - 1 do
      Buffer.add_char b ',';
      Buffer.add_string b (string_of_int (value_at t ~source:s i))
    done;
    Buffer.add_char b '\n'
  done;
  Buffer.contents b

let add_int_array b vals =
  Buffer.add_char b '[';
  Array.iteri
    (fun i v ->
       if i > 0 then Buffer.add_char b ',';
       Buffer.add_string b (string_of_int v))
    vals;
  Buffer.add_char b ']'

let to_json t =
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\"interval\":";
  Buffer.add_string b (string_of_int t.ts_interval);
  Buffer.add_string b ",\"samples\":";
  Buffer.add_string b (string_of_int t.total);
  Buffer.add_string b ",\"retained\":";
  Buffer.add_string b (string_of_int (retained t));
  Buffer.add_string b ",\"dropped\":";
  Buffer.add_string b (string_of_int (dropped t));
  Buffer.add_string b ",\"times\":";
  add_int_array b (times t);
  Buffer.add_string b ",\"series\":[";
  let names = if t.frozen then t.names else Array.of_list (source_names t) in
  Array.iteri
    (fun s nm ->
       if s > 0 then Buffer.add_char b ',';
       Buffer.add_string b "{\"name\":";
       Buffer.add_string b (Chrome_trace.escaped nm);
       Buffer.add_string b ",\"kind\":\"";
       Buffer.add_string b
         (kind_to_string (if t.frozen then t.kinds.(s) else Gauge));
       Buffer.add_string b "\",\"values\":";
       add_int_array b (if t.frozen then values t ~source:s else [||]);
       Buffer.add_char b '}')
    names;
  Buffer.add_string b "]}";
  Buffer.contents b
