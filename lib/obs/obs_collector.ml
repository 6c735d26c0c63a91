type t = {
  mutable evs : Kernel.event array;
  mutable n : int;
}

let dummy_event = Kernel.E_halt { time = 0; halt = Kernel.H_hang }

let create () = { evs = Array.make 1024 dummy_event; n = 0 }

let record t ev =
  if t.n = Array.length t.evs then begin
    let bigger = Array.make (2 * t.n) dummy_event in
    Array.blit t.evs 0 bigger 0 t.n;
    t.evs <- bigger
  end;
  t.evs.(t.n) <- ev;
  t.n <- t.n + 1

let events t = Array.to_list (Array.sub t.evs 0 t.n)

let count t = t.n

let clear t = t.n <- 0

(* Endpoint columns are 8 wide: long server names ("user100" is 7
   chars, bdev/mfs are shorter) keep the arrows aligned. *)
let pp_event = function
  | Kernel.E_msg { time; src; dst; tag; call; rid; parent; cls = _ } ->
    Printf.sprintf "%10d  %-8s -> %-8s %s%s [rid %d%s]" time
      (Endpoint.server_name src) (Endpoint.server_name dst)
      (Message.Tag.to_string tag)
      (if call then " (call)" else "")
      rid
      (if parent = 0 then "" else Printf.sprintf " < %d" parent)
  | Kernel.E_reply { time; src; dst; tag = _; rid } ->
    Printf.sprintf "%10d  %-8s => %-8s reply [rid %d]" time
      (Endpoint.server_name src) (Endpoint.server_name dst) rid
  | Kernel.E_window_open { time; ep; rid } ->
    Printf.sprintf "%10d  %-8s window open [rid %d]" time
      (Endpoint.server_name ep) rid
  | Kernel.E_window_close { time; ep; rid; policy } ->
    Printf.sprintf "%10d  %-8s window close%s [rid %d]" time
      (Endpoint.server_name ep)
      (if policy then " (policy)" else "")
      rid
  | Kernel.E_checkpoint { time; ep; rid; cycles } ->
    Printf.sprintf "%10d  %-8s checkpoint (%d cycles) [rid %d]" time
      (Endpoint.server_name ep) cycles rid
  | Kernel.E_store_logged { time; ep; rid; bytes } ->
    Printf.sprintf "%10d  %-8s store logged (%dB) [rid %d]" time
      (Endpoint.server_name ep) bytes rid
  | Kernel.E_kcall { time; ep; rid; kc } ->
    Printf.sprintf "%10d  %-8s kcall %s [rid %d]" time
      (Endpoint.server_name ep) kc rid
  | Kernel.E_crash { time; ep; reason; window_open; rid; policy } ->
    Printf.sprintf "%10d  CRASH %s (%s) window=%s policy=%s [rid %d]" time
      (Endpoint.server_name ep) reason
      (if window_open then "open" else "closed")
      policy rid
  | Kernel.E_hang_detected { time; ep } ->
    Printf.sprintf "%10d  HANG %s" time (Endpoint.server_name ep)
  | Kernel.E_rollback_begin { time; ep; rid } ->
    Printf.sprintf "%10d  %-8s rollback begin [rid %d]" time
      (Endpoint.server_name ep) rid
  | Kernel.E_rollback_end { time; ep; rid; bytes } ->
    Printf.sprintf "%10d  %-8s rollback end (%dB) [rid %d]" time
      (Endpoint.server_name ep) bytes rid
  | Kernel.E_restart { time; ep; rid; policy } ->
    Printf.sprintf "%10d  RESTART %s policy=%s [rid %d]" time
      (Endpoint.server_name ep) policy rid
  | Kernel.E_halt { time; halt } ->
    Printf.sprintf "%10d  HALT %s" time (Kernel.halt_to_string halt)
  | Kernel.E_spawn { time; ep; parent } ->
    Printf.sprintf "%10d  SPAWN %s parent=%s" time
      (Endpoint.server_name ep) (Endpoint.server_name parent)

let touches ep = function
  | Kernel.E_msg { src; dst; _ } | Kernel.E_reply { src; dst; _ } ->
    src = ep || dst = ep
  | Kernel.E_crash { ep = e; _ }
  | Kernel.E_restart { ep = e; _ }
  | Kernel.E_window_open { ep = e; _ }
  | Kernel.E_window_close { ep = e; _ }
  | Kernel.E_checkpoint { ep = e; _ }
  | Kernel.E_store_logged { ep = e; _ }
  | Kernel.E_kcall { ep = e; _ }
  | Kernel.E_hang_detected { ep = e; _ }
  | Kernel.E_rollback_begin { ep = e; _ }
  | Kernel.E_rollback_end { ep = e; _ }
  | Kernel.E_spawn { ep = e; _ } -> e = ep
  | Kernel.E_halt _ -> true

let timeline ?only ~last t =
  let from = t.n - min t.n (max 0 last) in
  let evs = List.init (t.n - from) (fun i -> t.evs.(from + i)) in
  let evs =
    match only with None -> evs | Some ep -> List.filter (touches ep) evs
  in
  List.map pp_event evs
