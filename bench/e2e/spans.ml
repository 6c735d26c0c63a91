(* Bench-side spans around the calls into each layer. They are kept in
   memory and written once, at exit, as Chrome/Perfetto trace JSON; a
   span's self time is its duration minus the part of it that its
   children cover. *)

type span = {
  id : int;
  parent : int;  (* 0 at a root *)
  name : string;
  tid : int;
  t0 : float;    (* host ns *)
  t1 : float;
}

(* One recorder per domain. Recorders made inside pool tasks take a
   distinct [base] so ids stay unique once merged. *)
type t = { mutable next : int; mutable spans : span list; tid : int }

let create ?(base = 1) ~tid () = { next = base; spans = []; tid }

let with_ r ~parent name f =
  let id = r.next in
  r.next <- id + 1;
  let t0 = Meter.now_ns () in
  let v = f id in
  r.spans <- { id; parent; name; tid = r.tid; t0; t1 = Meter.now_ns () } :: r.spans;
  v

let add r s = r.spans <- s :: r.spans

let to_chrome r =
  let b = Buffer.create 65536 in
  Buffer.add_string b "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  List.iteri
    (fun i s ->
       if i > 0 then Buffer.add_string b ",\n";
       Printf.bprintf b
         "{\"name\":%s,\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d}}"
         (Chrome_trace.escaped s.name) s.tid
         ((s.t0 -. Meter.epoch_ns) /. 1e3)
         ((s.t1 -. s.t0) /. 1e3)
         s.id s.parent)
    (List.sort (fun a b -> compare (a.t0, a.id) (b.t0, b.id)) r.spans);
  Buffer.add_string b "]}\n";
  Buffer.contents b

(* Per span name: (count, total ms, self ms), sorted by name. *)
let self_times r =
  let kids = Hashtbl.create 1024 in
  List.iter (fun s -> if s.parent <> 0 then Hashtbl.add kids s.parent s) r.spans;
  let covered s =
    let cs =
      List.sort (fun a b -> compare a.t0 b.t0) (Hashtbl.find_all kids s.id)
    in
    let total = ref 0. and hi = ref s.t0 in
    List.iter
      (fun c ->
         let a = Float.max c.t0 !hi and z = Float.min c.t1 s.t1 in
         if z > a then total := !total +. (z -. a);
         hi := Float.max !hi z)
      cs;
    !total
  in
  let by_name = Hashtbl.create 16 in
  List.iter
    (fun s ->
       let n, tot, self =
         Option.value ~default:(0, 0., 0.) (Hashtbl.find_opt by_name s.name)
       in
       let d = s.t1 -. s.t0 in
       Hashtbl.replace by_name s.name
         (n + 1, tot +. (d /. 1e6), self +. ((d -. covered s) /. 1e6)))
    r.spans;
  List.sort compare
    (Hashtbl.fold (fun name (n, tot, self) acc -> (name, n, tot, self) :: acc)
       by_name [])
