module Rng = Osiris_util.Rng

type arrival = Poisson | Bursty of { on_mean : int; off_mean : int }

type mix = {
  mix_file : int;
  mix_ds : int;
  mix_pipe : int;
  mix_mem : int;
  mix_exec : int;
}

let default_mix =
  { mix_file = 4; mix_ds = 3; mix_pipe = 2; mix_mem = 2; mix_exec = 1 }

type spec = {
  l_seed : int;
  l_requests : int;
  l_rate : int;
  l_arrival : arrival;
  l_mix : mix;
  l_keys : int;
  l_zipf : float;
}

let default_spec =
  { l_seed = 42;
    l_requests = 200;
    l_rate = 20_000;
    l_arrival = Poisson;
    l_mix = default_mix;
    l_keys = 64;
    l_zipf = 1.1 }

(* Same scaled clock as Costs.scaled_ghz (2.3 GHz). *)
let cycles_per_second = 2_300_000_000

(* ---------------- distributions -------------------------------- *)

let zipf_cdf ~n ~s =
  let a = Array.make (max n 1) 0.0 in
  let acc = ref 0.0 in
  for i = 0 to max n 1 - 1 do
    acc := !acc +. (1.0 /. (float_of_int (i + 1) ** s));
    a.(i) <- !acc
  done;
  a

let zipf_pick rng cdf =
  let n = Array.length cdf in
  let u = Rng.float rng cdf.(n - 1) in
  (* first index with cdf.(i) > u *)
  let rec go lo hi =
    if lo >= hi then lo
    else begin
      let mid = (lo + hi) / 2 in
      if cdf.(mid) > u then go lo mid else go (mid + 1) hi
    end
  in
  go 0 (n - 1)

(* Exponential draw with the given mean (cycles), >= 1. *)
let exp_draw rng mean =
  let u = Rng.float rng 1.0 in
  1 + int_of_float (-.mean *. log (1.0 -. u))

let arrivals spec =
  let rng = Rng.create spec.l_seed in
  let gap_mean = float_of_int cycles_per_second /. float_of_int spec.l_rate in
  match spec.l_arrival with
  | Poisson ->
    let t = ref 0 in
    Array.init spec.l_requests (fun _ ->
        t := !t + exp_draw rng gap_mean;
        !t)
  | Bursty { on_mean; off_mean } ->
    (* Arrivals only during ON phases, at the duty-compensated rate,
       so the long-run offered load still averages [l_rate]. *)
    let duty =
      float_of_int on_mean /. float_of_int (on_mean + off_mean)
    in
    let intra = gap_mean *. duty in
    let t = ref 0 in
    let on_end = ref (exp_draw rng (float_of_int on_mean)) in
    Array.init spec.l_requests (fun _ ->
        t := !t + exp_draw rng intra;
        while !t > !on_end do
          let off = exp_draw rng (float_of_int off_mean) in
          let next_on = exp_draw rng (float_of_int on_mean) in
          t := !t + off;
          on_end := !on_end + off + next_on
        done;
        !t)

(* ---------------- request programs ----------------------------- *)

(* Exit codes: 0 ok; 75 shed at connect (EX_TEMPFAIL); 1-5 per-class
   service failure. *)
let shed_code = 75

let with_session body () =
  let a = Syscall.adopt () in
  if a < 0 then Syscall.exit shed_code else Syscall.exit (body ())

let file_request ~key ~size () =
  let path = Printf.sprintf "/tmp/ld%d" key in
  let data = String.make size 'x' in
  let fd = Syscall.open_ path Message.creat in
  if fd < 0 then 1
  else begin
    let w = Syscall.write ~fd data in
    let _ = Syscall.lseek ~fd ~off:0 Message.Seek_set in
    let r = Syscall.read ~fd ~len:size in
    let c = Syscall.close fd in
    (* Hot paths are shared: a concurrent request may interleave, so
       success is "every call succeeded", not "read back my bytes". *)
    match r with Ok _ when w >= 0 && c >= 0 -> 0 | _ -> 1
  end

let ds_request ~key ~value () =
  let k = Printf.sprintf "ld.%d" key in
  let p = Syscall.ds_publish ~key:k ~value in
  let r = Syscall.ds_retrieve ~key:k in
  match r with Ok _ when p >= 0 -> 0 | _ -> 2

let pipe_request ~size () =
  let data = String.make size 'p' in
  match Syscall.pipe () with
  | Error _ -> 3
  | Ok (rfd, wfd) ->
    let w = Syscall.write ~fd:wfd data in
    let r = Syscall.read ~fd:rfd ~len:size in
    let _ = Syscall.close rfd in
    let _ = Syscall.close wfd in
    (match r with Ok _ when w >= 0 -> 0 | _ -> 3)

let mem_request ~size () =
  let b0 = Syscall.brk_current () in
  let b1 = Syscall.sbrk size in
  if b1 = b0 + size then 0 else 4

let exec_request () =
  let pid =
    Syscall.fork (fun () ->
        let _ = Syscall.exec "/bin/true" 0 in
        Syscall.exit 5)
  in
  if pid < 0 then 5
  else
    let _, status = Syscall.waitpid pid in
    if status = 0 then 0 else 5

(* ---------------- planning and injection ----------------------- *)

type request = {
  rq_idx : int;
  rq_arrival : int;
  rq_class : string;
  rq_ep : Endpoint.t;
}

let pick_class rng m =
  let total = m.mix_file + m.mix_ds + m.mix_pipe + m.mix_mem + m.mix_exec in
  let total = if total <= 0 then 1 else total in
  let d = Rng.int rng total in
  if d < m.mix_file then `File
  else if d < m.mix_file + m.mix_ds then `Ds
  else if d < m.mix_file + m.mix_ds + m.mix_pipe then `Pipe
  else if d < m.mix_file + m.mix_ds + m.mix_pipe + m.mix_mem then `Mem
  else `Exec

let inject k spec =
  let arr = arrivals spec in
  (* Service-mix/popularity stream: split off the arrival stream so
     adding requests does not shift arrival times. *)
  let rng = Rng.create (spec.l_seed lxor 0x10adc0de) in
  let cdf = zipf_cdf ~n:(max spec.l_keys 1) ~s:spec.l_zipf in
  (* PM pre-registers Endpoint.first_user as init at boot; the first
     spawn takes that endpoint, so occupy it with a trivial root
     before the request processes adopt themselves. *)
  let (_ : Endpoint.t) =
    Kernel.spawn_user k ~name:"init" ~prog:(fun () -> Syscall.exit 0)
      ~parent:0
  in
  let reqs =
    Array.init spec.l_requests (fun i ->
        let cls = pick_class rng spec.l_mix in
        let key = zipf_pick rng cdf in
        let size = 8 + Rng.int rng 56 in
        let name, prog =
          match cls with
          | `File -> ("file", with_session (file_request ~key ~size))
          | `Ds -> ("ds", with_session (ds_request ~key ~value:i))
          | `Pipe -> ("pipe", with_session (pipe_request ~size))
          | `Mem -> ("mem", with_session (mem_request ~size:(size * 64)))
          | `Exec -> ("exec", with_session exec_request)
        in
        let ep =
          Kernel.spawn_user_at k ~at:arr.(i)
            ~name:(Printf.sprintf "ld%d" i) ~prog ~parent:0
        in
        { rq_idx = i; rq_arrival = arr.(i); rq_class = name; rq_ep = ep })
  in
  Kernel.set_halt_on_drain k;
  reqs

(* ---------------- collection ----------------------------------- *)

type outcome = {
  o_spec_rate : int;
  o_requests : int;
  o_completed : int;
  o_ok : int;
  o_shed : int;
  o_makespan : int;
  o_latencies : int array;
  o_lat_pairs : (int * int) list;
}

let collect k reqs =
  let completed = ref 0 and ok = ref 0 and shed = ref 0 in
  let makespan = ref 0 in
  let lats = ref [] and pairs = ref [] in
  Array.iter
    (fun rq ->
       match Kernel.user_exit k rq.rq_ep with
       | None -> ()
       | Some (status, at) ->
         incr completed;
         if at > !makespan then makespan := at;
         if status = shed_code then incr shed
         else if status = 0 then begin
           incr ok;
           let lat = at - rq.rq_arrival in
           lats := lat :: !lats;
           pairs := (at, lat) :: !pairs
         end)
    reqs;
  let latencies = Array.of_list !lats in
  Array.sort compare latencies;
  { o_spec_rate = 0;
    o_requests = Array.length reqs;
    o_completed = !completed;
    o_ok = !ok;
    o_shed = !shed;
    o_makespan = !makespan;
    o_latencies = latencies;
    o_lat_pairs = !pairs }

let goodput_rps o =
  if o.o_makespan <= 0 then 0
  else
    (* ok * cps / makespan, reassociated to dodge overflow only when
       safe: ok is small, cps ~2^31, makespan can be ~2^31 — the
       product fits 63-bit ints comfortably. *)
    o.o_ok * cycles_per_second / o.o_makespan

let percentile a ~num ~den =
  let n = Array.length a in
  if n = 0 then 0 else a.(Osiris_util.Stats.rank ~num ~den n - 1)
