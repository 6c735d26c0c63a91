(* Binary journal codec: varint payloads, per-record CRC framing.
   See the .mli for the wire layout. *)

type header = {
  jh_version : int;
  jh_seed : int;
  jh_arch : Kernel.arch;
  jh_spec : string;
  jh_workload : string;
  jh_crash : string;
  jh_crash_count : int;
  jh_cost_fingerprint : int;
}

let version = 1

let magic = "OSIRJNL1"

let header_to_string h =
  Printf.sprintf
    "v%d seed=%d arch=%s spec=%s workload=%s crash=%s/%d costs=%x"
    h.jh_version h.jh_seed
    (match h.jh_arch with Kernel.Microkernel -> "microkernel" | Kernel.Monolithic -> "monolithic")
    h.jh_spec h.jh_workload h.jh_crash h.jh_crash_count h.jh_cost_fingerprint

(* ------------------------------------------------------------------ *)
(* CRC-32 (IEEE 802.3, reflected, poly 0xEDB88320)                     *)
(* ------------------------------------------------------------------ *)

let crc_table =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 0 to 7 do
        c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
      done;
      !c)

(* Slicing-by-4 companion tables: t.(k).(i) advances the CRC of byte
   [i] through [k] further zero bytes, letting 4 input bytes fold in
   with 4 independent table loads instead of a 4-long serial chain. *)
let crc_tables =
  let t = Array.make_matrix 4 256 0 in
  t.(0) <- crc_table;
  for k = 1 to 3 do
    for i = 0 to 255 do
      let p = t.(k - 1).(i) in
      t.(k).(i) <- crc_table.(p land 0xff) lxor (p lsr 8)
    done
  done;
  t

let crc32 b ~off ~len =
  let t0 = crc_tables.(0) and t1 = crc_tables.(1)
  and t2 = crc_tables.(2) and t3 = crc_tables.(3) in
  let c = ref 0xFFFFFFFF in
  let i = ref off in
  let stop4 = off + (len land lnot 3) in
  while !i < stop4 do
    let w =
      Char.code (Bytes.unsafe_get b !i)
      lor (Char.code (Bytes.unsafe_get b (!i + 1)) lsl 8)
      lor (Char.code (Bytes.unsafe_get b (!i + 2)) lsl 16)
      lor (Char.code (Bytes.unsafe_get b (!i + 3)) lsl 24)
    in
    let x = !c lxor w in
    c :=
      Array.unsafe_get t3 (x land 0xff)
      lxor Array.unsafe_get t2 ((x lsr 8) land 0xff)
      lxor Array.unsafe_get t1 ((x lsr 16) land 0xff)
      lxor Array.unsafe_get t0 ((x lsr 24) land 0xff);
    i := !i + 4
  done;
  for j = !i to off + len - 1 do
    c :=
      Array.unsafe_get crc_table
        ((!c lxor Char.code (Bytes.unsafe_get b j)) land 0xff)
      lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF

let crc32_string s ~off ~len = crc32 (Bytes.unsafe_of_string s) ~off ~len

(* ------------------------------------------------------------------ *)
(* Writer                                                              *)
(* ------------------------------------------------------------------ *)

type sink = S_mem of Buffer.t | S_file of out_channel

(* The record framer's state: the staging buffer and the counts of
   what has gone through it. The journal writer owns one; the sidecar
   index is written through one of its own. *)
type framer = {
  sink : sink;
  mutable out : Bytes.t;      (* staging buffer: whole framed records *)
  mutable opos : int;
  mutable n_records : int;
  mutable n_bytes : int;
}

(* Deferred per-record CRCs: [finish_record] leaves each record's 4
   CRC bytes unfilled and this pass patches them just before the
   staging buffer is emitted. Touching ~4600 staged records in one
   sequential sweep keeps the 8 KiB slicing tables L1-hot for the
   whole batch. The sweep re-parses the staging buffer, which only
   ever holds whole records: every drain happens at a record boundary.
   Tail-recursive on int arguments — the encode path must stay
   allocation-free. *)
let[@inline] patch_crc f p len =
  let crc = crc32 f.out ~off:p ~len in
  let q = p + len in
  Bytes.unsafe_set f.out q (Char.unsafe_chr (crc land 0xff));
  Bytes.unsafe_set f.out (q + 1) (Char.unsafe_chr ((crc lsr 8) land 0xff));
  Bytes.unsafe_set f.out (q + 2) (Char.unsafe_chr ((crc lsr 16) land 0xff));
  Bytes.unsafe_set f.out (q + 3) (Char.unsafe_chr ((crc lsr 24) land 0xff));
  q + 4

(* [p] walks the frame's length varint, of whatever width. *)
let rec fill_crcs f p = if p < f.opos then frame_crc f p 0 0

and frame_crc f p len shift =
  let b = Char.code (Bytes.unsafe_get f.out p) in
  let len = len lor ((b land 0x7f) lsl shift) in
  if b < 0x80 then fill_crcs f (patch_crc f (p + 1) len)
  else frame_crc f (p + 1) len (shift + 7)

(* Emit the staged framed records in one channel/buffer operation.
   Channel writes take a per-channel lock in OCaml 5; pay it once per
   ~64 KiB instead of several times per record. *)
let drain f =
  if f.opos > 0 then begin
    fill_crcs f 0;
    (match f.sink with
     | S_mem buf -> Buffer.add_subbytes buf f.out 0 f.opos
     | S_file oc -> output oc f.out 0 f.opos);
    f.opos <- 0
  end

(* Zigzag varint: small magnitudes of either sign stay short; fields
   are almost always non-negative, where zigzag costs one bit. *)
let[@inline] zigzag v = (v lsl 1) lxor (v asr 62)

let[@inline] unzigzag v = (v lsr 1) lxor (- (v land 1))

(* The one framer. Every record — event, journal header, index header,
   index block — is written straight into the staging buffer, so each
   byte is written exactly once and the CRC runs over cache-hot memory.
   [begin_record] reserves [floor] length bytes; [finish_record] writes
   the payload length there as a *padded* LEB128 varint of
   max(floor, minimal) bytes (a redundant continuation byte is still a
   valid varint; decoders do not require canonical form), moving the
   payload up when it needs more. Events reserve 2 bytes, which every
   payload under 2^14 fits; the header and index records reserve 1. *)

let dput_slow f z =
  let v = ref z in
  let continue = ref true in
  while !continue do
    let b = !v land 0x7f in
    v := !v lsr 7;
    if !v = 0 then begin
      Bytes.unsafe_set f.out f.opos (Char.unsafe_chr b);
      f.opos <- f.opos + 1;
      continue := false
    end
    else begin
      Bytes.unsafe_set f.out f.opos (Char.unsafe_chr (b lor 0x80));
      f.opos <- f.opos + 1
    end
  done

(* Single-byte fast path: endpoints, tags, booleans, SEEP classes and
   most deltas fit in 7 bits — the overwhelming majority of fields. *)
let[@inline] dput f v =
  let z = zigzag v in
  if z land (lnot 0x7f) = 0 then begin
    Bytes.unsafe_set f.out f.opos (Char.unsafe_chr z);
    f.opos <- f.opos + 1
  end
  else dput_slow f z

(* Packed lead byte: wire tag in the low 4 bits, constructor-specific
   flag bits above, always < 0x80 so it doubles as a 1-byte varint. *)
let[@inline] dbyte f b =
  Bytes.unsafe_set f.out f.opos (Char.unsafe_chr b);
  f.opos <- f.opos + 1

let dstr f s =
  let len = String.length s in
  dput f len;
  Bytes.blit_string s 0 f.out f.opos len;
  f.opos <- f.opos + len

(* Headroom any record can need beyond its strings' bytes: its fixed
   fields (11 varints of at most 9 bytes), the CRC and a length field
   wider than its floor. *)
let slack = 140

let make_room f need =
  drain f;
  if need > Bytes.length f.out then f.out <- Bytes.create need

let[@inline] begin_record f floor extra =
  if f.opos + extra + slack > Bytes.length f.out then
    make_room f (extra + slack);
  let start = f.opos in
  f.opos <- start + floor;
  start

(* The length field's width for a payload too long for its floor; the
   payload moves up to make room. *)
let widen f start floor len =
  let rec width v = if v < 0x80 then 1 else 1 + width (v lsr 7) in
  let k = width len in
  Bytes.blit f.out (start + floor) f.out (start + k) len;
  k

let[@inline] finish_record f start floor =
  let len = f.opos - start - floor in
  let k = if len lsr (7 * floor) = 0 then floor else widen f start floor len in
  if k = 2 then begin
    (* nearly every record: the event field, unrolled *)
    Bytes.unsafe_set f.out start (Char.unsafe_chr (0x80 lor (len land 0x7f)));
    Bytes.unsafe_set f.out (start + 1) (Char.unsafe_chr (len lsr 7))
  end
  else begin
    for i = 0 to k - 2 do
      Bytes.unsafe_set f.out (start + i)
        (Char.unsafe_chr (0x80 lor ((len lsr (7 * i)) land 0x7f)))
    done;
    Bytes.unsafe_set f.out (start + k - 1)
      (Char.unsafe_chr (len lsr (7 * (k - 1))))
  end;
  (* the 4 CRC bytes stay unfilled until [drain]'s batched sweep *)
  f.opos <- start + k + len + 4;
  f.n_bytes <- f.n_bytes + k + len + 4;
  f.n_records <- f.n_records + 1

let put_header f h =
  let start =
    begin_record f 1
      (String.length h.jh_spec + String.length h.jh_workload
       + String.length h.jh_crash)
  in
  dput f h.jh_version;
  dput f h.jh_seed;
  dput f (match h.jh_arch with Kernel.Microkernel -> 0 | Kernel.Monolithic -> 1);
  dput f h.jh_crash_count;
  dput f h.jh_cost_fingerprint;
  dstr f h.jh_spec;
  dstr f h.jh_workload;
  dstr f h.jh_crash;
  finish_record f start 1;
  (* The header frame is not an event record. *)
  f.n_records <- f.n_records - 1

type writer = {
  fr : framer;
  mutable closed : bool;
  (* Delta-coding state: [time] is monotone and [rid] highly repetitive
     across consecutive events, so both are encoded as zigzag deltas
     against the previous record — usually one byte each. The reader
     mirrors this state while iterating. *)
  mutable last_time : int;
  mutable last_rid : int;
  (* Raw capture log ([Kernel.capture]): the per-event hot path — the
     kernel's emission sites, or [write] below — appends plain scalars
     here (and string pointers to [cap_strs] — no copy, the kernel's
     strings are immutable) and returns. Varint encoding, framing and
     CRCs all happen in [transcode], which sweeps the log in one batch
     whenever it fills, at [close], or when an accessor needs exact
     counts: per event the run pays a handful of int stores, not a
     wire encoder. The log has a fixed size; it never grows. *)
  w_cap : Kernel.capture;
}

(* Wire tags: event-constructor declaration order. *)

let[@inline] dtime w time =
  dput w.fr (time - w.last_time);
  w.last_time <- time

let[@inline] drid w rid =
  dput w.fr (rid - w.last_rid);
  w.last_rid <- rid

(* One encoder per constructor, the targets of [transcode]'s batched
   sweep over the raw capture log. Tags and SEEP classes arrive as the
   integer codes the log stores (see the layout table in kernel.mli).
   Only [transcode] reaches these. *)

let enc_msg w ~time ~src ~dst ~tagi ~call ~rid ~parent ~clsc =
  let f = w.fr in
  let start = begin_record f 2 0 in
  dbyte f (0 lor (if call then 0x10 else 0) lor (clsc lsl 5));
  dtime w time;
  dput f src;
  dput f dst;
  dput f tagi;
  drid w rid;
  (* parents are causally near their rid (0 only at roots) *)
  dput f (rid - parent);
  finish_record f start 2

let enc_reply w ~time ~src ~dst ~tagi ~rid =
  let f = w.fr in
  let start = begin_record f 2 0 in
  dbyte f 1;
  dtime w time;
  dput f src;
  dput f dst;
  dput f tagi;
  drid w rid;
  finish_record f start 2

let enc_window_open w ~time ~ep ~rid =
  let f = w.fr in
  let start = begin_record f 2 0 in
  dbyte f 2; dtime w time; dput f ep; drid w rid;
  finish_record f start 2

let enc_window_close w ~time ~ep ~rid ~policy =
  let f = w.fr in
  let start = begin_record f 2 0 in
  dbyte f (3 lor (if policy then 0x10 else 0));
  dtime w time; dput f ep; drid w rid;
  finish_record f start 2

let enc_checkpoint w ~time ~ep ~rid ~cycles =
  let f = w.fr in
  let start = begin_record f 2 0 in
  dbyte f 4; dtime w time; dput f ep; drid w rid; dput f cycles;
  finish_record f start 2

let enc_store_logged w ~time ~ep ~rid ~bytes =
  let f = w.fr in
  let start = begin_record f 2 0 in
  dbyte f 5; dtime w time; dput f ep; drid w rid; dput f bytes;
  finish_record f start 2

let enc_kcall w ~time ~ep ~rid ~kc =
  let f = w.fr in
  let start = begin_record f 2 (String.length kc) in
  dbyte f 6; dtime w time; dput f ep; drid w rid; dstr f kc;
  finish_record f start 2

let enc_crash w ~time ~ep ~reason ~window_open ~rid ~policy =
  let f = w.fr in
  let start = begin_record f 2 (String.length reason + String.length policy) in
  dbyte f (7 lor (if window_open then 0x10 else 0));
  dtime w time; dput f ep; drid w rid;
  dstr f reason; dstr f policy;
  finish_record f start 2

let enc_hang_detected w ~time ~ep =
  let f = w.fr in
  let start = begin_record f 2 0 in
  dbyte f 8; dtime w time; dput f ep;
  finish_record f start 2

let enc_rollback_begin w ~time ~ep ~rid =
  let f = w.fr in
  let start = begin_record f 2 0 in
  dbyte f 9; dtime w time; dput f ep; drid w rid;
  finish_record f start 2

let enc_rollback_end w ~time ~ep ~rid ~bytes =
  let f = w.fr in
  let start = begin_record f 2 0 in
  dbyte f 10; dtime w time; dput f ep; drid w rid; dput f bytes;
  finish_record f start 2

let enc_restart w ~time ~ep ~rid ~policy =
  let f = w.fr in
  let start = begin_record f 2 (String.length policy) in
  dbyte f 11; dtime w time; dput f ep; drid w rid; dstr f policy;
  finish_record f start 2

(* [time] joins the shared delta chain even though spawn arrivals can
   sit ahead of emission order (open-loop futures): the zigzag coding
   absorbs the negative deltas the next record then pays back. *)
let enc_spawn w ~time ~ep ~parent =
  let f = w.fr in
  let start = begin_record f 2 0 in
  dbyte f 13; dtime w time; dput f ep; dput f parent;
  finish_record f start 2

(* Halt arrives pre-decomposed (kind code, exit status, reason) so the
   transcode loop never reconstructs a [Kernel.halt] value — the
   encode sweep must allocate nothing. [reason] is "" except for
   shutdown/panic (kinds 1 and 2), the only kinds that encode it. *)
let enc_halt w ~time ~hkind ~status ~reason =
  let f = w.fr in
  let start = begin_record f 2 (String.length reason) in
  dbyte f (12 lor (hkind lsl 4));
  dtime w time;
  (match hkind with
   | 0 -> dput f status
   | 1 | 2 -> dstr f reason
   | _ -> ());
  finish_record f start 2

(* ---- raw capture log -> wire format --------------------------------

   The entry layout lives in [w.w_cap], a [Kernel.capture]. The
   kernel's appenders are its only writer: its emission sites during
   a run, [Kernel.capture_event] for [write] below — so a journal
   recorded through the kernel capture is byte-identical to one
   written from the equivalent event stream. *)

(* Sweep the raw log through the encoders in one batch: the capture's
   drain. Strings are cleared afterwards so the log never pins kernel
   strings past their encode. Everything here runs over warm fixed
   buffers and allocates nothing — it is safe (and cheap) to call at
   any entry boundary. After [close] it drops the log instead: a
   capture left installed on a live kernel appends into a log nothing
   will encode. *)
let transcode w =
  let c = w.w_cap in
  if w.closed then begin
    c.Kernel.cap_pos <- 0;
    c.Kernel.cap_spos <- 0
  end
  else if c.Kernel.cap_pos > 0 then begin
    let a = c.Kernel.cap_buf and n = c.Kernel.cap_pos in
    let strs = c.Kernel.cap_strs in
    let i = ref 0 and si = ref 0 in
    while !i < n do
      let p = !i in
      (match Array.unsafe_get a p with
       | 0 ->
         enc_msg w ~time:(Array.unsafe_get a (p + 1))
           ~src:(Array.unsafe_get a (p + 2))
           ~dst:(Array.unsafe_get a (p + 3))
           ~tagi:(Array.unsafe_get a (p + 4))
           ~call:(Array.unsafe_get a (p + 5) <> 0)
           ~rid:(Array.unsafe_get a (p + 6))
           ~parent:(Array.unsafe_get a (p + 7))
           ~clsc:(Array.unsafe_get a (p + 8));
         i := p + 9
       | 1 ->
         enc_reply w ~time:(Array.unsafe_get a (p + 1))
           ~src:(Array.unsafe_get a (p + 2))
           ~dst:(Array.unsafe_get a (p + 3))
           ~tagi:(Array.unsafe_get a (p + 4))
           ~rid:(Array.unsafe_get a (p + 5));
         i := p + 6
       | 2 ->
         enc_window_open w ~time:(Array.unsafe_get a (p + 1))
           ~ep:(Array.unsafe_get a (p + 2)) ~rid:(Array.unsafe_get a (p + 3));
         i := p + 4
       | 3 ->
         enc_window_close w ~time:(Array.unsafe_get a (p + 1))
           ~ep:(Array.unsafe_get a (p + 2)) ~rid:(Array.unsafe_get a (p + 3))
           ~policy:(Array.unsafe_get a (p + 4) <> 0);
         i := p + 5
       | 4 ->
         enc_checkpoint w ~time:(Array.unsafe_get a (p + 1))
           ~ep:(Array.unsafe_get a (p + 2)) ~rid:(Array.unsafe_get a (p + 3))
           ~cycles:(Array.unsafe_get a (p + 4));
         i := p + 5
       | 5 ->
         enc_store_logged w ~time:(Array.unsafe_get a (p + 1))
           ~ep:(Array.unsafe_get a (p + 2)) ~rid:(Array.unsafe_get a (p + 3))
           ~bytes:(Array.unsafe_get a (p + 4));
         i := p + 5
       | 6 ->
         let kc = Array.unsafe_get strs !si in
         incr si;
         enc_kcall w ~time:(Array.unsafe_get a (p + 1))
           ~ep:(Array.unsafe_get a (p + 2)) ~rid:(Array.unsafe_get a (p + 3))
           ~kc;
         i := p + 4
       | 7 ->
         let reason = Array.unsafe_get strs !si in
         let policy = Array.unsafe_get strs (!si + 1) in
         si := !si + 2;
         enc_crash w ~time:(Array.unsafe_get a (p + 1))
           ~ep:(Array.unsafe_get a (p + 2))
           ~window_open:(Array.unsafe_get a (p + 3) <> 0)
           ~rid:(Array.unsafe_get a (p + 4)) ~reason ~policy;
         i := p + 5
       | 8 ->
         enc_hang_detected w ~time:(Array.unsafe_get a (p + 1))
           ~ep:(Array.unsafe_get a (p + 2));
         i := p + 3
       | 9 ->
         enc_rollback_begin w ~time:(Array.unsafe_get a (p + 1))
           ~ep:(Array.unsafe_get a (p + 2)) ~rid:(Array.unsafe_get a (p + 3));
         i := p + 4
       | 10 ->
         enc_rollback_end w ~time:(Array.unsafe_get a (p + 1))
           ~ep:(Array.unsafe_get a (p + 2)) ~rid:(Array.unsafe_get a (p + 3))
           ~bytes:(Array.unsafe_get a (p + 4));
         i := p + 5
       | 11 ->
         let policy = Array.unsafe_get strs !si in
         incr si;
         enc_restart w ~time:(Array.unsafe_get a (p + 1))
           ~ep:(Array.unsafe_get a (p + 2)) ~rid:(Array.unsafe_get a (p + 3))
           ~policy;
         i := p + 4
       | 12 ->
         let hkind = Array.unsafe_get a (p + 2) in
         let reason =
           if hkind = 1 || hkind = 2 then begin
             let s = Array.unsafe_get strs !si in
             incr si;
             s
           end
           else ""
         in
         enc_halt w ~time:(Array.unsafe_get a (p + 1)) ~hkind
           ~status:(Array.unsafe_get a (p + 3)) ~reason;
         i := p + 4
       | 13 ->
         enc_spawn w ~time:(Array.unsafe_get a (p + 1))
           ~ep:(Array.unsafe_get a (p + 2))
           ~parent:(Array.unsafe_get a (p + 3));
         i := p + 4
       | k -> invalid_arg (Printf.sprintf "Journal: corrupt raw log kind %d" k))
    done;
    for k = 0 to c.Kernel.cap_spos - 1 do
      Array.unsafe_set strs k ""
    done;
    c.Kernel.cap_pos <- 0;
    c.Kernel.cap_spos <- 0
  end

(* A framer on [sink], which it opens with [magic]; [staging] bytes
   of staging buffer, grown for a record larger than that. *)
let framer sink magic ~staging =
  (match sink with
   | S_mem buf -> Buffer.add_string buf magic
   | S_file oc -> output_string oc magic);
  { sink; out = Bytes.create staging; opos = 0; n_records = 0;
    n_bytes = String.length magic }

let journal_writer sink header =
  let w =
    { fr = framer sink magic ~staging:65536;
      closed = false;
      last_time = 0;
      last_rid = 0;
      (* 8,192 int slots, 64 KiB like the staging buffer. An entry
         spends at least 2.5 int slots per string (a crash: 5 slots, 2
         strings), so the int log always fills before 4,096 string
         slots do, and one [transcode] empties both. *)
      w_cap =
        { Kernel.cap_buf = Array.make 8192 0;
          cap_pos = 0;
          cap_strs = Array.make 4096 "";
          cap_spos = 0;
          cap_drain = (fun () -> ()) } }
  in
  w.w_cap.Kernel.cap_drain <- (fun () -> transcode w);
  put_header w.fr header;
  w

let to_file ~path header = journal_writer (S_file (open_out_bin path)) header

let to_memory header = journal_writer (S_mem (Buffer.create 4096)) header

let write w ev = if not w.closed then Kernel.capture_event w.w_cap ev

(* The kernel-side tap: hand the run's [Kernel.capture] to
   [Kernel.set_capture] and the emission sites append to it with no
   closure call per event. *)
let capture w = w.w_cap

let close w =
  if not w.closed then begin
    transcode w;
    drain w.fr;
    w.closed <- true;
    match w.fr.sink with S_file oc -> close_out oc | S_mem _ -> ()
  end

let contents w =
  transcode w;
  drain w.fr;
  match w.fr.sink with
  | S_mem buf -> Buffer.contents buf
  | S_file _ -> invalid_arg "Journal.contents: file writer"

(* Both counters force the pending encode sweep so they are exact at
   any point, not just after [close]. *)
let records_written w = transcode w; w.fr.n_records
let bytes_written w = transcode w; w.fr.n_bytes

let of_events header events =
  let w = to_memory header in
  List.iter (write w) events;
  close w;
  contents w

(* ------------------------------------------------------------------ *)
(* Reader                                                              *)
(* ------------------------------------------------------------------ *)

exception Bad of string

let bad fmt = Printf.ksprintf (fun s -> raise (Bad s)) fmt

(* The record walker: one cursor per read, reused for every record.
   [next] is the offset of the next frame, and [unframe] points
   [rpos, limit) at that frame's payload. [n] counts the event records
   walked (the N of "record N" in errors); [d_time] and [d_rid] mirror
   the writer's delta-coding state: [time] and [rid] are stored as
   zigzag deltas against the previous record, [parent] as an offset
   below the record's own rid. *)
type cursor = {
  src : string;
  mutable rpos : int;
  mutable limit : int;
  mutable next : int;
  mutable n : int;
  mutable d_time : int;
  mutable d_rid : int;
}

(* [limit <= String.length src] always holds — only [walk] (0) and
   [unframe] (after its length check) set it — so a read below [limit]
   needs no second bounds check. *)
let[@inline] get_byte c =
  if c.rpos >= c.limit then bad "truncated varint";
  let b = Char.code (String.unsafe_get c.src c.rpos) in
  c.rpos <- c.rpos + 1;
  b

(* Continuation bytes past the first; tail-recursive so decode
   allocates nothing (a [ref]-based loop would box three cells per
   varint without flambda — measurable on the index-build hot path). *)
let rec varint_rest c v shift =
  if shift > 63 then bad "varint too long";
  let b = get_byte c in
  let v = v lor ((b land 0x7f) lsl shift) in
  if b land 0x80 = 0 then v else varint_rest c v (shift + 7)

(* Single-byte fast path first: endpoints, tags, flags and most deltas
   fit in 7 bits — the same asymmetry [dput]'s fast path exploits. *)
let[@inline] get_int c =
  let b = get_byte c in
  if b land 0x80 = 0 then unzigzag b
  else unzigzag (varint_rest c (b land 0x7f) 7)

(* A frame length: a raw (non-zigzag) varint, as [finish_record]
   writes it; -1 when truncated or longer than 63 bits. *)
let rec get_length c v shift =
  if c.rpos >= c.limit || shift > 63 then -1
  else begin
    let b = Char.code (String.unsafe_get c.src c.rpos) in
    c.rpos <- c.rpos + 1;
    let v = v lor ((b land 0x7f) lsl shift) in
    if b < 0x80 then v else get_length c v (shift + 7)
  end

let get_str c =
  let len = get_int c in
  if len < 0 || len > c.limit - c.rpos then bad "truncated string";
  let s = String.sub c.src c.rpos len in
  c.rpos <- c.rpos + len;
  s

(* Indexed by [Message.Tag.to_index]: decoding a tag is an array read,
   where [Message.Tag.of_index] would box an option. *)
let tag_of_index = Array.of_list Message.Tag.all

let get_tag c =
  let i = get_int c in
  if i >= 0 && i < Array.length tag_of_index then tag_of_index.(i)
  else bad "unknown message tag %d" i

let cls_of_code = function
  | 0 -> Seep.Read_only
  | 1 -> Seep.State_modifying
  | 2 -> Seep.Reply
  | n -> bad "unknown SEEP class %d" n

let[@inline] get_time c =
  let time = c.d_time + get_int c in
  c.d_time <- time;
  time

let[@inline] get_rid c =
  let rid = c.d_rid + get_int c in
  c.d_rid <- rid;
  rid

let get_ev c : Kernel.event =
  let b0 = get_byte c in
  if b0 land 0x80 <> 0 then bad "bad lead byte %#x" b0;
  match b0 land 0xf with
  | 0 ->
    let call = b0 land 0x10 <> 0 in
    let cls = cls_of_code (b0 lsr 5) in
    let time = get_time c in
    let src = get_int c in
    let dst = get_int c in
    let tag = get_tag c in
    let rid = get_rid c in
    let parent = rid - get_int c in
    Kernel.E_msg { time; src; dst; tag; call; rid; parent; cls }
  | 1 ->
    let time = get_time c in
    let src = get_int c in
    let dst = get_int c in
    let tag = get_tag c in
    let rid = get_rid c in
    Kernel.E_reply { time; src; dst; tag; rid }
  | 2 ->
    let time = get_time c in
    let ep = get_int c in
    let rid = get_rid c in
    Kernel.E_window_open { time; ep; rid }
  | 3 ->
    let policy = b0 land 0x10 <> 0 in
    let time = get_time c in
    let ep = get_int c in
    let rid = get_rid c in
    Kernel.E_window_close { time; ep; rid; policy }
  | 4 ->
    let time = get_time c in
    let ep = get_int c in
    let rid = get_rid c in
    let cycles = get_int c in
    Kernel.E_checkpoint { time; ep; rid; cycles }
  | 5 ->
    let time = get_time c in
    let ep = get_int c in
    let rid = get_rid c in
    let bytes = get_int c in
    Kernel.E_store_logged { time; ep; rid; bytes }
  | 6 ->
    let time = get_time c in
    let ep = get_int c in
    let rid = get_rid c in
    let kc = get_str c in
    Kernel.E_kcall { time; ep; rid; kc }
  | 7 ->
    let window_open = b0 land 0x10 <> 0 in
    let time = get_time c in
    let ep = get_int c in
    let rid = get_rid c in
    let reason = get_str c in
    let policy = get_str c in
    Kernel.E_crash { time; ep; reason; window_open; rid; policy }
  | 8 ->
    let time = get_time c in
    let ep = get_int c in
    Kernel.E_hang_detected { time; ep }
  | 9 ->
    let time = get_time c in
    let ep = get_int c in
    let rid = get_rid c in
    Kernel.E_rollback_begin { time; ep; rid }
  | 10 ->
    let time = get_time c in
    let ep = get_int c in
    let rid = get_rid c in
    let bytes = get_int c in
    Kernel.E_rollback_end { time; ep; rid; bytes }
  | 11 ->
    let time = get_time c in
    let ep = get_int c in
    let rid = get_rid c in
    let policy = get_str c in
    Kernel.E_restart { time; ep; rid; policy }
  | 12 ->
    let time = get_time c in
    let halt =
      match b0 lsr 4 with
      | 0 -> Kernel.H_completed (get_int c)
      | 1 -> Kernel.H_shutdown (get_str c)
      | 2 -> Kernel.H_panic (get_str c)
      | 3 -> Kernel.H_hang
      | n -> bad "unknown halt kind %d" n
    in
    Kernel.E_halt { time; halt }
  | 13 ->
    let time = get_time c in
    let ep = get_int c in
    let parent = get_int c in
    Kernel.E_spawn { time; ep; parent }
  | n -> bad "unknown event tag %d" n

(* A cursor at the first frame of [s], which must open with [magic]. *)
let walk ~magic ~what s =
  if not (String.starts_with ~prefix:magic s) then
    bad "bad magic (not an OSIRIS %s)" what;
  { src = s; rpos = 0; limit = 0; next = String.length magic; n = 0;
    d_time = 0; d_rid = 0 }

let[@inline] more c = c.next < String.length c.src

(* Unframe the record at [next]: varint(len) + payload + CRC. Errors
   carry no record label — the caller adds one, so the success path
   formats nothing. [check_crc:false] skips the payload checksum
   (framing and bounds are still enforced) — only for callers that
   just produced the bytes in-process and cannot have picked up
   storage corruption. *)
let unframe c ~check_crc =
  let s = c.src in
  c.rpos <- c.next;
  c.limit <- String.length s;
  let len = get_length c 0 0 in
  if len < 0 then raise (Bad "truncated length");
  let off = c.rpos in
  (* [len] may be as large as [max_int]: compare without adding to it *)
  if len > String.length s - off - 4 then
    bad "truncated record (need %d bytes past offset %d)" len off;
  if check_crc then begin
    (* In bounds: the check above left 4 bytes past the payload. *)
    let stored_crc =
      Char.code (String.unsafe_get s (off + len))
      lor (Char.code (String.unsafe_get s (off + len + 1)) lsl 8)
      lor (Char.code (String.unsafe_get s (off + len + 2)) lsl 16)
      lor (Char.code (String.unsafe_get s (off + len + 3)) lsl 24)
    in
    let actual = crc32_string s ~off ~len in
    if actual <> stored_crc then
      bad "CRC mismatch (stored %08x, computed %08x)" stored_crc actual
  end;
  c.limit <- off + len;
  c.next <- off + len + 4

(* The one place an error gets its record's label — "record N",
   "header", "index block N" ([i] < 0: no number) — formatted only
   once there is an error. *)
let relabel what i m =
  if i < 0 then bad "%s: %s" what m else bad "%s %d: %s" what i m

(* Unframe a header or index record, CRC checked. *)
let next_frame c what i =
  match unframe c ~check_crc:true with
  | () -> ()
  | exception Bad m -> relabel what i m

(* Unframe and [decode] the next event record, which must consume its
   payload exactly; errors are labelled "record N" and leave the cursor
   at the damaged record. *)
let next_record c ~check_crc decode =
  let at = c.next in
  match
    unframe c ~check_crc;
    let v = decode c in
    if c.rpos <> c.limit then raise (Bad "trailing bytes in record");
    v
  with
  | v -> c.n <- c.n + 1; v
  | exception Bad m ->
    c.next <- at;
    relabel "record" c.n m

let next_event c = next_record c ~check_crc:true get_ev

let get_header c =
  let jh_version = get_int c in
  if jh_version <> version then
    bad "unsupported journal version %d (expected %d)" jh_version version;
  let jh_seed = get_int c in
  let jh_arch =
    match get_int c with
    | 0 -> Kernel.Microkernel
    | 1 -> Kernel.Monolithic
    | n -> bad "unknown arch %d" n
  in
  let jh_crash_count = get_int c in
  let jh_cost_fingerprint = get_int c in
  let jh_spec = get_str c in
  let jh_workload = get_str c in
  let jh_crash = get_str c in
  { jh_version; jh_seed; jh_arch; jh_spec; jh_workload; jh_crash;
    jh_crash_count; jh_cost_fingerprint }

(* The header, and a cursor at the first event record. *)
let open_journal s =
  let c = walk ~magic ~what:"journal" s in
  next_frame c "header" (-1);
  let header = get_header c in
  if c.rpos <> c.limit then bad "header: trailing bytes";
  (header, c)

(* Frames from [next] on, walked by their lengths alone; stops at the
   first damaged frame, which the decoding walk then reports. *)
let rec count_frames c n =
  if not (more c) then n
  else
    match unframe c ~check_crc:false with
    | () -> count_frames c (n + 1)
    | exception Bad _ -> n

let placeholder = Kernel.E_hang_detected { time = 0; ep = 0 }

(* Sized by a first walk, so decoding allocates the events and the
   array and nothing per record besides. *)
let read_string s =
  try
    let header, c = open_journal s in
    let first = c.next in
    let events = Array.make (count_frames c 0) placeholder in
    c.next <- first;
    for i = 0 to Array.length events - 1 do
      events.(i) <- next_event c
    done;
    (* the count stopped at a damaged frame: decoding it raises *)
    if more c then ignore (next_event c : Kernel.event);
    Ok (header, events)
  with Bad m -> Error ("journal: " ^ m)

let read_file path =
  match
    In_channel.with_open_bin path In_channel.input_all
  with
  | s -> read_string s
  | exception Sys_error m -> Error ("journal: " ^ m)

(* ------------------------------------------------------------------ *)
(* Accessors                                                           *)
(* ------------------------------------------------------------------ *)

let event_rid = function
  | Kernel.E_msg { rid; _ } | Kernel.E_reply { rid; _ }
  | Kernel.E_window_open { rid; _ } | Kernel.E_window_close { rid; _ }
  | Kernel.E_checkpoint { rid; _ } | Kernel.E_store_logged { rid; _ }
  | Kernel.E_kcall { rid; _ } | Kernel.E_crash { rid; _ }
  | Kernel.E_rollback_begin { rid; _ } | Kernel.E_rollback_end { rid; _ }
  | Kernel.E_restart { rid; _ } -> rid
  | Kernel.E_hang_detected _ | Kernel.E_halt _ | Kernel.E_spawn _ -> 0

let event_time = function
  | Kernel.E_msg { time; _ } | Kernel.E_reply { time; _ }
  | Kernel.E_window_open { time; _ } | Kernel.E_window_close { time; _ }
  | Kernel.E_checkpoint { time; _ } | Kernel.E_store_logged { time; _ }
  | Kernel.E_kcall { time; _ } | Kernel.E_crash { time; _ }
  | Kernel.E_hang_detected { time; _ } | Kernel.E_rollback_begin { time; _ }
  | Kernel.E_rollback_end { time; _ } | Kernel.E_restart { time; _ }
  | Kernel.E_halt { time; _ } | Kernel.E_spawn { time; _ } -> time

let event_ep = function
  | Kernel.E_msg { dst; _ } -> Some dst
  | Kernel.E_reply { src; _ } -> Some src
  | Kernel.E_window_open { ep; _ } | Kernel.E_window_close { ep; _ }
  | Kernel.E_checkpoint { ep; _ } | Kernel.E_store_logged { ep; _ }
  | Kernel.E_kcall { ep; _ } | Kernel.E_crash { ep; _ }
  | Kernel.E_hang_detected { ep; _ } | Kernel.E_rollback_begin { ep; _ }
  | Kernel.E_rollback_end { ep; _ } | Kernel.E_restart { ep; _ }
  | Kernel.E_spawn { ep; _ } -> Some ep
  | Kernel.E_halt _ -> None

(* Wire tag, declaration order — the same code the encoders pack into
   the lead byte, re-exposed so block summaries and queries can talk
   about event kinds without a constructor match each. *)
let event_kind = function
  | Kernel.E_msg _ -> 0
  | Kernel.E_reply _ -> 1
  | Kernel.E_window_open _ -> 2
  | Kernel.E_window_close _ -> 3
  | Kernel.E_checkpoint _ -> 4
  | Kernel.E_store_logged _ -> 5
  | Kernel.E_kcall _ -> 6
  | Kernel.E_crash _ -> 7
  | Kernel.E_hang_detected _ -> 8
  | Kernel.E_rollback_begin _ -> 9
  | Kernel.E_rollback_end _ -> 10
  | Kernel.E_restart _ -> 11
  | Kernel.E_halt _ -> 12
  | Kernel.E_spawn _ -> 13

let n_kinds = 14

let kind_names =
  [| "msg"; "reply"; "window_open"; "window_close"; "checkpoint"; "store";
     "kcall"; "crash"; "hang"; "rollback_begin"; "rollback_end"; "restart";
     "halt"; "spawn" |]

let kind_name k =
  if k >= 0 && k < n_kinds then kind_names.(k)
  else invalid_arg "Journal.kind_name"

let kind_of_name s =
  let rec find i =
    if i >= n_kinds then None
    else if kind_names.(i) = s then Some i
    else find (i + 1)
  in
  find 0

(* ------------------------------------------------------------------ *)
(* Streaming decode                                                    *)
(* ------------------------------------------------------------------ *)

let header_of_string s =
  match open_journal s with
  | header, c -> Ok (header, c.next)
  | exception Bad m -> Error ("journal: " ^ m)

type stream = cursor

let stream_of_string s =
  match open_journal s with
  | header, c -> Ok (header, c)
  | exception Bad m -> Error ("journal: " ^ m)

let stream_next c =
  if not (more c) then Ok None
  else
    match next_event c with
    | ev -> Ok (Some ev)
    | exception Bad m -> Error ("journal: " ^ m)

(* ------------------------------------------------------------------ *)
(* Sidecar block index                                                 *)
(* ------------------------------------------------------------------ *)

let index_magic = "OSIRIDX1"

let index_suffix = ".idx"

let default_block_records = 512

type block = {
  blk_off : int;
  blk_count : int;
  blk_base_time : int;
  blk_base_rid : int;
  blk_time_min : int;
  blk_time_max : int;
  blk_rid_min : int;
  blk_rid_max : int;
  blk_ep_mask : int;
  blk_kind_mask : int;
  blk_tag_mask : int;
}

type index = {
  ix_journal_len : int;
  ix_head_crc : int;
  ix_tail_crc : int;
  ix_records : int;
  ix_blocks : block array;
}

(* Presence bitmaps saturate at bit 62 (OCaml ints are 63-bit): values
   below 62 get an exact bit, everything else shares the top bit. The
   test is therefore conservative — exact below the clamp, "any
   clamped value present" above it — which is precisely what predicate
   pushdown needs: it may only claim a block *cannot* match. *)
let[@inline] mask_bit i = 1 lsl (if i >= 0 && i < 62 then i else 62)

let mask_mem m i = m land mask_bit i <> 0

(* Journal identity fingerprint: cheap (O(8 KiB)) staleness detection
   for a sidecar that outlived a re-record. Every realistic rewrite
   changes the length or one of the edge CRCs; the per-record CRCs in
   the journal itself still guard the decode. *)
let fingerprint_span = 4096

let head_crc s =
  crc32_string s ~off:0 ~len:(min fingerprint_span (String.length s))

let tail_crc s =
  let len = min fingerprint_span (String.length s) in
  crc32_string s ~off:(String.length s - len) ~len

(* Index building runs on the record path (the <5% gate in
   bench/query_bench.ml), so it cannot afford full decode: this
   scanner mirrors [get_ev]'s layouts field-for-field but extracts
   only what block summaries need — time, rid, acting endpoint, tag
   index — skipping string payloads by length and allocating nothing
   per record. The per-record CRC in [unframe] still guards
   integrity; the value validation [get_ev] adds (tag range, SEEP
   class) is re-applied whenever a block is decoded for real, and the
   summary masks are conservative regardless. *)
type summary = {
  mutable su_time : int;
  mutable su_rid : int;   (* 0 where [event_rid] reports 0 *)
  mutable su_ep : int;    (* -1 where [event_ep] reports None *)
  mutable su_tag : int;   (* -1 for kinds without a message tag *)
}

let[@inline] skip_int c = ignore (get_int c : int)

let skip_str c =
  let len = get_int c in
  if len < 0 || len > c.limit - c.rpos then bad "truncated string";
  c.rpos <- c.rpos + len

(* Returns the record's wire kind; fills [su] in place. Must call
   [get_rid] exactly where [get_ev] does so the delta state evolves
   identically. *)
let scan_summary su c =
  let b0 = get_byte c in
  if b0 land 0x80 <> 0 then bad "bad lead byte %#x" b0;
  let kind = b0 land 0xf in
  su.su_time <- get_time c;
  su.su_rid <- 0;
  su.su_ep <- -1;
  su.su_tag <- -1;
  (match kind with
   | 0 ->
     skip_int c; (* src *)
     su.su_ep <- get_int c; (* dst, as in [event_ep] *)
     su.su_tag <- get_int c;
     su.su_rid <- get_rid c;
     skip_int c (* parent offset *)
   | 1 ->
     su.su_ep <- get_int c; (* src, as in [event_ep] *)
     skip_int c; (* dst *)
     su.su_tag <- get_int c;
     su.su_rid <- get_rid c
   | 2 | 3 | 9 ->
     su.su_ep <- get_int c;
     su.su_rid <- get_rid c
   | 4 | 5 | 10 ->
     su.su_ep <- get_int c;
     su.su_rid <- get_rid c;
     skip_int c
   | 6 | 11 ->
     su.su_ep <- get_int c;
     su.su_rid <- get_rid c;
     skip_str c
   | 7 ->
     su.su_ep <- get_int c;
     su.su_rid <- get_rid c;
     skip_str c;
     skip_str c
   | 8 -> su.su_ep <- get_int c
   | 12 ->
     (match b0 lsr 4 with
      | 0 -> skip_int c
      | 1 | 2 -> skip_str c
      | 3 -> ()
      | n -> bad "unknown halt kind %d" n)
   | 13 ->
     su.su_ep <- get_int c;
     skip_int c (* parent: raw int, not rid-delta coded *)
   | n -> bad "unknown event tag %d" n);
  kind

let build_index ?(block_records = default_block_records) ?(verify_crc = true)
    s =
  if block_records < 1 then invalid_arg "Journal.build_index";
  try
    let _, c = open_journal s in
    let blocks = ref [] in
    let su = { su_time = 0; su_rid = 0; su_ep = -1; su_tag = -1 } in
    let scan = scan_summary su in
    while more c do
      (* Restart bases: the decoder's delta state *entering* the
         block, captured so a seek to [blk_off] decodes exactly. *)
      let off = c.next in
      let base_time = c.d_time and base_rid = c.d_rid in
      let count = ref 0 in
      let time_min = ref max_int and time_max = ref min_int in
      let rid_min = ref max_int and rid_max = ref min_int in
      let ep_mask = ref 0 and kind_mask = ref 0 and tag_mask = ref 0 in
      while !count < block_records && more c do
        let kind = next_record c ~check_crc:verify_crc scan in
        if su.su_time < !time_min then time_min := su.su_time;
        if su.su_time > !time_max then time_max := su.su_time;
        if su.su_rid < !rid_min then rid_min := su.su_rid;
        if su.su_rid > !rid_max then rid_max := su.su_rid;
        if su.su_ep >= 0 then ep_mask := !ep_mask lor mask_bit su.su_ep;
        kind_mask := !kind_mask lor (1 lsl kind);
        if su.su_tag >= 0 then tag_mask := !tag_mask lor mask_bit su.su_tag;
        incr count
      done;
      blocks :=
        { blk_off = off;
          blk_count = !count;
          blk_base_time = base_time;
          blk_base_rid = base_rid;
          blk_time_min = !time_min;
          blk_time_max = !time_max;
          blk_rid_min = !rid_min;
          blk_rid_max = !rid_max;
          blk_ep_mask = !ep_mask;
          blk_kind_mask = !kind_mask;
          blk_tag_mask = !tag_mask }
        :: !blocks
    done;
    Ok
      { ix_journal_len = String.length s;
        ix_head_crc = head_crc s;
        ix_tail_crc = tail_crc s;
        ix_records = c.n;
        ix_blocks = Array.of_list (List.rev !blocks) }
  with Bad m -> Error ("journal: " ^ m)

(* Sidecar wire format: magic, then records in the journal's own
   framing, written by the same framer — one header record (version,
   journal fingerprint, record/block counts), one record per block
   summary. Damage anywhere fails a CRC or the framing, which readers
   turn into the silent full-scan fallback. *)

let index_to_string ix =
  let n = Array.length ix.ix_blocks + 1 in
  let buf = Buffer.create (64 + (n * 32)) in
  let f = framer (S_mem buf) index_magic ~staging:(n * slack) in
  let start = begin_record f 1 0 in
  dput f version;
  dput f ix.ix_journal_len;
  dput f ix.ix_head_crc;
  dput f ix.ix_tail_crc;
  dput f ix.ix_records;
  dput f (Array.length ix.ix_blocks);
  finish_record f start 1;
  Array.iter
    (fun b ->
       let start = begin_record f 1 0 in
       dput f b.blk_off;
       dput f b.blk_count;
       dput f b.blk_base_time;
       dput f b.blk_base_rid;
       dput f b.blk_time_min;
       dput f b.blk_time_max;
       dput f b.blk_rid_min;
       dput f b.blk_rid_max;
       dput f b.blk_ep_mask;
       dput f b.blk_kind_mask;
       dput f b.blk_tag_mask;
       finish_record f start 1)
    ix.ix_blocks;
  drain f;
  Buffer.contents buf

let index_of_string ~journal s =
  try
    let c = walk ~magic:index_magic ~what:"journal index" s in
    next_frame c "index header" (-1);
    let v = get_int c in
    if v <> version then bad "unsupported index version %d" v;
    let ix_journal_len = get_int c in
    let ix_head_crc = get_int c in
    let ix_tail_crc = get_int c in
    let ix_records = get_int c in
    let n_blocks = get_int c in
    if c.rpos <> c.limit then bad "index header: trailing bytes";
    if n_blocks < 0 then bad "index header: negative block count";
    if ix_journal_len <> String.length journal
       || ix_head_crc <> head_crc journal
       || ix_tail_crc <> tail_crc journal
    then bad "stale index (journal fingerprint mismatch)";
    let blocks = Array.make n_blocks
        { blk_off = 0; blk_count = 0; blk_base_time = 0; blk_base_rid = 0;
          blk_time_min = 0; blk_time_max = 0; blk_rid_min = 0;
          blk_rid_max = 0; blk_ep_mask = 0; blk_kind_mask = 0;
          blk_tag_mask = 0 }
    in
    for i = 0 to n_blocks - 1 do
      next_frame c "index block" i;
      let blk_off = get_int c in
      let blk_count = get_int c in
      let blk_base_time = get_int c in
      let blk_base_rid = get_int c in
      let blk_time_min = get_int c in
      let blk_time_max = get_int c in
      let blk_rid_min = get_int c in
      let blk_rid_max = get_int c in
      let blk_ep_mask = get_int c in
      let blk_kind_mask = get_int c in
      let blk_tag_mask = get_int c in
      if c.rpos <> c.limit then bad "index block %d: trailing bytes" i;
      if blk_off < 0 || blk_off >= String.length journal || blk_count < 1
      then bad "index block %d: offset/count out of range" i;
      blocks.(i) <-
        { blk_off; blk_count; blk_base_time; blk_base_rid; blk_time_min;
          blk_time_max; blk_rid_min; blk_rid_max; blk_ep_mask;
          blk_kind_mask; blk_tag_mask }
    done;
    if more c then bad "index: trailing bytes";
    if Array.fold_left (fun acc b -> acc + b.blk_count) 0 blocks
       <> ix_records
    then bad "index: block counts disagree with record count";
    Ok { ix_journal_len; ix_head_crc; ix_tail_crc; ix_records;
         ix_blocks = blocks }
  with Bad m -> Error ("index: " ^ m)

let write_index_file ~path ix =
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc (index_to_string ix))

let read_index_file ~journal path =
  match In_channel.with_open_bin path In_channel.input_all with
  | s -> index_of_string ~journal s
  | exception Sys_error m -> Error ("index: " ^ m)

(* ------------------------------------------------------------------ *)
(* Selective fold                                                      *)
(* ------------------------------------------------------------------ *)

type scan_stats = {
  mutable sc_blocks_total : int;
  mutable sc_blocks_scanned : int;
  mutable sc_blocks_skipped : int;
  mutable sc_records_decoded : int;
}

let scan_stats () =
  { sc_blocks_total = 0; sc_blocks_scanned = 0; sc_blocks_skipped = 0;
    sc_records_decoded = 0 }

let fold ?index ?select ?stats s ~init ~f =
  try
    let _, c = open_journal s in
    let acc = ref init in
    (match index with
     | None ->
       while more c do
         let ev = next_event c in
         (match stats with
          | Some sc -> sc.sc_records_decoded <- sc.sc_records_decoded + 1
          | None -> ());
         acc := f !acc ev
       done
     | Some ix ->
       let want = match select with Some p -> p | None -> fun _ -> true in
       Array.iter
         (fun blk ->
            (match stats with
             | Some sc -> sc.sc_blocks_total <- sc.sc_blocks_total + 1
             | None -> ());
            if want blk then begin
              (match stats with
               | Some sc ->
                 sc.sc_blocks_scanned <- sc.sc_blocks_scanned + 1;
                 sc.sc_records_decoded <- sc.sc_records_decoded + blk.blk_count
               | None -> ());
              (* Seek: the stored restart bases make a mid-file decode
                 exact. *)
              c.next <- blk.blk_off;
              c.d_time <- blk.blk_base_time;
              c.d_rid <- blk.blk_base_rid;
              for _ = 1 to blk.blk_count do
                acc := f !acc (next_event c)
              done
            end
            else begin
              (match stats with
               | Some sc -> sc.sc_blocks_skipped <- sc.sc_blocks_skipped + 1
               | None -> ());
              c.n <- c.n + blk.blk_count
            end)
         ix.ix_blocks);
    Ok !acc
  with Bad m -> Error ("journal: " ^ m)
