(* Tests for the memory-image substrate and the typed layout DSL. *)

let mk ?(size = 4096) () = Memimage.create ~name:"test" ~size

(* ---------------- raw access -------------------------------------- *)

let test_word_roundtrip () =
  let img = mk () in
  Memimage.set_word img 0 42;
  Memimage.set_word img 8 (-7);
  Memimage.set_word img 16 max_int;
  Alcotest.(check int) "w0" 42 (Memimage.get_word img 0);
  Alcotest.(check int) "w8" (-7) (Memimage.get_word img 8);
  Alcotest.(check int) "wmax" max_int (Memimage.get_word img 16)

let test_string_roundtrip () =
  let img = mk () in
  Memimage.set_string img ~off:0 ~len:16 "hello";
  Alcotest.(check string) "read back" "hello" (Memimage.get_string img ~off:0 ~len:16);
  Memimage.set_string img ~off:0 ~len:16 "";
  Alcotest.(check string) "empty" "" (Memimage.get_string img ~off:0 ~len:16)

let test_string_too_long () =
  let img = mk () in
  Alcotest.check_raises "overflow rejected"
    (Invalid_argument "Memimage.set_string: \"abcdef\" exceeds field of 4 bytes")
    (fun () -> Memimage.set_string img ~off:0 ~len:4 "abcdef")

let test_string_overwrite_shorter () =
  (* A shorter overwrite must clear the previous tail (NUL padding). *)
  let img = mk () in
  Memimage.set_string img ~off:0 ~len:16 "longvalue";
  Memimage.set_string img ~off:0 ~len:16 "ab";
  Alcotest.(check string) "no tail residue" "ab"
    (Memimage.get_string img ~off:0 ~len:16)

let test_bytes_roundtrip () =
  let img = mk () in
  let b = Bytes.of_string "\000\001\255x" in
  Memimage.set_bytes img ~off:100 b;
  Alcotest.(check bytes) "bytes" b (Memimage.get_bytes img ~off:100 ~len:4)

(* ---------------- hook -------------------------------------------- *)

let test_hook_sees_old_contents () =
  (* The hook runs before the store lands: reading the hooked range out
     of the image yields the previous value. *)
  let img = mk () in
  Memimage.set_word img 0 1111;
  let captured = ref [] in
  Memimage.set_write_hook img
    (Some
       (fun ~offset ~len ->
          captured := (offset, Memimage.get_bytes img ~off:offset ~len) :: !captured));
  Memimage.set_word img 0 2222;
  match !captured with
  | [ (0, old) ] ->
    Alcotest.(check int) "old value" 1111
      (Int64.to_int (Bytes.get_int64_le old 0))
  | _ -> Alcotest.fail "expected one hook invocation"

let test_hook_removal () =
  let img = mk () in
  let hits = ref 0 in
  Memimage.set_write_hook img (Some (fun ~offset:_ ~len:_ -> incr hits));
  Memimage.set_word img 0 1;
  Memimage.set_write_hook img None;
  Memimage.set_word img 0 2;
  Alcotest.(check int) "one hit" 1 !hits

let test_write_accounting () =
  let img = mk () in
  Memimage.set_word img 0 1;
  Memimage.set_string img ~off:8 ~len:16 "x";
  Alcotest.(check int) "writes" 2 (Memimage.writes img);
  Alcotest.(check int) "bytes" 24 (Memimage.bytes_written img)

(* ---------------- snapshot / restore / clone ---------------------- *)

let test_snapshot_restore () =
  let img = mk () in
  Memimage.set_word img 0 7;
  let snap = Memimage.snapshot img in
  Memimage.set_word img 0 8;
  Memimage.restore img snap;
  Alcotest.(check int) "restored" 7 (Memimage.get_word img 0)

let test_restore_size_mismatch () =
  let img = mk () in
  Alcotest.check_raises "mismatch"
    (Invalid_argument "Memimage.restore: size mismatch") (fun () ->
        Memimage.restore img (Bytes.create 8))

let test_clone_independent () =
  let img = mk () in
  Memimage.set_word img 0 5;
  let c = Memimage.clone img ~name:"clone" in
  Memimage.set_word img 0 6;
  Alcotest.(check int) "clone keeps old" 5 (Memimage.get_word c 0);
  Alcotest.(check int) "original updated" 6 (Memimage.get_word img 0)

let test_alloc () =
  let img = mk () in
  let a = Memimage.alloc img 10 in
  let b = Memimage.alloc img 8 in
  Alcotest.(check int) "first at 0" 0 a;
  Alcotest.(check int) "aligned" 16 b;
  Alcotest.(check int) "allocated" 24 (Memimage.allocated img)

let test_alloc_exhaustion () =
  let img = mk ~size:64 () in
  let (_ : int) = Memimage.alloc img 64 in
  Alcotest.(check bool) "exhausted raises" true
    (try
       ignore (Memimage.alloc img 1);
       false
     with Failure _ -> true)

let prop_word_store_load =
  QCheck.Test.make ~name:"random word writes read back" ~count:200
    QCheck.(list (pair (int_range 0 63) int))
    (fun writes ->
       let img = mk () in
       let model = Hashtbl.create 16 in
       List.iter
         (fun (slot, v) ->
            Hashtbl.replace model slot v;
            Memimage.set_word img (slot * 8) v)
         writes;
       Hashtbl.fold
         (fun slot v acc -> acc && Memimage.get_word img (slot * 8) = v)
         model true)

(* ---------------- dirty regions / baseline ------------------------ *)

let test_dirty_marking () =
  let img = mk () in
  Alcotest.(check int) "fresh image clean" 0 (Memimage.dirty_granules img);
  Memimage.set_word img 0 1;
  Alcotest.(check int) "one granule" 1 (Memimage.dirty_granules img);
  Memimage.set_word img 8 2;
  Alcotest.(check int) "same granule not recounted" 1
    (Memimage.dirty_granules img);
  (* A write spanning a granule boundary marks both granules. *)
  Memimage.set_bytes img ~off:((2 * Memimage.granule) - 4) (Bytes.create 8);
  Alcotest.(check int) "boundary write marks two" 3
    (Memimage.dirty_granules img)

(* A zero-length write covers no granule, even at offset 0, where its
   last-granule index [(0 + 0 - 1) lsr 8] is the largest int. *)
let test_empty_write_marks_nothing () =
  let img = mk () in
  Memimage.set_bytes img ~off:0 Bytes.empty;
  Memimage.set_string img ~off:300 ~len:0 "";
  Memimage.write_raw img ~off:0 Bytes.empty ~src_off:0 ~len:0;
  Alcotest.(check int) "nothing dirty" 0 (Memimage.dirty_granules img)

let test_baseline_restore_exact () =
  let img = mk () in
  Memimage.set_word img 0 7;
  Memimage.set_word img 512 8;
  Memimage.set_baseline img;
  Alcotest.(check int) "clean after set_baseline" 0
    (Memimage.dirty_granules img);
  let pristine = Memimage.snapshot img in
  Memimage.set_word img 0 99;
  Memimage.set_word img 1024 100;
  let restored = Memimage.restore_baseline img in
  Alcotest.(check bytes) "contents back to baseline" pristine
    (Memimage.snapshot img);
  Alcotest.(check int) "restored two granules" (2 * Memimage.granule) restored;
  Alcotest.(check int) "clean again" 0 (Memimage.dirty_granules img);
  Alcotest.(check int) "savings accounted"
    (Memimage.size img - restored)
    (Memimage.restore_bytes_saved img)

let test_restore_baseline_requires_baseline () =
  let img = mk () in
  Alcotest.check_raises "no baseline"
    (Invalid_argument "Memimage.restore_baseline: no baseline set") (fun () ->
        ignore (Memimage.restore_baseline img))

let test_write_raw_marks_dirty () =
  (* Raw (hook-bypassing) writes must still be visible to dirty-region
     restarts, or restore_baseline would miss them. *)
  let img = mk () in
  Memimage.set_baseline img;
  let pristine = Memimage.snapshot img in
  Memimage.write_raw img ~off:300 (Bytes.of_string "XYZ") ~src_off:0 ~len:3;
  Alcotest.(check int) "raw write dirtied" 1 (Memimage.dirty_granules img);
  ignore (Memimage.restore_baseline img);
  Alcotest.(check bytes) "raw write undone" pristine (Memimage.snapshot img)

let test_generic_restore_conservative () =
  let img = mk () in
  Memimage.set_baseline img;
  let snap = Memimage.snapshot img in
  Memimage.restore img snap;
  Alcotest.(check int) "generic restore marks everything"
    (Memimage.size img / Memimage.granule)
    (Memimage.dirty_granules img)

let prop_baseline_restore_inverse =
  QCheck.Test.make
    ~name:"restore_baseline undoes any mix of hooked and raw writes"
    ~count:200
    QCheck.(list (pair (int_range 0 4070) (int_range 1 24)))
    (fun writes ->
       let img = mk () in
       for i = 0 to 63 do
         Memimage.set_word img (i * 8) (i * 31)
       done;
       Memimage.set_baseline img;
       let pristine = Memimage.snapshot img in
       (* Every fifth write is preceded by a restart, so granules are
          dirtied again after being restored. *)
       let restarts_exact = ref true in
       List.iteri
         (fun i (off, len) ->
            if i mod 5 = 4 then begin
              ignore (Memimage.restore_baseline img);
              if Memimage.snapshot img <> pristine then restarts_exact := false
            end;
            if i land 1 = 0 then
              Memimage.set_bytes img ~off (Bytes.make len 'w')
            else
              Memimage.write_raw img ~off (Bytes.make len 'r') ~src_off:0 ~len)
         writes;
       ignore (Memimage.restore_baseline img);
       !restarts_exact
       && Memimage.snapshot img = pristine
       && Memimage.dirty_granules img = 0)

(* Whole-image overwrites after a baseline is set: a restart still
   returns to the baseline. *)
let test_baseline_survives_whole_image_writes () =
  let img = mk () in
  Memimage.set_word img 8 5;
  Memimage.set_baseline img;
  let pristine = Memimage.snapshot img in
  Memimage.clear img;
  ignore (Memimage.restore_baseline img);
  Alcotest.(check bytes) "after clear" pristine (Memimage.snapshot img);
  Memimage.restore img (Bytes.make (Memimage.size img) 'z');
  ignore (Memimage.restore_baseline img);
  Alcotest.(check bytes) "after restore" pristine (Memimage.snapshot img)

(* ---------------- sparse backing vs a dense reference ------------- *)

(* The image backs only a prefix of its logical size. A plain
   [Bytes.make size] model with the same dirty/baseline/undo semantics
   must agree with it on every result, every exception and every
   counter, for random operation sequences that straddle the backing
   edge, step outside the image and rewind through the undo log. *)

type op =
  | Set_word of int * int
  | Get_word of int
  | Set_string of int * int * string
  | Get_string of int * int
  | Equal_string of int * int * string
  | Set_bytes of int * int * char
  | Get_bytes of int * int
  | Write_raw of int * int * char
  | Snapshot                     (* keep a full copy for [Restore_kept] *)
  | Restore_kept
  | Restore_pattern of int * int * char  (* zeros but for one run *)
  | Restore_wrong_size
  | Clone
  | Fresh                        (* a new, unbacked image of the same size *)
  | Clear
  | Set_baseline
  | Restore_baseline
  | Log_open                     (* clear the undo log, hook it in *)
  | Log_close
  | Record of int * int          (* direct Undo_log.record *)
  | Rollback

let show_op = function
  | Set_word (o, v) -> Printf.sprintf "set_word %d %d" o v
  | Get_word o -> Printf.sprintf "get_word %d" o
  | Set_string (o, l, s) -> Printf.sprintf "set_string %d %d %S" o l s
  | Get_string (o, l) -> Printf.sprintf "get_string %d %d" o l
  | Equal_string (o, l, s) -> Printf.sprintf "equal_string %d %d %S" o l s
  | Set_bytes (o, l, c) -> Printf.sprintf "set_bytes %d %d %C" o l c
  | Get_bytes (o, l) -> Printf.sprintf "get_bytes %d %d" o l
  | Write_raw (o, l, c) -> Printf.sprintf "write_raw %d %d %C" o l c
  | Snapshot -> "snapshot"
  | Restore_kept -> "restore_kept"
  | Restore_pattern (o, l, c) -> Printf.sprintf "restore_pattern %d %d %C" o l c
  | Restore_wrong_size -> "restore_wrong_size"
  | Clone -> "clone"
  | Fresh -> "fresh"
  | Clear -> "clear"
  | Set_baseline -> "set_baseline"
  | Restore_baseline -> "restore_baseline"
  | Log_open -> "log_open"
  | Log_close -> "log_close"
  | Record (o, l) -> Printf.sprintf "record %d %d" o l
  | Rollback -> "rollback"

(* Offsets: mostly low in the image, so the backing stays a strict
   prefix for long stretches; many at the edges a doubling backing
   grows to, and at other granule edges; a few outside the image on
   either side. *)
let gen_off size =
  QCheck.Gen.(
    frequency
      [ (6, int_range 0 700);
        (4, map (fun (k, d) -> (Memimage.granule lsl k) + d)
              (pair (int_range 0 3) (int_range (-12) 12)));
        (2, map (fun (g, d) -> (g * Memimage.granule) + d)
              (pair (int_range 0 (size / Memimage.granule)) (int_range (-12) 12)));
        (2, int_range 0 size);
        (1, int_range (-10) (-1));
        (1, int_range (size - 10) (size + 10)) ])

let gen_op size =
  let open QCheck.Gen in
  let off = gen_off size in
  let len = int_range 0 40 in
  let ch = oneofl [ 'a'; 'z'; '\000'; '\255' ] in
  frequency
    [ (5, map2 (fun o v -> Set_word (o, v)) off int);
      (5, map (fun o -> Get_word o) off);
      (2, map3 (fun o l n -> Set_string (o, l, String.make n 's')) off
            (int_range 0 24) (int_range 0 26));
      (3, map2 (fun o l -> Get_string (o, l)) off len);
      (3, map3 (fun o l s -> Equal_string (o, l, s)) off (int_range 0 24)
            (oneofl [ ""; "s"; "ss"; String.make 8 's'; String.make 24 's'; "s\000" ]));
      (2, map3 (fun o l c -> Set_bytes (o, l, c)) off len ch);
      (3, map2 (fun o l -> Get_bytes (o, l)) off len);
      (3, map3 (fun o l c -> Write_raw (o, l, c)) off len ch);
      (1, return Snapshot);
      (1, return Restore_kept);
      (1, map3 (fun o l c -> Restore_pattern (o, l, c)) off (int_range 0 600) ch);
      (1, return Restore_wrong_size);
      (1, return Clone);
      (1, return Fresh);
      (1, return Clear);
      (2, return Set_baseline);
      (2, return Restore_baseline);
      (2, return Log_open);
      (1, return Log_close);
      (2, map2 (fun o l -> Record (o, l)) off len);
      (2, return Rollback) ]

type res = R_unit | R_int of int | R_str of string | R_bool of bool | R_err of string

let show_res = function
  | R_unit -> "()"
  | R_int n -> string_of_int n
  | R_str s -> Printf.sprintf "%S" s
  | R_bool b -> string_of_bool b
  | R_err m -> "Invalid_argument " ^ m

let attempt f = try f () with Invalid_argument m -> R_err m

(* The dense reference: the image as one zero-filled [Bytes] of its
   full size, a full baseline copy, one dirty flag per granule, and
   the undo log as a list of (offset, old bytes), newest first. *)
type model = {
  msize : int;
  mutable mem : Bytes.t;
  mutable mdirty : bool array;
  mutable mbase : Bytes.t option;
  mutable mwrites : int;
  mutable mwritten : int;
  mutable mrestored : int;
  mutable msaved : int;
  mutable mlog : (int * Bytes.t) list;
  mutable mhooked : bool;
}

let in_model m ~off ~len = off >= 0 && len >= 0 && off <= m.msize - len

let model_mark m ~off ~len =
  if len > 0 then
    for g = off / Memimage.granule to (off + len - 1) / Memimage.granule do
      m.mdirty.(g) <- true
    done

let model_record m ~off ~len =
  if len > 0 then begin
    if not (in_model m ~off ~len) then
      invalid_arg "Undo_log.record: range outside image";
    m.mlog <- (off, Bytes.sub m.mem off len) :: m.mlog
  end

(* What [pre_write] does: count, mark (in-image only), call the hook. *)
let model_pre_write m ~off ~len =
  m.mwrites <- m.mwrites + 1;
  m.mwritten <- m.mwritten + len;
  if in_model m ~off ~len then model_mark m ~off ~len;
  if m.mhooked then model_record m ~off ~len

(* [write_raw] checks small ranges itself and leaves larger ones to
   [Bytes.blit]. *)
let model_write_raw m ~off src len =
  if len <= 16
     && (len < 0 || len > Bytes.length src || off < 0 || off > m.msize - len)
  then invalid_arg "Memimage.write_raw";
  Bytes.blit src 0 m.mem off len

let model_restore_baseline m =
  match m.mbase with
  | None -> invalid_arg "Memimage.restore_baseline: no baseline set"
  | Some base ->
    let restored = ref 0 in
    Array.iteri
      (fun g d ->
         if d then begin
           let off = g * Memimage.granule in
           let glen = min Memimage.granule (m.msize - off) in
           Bytes.blit base off m.mem off glen;
           m.mdirty.(g) <- false;
           restored := !restored + glen
         end)
      m.mdirty;
    m.mrestored <- m.mrestored + !restored;
    m.msaved <- m.msaved + (m.msize - !restored);
    !restored

let model_rollback m =
  List.iter
    (fun (off, old) ->
       let len = Bytes.length old in
       model_mark m ~off ~len;
       Bytes.blit old 0 m.mem off len)
    m.mlog;
  m.mlog <- []

let pattern size (o, l, c) =
  let b = Bytes.make size '\000' in
  let o = max 0 (min o size) in
  Bytes.fill b o (min l (size - o)) c;
  b

(* Run one op on both sides; the results must match. *)
let step ~img ~log ~kept m op =
  let hook_on i =
    Memimage.set_write_hook i
      (Some (fun ~offset ~len -> ignore (Undo_log.record log ~image:i ~offset ~len)))
  in
  let real, expect =
    match op with
    | Set_word (off, v) ->
      ( attempt (fun () -> Memimage.set_word !img off v; R_unit),
        attempt (fun () ->
            model_pre_write m ~off ~len:8;
            Bytes.set_int64_le m.mem off (Int64.of_int v);
            R_unit) )
    | Get_word off ->
      ( attempt (fun () -> R_int (Memimage.get_word !img off)),
        attempt (fun () -> R_int (Int64.to_int (Bytes.get_int64_le m.mem off))) )
    | Set_string (off, len, s) ->
      ( attempt (fun () -> Memimage.set_string !img ~off ~len s; R_unit),
        attempt (fun () ->
            if String.length s > len then
              invalid_arg
                (Printf.sprintf "Memimage.set_string: %S exceeds field of %d bytes"
                   s len);
            model_pre_write m ~off ~len;
            Bytes.fill m.mem off len '\000';
            Bytes.blit_string s 0 m.mem off (String.length s);
            R_unit) )
    | Get_string (off, len) ->
      let cut s = match String.index_opt s '\000' with
        | None -> s | Some i -> String.sub s 0 i in
      ( attempt (fun () -> R_str (Memimage.get_string !img ~off ~len)),
        attempt (fun () -> R_str (cut (Bytes.sub_string m.mem off len))) )
    | Equal_string (off, len, s) ->
      let cut s = match String.index_opt s '\000' with
        | None -> s | Some i -> String.sub s 0 i in
      ( attempt (fun () -> R_bool (Memimage.equal_string !img ~off ~len s)),
        attempt (fun () -> R_bool (String.equal (cut (Bytes.sub_string m.mem off len)) s)) )
    | Set_bytes (off, len, c) ->
      let b = Bytes.make len c in
      ( attempt (fun () -> Memimage.set_bytes !img ~off b; R_unit),
        attempt (fun () ->
            model_pre_write m ~off ~len;
            Bytes.blit b 0 m.mem off len;
            R_unit) )
    | Get_bytes (off, len) ->
      ( attempt (fun () -> R_str (Bytes.to_string (Memimage.get_bytes !img ~off ~len))),
        attempt (fun () -> R_str (Bytes.sub_string m.mem off len)) )
    | Write_raw (off, len, c) ->
      let b = Bytes.make len c in
      ( attempt (fun () -> Memimage.write_raw !img ~off b ~src_off:0 ~len; R_unit),
        attempt (fun () ->
            if in_model m ~off ~len then model_mark m ~off ~len;
            model_write_raw m ~off b len;
            R_unit) )
    | Snapshot ->
      let snap = Memimage.snapshot !img in
      kept := Some snap;
      (R_str (Bytes.to_string snap), R_str (Bytes.to_string m.mem))
    | Restore_kept | Restore_pattern _ ->
      let snap =
        match op, !kept with
        | Restore_pattern (o, l, c), _ -> pattern m.msize (o, l, c)
        | _, Some s -> s
        | _, None -> Bytes.make m.msize 'k'
      in
      Memimage.restore !img (Bytes.copy snap);
      m.mem <- Bytes.copy snap;
      Array.fill m.mdirty 0 (Array.length m.mdirty) true;
      m.mrestored <- m.mrestored + m.msize;
      (R_unit, R_unit)
    | Restore_wrong_size ->
      ( attempt (fun () -> Memimage.restore !img (Bytes.create (m.msize + 1)); R_unit),
        R_err "Memimage.restore: size mismatch" )
    | Clone ->
      (* Carry on with the clone: no hook, no baseline, all dirty,
         counters from zero. *)
      img := Memimage.clone !img ~name:"clone";
      m.mdirty <- Array.make (Array.length m.mdirty) true;
      m.mbase <- None;
      m.mwrites <- 0;
      m.mwritten <- 0;
      m.mrestored <- 0;
      m.msaved <- 0;
      m.mhooked <- false;
      (R_unit, R_unit)
    | Fresh ->
      (* The undo log keeps its entries: a rollback onto the fresh
         image must back them first. *)
      img := Memimage.create ~name:"fresh" ~size:m.msize;
      Bytes.fill m.mem 0 m.msize '\000';
      m.mdirty <- Array.make (Array.length m.mdirty) false;
      m.mbase <- None;
      m.mwrites <- 0;
      m.mwritten <- 0;
      m.mrestored <- 0;
      m.msaved <- 0;
      m.mhooked <- false;
      (R_unit, R_unit)
    | Clear ->
      Memimage.clear !img;
      Bytes.fill m.mem 0 m.msize '\000';
      Array.fill m.mdirty 0 (Array.length m.mdirty) true;
      (R_unit, R_unit)
    | Set_baseline ->
      Memimage.set_baseline !img;
      m.mbase <- Some (Bytes.copy m.mem);
      Array.fill m.mdirty 0 (Array.length m.mdirty) false;
      (R_unit, R_unit)
    | Restore_baseline ->
      ( attempt (fun () -> R_int (Memimage.restore_baseline !img)),
        attempt (fun () -> R_int (model_restore_baseline m)) )
    | Log_open ->
      Undo_log.clear log;
      hook_on !img;
      m.mlog <- [];
      m.mhooked <- true;
      (R_unit, R_unit)
    | Log_close ->
      Memimage.set_write_hook !img None;
      m.mhooked <- false;
      (R_unit, R_unit)
    | Record (off, len) ->
      ( attempt (fun () -> R_bool (Undo_log.record log ~image:!img ~offset:off ~len)),
        attempt (fun () -> model_record m ~off ~len; R_bool true) )
    | Rollback ->
      Undo_log.rollback log !img;
      model_rollback m;
      (R_unit, R_unit)
  in
  let img = !img in
  let counters i =
    [ Memimage.dirty_granules i; Memimage.dirty_bytes i; Memimage.writes i;
      Memimage.bytes_written i; Memimage.restore_bytes i;
      Memimage.restore_bytes_saved i ]
  in
  let n_dirty = Array.fold_left (fun a d -> if d then a + 1 else a) 0 m.mdirty in
  let mcounters =
    [ n_dirty; min m.msize (n_dirty * Memimage.granule); m.mwrites; m.mwritten;
      m.mrestored; m.msaved ]
  in
  if real <> expect then
    QCheck.Test.fail_reportf "%s: image %s, dense model %s" (show_op op)
      (show_res real) (show_res expect);
  if counters img <> mcounters then
    QCheck.Test.fail_reportf "%s: counters [%s], dense model [%s]" (show_op op)
      (String.concat "; " (List.map string_of_int (counters img)))
      (String.concat "; " (List.map string_of_int mcounters));
  if Memimage.has_baseline img <> (m.mbase <> None)
  || Memimage.size img <> m.msize
  || Memimage.resident_bytes img > m.msize
  then QCheck.Test.fail_reportf "%s: baseline/size/backing disagree" (show_op op)

let prop_sparse_matches_dense =
  let gen =
    QCheck.Gen.(int_range 300 2100 >>= fun size ->
                map (fun ops -> (size, ops)) (list_size (int_range 1 60) (gen_op size)))
  in
  let print (size, ops) =
    Printf.sprintf "size %d: %s" size (String.concat "; " (List.map show_op ops))
  in
  QCheck.Test.make ~name:"sparse image agrees with a dense Bytes model" ~count:1000
    (QCheck.make ~print gen)
    (fun (size, ops) ->
       let img = ref (Memimage.create ~name:"sparse" ~size) in
       let m =
         { msize = size; mem = Bytes.make size '\000';
           mdirty = Array.make ((size + Memimage.granule - 1) / Memimage.granule) false;
           mbase = None; mwrites = 0; mwritten = 0; mrestored = 0; msaved = 0;
           mlog = []; mhooked = false }
       in
       let log = Undo_log.create () and kept = ref None in
       List.iter (step ~img ~log ~kept m) ops;
       Bytes.equal (Memimage.snapshot !img) m.mem)

(* A word straddling the backing's end reads its backed bytes and
   zeros; writing it backs the rest. *)
let test_word_straddles_backing () =
  let img = mk () in
  Memimage.set_word img 0 1;
  let edge = Memimage.resident_bytes img in
  Alcotest.(check int) "one granule backed" Memimage.granule edge;
  Memimage.set_word img (edge - 8) (-1);
  Alcotest.(check int) "straddling read" 0xffff_ffff
    (Memimage.get_word img (edge - 4));
  Memimage.set_word img (edge - 4) 0x1234_5678_9abc;
  Alcotest.(check int) "straddling write" 0x1234_5678_9abc
    (Memimage.get_word img (edge - 4));
  Alcotest.(check bool) "backing grew" true (Memimage.resident_bytes img > edge);
  Alcotest.(check int) "logical size unchanged" 4096 (Memimage.size img)

(* ---------------- layout ------------------------------------------ *)

let make_spec () =
  let spec = Layout.spec () in
  let f_id = Layout.int spec "id" in
  let f_name = Layout.str spec "name" ~len:12 in
  let f_next = Layout.int spec "next" in
  Layout.seal spec;
  (spec, f_id, f_name, f_next)

let test_layout_sizeof () =
  let spec, _, _, _ = make_spec () in
  (* 8 (int) + 16 (12-byte string aligned to 8) + 8 (int) *)
  Alcotest.(check int) "sizeof" 32 (Layout.sizeof spec)

let test_layout_sealed () =
  let spec, _, _, _ = make_spec () in
  Alcotest.(check bool) "add after seal fails" true
    (try
       ignore (Layout.int spec "late");
       false
     with Failure _ -> true)

let test_table_rows_independent () =
  let spec, f_id, f_name, _ = make_spec () in
  let img = mk () in
  let tbl = Layout.Table.alloc img ~spec ~rows:4 in
  Layout.Table.set_int tbl ~row:0 f_id 10;
  Layout.Table.set_int tbl ~row:1 f_id 11;
  Layout.Table.set_str tbl ~row:0 f_name "zero";
  Layout.Table.set_str tbl ~row:1 f_name "one";
  Alcotest.(check int) "row0 id" 10 (Layout.Table.get_int tbl ~row:0 f_id);
  Alcotest.(check int) "row1 id" 11 (Layout.Table.get_int tbl ~row:1 f_id);
  Alcotest.(check string) "row0 name" "zero" (Layout.Table.get_str tbl ~row:0 f_name);
  Alcotest.(check string) "row1 name" "one" (Layout.Table.get_str tbl ~row:1 f_name)

let test_table_bounds () =
  let spec, f_id, _, _ = make_spec () in
  let img = mk () in
  let tbl = Layout.Table.alloc img ~spec ~rows:2 in
  Alcotest.(check bool) "row out of bounds" true
    (try
       ignore (Layout.Table.get_int tbl ~row:2 f_id);
       false
     with Invalid_argument _ -> true)

let test_field_kind_static () =
  (* Field kinds are distinct abstract types: misuse does not compile.
     Here we only check the names survive. *)
  let _, f_id, f_name, _ = make_spec () in
  Alcotest.(check string) "int field name" "id" (Layout.int_field_name f_id);
  Alcotest.(check string) "str field name" "name" (Layout.str_field_name f_name)

let test_cell () =
  let img = mk () in
  let c = Layout.Cell.alloc_int img "counter" in
  Layout.Cell.set c 99;
  Alcotest.(check int) "cell" 99 (Layout.Cell.get c)

let prop_table_addressing_disjoint =
  QCheck.Test.make ~name:"distinct rows have disjoint field addresses"
    ~count:100
    QCheck.(pair (int_range 0 31) (int_range 0 31))
    (fun (r1, r2) ->
       let spec, f_id, _, f_next = make_spec () in
       let img = mk ~size:8192 () in
       let tbl = Layout.Table.alloc img ~spec ~rows:32 in
       let a1 = Layout.Table.addr_int tbl ~row:r1 f_id in
       let a2 = Layout.Table.addr_int tbl ~row:r2 f_next in
       r1 = r2 || a1 <> a2)

let () =
  Alcotest.run "osiris_memimage"
    [ ( "raw",
        [ Alcotest.test_case "word roundtrip" `Quick test_word_roundtrip;
          Alcotest.test_case "string roundtrip" `Quick test_string_roundtrip;
          Alcotest.test_case "string too long" `Quick test_string_too_long;
          Alcotest.test_case "shorter overwrite" `Quick test_string_overwrite_shorter;
          Alcotest.test_case "bytes roundtrip" `Quick test_bytes_roundtrip;
          QCheck_alcotest.to_alcotest prop_word_store_load ] );
      ( "hook",
        [ Alcotest.test_case "old contents" `Quick test_hook_sees_old_contents;
          Alcotest.test_case "removal" `Quick test_hook_removal;
          Alcotest.test_case "accounting" `Quick test_write_accounting ] );
      ( "snapshot",
        [ Alcotest.test_case "snapshot/restore" `Quick test_snapshot_restore;
          Alcotest.test_case "size mismatch" `Quick test_restore_size_mismatch;
          Alcotest.test_case "clone independent" `Quick test_clone_independent;
          Alcotest.test_case "alloc" `Quick test_alloc;
          Alcotest.test_case "alloc exhaustion" `Quick test_alloc_exhaustion ] );
      ( "dirty",
        [ Alcotest.test_case "granule marking" `Quick test_dirty_marking;
          Alcotest.test_case "empty write marks nothing" `Quick
            test_empty_write_marks_nothing;
          Alcotest.test_case "baseline restore exact" `Quick
            test_baseline_restore_exact;
          Alcotest.test_case "baseline required" `Quick
            test_restore_baseline_requires_baseline;
          Alcotest.test_case "raw writes dirty" `Quick
            test_write_raw_marks_dirty;
          Alcotest.test_case "generic restore conservative" `Quick
            test_generic_restore_conservative;
          Alcotest.test_case "baseline survives clear and restore" `Quick
            test_baseline_survives_whole_image_writes;
          QCheck_alcotest.to_alcotest prop_baseline_restore_inverse ] );
      ( "sparse",
        [ Alcotest.test_case "word straddles backing" `Quick
            test_word_straddles_backing;
          QCheck_alcotest.to_alcotest prop_sparse_matches_dense ] );
      ( "layout",
        [ Alcotest.test_case "sizeof" `Quick test_layout_sizeof;
          Alcotest.test_case "sealed" `Quick test_layout_sealed;
          Alcotest.test_case "rows independent" `Quick test_table_rows_independent;
          Alcotest.test_case "bounds" `Quick test_table_bounds;
          Alcotest.test_case "field kinds" `Quick test_field_kind_static;
          Alcotest.test_case "cell" `Quick test_cell;
          QCheck_alcotest.to_alcotest prop_table_addressing_disjoint ] ) ]
