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
      ( "layout",
        [ Alcotest.test_case "sizeof" `Quick test_layout_sizeof;
          Alcotest.test_case "sealed" `Quick test_layout_sealed;
          Alcotest.test_case "rows independent" `Quick test_table_rows_independent;
          Alcotest.test_case "bounds" `Quick test_table_bounds;
          Alcotest.test_case "field kinds" `Quick test_field_kind_static;
          Alcotest.test_case "cell" `Quick test_cell;
          QCheck_alcotest.to_alcotest prop_table_addressing_disjoint ] ) ]
