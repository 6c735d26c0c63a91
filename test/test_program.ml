(* Tests for typed memory access over layouts ([Kernel.Op.Mem]): the
   table and cell accessors address the same bytes as direct [Layout]
   access. Memory operations belong to a running server thread, so each
   case runs as the init of the only server of a miniature kernel. *)

module Mem = Kernel.Op.Mem

let mk () = Memimage.create ~name:"prog-test" ~size:4096

(* Boot a kernel whose one server owns [image] and runs [init]. *)
let run_in_server image init =
  let cfg =
    Kernel.default_config Policy.enhanced ~lookup_program:(fun _ -> None) ()
  in
  let k = Kernel.create cfg in
  Kernel.add_server k
    { Kernel.srv_ep = Endpoint.ds;
      srv_name = "mem";
      srv_image = image;
      srv_clone_extra_kb = 0;
      srv_init = init;
      srv_loop = Srvlib.simple_loop (fun _ _ -> ());
      srv_multithreaded = false };
  Kernel.boot k

let test_mem_table_access () =
  let img = mk () in
  let spec = Layout.spec () in
  let f_v = Layout.int spec "v" in
  let f_s = Layout.str spec "s" ~len:8 in
  Layout.seal spec;
  let tbl = Layout.Table.alloc img ~spec ~rows:4 in
  let got = ref None in
  run_in_server img (fun () ->
      Mem.set_int tbl ~row:2 f_v 55;
      Mem.set_str tbl ~row:2 f_s "deux";
      let v = Mem.get_int tbl ~row:2 f_v in
      let s = Mem.get_str tbl ~row:2 f_s in
      got := Some (v, s));
  (match !got with
   | Some (55, "deux") -> ()
   | Some (v, s) -> Alcotest.fail (Printf.sprintf "got (%d, %s)" v s)
   | None -> Alcotest.fail "init did not run");
  (* Operation access and direct access agree on addressing. *)
  Alcotest.(check int) "direct agrees" 55 (Layout.Table.get_int tbl ~row:2 f_v)

let test_mem_cell_access () =
  let img = mk () in
  let c = Layout.Cell.alloc_int img "cell" in
  let got = ref None in
  run_in_server img (fun () ->
      Mem.set_cell c 7;
      got := Some (Mem.get_cell c));
  Alcotest.(check (option int)) "cell via operations" (Some 7) !got;
  Alcotest.(check int) "direct agrees" 7 (Layout.Cell.get c)

let () =
  Alcotest.run "osiris_program"
    [ ( "mem",
        [ Alcotest.test_case "table access" `Quick test_mem_table_access;
          Alcotest.test_case "cell access" `Quick test_mem_cell_access ] ) ]
