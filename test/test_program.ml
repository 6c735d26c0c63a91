(* Tests for the program DSL: monadic structure, control helpers, and
   the typed memory access layer. A miniature interpreter executes the
   pure subset (Compute / Load / Store / Rand / Now / Done / Fail)
   against a raw image so DSL semantics can be checked without a
   kernel. *)

open Prog.Syntax

type 'a outcome = Value of 'a | Crashed of string

(* Interpret the non-communicating subset of the DSL. *)
let interp img prog =
  let steps = ref 0 in
  let rec go : type a. a Prog.t -> a outcome = function
    | Prog.Done x -> Value x
    | Prog.Fail m -> Crashed m
    | Prog.Compute (_, k) ->
      incr steps;
      go (k ())
    | Prog.Load (off, k) ->
      incr steps;
      go (k (Memimage.get_word img off))
    | Prog.Store (off, v, k) ->
      incr steps;
      Memimage.set_word img off v;
      go (k ())
    | Prog.Load_str { off; len; k } ->
      incr steps;
      go (k (Memimage.get_string img ~off ~len))
    | Prog.Store_str { off; len; v; k } ->
      incr steps;
      Memimage.set_string img ~off ~len v;
      go (k ())
    | Prog.Rand (bound, k) -> go (k (bound / 2))
    | Prog.Now k -> go (k 0)
    | _ -> failwith "interp: communicating operation in pure test"
  in
  let r = go prog in
  (r, !steps)

let mk () = Memimage.create ~name:"prog-test" ~size:4096

let run img p = fst (interp img p)

let check_value msg expected outcome =
  match outcome with
  | Value v -> Alcotest.(check int) msg expected v
  | Crashed m -> Alcotest.fail ("unexpected crash: " ^ m)

(* ---------------- monad ------------------------------------------- *)

let test_return_bind () =
  let img = mk () in
  check_value "return" 5 (run img (Prog.return 5));
  check_value "bind" 6 (run img (Prog.bind (Prog.return 5) (fun x -> Prog.return (x + 1))))

let test_bind_sequences_effects () =
  let img = mk () in
  let p =
    let* () = Prog.store 0 1 in
    let* () = Prog.store 8 2 in
    let* a = Prog.load 0 in
    let* b = Prog.load 8 in
    Prog.return (a * 10 + b)
  in
  check_value "sequenced" 12 (run img p)

let test_fail_short_circuits () =
  let img = mk () in
  let p =
    let* () = Prog.store 0 1 in
    let* () = Prog.fail "boom" in
    Prog.store 0 99
  in
  (match run img p with
   | Crashed "boom" -> ()
   | Crashed m -> Alcotest.fail ("wrong message: " ^ m)
   | Value () -> Alcotest.fail "expected crash");
  Alcotest.(check int) "first store happened" 1 (Memimage.get_word img 0)

let test_map () =
  let img = mk () in
  check_value "map" 10 (run img (Prog.map (fun x -> x * 2) (Prog.return 5)))

let prop_bind_associative =
  (* (m >>= f) >>= g  behaves like  m >>= (fun x -> f x >>= g)
     observed through the interpreter on store/load programs. *)
  QCheck.Test.make ~name:"bind is associative (observationally)" ~count:100
    QCheck.(triple small_int small_int small_int)
    (fun (a, b, c) ->
       let m = Prog.store 0 a in
       let f () = Prog.store 8 b in
       let g () =
         let* x = Prog.load 0 in
         let* y = Prog.load 8 in
         Prog.return (x + y + c)
       in
       let img1 = mk () and img2 = mk () in
       let left = run img1 (Prog.bind (Prog.bind m f) g) in
       let right = run img2 (Prog.bind m (fun () -> Prog.bind (f ()) g)) in
       left = right && Memimage.snapshot img1 = Memimage.snapshot img2)

(* ---------------- helpers ----------------------------------------- *)

let test_repeat () =
  let img = mk () in
  let p =
    let incr_cell =
      let* v = Prog.load 0 in
      Prog.store 0 (v + 1)
    in
    Prog.bind (Prog.repeat 7 incr_cell) (fun () -> Prog.load 0)
  in
  check_value "repeat 7" 7 (run img p)

let test_iter_list () =
  let img = mk () in
  let p =
    let* () =
      Prog.iter_list (fun v ->
          let* prev = Prog.load 0 in
          Prog.store 0 (prev + v))
        [ 1; 2; 3; 4 ]
    in
    Prog.load 0
  in
  check_value "sum" 10 (run img p)

let test_guard () =
  let img = mk () in
  (match run img (Prog.guard true "fine") with
   | Value () -> ()
   | Crashed _ -> Alcotest.fail "guard true crashed");
  match run img (Prog.guard false "invariant") with
  | Crashed m ->
    Alcotest.(check bool) "names the invariant" true
      (String.length m > 0 && String.sub m 0 9 = "assertion")
  | Value () -> Alcotest.fail "guard false passed"

(* ---------------- Mem accessors ----------------------------------- *)

let test_mem_table_access () =
  let img = mk () in
  let spec = Layout.spec () in
  let f_v = Layout.int spec "v" in
  let f_s = Layout.str spec "s" ~len:8 in
  Layout.seal spec;
  let tbl = Layout.Table.alloc img ~spec ~rows:4 in
  let p =
    let* () = Prog.Mem.set_int tbl ~row:2 f_v 55 in
    let* () = Prog.Mem.set_str tbl ~row:2 f_s "deux" in
    let* v = Prog.Mem.get_int tbl ~row:2 f_v in
    let* s = Prog.Mem.get_str tbl ~row:2 f_s in
    Prog.return (v, s)
  in
  (match run img p with
   | Value (55, "deux") -> ()
   | Value (v, s) -> Alcotest.fail (Printf.sprintf "got (%d, %s)" v s)
   | Crashed m -> Alcotest.fail m);
  (* DSL access and direct access agree on addressing. *)
  Alcotest.(check int) "direct agrees" 55 (Layout.Table.get_int tbl ~row:2 f_v)

let test_mem_cell_access () =
  let img = mk () in
  let c = Layout.Cell.alloc_int img "cell" in
  let p =
    let* () = Prog.Mem.set_cell c 7 in
    Prog.Mem.get_cell c
  in
  check_value "cell via DSL" 7 (run img p);
  Alcotest.(check int) "direct agrees" 7 (Layout.Cell.get c)

let prop_repeat_count =
  QCheck.Test.make ~name:"repeat n runs exactly n times" ~count:100
    QCheck.(int_range 0 50)
    (fun n ->
       let img = mk () in
       let incr_cell =
         let* v = Prog.load 0 in
         Prog.store 0 (v + 1)
       in
       ignore (run img (Prog.repeat n incr_cell));
       Memimage.get_word img 0 = n)

let () =
  Alcotest.run "osiris_program"
    [ ( "monad",
        [ Alcotest.test_case "return/bind" `Quick test_return_bind;
          Alcotest.test_case "effect order" `Quick test_bind_sequences_effects;
          Alcotest.test_case "fail short-circuits" `Quick test_fail_short_circuits;
          Alcotest.test_case "map" `Quick test_map;
          QCheck_alcotest.to_alcotest prop_bind_associative ] );
      ( "helpers",
        [ Alcotest.test_case "repeat" `Quick test_repeat;
          Alcotest.test_case "iter_list" `Quick test_iter_list;
          Alcotest.test_case "guard" `Quick test_guard;
          QCheck_alcotest.to_alcotest prop_repeat_count ] );
      ( "mem",
        [ Alcotest.test_case "table access" `Quick test_mem_table_access;
          Alcotest.test_case "cell access" `Quick test_mem_cell_access ] ) ]
