(* Kernel run-queue tests (lib/kernel/sched).  The first block holds
   unit cases: ordering, FIFO ties, clear, past-dated keys, keys far
   beyond the popped front, and ties between the in-order run and the
   heap; the property block checks exact (key, seq) pop order against
   a sorted-list oracle under kernel-shaped traffic that mixes all of
   those with interleaved push/pop, and under traces that steer pushes
   to each of the queue's two structures. *)

(* A far-future distance (2^35 cycles) for the far-key inputs. *)
let horizon = 1 lsl 35

(* ---------------- unit tests -------------------------------------- *)

let test_basic () =
  let s = Sched.create () in
  Alcotest.(check bool) "empty" true (Sched.is_empty s);
  Alcotest.(check int) "next_key empty" max_int (Sched.next_key s);
  Sched.push s ~key:5 50;
  Sched.push s ~key:1 10;
  Sched.push s ~key:3 30;
  Alcotest.(check int) "length" 3 (Sched.length s);
  Alcotest.(check int) "next_key" 1 (Sched.next_key s);
  Alcotest.(check int) "peek" 10 (Sched.peek s);
  Alcotest.(check int) "pop one" 10 (Sched.pop s);
  Alcotest.(check int) "popped_key one" 1 (Sched.popped_key s);
  Alcotest.(check int) "pop three" 30 (Sched.pop s);
  Alcotest.(check int) "popped_key three" 3 (Sched.popped_key s);
  Alcotest.(check int) "pop five" 50 (Sched.pop s);
  Alcotest.(check int) "drained" (-1) (Sched.pop s);
  Alcotest.(check int) "next_key drained" max_int (Sched.next_key s);
  Alcotest.(check int) "peek drained" (-1) (Sched.peek s)

let test_fifo_ties () =
  (* Equal keys pop in push order. *)
  let s = Sched.create () in
  for i = 1 to 10 do
    Sched.push s ~key:7 i
  done;
  let order = ref [] in
  let rec drain () =
    let v = Sched.pop s in
    if v >= 0 then begin
      order := v :: !order;
      drain ()
    end
  in
  drain ();
  Alcotest.(check (list int)) "fifo among ties"
    (List.init 10 (fun i -> i + 1))
    (List.rev !order)

let test_clear () =
  let s = Sched.create () in
  Sched.push s ~key:1 1;
  Sched.push s ~key:(horizon * 3) 2;
  Sched.clear s;
  Alcotest.(check bool) "cleared" true (Sched.is_empty s);
  Alcotest.(check int) "cleared pop" (-1) (Sched.pop s);
  (* Reusable after clear, with the sequence counter reset. *)
  Sched.push s ~key:4 44;
  Sched.push s ~key:4 45;
  Alcotest.(check int) "reuse" 44 (Sched.pop s);
  Alcotest.(check int) "reuse fifo" 45 (Sched.pop s)

(* ---------------- past-dated keys --------------------------------- *)

let test_past_dated () =
  (* The kernel routinely pushes keys below the last popped key
     (blocked receivers keep lagging vtimes).  They must pop before
     anything at or above the popped key, in exact (key, seq) order. *)
  let s = Sched.create () in
  Sched.push s ~key:1000 0;
  Alcotest.(check int) "advance the front" 0 (Sched.pop s);
  Sched.push s ~key:2000 1;
  Sched.push s ~key:10 2 (* past-dated *);
  Sched.push s ~key:500 3 (* past-dated *);
  Sched.push s ~key:10 4 (* tie with a past-dated key *);
  Alcotest.(check int) "past first" 2 (Sched.pop s);
  Alcotest.(check int) "past key" 10 (Sched.popped_key s);
  Alcotest.(check int) "past tie fifo" 4 (Sched.pop s);
  Alcotest.(check int) "past order" 3 (Sched.pop s);
  Alcotest.(check int) "then the future" 1 (Sched.pop s);
  Alcotest.(check int) "future key" 2000 (Sched.popped_key s)

(* ---------------- far keys ---------------------------------------- *)

let test_horizon_wraparound () =
  (* Keys a horizon or more beyond the popped front, mixed with near
     and past-dated ones. *)
  let s = Sched.create () in
  let h = horizon in
  Sched.push s ~key:((3 * h) + 7) 30;
  Sched.push s ~key:5 1;
  Sched.push s ~key:(h + 1) 10;
  Sched.push s ~key:(2 * h) 20;
  Alcotest.(check int) "near first" 1 (Sched.pop s);
  Alcotest.(check int) "first horizon" 10 (Sched.pop s);
  Alcotest.(check int) "key past horizon" (h + 1) (Sched.popped_key s);
  (* Push behind the advanced front while far entries wait. *)
  Sched.push s ~key:6 2;
  Alcotest.(check int) "past-dated beats far" 2 (Sched.pop s);
  Alcotest.(check int) "second horizon" 20 (Sched.pop s);
  Alcotest.(check int) "third horizon" 30 (Sched.pop s);
  Alcotest.(check int) "far key" ((3 * h) + 7) (Sched.popped_key s);
  Alcotest.(check bool) "drained" true (Sched.is_empty s)

(* ---------------- run / heap ties ---------------------------------- *)

let drain s =
  let rec go acc =
    let v = Sched.pop s in
    if v < 0 then List.rev acc else go ((Sched.popped_key s, v) :: acc)
  in
  go []

let test_run_heap_ties () =
  (* Pushes at or above the run's last key join the run, the others
     the heap.  At an equal key the earlier push pops first, whichever
     structure holds it: the heap holds both 20s, and of the two 50s
     the run holds the earlier (a key both structures hold was pushed
     to the run first, since the heap only takes keys below the run's
     last one). *)
  let s = Sched.create () in
  Sched.push s ~key:50 1 (* run *);
  Sched.push s ~key:60 2 (* run *);
  Sched.push s ~key:50 3 (* heap: below the run's 60 *);
  Sched.push s ~key:20 4 (* heap *);
  Sched.push s ~key:20 5 (* heap *);
  Sched.push s ~key:60 6 (* run: equal to its last key *);
  Alcotest.(check int) "peek" 4 (Sched.peek s);
  Alcotest.(check (list (pair int int))) "pop stream"
    [ (20, 4); (20, 5); (50, 1); (50, 3); (60, 2); (60, 6) ]
    (drain s);
  (* The same tie with nothing ahead of it: next_key, peek and pop
     agree on the run's entry. *)
  Sched.push s ~key:50 7;
  Sched.push s ~key:90 8;
  Sched.push s ~key:50 9;
  Alcotest.(check int) "next_key at a tie" 50 (Sched.next_key s);
  Alcotest.(check int) "peek at a tie" 7 (Sched.peek s);
  Alcotest.(check int) "run's earlier push" 7 (Sched.pop s);
  Alcotest.(check int) "then the heap's" 9 (Sched.pop s);
  Alcotest.(check int) "then the run's tail" 8 (Sched.pop s);
  Alcotest.(check bool) "drained" true (Sched.is_empty s)

(* ---------------- properties -------------------------------------- *)

(* Sorted-list oracle: (key, seq) pairs in lexicographic order. *)
module Oracle = struct
  type t = { mutable entries : (int * int * int) list; mutable seq : int }

  let create () = { entries = []; seq = 0 }

  let clear o =
    o.entries <- [];
    o.seq <- 0

  let push o ~key v =
    let s = o.seq in
    o.seq <- s + 1;
    o.entries <-
      List.merge
        (fun (k1, s1, _) (k2, s2, _) -> compare (k1, s1) (k2, s2))
        o.entries
        [ (key, s, v) ]

  let pop o =
    match o.entries with
    | [] -> None
    | (k, _, v) :: rest ->
      o.entries <- rest;
      Some (k, v)
end

(* Kernel-shaped op trace: each op either pushes a key offset from the
   current popped frontier — mostly near-future, sometimes past-dated,
   sometimes beyond the horizon — or pops. *)
let op_gen =
  QCheck.(
    list_of_size Gen.(int_range 0 400)
      (pair (int_range 0 100) (int_range (-3) 10)))

let replay_ops ops mk_push mk_pop =
  let cursor = ref 0 in
  let popped = ref [] in
  List.iteri
    (fun i (roll, shape) ->
       if shape < 0 then begin
         (* pop *)
         match mk_pop () with
         | None -> ()
         | Some (k, v) ->
           if k > !cursor then cursor := k;
           popped := (k, v) :: !popped
       end
       else begin
         let off =
           if shape = 0 then -(roll * 13) (* past-dated *)
           else if shape = 1 then horizon + (roll * 97) (* far *)
           else roll * (shape - 2) * 31 (* near future; ties at 0 *)
         in
         let key = max 0 (!cursor + off) in
         mk_push ~key (i + 1)
       end)
    ops;
  let rec drain () =
    match mk_pop () with
    | None -> ()
    | Some (k, v) ->
      popped := (k, v) :: !popped;
      drain ()
  in
  drain ();
  List.rev !popped

let sched_replay ops s =
  replay_ops ops
    (fun ~key v -> Sched.push s ~key v)
    (fun () ->
       let v = Sched.pop s in
       if v < 0 then None else Some (Sched.popped_key s, v))

let prop_matches_sorted_oracle =
  QCheck.Test.make ~name:"pop stream = sorted-list oracle" ~count:300
    op_gen (fun ops ->
      let popped = sched_replay ops (Sched.create ()) in
      let o = Oracle.create () in
      let reference =
        replay_ops ops
          (fun ~key v -> Oracle.push o ~key v)
          (fun () -> Oracle.pop o)
      in
      popped = reference)

(* [peek] names what the next [pop] returns, and peeking before every
   pop leaves the pop stream unchanged. *)
let prop_peek_is_next_pop =
  QCheck.Test.make ~name:"peek = next pop, order unchanged" ~count:300 op_gen
    (fun ops ->
      let s = Sched.create () in
      let agree = ref true in
      let peeked =
        replay_ops ops
          (fun ~key v -> Sched.push s ~key v)
          (fun () ->
             let want = Sched.peek s in
             let v = Sched.pop s in
             if want <> v then agree := false;
             if v < 0 then None else Some (Sched.popped_key s, v))
      in
      !agree && peeked = sched_replay ops (Sched.create ()))

(* Traces that steer pushes to each of the queue's two structures:
   in-order bursts from the largest key pushed so far (the run's last
   key while the run holds entries), keys just or far below it and
   past-dated keys below the popped front (the heap), ties with the
   largest key and with the front (so equal keys sit in both
   structures), pops, and a clear mid-stream. *)
type op =
  | Burst of int * int  (* n pushes, each [step * j mod 7] above the last *)
  | Behind of int  (* a push [d + 1] below the largest key *)
  | Past of int  (* a push [d] below the popped front *)
  | Tie_last  (* a push at the largest key *)
  | Tie_front  (* a push at the popped front *)
  | Pops of int
  | Clear

let two_structure_gen =
  QCheck.Gen.(
    list_size (int_range 0 120)
      (frequency
         [ (3, map2 (fun n st -> Burst (n, st)) (int_range 1 30) (int_range 0 40));
           (3, map (fun d -> Behind d) (oneof [ int_range 0 3; int_range 0 5000 ]));
           (2, map (fun d -> Past d) (int_range 0 2000));
           (2, return Tie_last);
           (2, return Tie_front);
           (4, map (fun n -> Pops n) (int_range 1 25));
           (1, return Clear) ]))

let show_op = function
  | Burst (n, st) -> Printf.sprintf "Burst(%d,%d)" n st
  | Behind d -> Printf.sprintf "Behind %d" d
  | Past d -> Printf.sprintf "Past %d" d
  | Tie_last -> "Tie_last"
  | Tie_front -> "Tie_front"
  | Pops n -> Printf.sprintf "Pops %d" n
  | Clear -> "Clear"

let two_structure_ops =
  QCheck.make ~print:(fun ops -> String.concat "; " (List.map show_op ops))
    two_structure_gen

(* Replays [ops]; keys depend only on the pop stream, so two queues that
   pop the same stream see the same pushes. *)
let replay_two ops ~push ~pop ~clear =
  let cursor = ref 0 and last = ref 0 and next = ref 0 in
  let popped = ref [] in
  let push_at key =
    incr next;
    if key > !last then last := key;
    push ~key !next
  in
  let pop_one () =
    match pop () with
    | None -> ()
    | Some (k, v) ->
      if k > !cursor then cursor := k;
      popped := (k, v) :: !popped
  in
  List.iter
    (function
      | Burst (n, st) ->
        for j = 1 to n do
          push_at (!last + (st * j mod 7))
        done
      | Behind d -> push_at (max 0 (!last - 1 - d))
      | Past d -> push_at (max 0 (!cursor - d))
      | Tie_last -> push_at !last
      | Tie_front -> push_at !cursor
      | Pops n ->
        for _ = 1 to n do
          pop_one ()
        done
      | Clear ->
        clear ();
        cursor := 0;
        last := 0;
        popped := (-1, -1) :: !popped)
    ops;
  let rec drain () =
    match pop () with
    | None -> ()
    | Some kv ->
      popped := kv :: !popped;
      drain ()
  in
  drain ();
  List.rev !popped

let sched_pop s () =
  let v = Sched.pop s in
  if v < 0 then None else Some (Sched.popped_key s, v)

let oracle_replay_two ops =
  let o = Oracle.create () in
  replay_two ops
    ~push:(fun ~key v -> Oracle.push o ~key v)
    ~pop:(fun () -> Oracle.pop o)
    ~clear:(fun () -> Oracle.clear o)

let prop_two_structures_match_oracle =
  QCheck.Test.make ~name:"run + heap pop stream = sorted-list oracle" ~count:500
    two_structure_ops (fun ops ->
      let s = Sched.create () in
      replay_two ops
        ~push:(fun ~key v -> Sched.push s ~key v)
        ~pop:(sched_pop s)
        ~clear:(fun () -> Sched.clear s)
      = oracle_replay_two ops)

let prop_two_structures_peek =
  QCheck.Test.make ~name:"peek = next pop on run + heap traces" ~count:300
    two_structure_ops (fun ops ->
      let s = Sched.create () in
      let agree = ref true in
      let popped =
        replay_two ops
          ~push:(fun ~key v -> Sched.push s ~key v)
          ~pop:(fun () ->
              let want = Sched.peek s and want_key = Sched.next_key s in
              let r = sched_pop s () in
              (match r with
               | None -> if want <> -1 || want_key <> max_int then agree := false
               | Some (k, v) -> if want <> v || want_key <> k then agree := false);
              r)
          ~clear:(fun () -> Sched.clear s)
      in
      !agree && popped = oracle_replay_two ops)

let prop_sorted =
  QCheck.Test.make ~name:"pops keys in nondecreasing order" ~count:200
    QCheck.(list (int_range 0 1000))
    (fun keys ->
       let s = Sched.create () in
       List.iteri (fun i k -> Sched.push s ~key:k i) keys;
       let rec drain last =
         let v = Sched.pop s in
         if v < 0 then true
         else
           let k = Sched.popped_key s in
           k >= last && drain k
       in
       drain 0)

let prop_fifo_at_equal_key =
  QCheck.Test.make ~name:"FIFO tie-break at equal key" ~count:200
    QCheck.(pair (int_range 0 10000) (int_range 1 50))
    (fun (key, n) ->
       let s = Sched.create () in
       for i = 0 to n - 1 do
         Sched.push s ~key i
       done;
       let ok = ref true in
       for i = 0 to n - 1 do
         if Sched.pop s <> i then ok := false
       done;
       !ok && Sched.is_empty s)

let () =
  Alcotest.run "sched"
    [ ( "units",
        [ Alcotest.test_case "basic ordering" `Quick test_basic;
          Alcotest.test_case "fifo ties" `Quick test_fifo_ties;
          Alcotest.test_case "clear" `Quick test_clear;
          Alcotest.test_case "past-dated keys" `Quick test_past_dated;
          Alcotest.test_case "horizon wraparound" `Quick
            test_horizon_wraparound;
          Alcotest.test_case "run and heap ties" `Quick test_run_heap_ties ] );
      ( "props",
        List.map QCheck_alcotest.to_alcotest
          [ prop_matches_sorted_oracle;
            prop_peek_is_next_pop;
            prop_two_structures_match_oracle;
            prop_two_structures_peek;
            prop_sorted;
            prop_fifo_at_equal_key ] ) ]
