(* Tests for osiris_util: deterministic RNG, the statistics helpers and
   the int-keyed table. (The scheduler queue moved to lib/kernel/sched;
   see test_sched.) *)

module Inttbl = Osiris_util.Inttbl
module Rng = Osiris_util.Rng
module Stats = Osiris_util.Stats
module Tablefmt = Osiris_util.Tablefmt

let check_float = Alcotest.(check (float 1e-9))

(* ---------------- rng --------------------------------------------- *)

let test_rng_deterministic () =
  let a = Rng.create 123 and b = Rng.create 123 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_seeds_differ () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Rng.bits64 a = Rng.bits64 b then incr same
  done;
  Alcotest.(check bool) "streams differ" true (!same < 4)

let test_rng_copy_independent () =
  let a = Rng.create 9 in
  ignore (Rng.bits64 a);
  let b = Rng.copy a in
  Alcotest.(check int64) "copy continues identically" (Rng.bits64 a) (Rng.bits64 b);
  ignore (Rng.bits64 a);
  (* advancing a does not advance b *)
  let a2 = Rng.bits64 a and b2 = Rng.bits64 b in
  Alcotest.(check bool) "diverged after extra draw" true (a2 <> b2 || a2 = b2)

let test_rng_split () =
  let parent = Rng.create 5 in
  let child1 = Rng.split parent in
  let child2 = Rng.split parent in
  Alcotest.(check bool) "children differ" true
    (Rng.bits64 child1 <> Rng.bits64 child2)

let prop_int_in_bounds =
  QCheck.Test.make ~name:"Rng.int is within [0, n)" ~count:500
    QCheck.(pair small_int (int_range 1 10000))
    (fun (seed, n) ->
       let rng = Rng.create seed in
       let v = Rng.int rng n in
       v >= 0 && v < n)

let prop_float_in_bounds =
  QCheck.Test.make ~name:"Rng.float is within [0, x)" ~count:200
    QCheck.(pair small_int (float_range 0.001 1000.))
    (fun (seed, x) ->
       let rng = Rng.create seed in
       let v = Rng.float rng x in
       v >= 0. && v < x)

let prop_shuffle_is_permutation =
  QCheck.Test.make ~name:"Rng.shuffle permutes" ~count:200
    QCheck.(pair small_int (list small_int))
    (fun (seed, xs) ->
       let a = Array.of_list xs in
       Rng.shuffle (Rng.create seed) a;
       List.sort compare (Array.to_list a) = List.sort compare xs)

(* ---------------- stats ------------------------------------------- *)

let test_stats_mean () =
  check_float "mean" 2. (Stats.mean [ 1.; 2.; 3. ]);
  check_float "mean empty" 0. (Stats.mean [])

let test_stats_geomean () =
  check_float "geomean" 2. (Stats.geomean [ 1.; 2.; 4. ]);
  check_float "geomean single" 5. (Stats.geomean [ 5. ])

let test_stats_median () =
  check_float "odd" 2. (Stats.median [ 3.; 1.; 2. ]);
  check_float "even" 2.5 (Stats.median [ 1.; 2.; 3.; 4. ])

let test_stats_stddev () =
  check_float "constant" 0. (Stats.stddev [ 4.; 4.; 4. ]);
  check_float "two points" 1. (Stats.stddev [ 1.; 3. ])

let test_stats_weighted_mean () =
  check_float "weighted" 3. (Stats.weighted_mean [ (1., 1.); (4., 2.) ]);
  check_float "zero weight" 0. (Stats.weighted_mean [ (10., 0.) ])

let test_stats_percentile () =
  let xs = List.init 100 (fun i -> float_of_int (i + 1)) in
  check_float "p50" 50. (Stats.percentile 50. xs);
  check_float "p100" 100. (Stats.percentile 100. xs)

let test_stats_percentile_sorted () =
  let a = Stats.sorted_array [ 5.; 1.; 3.; 2.; 4. ] in
  check_float "sorts ascending" 1. a.(0);
  check_float "sorts ascending (max)" 5. a.(4);
  check_float "p0 clamps to first" 1. (Stats.percentile_sorted a 0.);
  check_float "p50" 3. (Stats.percentile_sorted a 50.);
  check_float "p100" 5. (Stats.percentile_sorted a 100.);
  check_float "empty" 0. (Stats.percentile_sorted [||] 50.);
  (* agrees with the sort-per-call list version at every quantile *)
  let xs = List.init 100 (fun i -> float_of_int (i + 1)) in
  let sorted = Stats.sorted_array xs in
  List.iter
    (fun p ->
       check_float
         (Printf.sprintf "agrees with percentile at p%.0f" p)
         (Stats.percentile p xs)
         (Stats.percentile_sorted sorted p))
    [ 1.; 25.; 50.; 95.; 99.; 100. ]

let test_stats_summarize () =
  let s = Stats.summarize (List.init 100 (fun i -> float_of_int (i + 1))) in
  Alcotest.(check int) "n" 100 s.Stats.n;
  check_float "p50" 50. s.Stats.p50;
  check_float "p95" 95. s.Stats.p95;
  check_float "p99" 99. s.Stats.p99;
  check_float "max" 100. s.Stats.max;
  (* input order must not matter: Kernel.recovery_latencies hands
     callers newest-first lists and summarize sorts internally *)
  let newest_first =
    Stats.summarize (List.rev_map float_of_int (List.init 100 (fun i -> i + 1)))
  in
  check_float "order-insensitive p95" s.Stats.p95 newest_first.Stats.p95;
  Alcotest.(check int) "empty n" 0 (Stats.summarize []).Stats.n

let test_stats_ratio () =
  check_float "ratio" 2. (Stats.ratio 4. 2.);
  check_float "div zero" 0. (Stats.ratio 4. 0.)

(* ---------------- tablefmt ---------------------------------------- *)

let test_tablefmt_alignment () =
  let out =
    Tablefmt.render ~header:[ "a"; "bb" ]
      ~align:[ Tablefmt.Left; Tablefmt.Right ]
      [ [ "xx"; "1" ]; [ "y"; "22" ] ]
  in
  Alcotest.(check bool) "contains rows" true
    (String.length out > 0
     && String.split_on_char '\n' out |> List.length >= 4)

let test_tablefmt_pct () =
  Alcotest.(check string) "pct" "50.0%" (Tablefmt.pct 0.5)

(* ---------------- inttbl ------------------------------------------ *)

type tbl_op =
  | Replace of int * int
  | Add of int * int
  | Find of int
  | Mem of int
  | Remove of int
  | Fold

let show_tbl_op = function
  | Replace (k, v) -> Printf.sprintf "replace %d %d" k v
  | Add (k, n) -> Printf.sprintf "add_int %d %d" k n
  | Find k -> Printf.sprintf "find %d" k
  | Mem k -> Printf.sprintf "mem %d" k
  | Remove k -> Printf.sprintf "remove %d" k
  | Fold -> "fold"

(* Dense small keys, negative keys, the extremes ([min_int] is also the
   free-slot marker) and strided keys whose low 12 bits are 0 or 1:
   below 4096 slots every strided key shares a home slot with 0 or 1,
   so chains run long and removals land in their middle. *)
let tbl_key =
  QCheck.Gen.(
    frequency
      [ (4, int_range 0 63);
        (2, int_range (-64) (-1));
        (1, oneofl [ min_int; min_int + 1; max_int; max_int - 1; 0 ]);
        (4, map2 (fun i off -> (i * 4096) + off) (int_range (-8) 15)
              (oneofl [ 0; 1 ])) ])

let tbl_ops =
  let op =
    QCheck.Gen.(
      frequency
        [ (5, map2 (fun k v -> Replace (k, v)) tbl_key small_int);
          (2, map2 (fun k n -> Add (k, n)) tbl_key small_int);
          (3, map (fun k -> Find k) tbl_key);
          (2, map (fun k -> Mem k) tbl_key);
          (4, map (fun k -> Remove k) tbl_key);
          (1, return Fold) ])
  in
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map show_tbl_op ops))
    ~shrink:QCheck.Shrink.list
    QCheck.Gen.(list_size (int_range 0 300) op)

let sorted_bindings fold t =
  List.sort compare (fold (fun k v l -> (k, v) :: l) t [])

let prop_inttbl_model =
  QCheck.Test.make ~name:"Inttbl = Hashtbl model" ~count:500 tbl_ops
    (fun ops ->
       let t = Inttbl.create 1 and m = Hashtbl.create 8 in
       let same what a b =
         if a <> b then QCheck.Test.fail_reportf "%s differs" what
       in
       List.iter
         (fun op ->
            (match op with
             | Replace (k, v) ->
               Inttbl.replace t k v;
               Hashtbl.replace m k v
             | Add (k, n) ->
               Inttbl.add_int t k n;
               Hashtbl.replace m k
                 (n + Option.value ~default:0 (Hashtbl.find_opt m k))
             | Find k ->
               same (show_tbl_op op)
                 (match Inttbl.find t k with
                  | v -> Some v
                  | exception Not_found -> None)
                 (Hashtbl.find_opt m k)
             | Mem k -> same (show_tbl_op op) (Inttbl.mem t k) (Hashtbl.mem m k)
             | Remove k ->
               Inttbl.remove t k;
               Hashtbl.remove m k
             | Fold ->
               same "fold" (sorted_bindings Inttbl.fold t)
                 (sorted_bindings Hashtbl.fold m));
            same "length" (Inttbl.length t) (Hashtbl.length m))
         ops;
       same "final contents" (sorted_bindings Inttbl.fold t)
         (sorted_bindings Hashtbl.fold m);
       Hashtbl.iter
         (fun k v -> same "find_opt" (Inttbl.find_opt t k) (Some v))
         m;
       true)

(* The table under the analysis layers must not allocate per event:
   once grown, binding, reading and unbinding ints costs no words. *)
let test_inttbl_no_alloc () =
  let n = 4096 in
  let t = Inttbl.create 16 in
  for k = 0 to n - 1 do Inttbl.replace t (k * 7) k done;
  Inttbl.replace t min_int 1;
  let round () =
    let s = ref 0 in
    for k = 0 to n - 1 do
      let k = k * 7 in
      Inttbl.replace t k (k + 1);
      s := !s + Inttbl.find t k;
      Inttbl.remove t k;
      Inttbl.replace t k k
    done;
    Inttbl.remove t min_int;
    Inttbl.replace t min_int 2;
    s := !s + Inttbl.find t min_int;
    !s
  in
  ignore (Sys.opaque_identity (round ()));
  let w0 = Gc.minor_words () in
  let w1 = Gc.minor_words () in
  let empty = w1 -. w0 in
  let w0 = Gc.minor_words () in
  let r = round () in
  let w1 = Gc.minor_words () in
  ignore (Sys.opaque_identity r);
  Alcotest.(check (float 0.)) "minor words" 0. (w1 -. w0 -. empty);
  Alcotest.(check int) "every key kept" (n + 1) (Inttbl.length t)

let test_inttbl_helpers () =
  let t = Inttbl.create 0 in
  Inttbl.push t 5 "a";
  Inttbl.push t 5 "b";
  Inttbl.push t min_int "c";
  Alcotest.(check (list string)) "push conses" [ "b"; "a" ] (Inttbl.find t 5);
  Inttbl.map_inplace List.rev t;
  Alcotest.(check (list string)) "map_inplace" [ "a"; "b" ] (Inttbl.find t 5);
  Alcotest.(check (list string)) "marker key mapped" [ "c" ]
    (Inttbl.find t min_int);
  Alcotest.(check (list string)) "find_or absent" [] (Inttbl.find_or t 6 []);
  let seen = ref [] in
  Inttbl.iter (fun k _ -> seen := k :: !seen) t;
  Alcotest.(check (list int)) "iter visits each key" [ min_int; 5 ]
    (List.sort compare !seen);
  (* Floats are stored boxed, past a growth and a removal. *)
  let f = Inttbl.create 0 in
  for k = 0 to 99 do Inttbl.replace f k (float_of_int k +. 0.5) done;
  Inttbl.remove f 3;
  Alcotest.(check (float 0.)) "float value" 42.5 (Inttbl.find f 42);
  Alcotest.(check int) "float entries" 99 (Inttbl.length f)

let () =
  Alcotest.run "osiris_util"
    [ ( "rng",
        [ Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "seeds differ" `Quick test_rng_seeds_differ;
          Alcotest.test_case "copy" `Quick test_rng_copy_independent;
          Alcotest.test_case "split" `Quick test_rng_split;
          QCheck_alcotest.to_alcotest prop_int_in_bounds;
          QCheck_alcotest.to_alcotest prop_float_in_bounds;
          QCheck_alcotest.to_alcotest prop_shuffle_is_permutation ] );
      ( "stats",
        [ Alcotest.test_case "mean" `Quick test_stats_mean;
          Alcotest.test_case "geomean" `Quick test_stats_geomean;
          Alcotest.test_case "median" `Quick test_stats_median;
          Alcotest.test_case "stddev" `Quick test_stats_stddev;
          Alcotest.test_case "weighted mean" `Quick test_stats_weighted_mean;
          Alcotest.test_case "percentile" `Quick test_stats_percentile;
          Alcotest.test_case "percentile_sorted" `Quick
            test_stats_percentile_sorted;
          Alcotest.test_case "summarize" `Quick test_stats_summarize;
          Alcotest.test_case "ratio" `Quick test_stats_ratio ] );
      ( "tablefmt",
        [ Alcotest.test_case "alignment" `Quick test_tablefmt_alignment;
          Alcotest.test_case "pct" `Quick test_tablefmt_pct ] );
      ( "inttbl",
        [ QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 42 |])
            prop_inttbl_model;
          Alcotest.test_case "no allocation once grown" `Quick
            test_inttbl_no_alloc;
          Alcotest.test_case "push, map, find_or, iter, floats" `Quick
            test_inttbl_helpers ] ) ]
