type bucket =
  | B_own
  | B_queue
  | B_service
  | B_checkpoint
  | B_rollback
  | B_restart
  | B_collateral

let n_buckets = 7

let bucket_name = function
  | B_own -> "own"
  | B_queue -> "queue"
  | B_service -> "service"
  | B_checkpoint -> "checkpoint"
  | B_rollback -> "rollback"
  | B_restart -> "restart"
  | B_collateral -> "collateral"

let bucket_index = function
  | B_own -> 0
  | B_queue -> 1
  | B_service -> 2
  | B_checkpoint -> 3
  | B_rollback -> 4
  | B_restart -> 5
  | B_collateral -> 6

let bucket_of_index = function
  | 0 -> B_own
  | 1 -> B_queue
  | 2 -> B_service
  | 3 -> B_checkpoint
  | 4 -> B_rollback
  | 5 -> B_restart
  | 6 -> B_collateral
  | i -> invalid_arg (Printf.sprintf "Tailprof.bucket_of_index %d" i)

(* Indexed in declaration order; sums to [Critpath.total]
   (conservation carries over). *)
let bucket_totals b =
  [| b.Critpath.cp_own;
     b.Critpath.cp_queue;
     Critpath.service_total b;
     b.Critpath.cp_checkpoint;
     b.Critpath.cp_rollback;
     b.Critpath.cp_restart;
     b.Critpath.cp_collateral |]

type cohort = {
  co_n : int;
  co_cut : int;
  co_mean10 : int array;
}

type profile = {
  tp_n : int;
  tp_p50 : int;
  tp_p99 : int;
  tp_low : cohort;
  tp_high : cohort;
  tp_blame : (bucket * int) list;
}

let cohort_of ~cut members =
  let n = List.length members in
  let sums = Array.make n_buckets 0 in
  List.iter
    (fun b ->
       Array.iteri (fun i v -> sums.(i) <- sums.(i) + v) (bucket_totals b))
    members;
  { co_n = n; co_cut = cut; co_mean10 = Array.map (fun s -> s * 10 / n) sums }

let profile = function
  | [] -> None
  | reqs ->
    let lats =
      let a = Array.of_list (List.map Critpath.total reqs) in
      Array.sort compare a;
      a
    in
    let n = Array.length lats in
    let p50 = lats.(Osiris_util.Stats.rank ~num:1 ~den:2 n - 1) in
    let p99 = lats.(Osiris_util.Stats.rank ~num:99 ~den:100 n - 1) in
    let low =
      cohort_of ~cut:p50
        (List.filter (fun b -> Critpath.total b <= p50) reqs)
    in
    let high =
      cohort_of ~cut:p99
        (List.filter (fun b -> Critpath.total b >= p99) reqs)
    in
    let blame =
      List.sort
        (fun (a, da) (b, db) ->
           if da <> db then compare db da else compare a b)
        (List.init n_buckets (fun i ->
             (bucket_of_index i, high.co_mean10.(i) - low.co_mean10.(i))))
    in
    Some
      { tp_n = n; tp_p50 = p50; tp_p99 = p99; tp_low = low; tp_high = high;
        tp_blame = blame }

let to_json buf = function
  | None -> Buffer.add_string buf "null"
  | Some tp ->
    Printf.bprintf buf
      "{\"n\": %d, \"p50_cut\": %d, \"p99_cut\": %d, \"blame10\": [\n"
      tp.tp_n tp.tp_p50 tp.tp_p99;
    let last = List.length tp.tp_blame - 1 in
    List.iteri
      (fun j (bk, delta) ->
         let bi = bucket_index bk in
         Printf.bprintf buf
           "        {\"bucket\": \"%s\", \"p50_mean10\": %d, \
            \"p99_mean10\": %d, \"delta10\": %d}%s\n"
           (bucket_name bk) tp.tp_low.co_mean10.(bi) tp.tp_high.co_mean10.(bi)
           delta
           (if j = last then "      ]}" else ","))
      tp.tp_blame

let knee p99s =
  let n = Array.length p99s in
  if n = 0 then -1
  else begin
    let m = Array.fold_left min p99s.(0) p99s in
    if m <= 0 then -1
    else begin
      let k = ref (-1) in
      (try
         for i = 0 to n - 1 do
           if p99s.(i) >= 2 * m then begin
             k := i;
             raise Exit
           end
         done
       with Exit -> ());
      !k
    end
  end
