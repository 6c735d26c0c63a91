(* Typed trace queries over journal bytes: one streaming pass,
   predicate pushdown into the sidecar block index. See the .mli. *)

module Inttbl = Osiris_util.Inttbl

type field = F_bytes | F_cycles | F_latency

let field_name = function
  | F_bytes -> "bytes"
  | F_cycles -> "cycles"
  | F_latency -> "latency"

let field_of_name = function
  | "bytes" -> Some F_bytes
  | "cycles" -> Some F_cycles
  | "latency" -> Some F_latency
  | _ -> None

type dim = D_server | D_kind | D_tag | D_policy

let dim_name = function
  | D_server -> "server"
  | D_kind -> "kind"
  | D_tag -> "tag"
  | D_policy -> "policy"

let dim_of_name = function
  | "server" | "compartment" -> Some D_server
  | "kind" -> Some D_kind
  | "tag" -> Some D_tag
  | "policy" -> Some D_policy
  | _ -> None

type agg =
  | Count
  | Rate of int
  | Percentiles of field
  | Group_by of dim

let agg_to_string = function
  | Count -> "count"
  | Rate w -> Printf.sprintf "rate:%d" w
  | Percentiles f -> "percentiles:" ^ field_name f
  | Group_by d -> "by:" ^ dim_name d

type pred =
  | True
  | All of pred list
  | Any of pred list
  | Not of pred
  | Server of Endpoint.t list
  | Kind of int list
  | Tag of Message.Tag.t list
  | Rid of int list
  | Chain of int
  | Policy of string list
  | Time_ge of int
  | Time_lt of int

(* ------------------------------------------------------------------ *)
(* Canonical rendering                                                 *)
(* ------------------------------------------------------------------ *)

let concat_map sep f xs = String.concat sep (List.map f xs)

let rec pred_to_string = function
  | True -> "true"
  | All ps -> concat_map " " pred_to_string ps
  | Any ps -> "(" ^ concat_map " | " pred_to_string ps ^ ")"
  | Not p -> "!" ^ pred_to_string p
  | Server eps -> "server=" ^ concat_map "," Endpoint.server_name eps
  | Kind ks -> "kind=" ^ concat_map "," Journal.kind_name ks
  | Tag ts -> "tag=" ^ concat_map "," Message.Tag.to_string ts
  | Rid rs -> "rid=" ^ concat_map "," string_of_int rs
  | Chain r -> Printf.sprintf "chain=%d" r
  | Policy ps -> "policy=" ^ String.concat "," ps
  | Time_ge t -> Printf.sprintf "time>=%d" t
  | Time_lt t -> Printf.sprintf "time<%d" t

(* ------------------------------------------------------------------ *)
(* Expression grammar                                                  *)
(* ------------------------------------------------------------------ *)

let server_of_string s =
  match int_of_string_opt s with
  | Some ep when ep >= 0 -> Ok ep
  | Some _ -> Error (Printf.sprintf "bad server %S" s)
  | None ->
    let rec find ep =
      if ep > Endpoint.bdev then
        if String.length s > 4 && String.sub s 0 4 = "user" then
          match int_of_string_opt (String.sub s 4 (String.length s - 4)) with
          | Some ep when ep >= 0 -> Ok ep
          | _ -> Error (Printf.sprintf "unknown server %S" s)
        else Error (Printf.sprintf "unknown server %S" s)
      else if Endpoint.server_name ep = s then Ok ep
      else find (ep + 1)
    in
    find Endpoint.kernel

let tag_of_string s =
  let rec find i =
    if i >= Message.Tag.n_tags then
      Error (Printf.sprintf "unknown message tag %S" s)
    else
      match Message.Tag.of_index i with
      | Some t when Message.Tag.to_string t = s -> Ok t
      | _ -> find (i + 1)
  in
  find 0

let split_commas s = String.split_on_char ',' s

let map_values f vs =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | v :: rest ->
      (match f v with Ok x -> go (x :: acc) rest | Error m -> Error m)
  in
  go [] vs

let int_value ~what s =
  match int_of_string_opt s with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "bad %s %S" what s)

(* One term: [key=v1,v2] (values OR-ed), [time>=N]/[time<N] (and the
   normalizing >, <=, = forms), each optionally negated with a leading
   [!]. Terms are AND-ed. *)
let parse_term tok =
  let negated = String.length tok > 0 && tok.[0] = '!' in
  let tok = if negated then String.sub tok 1 (String.length tok - 1) else tok in
  let wrap p = if negated then Not p else p in
  let term =
    if tok = "true" then Ok True
    else
      match String.index_opt tok '=', String.index_opt tok '<',
            String.index_opt tok '>' with
      | _, Some _, _ | _, _, Some _ when String.length tok > 4
                                         && String.sub tok 0 4 = "time" ->
        let op_off = 4 in
        let rest off = String.sub tok off (String.length tok - off) in
        if String.length tok > 5 && String.sub tok op_off 2 = ">=" then
          Result.map (fun v -> Time_ge v) (int_value ~what:"time" (rest 6))
        else if String.length tok > 5 && String.sub tok op_off 2 = "<=" then
          Result.map (fun v -> Time_lt (v + 1)) (int_value ~what:"time" (rest 6))
        else if tok.[op_off] = '>' then
          Result.map (fun v -> Time_ge (v + 1)) (int_value ~what:"time" (rest 5))
        else if tok.[op_off] = '<' then
          Result.map (fun v -> Time_lt v) (int_value ~what:"time" (rest 5))
        else Error (Printf.sprintf "bad term %S" tok)
      | Some eq, _, _ ->
        let key = String.sub tok 0 eq in
        let v = String.sub tok (eq + 1) (String.length tok - eq - 1) in
        (match key with
         | "server" | "compartment" ->
           Result.map (fun l -> Server l)
             (map_values server_of_string (split_commas v))
         | "kind" ->
           Result.map (fun l -> Kind l)
             (map_values
                (fun s ->
                   match Journal.kind_of_name s with
                   | Some k -> Ok k
                   | None -> Error (Printf.sprintf "unknown kind %S" s))
                (split_commas v))
         | "tag" ->
           Result.map (fun l -> Tag l)
             (map_values tag_of_string (split_commas v))
         | "rid" ->
           Result.map (fun l -> Rid l)
             (map_values (int_value ~what:"rid") (split_commas v))
         | "chain" ->
           Result.bind (int_value ~what:"chain rid" v) (fun r ->
               if r > 0 then Ok (Chain r)
               else Error "chain= wants a positive rid")
         | "policy" -> Ok (Policy (split_commas v))
         | "time" ->
           Result.map (fun n -> All [ Time_ge n; Time_lt (n + 1) ])
             (int_value ~what:"time" v)
         | _ -> Error (Printf.sprintf "unknown key %S" key))
      | None, _, _ -> Error (Printf.sprintf "bad term %S" tok)
  in
  Result.map wrap term

let parse_filter s =
  let toks =
    List.filter (fun t -> t <> "" && t <> "&")
      (String.split_on_char ' '
         (String.map (function '\t' | '\n' -> ' ' | c -> c) s))
  in
  match map_values parse_term toks with
  | Error m -> Error m
  | Ok [] -> Ok True
  | Ok [ p ] -> Ok p
  | Ok ps -> Ok (All ps)

(* ------------------------------------------------------------------ *)
(* Event-level evaluation                                              *)
(* ------------------------------------------------------------------ *)

let event_policy = function
  | Kernel.E_crash { policy; _ } | Kernel.E_restart { policy; _ } ->
    Some policy
  | _ -> None

let event_tag = function
  | Kernel.E_msg { tag; _ } | Kernel.E_reply { tag; _ } -> Some tag
  | _ -> None

(* Ancestor walk for [Chain]: rids allocate in causal order, so every
   rid on a chain is <= the event's own — walk parents downward and
   stop as soon as we pass the target (the step bound guards malformed
   journals). Bindings for every rid visited live in blocks whose
   rid range reaches the target, which is exactly what the block
   filter refuses to skip. *)
let chain_contains parents target rid =
  let rec walk rid steps =
    if rid < target || rid <= 0 || steps > 4096 then false
    else if rid = target then true
    else
      match Inttbl.find parents rid with
      | p when p < rid -> walk p (steps + 1)
      | _ | (exception Not_found) -> false
  in
  walk rid 0

let rec eval parents p ev =
  match p with
  | True -> true
  | All ps -> List.for_all (fun p -> eval parents p ev) ps
  | Any ps -> List.exists (fun p -> eval parents p ev) ps
  | Not p -> not (eval parents p ev)
  | Server eps ->
    (match Journal.event_ep ev with
     | Some ep -> List.mem ep eps
     | None -> false)
  | Kind ks -> List.mem (Journal.event_kind ev) ks
  | Tag ts ->
    (match event_tag ev with Some t -> List.mem t ts | None -> false)
  | Rid rs -> List.mem (Journal.event_rid ev) rs
  | Chain r -> chain_contains parents r (Journal.event_rid ev)
  | Policy ps ->
    (match event_policy ev with Some p -> List.mem p ps | None -> false)
  | Time_ge t -> Journal.event_time ev >= t
  | Time_lt t -> Journal.event_time ev < t

(* ------------------------------------------------------------------ *)
(* Predicate pushdown                                                  *)
(* ------------------------------------------------------------------ *)

(* May any record in the block satisfy the predicate? Conservative:
   [true] on uncertainty (negation, policies, saturated bitmap bits). *)
let rec can_match p (b : Journal.block) =
  match p with
  | True -> true
  | All ps -> List.for_all (fun p -> can_match p b) ps
  | Any ps -> List.exists (fun p -> can_match p b) ps
  (* Presence bitmaps cannot prove absence of *non*-matches, so
     negation never excludes a block. *)
  | Not _ -> true
  | Server eps ->
    List.exists (fun ep -> Journal.mask_mem b.Journal.blk_ep_mask ep) eps
  | Kind ks ->
    List.exists (fun k -> b.Journal.blk_kind_mask land (1 lsl k) <> 0) ks
  | Tag ts ->
    List.exists
      (fun t -> Journal.mask_mem b.Journal.blk_tag_mask (Message.Tag.to_index t))
      ts
  | Rid rs ->
    List.exists
      (fun r -> r >= b.Journal.blk_rid_min && r <= b.Journal.blk_rid_max)
      rs
  | Chain r -> b.Journal.blk_rid_max >= r
  | Policy _ -> true
  | Time_ge t -> b.Journal.blk_time_max >= t
  | Time_lt t -> b.Journal.blk_time_min < t

let rec chain_targets = function
  | Chain r -> [ r ]
  | All ps | Any ps -> List.concat_map chain_targets ps
  | Not p -> chain_targets p
  | _ -> []

(* A [Chain] walk reads parent bindings laid down by E_msg records that
   need not themselves match the rest of the predicate, so any block
   whose rid range reaches a chain target must be decoded even when the
   conjunction says it cannot match — decoding feeds the parents map;
   the event predicate still filters. *)
let block_filter p =
  let targets = chain_targets p in
  fun b ->
    can_match p b
    || List.exists (fun r -> b.Journal.blk_rid_max >= r) targets

(* ------------------------------------------------------------------ *)
(* Aggregation                                                         *)
(* ------------------------------------------------------------------ *)

type pstats = {
  ps_count : int;
  ps_sum : int;
  ps_p50 : int;
  ps_p95 : int;
  ps_p99 : int;
  ps_max : int;
}

type agg_result =
  | R_count
  | R_rate of (int * int) list
  | R_percentiles of pstats
  | R_groups of (string * int) list

type outcome = {
  q_header : Journal.header;
  q_filter : pred;
  q_agg : agg;
  q_matched : int;
  q_result : agg_result;
}

(* Group-by on server, kind and tag counts by the int code and names
   the codes once, at the end; each name belongs to one code, so the
   rows sorted by name are those a string-keyed count would give.
   Endpoints, kinds and tag indices are never negative: [-1] is an
   event with no value on the dimension. Policy is counted by name. *)
let group_code dim ev =
  match dim with
  | D_server -> (match Journal.event_ep ev with Some ep -> ep | None -> -1)
  | D_kind -> Journal.event_kind ev
  | D_tag ->
    (match event_tag ev with Some t -> Message.Tag.to_index t | None -> -1)
  | D_policy -> -1

let group_name dim code =
  match dim with
  | D_server -> Endpoint.server_name code
  | D_kind -> Journal.kind_name code
  | D_tag -> Message.Tag.to_string (Option.get (Message.Tag.of_index code))
  | D_policy -> assert false

let run ?index ?stats ~filter ~agg journal =
  match Journal.header_of_string journal with
  | Error m -> Error m
  | Ok (header, _) ->
    let parents = Inttbl.create 256 in
    let track_parents = chain_targets filter <> [] in
    let matched = ref 0 in
    let rate_tbl = Inttbl.create 64 in
    let code_tbl = Inttbl.create 64 in
    (* Only crash and restart events carry a policy: few enough to key
       by the string. *)
    let policy_tbl = Hashtbl.create 4 in
    let hist = Histogram.create () in
    let pending = Inttbl.create 64 in
    let apply ev =
      match agg with
      | Count -> ()
      | Rate w -> Inttbl.add_int rate_tbl (Journal.event_time ev / w) 1
      | Group_by D_policy ->
        (match event_policy ev with
         | Some p ->
           Hashtbl.replace policy_tbl p
             (1 + Option.value ~default:0 (Hashtbl.find_opt policy_tbl p))
         | None -> ())
      | Group_by dim ->
        let code = group_code dim ev in
        if code >= 0 then Inttbl.add_int code_tbl code 1
      | Percentiles F_bytes ->
        (match ev with
         | Kernel.E_store_logged { bytes; _ }
         | Kernel.E_rollback_end { bytes; _ } -> Histogram.observe hist bytes
         | _ -> ())
      | Percentiles F_cycles ->
        (match ev with
         | Kernel.E_checkpoint { cycles; _ } -> Histogram.observe hist cycles
         | _ -> ())
      | Percentiles F_latency ->
        (match ev with
         | Kernel.E_msg { call = true; rid; time; _ } ->
           Inttbl.replace pending rid time
         | Kernel.E_reply { rid; time; _ } ->
           (match Inttbl.find pending rid with
            | t0 ->
              Inttbl.remove pending rid;
              Histogram.observe hist (time - t0)
            | exception Not_found -> ())
         | _ -> ())
    in
    let f () ev =
      (if track_parents then
         match ev with
         | Kernel.E_msg { rid; parent; _ } -> Inttbl.replace parents rid parent
         | _ -> ());
      if eval parents filter ev then begin
        incr matched;
        apply ev
      end
    in
    let select = match index with Some _ -> Some (block_filter filter) | None -> None in
    (match Journal.fold ?index ?select ?stats journal ~init:() ~f with
     | Error m -> Error m
     | Ok () ->
       let result =
         match agg with
         | Count -> R_count
         | Rate w ->
           let rows =
             Inttbl.fold (fun b c acc -> (b * w, c) :: acc) rate_tbl []
           in
           R_rate (List.sort (fun (a, _) (b, _) -> Int.compare a b) rows)
         | Group_by D_policy ->
           let rows =
             Hashtbl.fold (fun k c acc -> (k, c) :: acc) policy_tbl []
           in
           R_groups (List.sort compare rows)
         | Group_by dim ->
           let rows =
             Inttbl.fold
               (fun code c acc -> (group_name dim code, c) :: acc)
               code_tbl []
           in
           R_groups (List.sort (fun (a, _) (b, _) -> String.compare a b) rows)
         | Percentiles _ ->
           let pc p = int_of_float (Histogram.percentile hist p) in
           R_percentiles
             { ps_count = Histogram.count hist;
               ps_sum = Histogram.sum hist;
               ps_p50 = pc 50.;
               ps_p95 = pc 95.;
               ps_p99 = pc 99.;
               ps_max = Histogram.max_value hist }
       in
       Ok
         { q_header = header;
           q_filter = filter;
           q_agg = agg;
           q_matched = !matched;
           q_result = result })

(* ------------------------------------------------------------------ *)
(* Artifacts                                                           *)
(* ------------------------------------------------------------------ *)

(* Scan statistics are deliberately absent from both artifacts: the
   indexed and full-scan paths must produce byte-identical outputs
   (a bench gate), and how many blocks were skipped is a property of
   the scan, not of the answer. *)

let to_json o =
  let b = Buffer.create 512 in
  Printf.bprintf b "{\n  \"journal\": %s,\n"
    (Chrome_trace.escaped (Journal.header_to_string o.q_header));
  Printf.bprintf b "  \"filter\": %s,\n"
    (Chrome_trace.escaped (pred_to_string o.q_filter));
  Printf.bprintf b "  \"agg\": %s,\n"
    (Chrome_trace.escaped (agg_to_string o.q_agg));
  Printf.bprintf b "  \"matched\": %d" o.q_matched;
  (match o.q_result with
   | R_count -> ()
   | R_rate rows ->
     Printf.bprintf b ",\n  \"rate\": [%s]"
       (concat_map ", "
          (fun (t, c) -> Printf.sprintf "{\"t\": %d, \"count\": %d}" t c)
          rows)
   | R_groups rows ->
     Printf.bprintf b ",\n  \"groups\": {%s}"
       (concat_map ", "
          (fun (k, c) -> Printf.sprintf "%s: %d" (Chrome_trace.escaped k) c)
          rows)
   | R_percentiles p ->
     Printf.bprintf b
       ",\n  \"percentiles\": {\"count\": %d, \"sum\": %d, \"p50\": %d, \
        \"p95\": %d, \"p99\": %d, \"max\": %d}"
       p.ps_count p.ps_sum p.ps_p50 p.ps_p95 p.ps_p99 p.ps_max);
  Buffer.add_string b "\n}\n";
  Buffer.contents b

let to_csv o =
  let b = Buffer.create 256 in
  (match o.q_result with
   | R_count -> Printf.bprintf b "matched\n%d\n" o.q_matched
   | R_rate rows ->
     Buffer.add_string b "bucket_start,count\n";
     List.iter (fun (t, c) -> Printf.bprintf b "%d,%d\n" t c) rows
   | R_groups rows ->
     Buffer.add_string b "key,count\n";
     List.iter (fun (k, c) -> Printf.bprintf b "%s,%d\n" k c) rows
   | R_percentiles p ->
     Buffer.add_string b "stat,value\n";
     Printf.bprintf b "count,%d\nsum,%d\np50,%d\np95,%d\np99,%d\nmax,%d\n"
       p.ps_count p.ps_sum p.ps_p50 p.ps_p95 p.ps_p99 p.ps_max);
  Buffer.contents b

let render o stats =
  let b = Buffer.create 256 in
  Printf.bprintf b "query: %s\n" (pred_to_string o.q_filter);
  Printf.bprintf b "journal: %s\n" (Journal.header_to_string o.q_header);
  Printf.bprintf b "agg: %s, matched: %d\n" (agg_to_string o.q_agg)
    o.q_matched;
  (match o.q_result with
   | R_count -> ()
   | R_rate rows ->
     List.iter (fun (t, c) -> Printf.bprintf b "  t=%-10d %d\n" t c) rows
   | R_groups rows ->
     List.iter (fun (k, c) -> Printf.bprintf b "  %-14s %d\n" k c) rows
   | R_percentiles p ->
     Printf.bprintf b
       "  count=%d sum=%d p50=%d p95=%d p99=%d max=%d\n"
       p.ps_count p.ps_sum p.ps_p50 p.ps_p95 p.ps_p99 p.ps_max);
  (match stats with
   | Some sc ->
     if sc.Journal.sc_blocks_total > 0 then
       Printf.bprintf b
         "scan: %d/%d blocks decoded (%d skipped), %d records\n"
         sc.Journal.sc_blocks_scanned sc.Journal.sc_blocks_total
         sc.Journal.sc_blocks_skipped sc.Journal.sc_records_decoded
     else
       Printf.bprintf b "scan: full (no index), %d records\n"
         sc.Journal.sc_records_decoded
   | None -> ());
  Buffer.contents b
