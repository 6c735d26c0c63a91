(* Checkpoint hot-path benchmark: arena-backed undo log vs the seed's
   list-based log, write coalescing, and dirty-region restarts.

   Run with [dune exec bench/main.exe checkpoint] (artifact
   BENCH_checkpoint.json; [--smoke] for the runtest variant, see
   benchkit.ml). Exits non-zero when an enforced gate fails.

   Gates:
     alloc_free_record          exact   10k steady-state records allocate
                                        < 1024 minor words
     record_speedup             timing  arena vs legacy list record
                                        speedup >= 1.2 (deliberately far
                                        below the ~3x we measure, to keep
                                        CI stable on loaded machines)
     rollback_speedup           timing  same, record+rollback storm
     coalescing_shrinks_log     exact   coalescing cuts a write-hot
                                        storm's log >= 4x
     restore_scales_with_dirty  exact   restored bytes track dirty
                                        granules, not image size *)

let min_speedup = 1.2

(* Mean ns per operation of each batch in [batches] (each performs
   [ops] operations), interleaved over the mode's budget. *)
let time_per_op ~ops batches =
  Array.map
    (fun a ->
       Array.fold_left ( +. ) 0. a /. float_of_int (Array.length a * ops))
    (Benchkit.measure (List.map Benchkit.timed batches))

(* ------------------------------------------------------------------ *)
(* The seed's undo log, reproduced: a cons-list of (offset, old bytes)
   entries, each recorded by materializing the old value with an
   allocation — the baseline the arena representation replaces.        *)
(* ------------------------------------------------------------------ *)

module Legacy_log = struct
  type entry = { offset : int; old : Bytes.t }

  type t = {
    mutable log : entry list;
    mutable n : int;
    mutable bytes : int;
    mutable peak : int;
    mutable lifetime : int;
  }

  let entry_header_bytes = 16

  let create () = { log = []; n = 0; bytes = 0; peak = 0; lifetime = 0 }

  let record t image ~offset ~len =
    (* the seed hook materialized the old value with [Bytes.sub] ... *)
    let old = Memimage.get_bytes image ~off:offset ~len in
    (* ... and the seed log cons'd an entry and accounted eagerly *)
    t.log <- { offset; old } :: t.log;
    t.n <- t.n + 1;
    t.lifetime <- t.lifetime + 1;
    t.bytes <- t.bytes + entry_header_bytes + Bytes.length old;
    if t.bytes > t.peak then t.peak <- t.bytes

  let clear t =
    t.log <- [];
    t.n <- 0;
    t.bytes <- 0

  let rollback t image =
    List.iter
      (fun e ->
         Memimage.write_raw image ~off:e.offset e.old ~src_off:0
           ~len:(Bytes.length e.old))
      t.log;
    clear t
end

(* ------------------------------------------------------------------ *)

type record_result = {
  arena_ns : float;
  legacy_ns : float;
  speedup : float;
}

let storm_offsets = 4096 (* distinct 8-byte words in the storm *)

(* Arena vs legacy ns/op over a storm of distinct-word records, each
   batch ending in a clear or, with [~rollback], a rollback. *)
let arena_vs_legacy ~rollback =
  let image = Memimage.create ~name:"bench" ~size:(1 lsl 20) in
  let arena = Undo_log.create () and legacy = Legacy_log.create () in
  let ns =
    time_per_op ~ops:storm_offsets
      [ (fun () ->
          for i = 0 to storm_offsets - 1 do
            ignore (Undo_log.record arena ~image ~offset:(8 * i) ~len:8)
          done;
          if rollback then Undo_log.rollback arena image
          else Undo_log.clear arena);
        (fun () ->
          for i = 0 to storm_offsets - 1 do
            Legacy_log.record legacy image ~offset:(8 * i) ~len:8
          done;
          if rollback then Legacy_log.rollback legacy image
          else Legacy_log.clear legacy) ]
  in
  { arena_ns = ns.(0); legacy_ns = ns.(1); speedup = ns.(1) /. ns.(0) }

let coalesced_storm () =
  (* the write-hot case coalescing targets: every word hit 8 times *)
  let image = Memimage.create ~name:"bench" ~size:(1 lsl 20) in
  let hot_words = storm_offsets / 8 in
  let fill log =
    for i = 0 to storm_offsets - 1 do
      ignore (Undo_log.record log ~image ~offset:(8 * (i mod hot_words)) ~len:8)
    done
  in
  let entries log =
    fill log;
    let n = Undo_log.entries log in
    Undo_log.clear log;
    n
  in
  let run log () =
    fill log;
    Undo_log.rollback log image
  in
  let plain = Undo_log.create () in
  let coal = Undo_log.create ~coalesce:true () in
  let plain_entries = entries plain in
  let coalesce_entries = entries coal in
  let ns = time_per_op ~ops:storm_offsets [ run plain; run coal ] in
  let plain_ns = ns.(0) and coalesce_ns = ns.(1) in
  (plain_ns, coalesce_ns, plain_ns /. coalesce_ns, plain_entries,
   coalesce_entries)

(* Steady-state allocation: minor words allocated by 10k records once
   the arena has reached the working-set size. *)
let alloc_per_10k () =
  let image = Memimage.create ~name:"bench" ~size:(1 lsl 20) in
  let log = Undo_log.create () in
  let storm () =
    for i = 0 to 9_999 do
      ignore (Undo_log.record log ~image ~offset:(8 * (i mod 8192)) ~len:8)
    done;
    Undo_log.clear log
  in
  storm ();
  (* grow arena + table to steady state *)
  int_of_float (Benchkit.minor_words_of storm)

type restore_result = {
  image_bytes : int;
  dirty_granules : int;
  restored_bytes : int;
  bytes_saved : int;
  full_ns : float;
  dirty_ns : float;
  restore_speedup : float;
}

let restore_bench () =
  let size = 1 lsl 20 in
  let image = Memimage.create ~name:"bench" ~size in
  Memimage.set_baseline image;
  let touch image =
    (* a sparse write pattern: 64 words scattered across the image *)
    for i = 0 to 63 do
      Memimage.set_word image (i * 16_384) (i + 1)
    done
  in
  touch image;
  let dirty_granules = Memimage.dirty_granules image in
  let restored_bytes = Memimage.restore_baseline image in
  let bytes_saved = Memimage.restore_bytes_saved image in
  (* The pre-dirty-tracking restart path blits the whole image back. It
     runs on its own image: a full restore marks every granule dirty,
     which would turn the next dirty restore into a full one too. *)
  let full_image = Memimage.create ~name:"bench-full" ~size in
  let pristine = Memimage.snapshot full_image in
  let ns =
    time_per_op ~ops:1
      [ (fun () ->
          touch image;
          ignore (Memimage.restore_baseline image));
        (fun () ->
          touch full_image;
          Memimage.restore full_image pristine) ]
  in
  let dirty_ns = ns.(0) and full_ns = ns.(1) in
  { image_bytes = size; dirty_granules; restored_bytes; bytes_saved;
    full_ns; dirty_ns; restore_speedup = full_ns /. dirty_ns }

(* ------------------------------------------------------------------ *)

let run () =
  Printf.printf
    "\n================================================================\n\
     Checkpoint substrate: arena undo log, coalescing, dirty restarts\n\
     ================================================================\n";
  let rec_res = arena_vs_legacy ~rollback:false in
  Printf.printf
    "record storm (%d x 8B stores): arena %6.1f ns/op | legacy list %6.1f ns/op | %.2fx\n"
    storm_offsets rec_res.arena_ns rec_res.legacy_ns rec_res.speedup;
  let rb_res = arena_vs_legacy ~rollback:true in
  Printf.printf
    "record+rollback storm:         arena %6.1f ns/op | legacy list %6.1f ns/op | %.2fx\n"
    rb_res.arena_ns rb_res.legacy_ns rb_res.speedup;
  let plain_ns, coalesce_ns, co_speedup, plain_entries, coalesce_entries =
    coalesced_storm ()
  in
  Printf.printf
    "write-hot storm (8x per word): plain %6.1f ns/op | coalescing  %6.1f ns/op | %.2fx, log %d -> %d entries\n"
    plain_ns coalesce_ns co_speedup plain_entries coalesce_entries;
  let minor_words = alloc_per_10k () in
  Printf.printf "steady-state allocation: %d minor words per 10k records\n"
    minor_words;
  let restore = restore_bench () in
  Printf.printf
    "dirty-region restart (1 MiB image, %d dirty granules): restored %d B,\n\
    \  saved %d B; full restore %.0f ns vs dirty restore %.0f ns (%.1fx)\n"
    restore.dirty_granules restore.restored_bytes restore.bytes_saved
    restore.full_ns restore.dirty_ns restore.restore_speedup;
  (* full-system evidence: bytes recovery actually moves per server.
     Enhanced exercises the rollback path (in-window crashes undo via
     the log); stateless exercises dirty-region restarts, where
     restore_bytes_saved shows the granule map paying off. *)
  let probe name policy =
    let rows, halt = Experiment.recovery_bytes policy in
    Printf.printf "full-system crash probe (%s policy, halt %s):\n" name
      (Kernel.halt_to_string halt);
    List.iter
      (fun r ->
         Printf.printf
           "  %-4s image %8d B | rollback %7d B | restart bytes saved %9d B | %d restarts\n"
           r.Experiment.rb_server r.Experiment.rb_image_bytes
           r.Experiment.rb_rollback_bytes r.Experiment.rb_restore_bytes_saved
           r.Experiment.rb_restarts)
      rows;
    rows
  in
  let rows = probe "enhanced" Policy.enhanced in
  let rows_stateless = probe "stateless" Policy.stateless in
  (* ---- gates ---- *)
  let restore_ok =
    (* restored bytes must track dirty granules, not image size *)
    restore.restored_bytes <= restore.dirty_granules * Memimage.granule
    && restore.restored_bytes * 4 < restore.image_bytes
  in
  let gates =
    [ Benchkit.exact "alloc_free_record" (minor_words < 1024);
      Benchkit.timing "record_speedup" (rec_res.speedup >= min_speedup);
      Benchkit.timing "rollback_speedup" (rb_res.speedup >= min_speedup);
      Benchkit.exact "coalescing_shrinks_log"
        (coalesce_entries * 4 <= plain_entries);
      Benchkit.exact "restore_scales_with_dirty" restore_ok ]
  in
  (* ---- JSON report ---- *)
  let speedup r =
    Printf.sprintf
      "{\"arena_ns_per_op\": %.2f, \"legacy_ns_per_op\": %.2f, \"speedup\": %.3f}"
      r.arena_ns r.legacy_ns r.speedup
  in
  let system rows =
    "[\n"
    ^ String.concat ",\n"
        (List.map
           (fun r ->
              Printf.sprintf
                "    {\"server\": %s, \"image_bytes\": %d, \"rollback_bytes\": %d, \"restore_bytes_saved\": %d, \"restarts\": %d}"
                (Benchkit.json_string r.Experiment.rb_server)
                r.Experiment.rb_image_bytes r.Experiment.rb_rollback_bytes
                r.Experiment.rb_restore_bytes_saved r.Experiment.rb_restarts)
           rows)
    ^ "\n  ]"
  in
  Benchkit.finish ~bench:"checkpoint"
    [ ("storm_stores", string_of_int storm_offsets);
      ("record", speedup rec_res);
      ("record_rollback", speedup rb_res);
      ( "coalescing",
        Printf.sprintf
          "{\"plain_ns_per_op\": %.2f, \"coalesce_ns_per_op\": %.2f, \"speedup\": %.3f, \"plain_entries\": %d, \"coalesce_entries\": %d}"
          plain_ns coalesce_ns co_speedup plain_entries coalesce_entries );
      ("minor_words_per_10k_records", string_of_int minor_words);
      ( "restore",
        Printf.sprintf
          "{\"image_bytes\": %d, \"dirty_granules\": %d, \"granule_bytes\": %d,\n\
          \    \"restored_bytes\": %d, \"bytes_saved\": %d, \"full_ns\": %.0f, \"dirty_ns\": %.0f,\n\
          \    \"speedup\": %.3f}"
          restore.image_bytes restore.dirty_granules Memimage.granule
          restore.restored_bytes restore.bytes_saved restore.full_ns
          restore.dirty_ns restore.restore_speedup );
      ("system_enhanced", system rows);
      ("system_stateless", system rows_stateless) ]
    gates
