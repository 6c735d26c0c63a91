type cls = Read_only | State_modifying | Reply [@@deriving show, eq]

let read_only_tags =
  Message.Tag.
    [ T_getpid; T_getppid;
      T_stat; T_fstat; T_readdir; T_brk_query; T_vm_info;
      T_mfs_lookup; T_mfs_read; T_mfs_stat; T_mfs_readdir;
      T_ds_retrieve;
      T_rs_status; T_rs_lookup; T_ping;
      T_diag ]

(* Read-only membership by tag index: classification runs for every
   message sent. *)
let read_only =
  Array.init Message.Tag.n_tags (fun i ->
      match Message.Tag.of_index i with
      | Some tag -> List.mem tag read_only_tags
      | None -> false)

let classify ~dst:_ tag =
  let open Message.Tag in
  if tag = T_reply then Reply
  else if read_only.(to_index tag) then Read_only
  else State_modifying

let classify_msg ~dst m = classify ~dst (Message.Tag.of_msg m)
