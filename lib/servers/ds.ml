let capacity = 48
let max_subs = 16
let key_len = 32

(* Image sized to match the paper's DS base memory footprint
   (Table VI: 248 kB). *)
let image_kb = 248

type t = {
  image : Memimage.t;
  kv : Layout.Table.t;
  f_used : Layout.int_field;
  f_key : Layout.str_field;
  f_value : Layout.int_field;
  subs : Layout.Table.t;
  s_used : Layout.int_field;
  s_ep : Layout.int_field;
  s_prefix : Layout.str_field;
  c_publishes : Layout.Cell.t;
  c_retrieves : Layout.Cell.t;
}

let create () =
  let image = Memimage.create ~name:"ds" ~size:(image_kb * 1024) in
  let spec = Layout.spec () in
  let f_used = Layout.int spec "used" in
  let f_key = Layout.str spec "key" ~len:key_len in
  let f_value = Layout.int spec "value" in
  Layout.seal spec;
  let kv = Layout.Table.alloc image ~spec ~rows:capacity in
  let sspec = Layout.spec () in
  let s_used = Layout.int sspec "used" in
  let s_ep = Layout.int sspec "ep" in
  let s_prefix = Layout.str sspec "prefix" ~len:16 in
  Layout.seal sspec;
  let subs = Layout.Table.alloc image ~spec:sspec ~rows:max_subs in
  let c_publishes = Layout.Cell.alloc_int image "publishes" in
  let c_retrieves = Layout.Cell.alloc_int image "retrieves" in
  { image; kv; f_used; f_key; f_value; subs; s_used; s_ep; s_prefix;
    c_publishes; c_retrieves }

module Mem = Kernel.Op.Mem

let find_key t key =
  Mem.(scan t.kv ~rows:capacity (Int_ne (t.f_used, 0, Str_eq (t.f_key, key, Hit))))

let find_free t =
  Mem.(scan t.kv ~rows:capacity (Int_eq (t.f_used, 0, Hit)))

let is_prefix ~prefix s =
  String.length prefix <= String.length s
  && String.equal prefix (String.sub s 0 (String.length prefix))

(* Notify every subscriber whose prefix matches the published key.
   These notifications modify subscriber state, so they are
   state-modifying SEEPs and close the recovery window. *)
let notify_subscribers t key =
  let in_use = Mem.(Int_ne (t.s_used, 0, Hit)) in
  let from = ref 0 in
  while !from < max_subs do
    match Mem.scan_from t.subs ~rows:max_subs ~from:!from in_use with
    | None -> from := max_subs
    | Some row ->
      if is_prefix ~prefix:(Mem.get_str t.subs ~row t.s_prefix) key then begin
        let ep = Mem.get_int t.subs ~row t.s_ep in
        Kernel.Op.send ep (Message.Ds_notify { key })
      end;
      from := row + 1
  done

(* A publish is subject to a grant check: the subscriber table doubles
   as the ACL (a prefix entry grants visibility). The check is pure
   reading and happens before the early diagnostic SEEP. *)
let check_grants t _key =
  let in_use = Mem.(Int_ne (t.s_used, 0, Hit)) in
  let from = ref 0 in
  while !from < max_subs do
    match Mem.scan_from t.subs ~rows:max_subs ~from:!from in_use with
    | None -> from := max_subs
    | Some row ->
      ignore (Mem.get_str t.subs ~row t.s_prefix);
      from := row + 1
  done

(* Diagnostics placement mirrors the original DS: mutation handlers log
   the request after a pure validation pass (an early read-only SEEP,
   which is what makes DS the lowest-coverage server under the
   pessimistic policy), while query handlers log after resolving the
   key. The enhanced policy ignores both, keeping DS almost always
   recoverable (Table I). *)
let handle t src msg =
  match msg with
  | Message.Ds_publish { key; value } ->
    check_grants t key;
    Srvlib.diag "ds: publish";
    if String.length key = 0 || String.length key >= key_len then
      Srvlib.reply_err src Errno.EINVAL
    else (
      let row_opt =
        match find_key t key with Some _ as existing -> existing | None -> find_free t
      in
      match row_opt with
      | None -> Srvlib.reply_err src Errno.ENOSPC
      | Some row ->
        Mem.set_int t.kv ~row t.f_used 1;
        Mem.set_str t.kv ~row t.f_key key;
        Mem.set_int t.kv ~row t.f_value value;
        let n = Mem.get_cell t.c_publishes in
        Mem.set_cell t.c_publishes (n + 1);
        notify_subscribers t key;
        Srvlib.reply_ok src 0)
  | Message.Ds_retrieve { key } ->
    let row_opt = find_key t key in
    Srvlib.diag "ds: retrieve";
    (match row_opt with
     | None -> Srvlib.reply_err src Errno.ENOENT
     | Some row ->
       let value = Mem.get_int t.kv ~row t.f_value in
       let n = Mem.get_cell t.c_retrieves in
       Mem.set_cell t.c_retrieves (n + 1);
       Kernel.Op.reply src (Message.R_ds_value { value }))
  | Message.Ds_delete { key } ->
    let row_opt = find_key t key in
    Srvlib.diag "ds: delete";
    (match row_opt with
     | None -> Srvlib.reply_err src Errno.ENOENT
     | Some row ->
       Mem.set_int t.kv ~row t.f_used 0;
       Srvlib.reply_ok src 0)
  | Message.Ds_subscribe { prefix } ->
    Srvlib.diag "ds: subscribe";
    (match
       Mem.(scan t.subs ~rows:max_subs (Int_eq (t.s_used, 0, Hit)))
     with
     | None -> Srvlib.reply_err src Errno.ENOSPC
     | Some row ->
       Mem.set_int t.subs ~row t.s_used 1;
       Mem.set_int t.subs ~row t.s_ep src;
       Mem.set_str t.subs ~row t.s_prefix prefix;
       Srvlib.reply_ok src 0)
  | Message.Ping -> Kernel.Op.reply src Message.R_pong
  | _ -> Srvlib.reply_err src Errno.ENOSYS

let init t () =
  Mem.set_cell t.c_publishes 0;
  Mem.set_cell t.c_retrieves 0

let server t =
  { Kernel.srv_ep = Endpoint.ds;
    srv_name = "ds";
    srv_image = t.image;
    srv_clone_extra_kb = 240;
    srv_init = init t;
    srv_loop = Srvlib.simple_loop (handle t);
    srv_multithreaded = false }

let summary =
  let diag_out = (Endpoint.kernel, Message.Tag.T_diag) in
  Summary.make Endpoint.ds
    [ Summary.handler Message.Tag.T_ds_publish
        [ Summary.seg ~out:diag_out 2;
          Summary.seg ~out:(Endpoint.first_user, Message.Tag.T_ds_notify)
            ~maybe:true 40;
          Summary.seg 2 ];
      Summary.handler Message.Tag.T_ds_retrieve
        [ Summary.seg ~out:diag_out 30; Summary.seg 5 ];
      Summary.handler Message.Tag.T_ds_delete
        [ Summary.seg ~out:diag_out 25; Summary.seg 3 ];
      Summary.handler Message.Tag.T_ds_subscribe
        [ Summary.seg ~out:diag_out 2; Summary.seg 10 ];
      Summary.handler Message.Tag.T_ping [ Summary.seg 1 ] ]
