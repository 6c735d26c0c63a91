let page_size = 4096
let total_pages = 16384      (* 64 MB of manageable memory *)
let max_procs = 64
let max_regions = 128
let default_pages = 16       (* fresh process image size, pages *)

(* Table VI: VM base usage 4,532 kB; its clone pre-allocates ~13.5 MB
   beyond the image copy. *)
let image_kb = 4532
let clone_extra_kb = 13500

type t = {
  image : Memimage.t;
  procs : Layout.Table.t;
  p_used : Layout.int_field;
  p_ep : Layout.int_field;
  p_pages : Layout.int_field;
  p_break : Layout.int_field;
  p_nregions : Layout.int_field;
  regions : Layout.Table.t;
  r_used : Layout.int_field;
  r_owner : Layout.int_field;
  r_pages : Layout.int_field;
  c_pages_used : Layout.Cell.t;
  c_next_region : Layout.Cell.t;
}

let create () =
  let image = Memimage.create ~name:"vm" ~size:(image_kb * 1024) in
  let spec = Layout.spec () in
  let p_used = Layout.int spec "used" in
  let p_ep = Layout.int spec "ep" in
  let p_pages = Layout.int spec "pages" in
  let p_break = Layout.int spec "break" in
  let p_nregions = Layout.int spec "nregions" in
  Layout.seal spec;
  let procs = Layout.Table.alloc image ~spec ~rows:max_procs in
  let rspec = Layout.spec () in
  let r_used = Layout.int rspec "used" in
  let r_owner = Layout.int rspec "owner" in
  let r_pages = Layout.int rspec "pages" in
  Layout.seal rspec;
  let regions = Layout.Table.alloc image ~spec:rspec ~rows:max_regions in
  let c_pages_used = Layout.Cell.alloc_int image "pages_used" in
  let c_next_region = Layout.Cell.alloc_int image "next_region" in
  { image; procs; p_used; p_ep; p_pages; p_break; p_nregions; regions;
    r_used; r_owner; r_pages; c_pages_used; c_next_region }

module Op = Kernel.Op
module Mem = Kernel.Op.Mem

let find_proc t ep =
  Mem.(scan t.procs ~rows:max_procs (Int_ne (t.p_used, 0, Int_eq (t.p_ep, ep, Hit))))

let find_free_proc t =
  Mem.(scan t.procs ~rows:max_procs (Int_eq (t.p_used, 0, Hit)))

let add_pages t n =
  let used = Mem.get_cell t.c_pages_used in
  if used + n > total_pages then false
  else begin
    Mem.set_cell t.c_pages_used (used + n);
    true
  end

let write_proc_row t ~row ~ep ~pages =
  Mem.set_int t.procs ~row t.p_used 1;
  Mem.set_int t.procs ~row t.p_ep ep;
  Mem.set_int t.procs ~row t.p_pages pages;
  Mem.set_int t.procs ~row t.p_break (pages * page_size);
  Mem.set_int t.procs ~row t.p_nregions 0

let free_regions_of t ep =
  let owned = Mem.(Int_ne (t.r_used, 0, Int_eq (t.r_owner, ep, Hit))) in
  let from = ref 0 in
  while !from < max_regions do
    match Mem.scan_from t.regions ~rows:max_regions ~from:!from owned with
    | None -> from := max_regions
    | Some row ->
      let pages = Mem.get_int t.regions ~row t.r_pages in
      let total = Mem.get_cell t.c_pages_used in
      Mem.set_cell t.c_pages_used (total - pages);
      Mem.set_int t.regions ~row t.r_used 0;
      from := row + 1
  done

let pages_of_bytes len = (len + page_size - 1) / page_size

(* Adjust the region count of [ep]'s process row, if it has one. *)
let adjust_nregions t ep f =
  match find_proc t ep with
  | None -> ()
  | Some prow ->
    let k = Mem.get_int t.procs ~row:prow t.p_nregions in
    Mem.set_int t.procs ~row:prow t.p_nregions (f k)

let handle t src msg =
  match msg with
  | Message.Vm_fork { parent; child } when src = Endpoint.pm ->
    let parent_pages, parent_break =
      let default = (default_pages, default_pages * page_size) in
      if parent = 0 then default
      else
        match find_proc t parent with
        | None -> default
        | Some row ->
          let pages = Mem.get_int t.procs ~row t.p_pages in
          let break = Mem.get_int t.procs ~row t.p_break in
          (pages, break)
    in
    (* Validate and reserve, build the child's page tables (the kernel
       interaction that closes the window), then record bookkeeping. *)
    (match find_free_proc t with
     | None -> Srvlib.reply_err src Errno.ENOMEM
     | Some row ->
       if not (add_pages t parent_pages) then Srvlib.reply_err src Errno.ENOMEM
       else begin
         ignore (Op.kcall (Prog.K_mmu { proc = child }));
         write_proc_row t ~row ~ep:child ~pages:parent_pages;
         Mem.set_int t.procs ~row t.p_break parent_break;
         Srvlib.reply_ok src 0
       end)
  | Message.Vm_exec { proc; size } when src = Endpoint.pm ->
    (match find_proc t proc with
     | None -> Srvlib.reply_err src Errno.ESRCH
     | Some row ->
       let new_pages = max 1 (pages_of_bytes size) in
       let old_pages = Mem.get_int t.procs ~row t.p_pages in
       let total = Mem.get_cell t.c_pages_used in
       if total - old_pages + new_pages > total_pages then
         Srvlib.reply_err src Errno.ENOMEM
       else begin
         ignore (Op.kcall (Prog.K_mmu { proc }));
         Mem.set_cell t.c_pages_used (total - old_pages + new_pages);
         Mem.set_int t.procs ~row t.p_pages new_pages;
         Mem.set_int t.procs ~row t.p_break (new_pages * page_size);
         Srvlib.reply_ok src 0
       end)
  | Message.Vm_exit { proc } when src = Endpoint.pm ->
    (match find_proc t proc with
     | None -> Srvlib.reply_err src Errno.ESRCH
     | Some row ->
       let pages = Mem.get_int t.procs ~row t.p_pages in
       let total = Mem.get_cell t.c_pages_used in
       Mem.set_cell t.c_pages_used (total - pages);
       let nregions = Mem.get_int t.procs ~row t.p_nregions in
       ignore (Op.kcall (Prog.K_mmu { proc }));
       Mem.set_int t.procs ~row t.p_used 0;
       if nregions > 0 then free_regions_of t proc;
       Srvlib.reply_ok src 0)
  | Message.Vm_fork _ | Message.Vm_exec _ | Message.Vm_exit _ ->
    (* Lifecycle calls are PM's privilege. *)
    Srvlib.reply_err src Errno.EPERM
  | Message.Brk { delta } ->
    (match find_proc t src with
     | None -> Srvlib.reply_err src Errno.ESRCH
     | Some row ->
       let nbreak = Mem.get_int t.procs ~row t.p_break + delta in
       if nbreak < 0 then Srvlib.reply_err src Errno.EINVAL
       else
         let pages = Mem.get_int t.procs ~row t.p_pages in
         let need = pages_of_bytes nbreak in
         if need > pages && not (add_pages t (need - pages)) then
           Srvlib.reply_err src Errno.ENOMEM
         else begin
           if need <> pages then ignore (Op.kcall (Prog.K_mmu { proc = src }));
           if need > pages then Mem.set_int t.procs ~row t.p_pages need;
           Mem.set_int t.procs ~row t.p_break nbreak;
           Op.reply src (Message.R_brk { break = nbreak })
         end)
  | Message.Brk_query ->
    (match find_proc t src with
     | None -> Srvlib.reply_err src Errno.ESRCH
     | Some row ->
       let break = Mem.get_int t.procs ~row t.p_break in
       Op.reply src (Message.R_brk { break }))
  | Message.Mmap { len } ->
    if len <= 0 then Srvlib.reply_err src Errno.EINVAL
    else (
      match
        Mem.(scan t.regions ~rows:max_regions (Int_eq (t.r_used, 0, Hit)))
      with
      | None -> Srvlib.reply_err src Errno.ENOMEM
      | Some row ->
        let pages = pages_of_bytes len in
        if not (add_pages t pages) then Srvlib.reply_err src Errno.ENOMEM
        else begin
          ignore (Op.kcall (Prog.K_mmu { proc = src }));
          Mem.set_int t.regions ~row t.r_used 1;
          Mem.set_int t.regions ~row t.r_owner src;
          Mem.set_int t.regions ~row t.r_pages pages;
          let n = Mem.get_cell t.c_next_region in
          Mem.set_cell t.c_next_region (n + 1);
          adjust_nregions t src (fun k -> k + 1);
          Op.reply src (Message.R_mmap { id = row })
        end)
  | Message.Munmap { id } ->
    if id < 0 || id >= max_regions then Srvlib.reply_err src Errno.EINVAL
    else begin
      let used = Mem.get_int t.regions ~row:id t.r_used in
      let owner = Mem.get_int t.regions ~row:id t.r_owner in
      if used = 0 || owner <> src then Srvlib.reply_err src Errno.EINVAL
      else begin
        ignore (Op.kcall (Prog.K_mmu { proc = src }));
        let pages = Mem.get_int t.regions ~row:id t.r_pages in
        let total = Mem.get_cell t.c_pages_used in
        Mem.set_cell t.c_pages_used (total - pages);
        Mem.set_int t.regions ~row:id t.r_used 0;
        adjust_nregions t src (fun k -> max 0 (k - 1));
        Srvlib.reply_ok src 0
      end
    end
  | Message.Vm_info ->
    let used = Mem.get_cell t.c_pages_used in
    Op.reply src
      (Message.R_vm_info { pages_used = used; pages_free = total_pages - used })
  | Message.Ping -> Op.reply src Message.R_pong
  | _ -> Srvlib.reply_err src Errno.ENOSYS

let init t () =
  Mem.set_cell t.c_pages_used 0;
  Mem.set_cell t.c_next_region 0

let server t =
  { Kernel.srv_ep = Endpoint.vm;
    srv_name = "vm";
    srv_image = t.image;
    srv_clone_extra_kb = clone_extra_kb;
    srv_init = init t;
    srv_loop = Srvlib.simple_loop (handle t);
    srv_multithreaded = false }

let summary =
  Summary.make Endpoint.vm
    [ Summary.handler Message.Tag.T_vm_fork
        [ Summary.seg ~out:(Endpoint.kernel, Message.Tag.T_kcall) 12; Summary.seg 28 ];
      Summary.handler Message.Tag.T_vm_exec
        [ Summary.seg ~out:(Endpoint.kernel, Message.Tag.T_kcall) 12; Summary.seg 12 ];
      Summary.handler Message.Tag.T_vm_exit
        [ Summary.seg ~out:(Endpoint.kernel, Message.Tag.T_kcall) 10; Summary.seg 14 ];
      Summary.handler Message.Tag.T_brk
        [ Summary.seg ~out:(Endpoint.kernel, Message.Tag.T_kcall) ~maybe:true 18; Summary.seg 5 ];
      Summary.handler Message.Tag.T_brk_query [ Summary.seg 14 ];
      Summary.handler Message.Tag.T_mmap
        [ Summary.seg ~out:(Endpoint.kernel, Message.Tag.T_kcall) 140; Summary.seg 30 ];
      Summary.handler Message.Tag.T_munmap
        [ Summary.seg ~out:(Endpoint.kernel, Message.Tag.T_kcall) 6; Summary.seg 25 ];
      Summary.handler Message.Tag.T_vm_info [ Summary.seg 3 ];
      Summary.handler Message.Tag.T_ping [ Summary.seg 1 ] ]
