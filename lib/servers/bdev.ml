let block_size = 1024
let block_count = 4096

type t = {
  image : Memimage.t;   (* tiny: driver bookkeeping only *)
  blocks : (int, string) Hashtbl.t;
  c_reads : Layout.Cell.t;
  c_writes : Layout.Cell.t;
}

let create () =
  let image = Memimage.create ~name:"bdev" ~size:4096 in
  let c_reads = Layout.Cell.alloc_int image "reads" in
  let c_writes = Layout.Cell.alloc_int image "writes" in
  { image; blocks = Hashtbl.create 256; c_reads; c_writes }

let peek_block t b = Option.value ~default:"" (Hashtbl.find_opt t.blocks b)

let poke_block t b data = Hashtbl.replace t.blocks b data

let handle t src msg =
  match msg with
  | Message.Bdev_read { block } ->
    if block < 0 || block >= block_count then Srvlib.reply_err src Errno.EINVAL
    else begin
      (* Device access latency. *)
      Kernel.Op.compute Costs.microkernel.Costs.c_disk_block;
      let n = Kernel.Op.Mem.get_cell t.c_reads in
      Kernel.Op.Mem.set_cell t.c_reads (n + 1);
      Kernel.Op.reply src (Message.R_read { data = peek_block t block })
    end
  | Message.Bdev_write { block; data } ->
    if block < 0 || block >= block_count || String.length data > block_size then
      Srvlib.reply_err src Errno.EINVAL
    else begin
      Kernel.Op.compute Costs.microkernel.Costs.c_disk_block;
      let n = Kernel.Op.Mem.get_cell t.c_writes in
      Kernel.Op.Mem.set_cell t.c_writes (n + 1);
      Hashtbl.replace t.blocks block data;
      Srvlib.reply_ok src (String.length data)
    end
  | Message.Ping -> Kernel.Op.reply src Message.R_pong
  | _ -> Srvlib.reply_err src Errno.ENOSYS

let server t =
  { Kernel.srv_ep = Endpoint.bdev;
    srv_name = "bdev";
    srv_image = t.image;
    srv_clone_extra_kb = 0;
    srv_init = ignore;
    srv_loop = Srvlib.simple_loop (handle t);
    srv_multithreaded = false }
