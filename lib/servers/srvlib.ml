let reply_ok dst v = Kernel.Op.reply dst (Message.R_ok v)

let reply_err dst err = Kernel.Op.reply dst (Message.R_err err)

let err_of_reply = function
  | Message.R_err e -> Some e
  | _ -> None

let call_retry dst msg =
  let rec go n =
    match Kernel.Op.call dst msg with
    | Message.R_err Errno.E_CRASH when n > 0 -> go (n - 1)
    | other -> other
  in
  go 3

let diag line = Kernel.Op.send Endpoint.kernel (Message.Diag { line })

let simple_loop handle () =
  let rec go () =
    let src, msg = Kernel.Op.receive () in
    handle src msg;
    go ()
  in
  go ()

let threaded_loop handle () =
  let rec go () =
    let src, msg = Kernel.Op.receive () in
    Kernel.Op.spawn (fun () -> handle src msg);
    go ()
  in
  go ()
