type t = (string, int -> unit) Hashtbl.t

let create () = Hashtbl.create 64

let register t path f = Hashtbl.replace t path f

let lookup t path = Hashtbl.find_opt t path

let paths t =
  List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) t [])
