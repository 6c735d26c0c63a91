type field_kind = F_int | F_str of int

type field = { f_name : string; f_kind : field_kind; f_offset : int }

type spec = {
  mutable fields : field list;
  mutable next : int;
  mutable sealed : bool;
}

type int_field = field
type str_field = field

let spec () = { fields = []; next = 0; sealed = false }

let align8 n = (n + 7) / 8 * 8

let add spec name kind size =
  if spec.sealed then failwith ("Layout: spec sealed, cannot add " ^ name);
  let f = { f_name = name; f_kind = kind; f_offset = spec.next } in
  spec.fields <- f :: spec.fields;
  spec.next <- spec.next + align8 size;
  f

let int spec name = add spec name F_int 8

let str spec name ~len = add spec name (F_str len) len

let seal spec = spec.sealed <- true

let sizeof spec =
  if not spec.sealed then failwith "Layout.sizeof: spec not sealed";
  align8 spec.next

let int_field_name f = f.f_name
let str_field_name f = f.f_name

let int_offset f = f.f_offset
let str_offset f = f.f_offset

module Table = struct
  type t = {
    image : Memimage.t;
    tbl_base : int;
    tbl_rows : int;
    tbl_row_size : int;
  }

  let alloc image ~spec ~rows =
    let row_size = sizeof spec in
    let base = Memimage.alloc image (rows * row_size) in
    { image; tbl_base = base; tbl_rows = rows; tbl_row_size = row_size }

  let rows t = t.tbl_rows
  let row_size t = t.tbl_row_size
  let base t = t.tbl_base

  let addr t ~row f =
    if row < 0 || row >= t.tbl_rows then
      invalid_arg
        (Printf.sprintf "Layout.Table: row %d out of [0,%d) for field %s" row
           t.tbl_rows f.f_name);
    t.tbl_base + (row * t.tbl_row_size) + f.f_offset

  let addr_int t ~row f =
    (match f.f_kind with F_int -> () | F_str _ -> invalid_arg "addr_int on str field");
    addr t ~row f

  let addr_str t ~row f =
    (match f.f_kind with F_str _ -> () | F_int -> invalid_arg "addr_str on int field");
    addr t ~row f

  let str_len f =
    match f.f_kind with F_str n -> n | F_int -> invalid_arg "str_len on int field"

  let get_int t ~row f = Memimage.get_word t.image (addr_int t ~row f)
  let set_int t ~row f v = Memimage.set_word t.image (addr_int t ~row f) v

  let get_str t ~row f =
    Memimage.get_string t.image ~off:(addr_str t ~row f) ~len:(str_len f)

  let set_str t ~row f s =
    Memimage.set_string t.image ~off:(addr_str t ~row f) ~len:(str_len f) s
end

module Cell = struct
  type t = { image : Memimage.t; off : int }

  let alloc_int image _name = { image; off = Memimage.alloc image 8 }

  let addr t = t.off
  let get t = Memimage.get_word t.image t.off
  let set t v = Memimage.set_word t.image t.off v
end
