(** Typed layout of structured data inside a {!Memimage.t}.

    Servers declare their state as C-like structs: a {!spec} lists the
    fields of a record; a {!Table.t} places an array of such records in
    an image. Field accessors compute absolute byte offsets so the same
    layout serves both the RCB's direct access and the instrumented
    program DSL.

    Example declaring a process-table slot:
    {[
      let spec = Layout.spec ()
      let f_pid = Layout.int spec "pid"
      let f_name = Layout.str spec "name" ~len:16
      let () = Layout.seal spec
      let table img = Layout.Table.alloc img ~spec ~rows:64
    ]} *)

type spec

type int_field
type str_field

val spec : unit -> spec

val int : spec -> string -> int_field
(** Add an 8-byte integer field. @raise Failure if the spec is sealed. *)

val str : spec -> string -> len:int -> str_field
(** Add a fixed-length string field (NUL-padded). *)

val seal : spec -> unit
(** Freeze the spec; required before use in a table. *)

val sizeof : spec -> int
(** Record size in bytes (8-byte aligned). *)

val int_field_name : int_field -> string
val str_field_name : str_field -> string

val int_offset : int_field -> int
val str_offset : str_field -> int
(** A field's byte offset within its record. *)

module Table : sig
  type t

  val alloc : Memimage.t -> spec:spec -> rows:int -> t
  (** Place [rows] records in the image's layout space. *)

  val rows : t -> int
  val row_size : t -> int
  val base : t -> int

  (** Absolute byte offsets, for the instrumented access layer. *)

  val addr_int : t -> row:int -> int_field -> int
  val addr_str : t -> row:int -> str_field -> int
  val str_len : str_field -> int

  (** Direct access (RCB / test use — bypasses simulated cost, still
      passes through the image write hook). *)

  val get_int : t -> row:int -> int_field -> int
  val set_int : t -> row:int -> int_field -> int -> unit
  val get_str : t -> row:int -> str_field -> string
  val set_str : t -> row:int -> str_field -> string -> unit
end

module Cell : sig
  (** A single global value: a one-row table specialized for brevity. *)

  type t

  val alloc_int : Memimage.t -> string -> t
  val addr : t -> int
  val get : t -> int
  val set : t -> int -> unit
end
