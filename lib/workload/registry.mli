(** Executable registry: the simulation's "/bin".

    exec() resolves program paths against this registry (the kernel's
    [lookup_program]); the boot protocol also creates a file in MFS for
    every registered path so VFS path validation during exec behaves
    like the real thing. *)

type t

val create : unit -> t

val register : t -> string -> (int -> unit) -> unit
(** Bind an absolute path to a program, which exec runs with its
    integer argument (the argv analogue) in the exec'd process.
    Re-registering a path replaces the binding. *)

val lookup : t -> string -> (int -> unit) option

val paths : t -> string list
(** All registered paths, sorted (deterministic boot order). *)
