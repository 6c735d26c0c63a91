(** User-side system call stubs.

    Each stub sends the request to the responsible server through
    [Kernel.Op] and decodes the reply, mirroring a MINIX libc; it must
    be called from a running user program.
    Integer-returning calls follow the C convention: non-negative on
    success, a negative {!Errno.to_code} on failure — including
    [E_CRASH] (-999), the error-virtualization code a caller receives
    when the serving component crashed and was recovered mid-request. *)

(** {2 Process management (PM)} *)

val fork : (unit -> unit) -> int
(** [fork child] creates a process that runs [child]: the child's pid
    in the parent, negative on error. The child starts with a copy of
    the parent's process state (descriptors, break, signal
    dispositions) and runs only [child], not the caller's code after
    the fork; if [child] returns, the child exits 0. *)

val exec : string -> int -> int
(** Replace the calling process image; does not return on success. The
    integer argument is passed to the new program (argv analogue). *)

val exit : int -> 'a
(** Terminate with the given status; never returns, hence usable in any
    branch position. *)

val waitpid : int -> int * int
(** [(pid, status)]; pid is negative on error. Pass [-1] for any child. *)

val wait : unit -> int * int

val getpid : unit -> int
val getppid : unit -> int
val kill : pid:int -> signal:int -> int

val signal_ignore : signal:int -> bool -> int
(** Set or clear the caller's ignore disposition for a signal; returns
    the previous disposition (1 = was ignored). SIGKILL (9) is
    rejected with EINVAL. *)

val adopt : unit -> int
(** Register the caller — a process the load engine spawned directly
    in the kernel — in PM's table, with VM/VFS introductions
    (primordial orphan: parent 0).  Non-negative on success; [EAGAIN]
    when the table is full (the request is shed — open-loop
    saturation), [EEXIST] if already registered. *)

(** {2 Files and pipes (VFS)} *)

val open_ : string -> Message.open_flags -> int
val close : int -> int
val read : fd:int -> len:int -> (string, Errno.t) result
val write : fd:int -> string -> int
val lseek : fd:int -> off:int -> Message.whence -> int
val pipe : unit -> (int * int, Errno.t) result
val dup : int -> int
val dup2 : fd:int -> tofd:int -> int
val readdir : string -> (string list, Errno.t) result
val unlink : string -> int
val mkdir : string -> int
val rmdir : string -> int
val rename : src:string -> dst:string -> int
val stat : string -> (Message.stat_info, Errno.t) result
val fstat : int -> (Message.stat_info, Errno.t) result
val chdir : string -> int
val sync : unit -> int

(** {2 Memory (VM)} *)

val sbrk : int -> int
(** Grow/shrink the break by the given delta; returns the new break. *)

val brk_current : unit -> int
val mmap : len:int -> int
val munmap : id:int -> int
val vm_info : unit -> int * int
(** (pages_used, pages_free). *)

(** {2 Data store (DS)} *)

val ds_publish : key:string -> value:int -> int
val ds_retrieve : key:string -> (int, Errno.t) result
val ds_delete : key:string -> int
val ds_subscribe : prefix:string -> int

(** {2 Recovery server (RS)} *)

val rs_status : unit -> (int * int * int, Errno.t) result
(** (restarts, shutdowns, services). *)

(** {2 Misc} *)

val print : string -> unit
(** Emit a line on the kernel log sink (the console of the simulation;
    used by the workload runners to report results). *)
