(** The program DSL: user processes as interpretable operation trees,
    and [direct], which embeds the direct-style code every server is
    written in ([Kernel.Op], [Srvlib]) so that server loops are
    programs too.

    In the original OSIRIS, servers are C programs whose stores and IPC
    call sites are instrumented by LLVM passes. Here, programs are free-
    monad values: each node is one observable operation — a memory
    access, an IPC interaction, simulated computation, or a privileged
    kernel call. The kernel runs each thread as a fiber and executes a
    program one node at a time through the same operations
    ([Kernel.Op]) that direct-style code calls; either way each
    operation gives exactly the hooks the paper's instrumentation
    provides:

    - every [Store] passes through the component's write hook (undo
      logging while the recovery window is open);
    - every [Send]/[Call]/[Reply] consults the SEEP classification and
      the active recovery policy to decide whether the window closes;
    - every executed operation is a coverage unit (Table I) and a
      potential fault site (Tables II/III);
    - every operation carries a simulated cycle cost (Tables IV/V).

    Programs must be deterministic: randomness comes from [Rand] (the
    kernel's seeded stream) and time from [Now] (the virtual clock). *)

(** Privileged kernel calls, available to PM (process lifecycle) and RS
    (the recovery protocol). See the kernel for semantics. *)
type kcall =
  | K_fork of { parent : Endpoint.t }
  | K_exec of { proc : Endpoint.t; path : string; arg : int }
  | K_kill of { proc : Endpoint.t; status : int }
  | K_crash_context of Endpoint.t
  | K_mk_clone of Endpoint.t
  | K_rollback of Endpoint.t
  | K_clear_state of Endpoint.t
  | K_go of Endpoint.t
  | K_reply_error of { proc : Endpoint.t; err : Errno.t }
  | K_shutdown of string
  | K_alarm of { ticks : int }
  | K_mmu of { proc : Endpoint.t }
      (** MMU/page-table update on behalf of a process — VM's
          state-modifying interaction with the kernel (sys_vmctl in
          MINIX terms). Semantically a costed no-op in the simulation,
          but it closes VM's recovery window like any state-modifying
          SEEP. *)
  | K_replay of Endpoint.t
      (** Replay reconciliation (extension): re-deliver the request the
          component crashed on to its recovered clone. *)
  | K_kill_requester of { proc : Endpoint.t }
      (** Kill-requester reconciliation (extension): terminate the
          requester through the normal exit path, cleaning up its
          requester-local state everywhere. *)
  | K_live_update of { proc : Endpoint.t; loop : unit t }
      (** Live component update (extension, Section VII generality):
          atomically replace a quiescent server's request loop with new
          code over its preserved state, using the clone/state-transfer
          machinery. Fails with [EAGAIN] when the target is
          mid-request. *)

and kresult =
  | Kr_ok
  | Kr_err of Errno.t
  | Kr_ep of Endpoint.t
  | Kr_context of {
      window_open : bool;
      requester : Endpoint.t option;
      reason : string;
      rlocal : bool;
          (* a requester-local SEEP was crossed inside the window *)
    }

and 'a t =
  | Done of 'a
  | Fail of string
      (** Fail-stop crash of the executing component (the NULL-deref /
          failed-assertion analogue). *)
  | Compute of int * (unit -> 'a t)  (** Burn n simulated cycles. *)
  | Load of int * (int -> 'a t)      (** Word load, absolute byte offset. *)
  | Store of int * int * (unit -> 'a t)
  | Load_str of { off : int; len : int; k : string -> 'a t }
  | Store_str of { off : int; len : int; v : string; k : unit -> 'a t }
  | Send of Endpoint.t * Message.t * (unit -> 'a t)
      (** Asynchronous notification; never blocks. *)
  | Call of Endpoint.t * Message.t * (Message.t -> 'a t)
      (** MINIX sendrec: blocks until the receiver replies (possibly
          with [R_err E_CRASH] courtesy of the Recovery Server). *)
  | Receive of (Endpoint.t * Message.t -> 'a t)
      (** Top-of-loop blocking receive (servers only). *)
  | Reply of Endpoint.t * Message.t * (unit -> 'a t)
      (** Answer a pending [Call] from the given endpoint. *)
  | Yield of (unit -> 'a t)
      (** Cooperative thread yield (multithreaded servers). *)
  | Spawn of unit t * (unit -> 'a t)
      (** Start a cothread in the same component. *)
  | Kcall of kcall * (kresult -> 'a t)
  | Rand of int * (int -> 'a t)      (** Uniform int below the bound. *)
  | Now of (int -> 'a t)             (** Virtual time, cycles. *)
  | Direct of (unit -> 'a t)
      (** Run direct-style code, which calls [Kernel.Op] itself, then go
          on with the program it returns. Not an operation: it is not
          counted, charged or preempted; only the operations the code
          performs are. *)

val return : 'a -> 'a t

val bind : 'a t -> ('a -> 'b t) -> 'b t

val map : ('a -> 'b) -> 'a t -> 'b t

module Syntax : sig
  val ( let* ) : 'a t -> ('a -> 'b t) -> 'b t
  val ( let+ ) : 'a t -> ('a -> 'b) -> 'b t
  val ( >>= ) : 'a t -> ('a -> 'b t) -> 'b t
  val ( >> ) : unit t -> 'b t -> 'b t
end

(** {2 Operation shorthands} *)

val compute : int -> unit t
val load : int -> int t
val store : int -> int -> unit t
val load_str : off:int -> len:int -> string t
val store_str : off:int -> len:int -> string -> unit t
val send : Endpoint.t -> Message.t -> unit t
val call : Endpoint.t -> Message.t -> Message.t t
val receive : (Endpoint.t * Message.t) t
val reply : Endpoint.t -> Message.t -> unit t
val yield : unit t
val spawn : unit t -> unit t
val kcall : kcall -> kresult t
val rand : int -> int t
val now : int t
val fail : string -> 'a t

val direct : (unit -> 'a) -> 'a t
(** [direct f] embeds direct-style code (see {!Direct}): [f] runs in the
    executing thread when the program reaches this point, and its
    result is the node's value. *)

(** {2 Control helpers} *)

val iter_list : ('a -> unit t) -> 'a list -> unit t

val repeat : int -> unit t -> unit t
(** Run the given program n times. The program value is reused, which is
    sound because programs are immutable trees. *)

val guard : bool -> string -> unit t
(** [guard cond what] is the defensive-programming assertion of the
    paper's fault model: if [cond] is false the component fail-stops
    with a message naming [what]. *)

(** {2 Typed memory access over layouts}

    Program-level counterparts of [Layout.Table] direct access: these
    build [Load]/[Store] nodes so that state access is costed,
    instrumented and fault-injectable. Direct-style code uses
    [Kernel.Op.Mem]. *)

module Mem : sig
  val get_int : Layout.Table.t -> row:int -> Layout.int_field -> int t
  val set_int : Layout.Table.t -> row:int -> Layout.int_field -> int -> unit t
  val get_str : Layout.Table.t -> row:int -> Layout.str_field -> string t
  val set_str : Layout.Table.t -> row:int -> Layout.str_field -> string -> unit t
  val get_cell : Layout.Cell.t -> int t
  val set_cell : Layout.Cell.t -> int -> unit t
end
