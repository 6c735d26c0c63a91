(** Deterministic pseudo-random number generator (splitmix64).

    Every source of randomness in the simulator flows through a seeded
    [Rng.t] so that experiments are exactly reproducible. *)

type t

val create : int -> t
(** [create seed] returns a fresh generator. Equal seeds yield equal
    streams. *)

val copy : t -> t
(** Independent copy continuing from the same state. *)

val split : t -> t
(** Derive a statistically independent child generator, advancing the
    parent. Used to give each subsystem its own stream. *)

val bits64 : t -> int64
(** Next raw 64 bits. *)

val int : t -> int -> int
(** [int t n] is uniform in [\[0, n)]. [n] must be positive. *)

val bool : t -> bool

val float : t -> float -> float
(** [float t x] is uniform in [\[0, x)]. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)
