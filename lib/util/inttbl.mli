(** Int-keyed hash tables for the tables the analysis layers key by
    rid, endpoint or event kind.

    Open addressing with linear probing over flat key and value arrays.
    A key's home slot is its low bits ([key land (capacity - 1)]), so
    consecutive keys — ascending rids, endpoints, kind codes — land in
    distinct slots, as long as the run is no longer than the capacity. The capacity is a power of two at
    least twice the number of entries, whatever the range of the keys.
    Every [int] is a valid key: [min_int], which marks a free slot, is
    kept beside the arrays. Removal shifts the rest of the probe chain
    back, so there are no tombstones.

    Once the table has grown to hold its entries, {!replace}, {!find},
    {!mem}, {!remove}, {!push} and {!add_int} allocate nothing beyond
    what they store.

    {b Iteration order} ({!iter}, {!fold}) is the slot order: it depends
    on the keys' low bits, the capacity and the history of removals. No
    output may depend on it; a consumer that prints what it iterates
    sorts it first. *)

type 'a t

val create : int -> 'a t
(** [create n]: an empty table sized for about [n] entries; it grows
    past them as needed. *)

val length : 'a t -> int

val mem : 'a t -> int -> bool

val find : 'a t -> int -> 'a
(** @raise Not_found if the key is absent. *)

val find_opt : 'a t -> int -> 'a option

val find_or : 'a t -> int -> 'a -> 'a
(** [find_or t k d]: [k]'s value, or [d] if [k] is absent. *)

val replace : 'a t -> int -> 'a -> unit
(** Bind the key, replacing any previous binding. *)

val remove : 'a t -> int -> unit
(** Unbind the key; no effect if it is absent. *)

val push : 'a list t -> int -> 'a -> unit
(** [push t k v] conses [v] onto [k]'s list ([[v]] if [k] is absent). *)

val add_int : int t -> int -> int -> unit
(** [add_int t k n] adds [n] to [k]'s count (absent counts as 0). *)

val map_inplace : ('a -> 'a) -> 'a t -> unit
(** Replace every value by its image. *)

val iter : (int -> 'a -> unit) -> 'a t -> unit
(** Slot order; see above. *)

val fold : (int -> 'a -> 'acc -> 'acc) -> 'a t -> 'acc -> 'acc
(** Slot order; see above. *)
