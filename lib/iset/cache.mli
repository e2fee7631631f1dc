(** Global switchboard for the memoization layer of the integer-set engine.

    Every memo/intern table in {!Lin}, {!Constr}, {!Conj} and {!Rel}
    registers here; tables share one capacity bound and are bounded by
    clear-on-full eviction. Interned ids are never reused across clears, so
    id-keyed memo entries from a previous epoch are merely unreachable —
    stale hits are impossible by construction (invalidation-free keying). *)

val enabled : unit -> bool
(** Caching on? Defaults to on; [DHPF_ISET_CACHE=off] (or [0], [false],
    [no]) in the environment disables it at startup. *)

val set_enabled : bool -> unit
(** Toggle caching; flushes every registered table (used by the differential
    cache-correctness tests). *)

val capacity : unit -> int

val set_capacity : int -> unit
(** Set the per-table entry bound (clamped to at least 4); flushes every
    registered table. *)

val register_clear : (unit -> unit) -> unit
val clear_all : unit -> unit

(** Flat int-array keys (interned ids and arities), compared
    element-wise. *)
module Ints : Hashtbl.HashedType with type t = int array

(** Bounded memo table; creation registers a clear hook and a size gauge. *)
module Memo (K : Hashtbl.HashedType) : sig
  type 'v t

  val create :
    ?share:int -> string -> lookups:Stats.counter -> hits:Stats.counter -> 'v t
  (** [share] (default 1): the table clears when it holds
      [capacity () / share] entries (at least one). *)

  val length : 'v t -> int

  val find_or_add : 'v t -> K.t -> (unit -> 'v) -> 'v
  (** Memoized call; a transparent pass-through when caching is disabled. *)
end
