(** Global switchboard for the memoization layer of the integer-set engine.

    Every memo/intern table in {!Lin}, {!Constr}, {!Conj}, {!Rel} and
    {!Codegen} registers here; tables share one capacity bound and are
    bounded by clear-on-full eviction. Interned ids are never reused across clears, so
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

(** One interned id, hashed as itself (ids are dense and never reused). *)
module Id_key : Hashtbl.HashedType with type t = int

(** Flat int-array keys (interned ids and arities), compared
    element-wise. *)
module Ids_key : Hashtbl.HashedType with type t = int array

(** A bounded memo table, declared once. Every memoized operation of the
    engine is one {!find_or_add} on one of these. *)
module Memo (K : Hashtbl.HashedType) : sig
  type ('x, 'v) t
  (** A table answering ['x -> 'v] for operands identified by a [K.t]. *)

  val create :
    ?share:int ->
    ?disk:('x, 'v) Diskcache.codec ->
    Stats.memo ->
    ('x -> 'v) ->
    ('x, 'v) t
  (** [create ?share ?disk s compute]: the table counted by [s] (its
      lookups, hits and the [<name> cache size] gauge), memoizing
      [compute], which must be a pure function of the key's content.
      [share] (default 1): the table clears when it holds
      [capacity () / share] entries (at least one). [disk]: the codec of
      the persistent layer beneath the table ({!Diskcache}, entry kind
      [s.name]); without it a miss always computes. *)

  val find_or_add : ('x, 'v) t -> K.t -> 'x -> 'v
  (** [find_or_add m k x]: [compute x], answered from the table when [k]
      was met before. With caching disabled it is just [compute x] — no
      lookup, no insertion, no counter traffic, no slice. Otherwise it
      counts the lookup (and the hit); on a miss it probes the disk layer
      and, failing that, runs [compute x] inside an [iset] trace slice
      named [s.name] whose args are the table's lookups and hits, then
      inserts the result. Exceptions from [compute] propagate and nothing
      is inserted. Callers whose key interns must test {!enabled} first,
      so that caching off interns nothing. *)
end

(** Tables keyed by one interned id: [sat] and [simplify]. *)
module Id : module type of Memo (Id_key)

(** Tables keyed by a flat array of ids: {!Rel}'s [rel] and {!Codegen}'s
    loop-nest memo. *)
module Ids : module type of Memo (Ids_key)
