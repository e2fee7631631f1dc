(** The memoization layer's switchboard and its one table design: every
    intern table ({!Lin}, {!Constr}, {!Conj}) and memo table ({!Conj},
    {!Rel}, {!Codegen}) is a chained table of 16 lock stripes shared by
    every domain, with lock-free lookups and per-stripe clear-on-full
    eviction under one capacity bound. Interned ids are never reused, so
    id-keyed memo entries from a previous epoch are merely unreachable —
    stale hits are impossible by construction. *)

val enabled : unit -> bool
(** Caching on? Defaults to on; [DHPF_ISET_CACHE=off] (or [0], [false],
    [no]) in the environment disables it at startup. *)

val set_enabled : bool -> unit
(** Toggle caching; flushes every registered table (used by the differential
    cache-correctness tests). *)

val capacity : unit -> int

val set_capacity : int -> unit
(** Set the shared entry bound (clamped to at least 4); flushes every
    registered table. A table of capacity share [s] clears a stripe when
    it holds [max 1 (capacity () / s / 16)] entries. *)

val clear_all : unit -> unit
(** Empty every table, on every domain's behalf. *)

val occupancy : unit -> (string * int * int array) list
(** Every table that publishes a size gauge, by the gauge's name: its
    per-stripe bound at the current capacity, and how many entries the
    chains of each of its 16 stripes hold now. For tests. *)

(** An intern (hash-consing) table: [intern] maps a value to a canonical
    physically-shared representative plus a stable small integer id. Ids
    come from one [Atomic] counter per table, are monotone and never
    reused, even across clears: after a clear, re-interned values get
    fresh ids, so memo tables keyed by ids need no invalidation. [H.hash]
    is called once per lookup, so it should be cheap (the term modules
    store theirs). *)
module Intern (H : Hashtbl.HashedType) () : sig
  val intern : H.t -> H.t * int
  (** Canonical representative and stable id; the first interning of a value
      makes it the representative. *)

  val intern_with : H.t -> (H.t -> H.t) -> H.t * int
  (** [intern_with x canon] looks [x] up as it is, without a lock; only
      on a miss does it take the stripe lock, look again and insert
      [canon x] as the representative. [canon x] must be [H.equal] to [x]
      (typically [x] with its children interned). [canon] runs under
      this table's stripe lock, so it may intern into other tables but
      never into this one; tables nest in one fixed order, which rules out
      deadlock. A hit that races a clear may return an id the clear
      retired; {!trusted} then rejects it. *)

  val id : H.t -> int

  val trusted : hash:int -> int -> bool
  (** [trusted ~hash id], [hash] being [H.hash] of the value [id] was
      issued for: no clear has hit that value's stripe since [id] was
      issued, so re-interning the value would return [id] again. A caller
      that keeps an id and hash beside its representative may skip
      {!intern} while this holds. A clear-on-full retires only the ids of
      its own stripe. *)

  val register_gauge : string -> unit
  (** Publish the live entry count under the given name in {!Stats} and
      {!occupancy}. *)
end

module Id_key : Hashtbl.HashedType with type t = int
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
      [share] (default 1): a stripe clears when it holds
      [max 1 (capacity () / share / 16)] entries. [disk]: the codec of
      the persistent layer beneath the table ({!Diskcache}, entry kind
      [s.name]); without it a miss always computes. *)

  val find_or_add : ('x, 'v) t -> K.t -> 'x -> 'v
  (** [find_or_add m k x]: [compute x], answered from the table when [k]
      was met before, on any domain. With caching disabled it is just
      [compute x] — no lookup, no insertion, no counter traffic, no
      slice. Otherwise it counts the lookup (and the hit); on a miss it
      probes the disk layer and, failing that, runs [compute x] outside
      any lock, inside an [iset] trace slice named [s.name] whose args
      are the table's lookups and hits, inserts the result and returns
      the value the table then holds for [k] (another domain's, if it
      inserted first). Exceptions from [compute] propagate. Callers whose
      key interns must test {!enabled} first, so that caching off interns
      nothing. *)
end

(** Tables keyed by one interned id: [sat] and [simplify]. *)
module Id : module type of Memo (Id_key)

(** Tables keyed by a flat array of ids: {!Rel}'s [rel] and {!Codegen}'s
    loop-nest memo. *)
module Ids : module type of Memo (Ids_key)
