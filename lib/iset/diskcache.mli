(** Content-addressed on-disk analysis cache: the persistent layer beneath
    {!Cache}.

    Entries are keyed by the {!Wire} encoding of the analyzed structure
    (its {e content} — interned ids are process-local and never written),
    an analysis kind, and the cache format version; the value is the Wire
    encoding of the analysis result. Because every cached operation is a
    pure function of the structure and the codec is canonical, a disk hit
    decodes to exactly what recomputation would produce — warm compiles are
    byte-identical to cold ones by construction.

    Robustness contract:
    - writes go to a temp file in the cache directory and are published
      with an atomic [rename], so concurrent servers and crashes can never
      expose a torn entry;
    - reads tolerate arbitrary corruption: a truncated, mismatched-version
      or mismatched-key entry is a {e miss}, never an error;
    - the store is size-bounded: once the tracked footprint exceeds the
      budget, whole entries are evicted oldest-first (reads refresh an
      entry's timestamp, approximating LRU). Entries of a kind that no
      table stores any more are never read again and leave through the
      same eviction.

    The layer is disabled until a directory is configured ({!set_dir} or
    [--disk-cache]); when disabled, {!memo} is a transparent pass-through.
    It sits strictly beneath the in-memory memo tables: a disk lookup
    happens only on an in-memory miss, and disabling {!Cache} disables
    this layer too. All operations are domain-safe.

    Traffic is counted once, in the [Stats.disk_*] counters (exported as
    the [iset/disk ...] metric series); the footprint is the
    [diskcache/bytes] gauge. {!find} and {!store} run inside
    ["diskcache find"] / ["diskcache store"] trace spans (category
    [diskcache]). *)

val set_dir : string option -> unit
(** Enable the cache rooted at a directory (created on demand), or
    disable with [None]. *)

val dir : unit -> string option

val enabled : unit -> bool

val max_bytes : unit -> int
val set_max_bytes : int -> unit
(** Set the eviction budget in bytes (default 256 MiB; clamped to at
    least 64 KiB — low enough that an eviction-pressure benchmark can
    squeeze a real workload, high enough that a single entry always
    fits). *)

val bytes_used : unit -> int
(** Tracked footprint of the enabled cache directory (0 when disabled);
    initialized by a scan on first use, then maintained incrementally. *)

(** {1 Entry access} *)

val find : kind:string -> string -> string option
(** [find ~kind key]: the stored value bytes, or [None] on any miss —
    absent, truncated, wrong version, or a digest collision (the full key
    is stored and compared). Counts [disk lookups] / [disk hits]. *)

val store : kind:string -> string -> string -> unit
(** [store ~kind key value]: publish atomically, then evict oldest-first
    if the footprint exceeds the budget. Write failures (permissions,
    disk full) are swallowed: the cache degrades to a miss, it never
    fails a compile. *)

type ('x, 'v) codec = {
  key : 'x -> string;  (** the operand's content-key bytes *)
  encode : 'v -> string;
  decode : Wire.cursor -> 'v;
}
(** How a memo table's entries go to disk: a {!Cache.Memo} table takes one
    per disk-backed table, and the table's name is the entry kind. *)

val bool_codec : ('x -> string) -> ('x, bool) codec
(** The codec of a predicate's verdict ({!Wire.bool}) under the given
    content key. *)

val memo : kind:string -> ('x, 'v) codec -> ('x -> 'v) -> 'x -> 'v
(** [memo ~kind c f x]: [f x] when disabled; otherwise look up [c.key x],
    decode on a hit ({!Wire.Malformed} demotes to a miss), and on a miss
    compute, store and return. [c.key] is only called when the layer is
    enabled. *)

(** {1 Shared hygiene helpers}

    Reused by other on-disk caches (the native engine's kernel cache). *)

val prune_dir :
  ?group:(string -> string) -> max_bytes:int -> string -> int
(** [prune_dir ~group ~max_bytes d]: bound the total size of the plain
    files directly under [d] by deleting groups of files oldest-first
    (group age = newest member's mtime) until the total is within
    [max_bytes]. [group] maps a file name to its group key (default: each
    file is its own group), so multi-file entries — a kernel's [.ml],
    [.cmxs], [.log] — live and die together. Returns the number of files
    removed; a missing directory is 0. *)
