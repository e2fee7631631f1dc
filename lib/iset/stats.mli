(** Counters and gauges for the hash-consing / memoization layer of the
    integer-set engine, surfaced by [dhpfc compile --report] and the
    benchmark harness (Table-1 rows show both time and cache behaviour).

    This module is the one home of these counts: it registers itself as an
    {!Obs.Metrics} source, so every metrics export (the [--metrics] file,
    the serve daemon's [stats]/[dump] ops and [--prom] file) carries each
    counter as an [iset/<name>] counter series and each gauge as an
    [iset/<name>] gauge series, read live — no copy step. *)

type counter

val counter : string -> counter
(** Create and register a named counter. *)

val bump : counter -> unit
val count : counter -> int
val name : counter -> string

val register_gauge : string -> (unit -> int) -> unit
(** Register a live-state gauge (interned-node count, cache size). *)

(** {1 The engine's counters} *)

val sat_lookups : counter
val sat_hits : counter
val sat_prefilter_kills : counter
val simplify_lookups : counter
val simplify_hits : counter
val gist_lookups : counter
val gist_hits : counter
val implies_lookups : counter
val implies_hits : counter
val subset_lookups : counter
val subset_hits : counter

(** The relation-level memo of {!Rel} (diff, coalesce, compose, domain,
    range, apply_point); subset keeps its own pair above. *)

val rel_lookups : counter
val rel_hits : counter

(** The loop-nest memo of {!Codegen.gen}. *)

val codegen_lookups : counter
val codegen_hits : counter
val evictions : counter

(** On-disk analysis-cache traffic (see {!Diskcache}): lookups/hits count
    content-addressed entry reads on in-memory misses, stores count
    published entries, evictions count files removed by the size-bounded
    GC. *)

val disk_lookups : counter
val disk_hits : counter
val disk_stores : counter
val disk_evictions : counter

(** {1 The memo-table registry} *)

val memos : (string * counter * counter) list
(** Every in-memory memo table as (name, lookups, hits), in reporting
    order. The [iset/cache hits] trace counter, the serve daemon's
    [memo_hit] ratio and Table 1's cache rows are all derived from this
    list, so a new table appears in each of them by construction. *)

(** {1 Reporting} *)

val reset : unit -> unit
(** Zero every counter (cache contents are untouched). *)

val report : unit -> (string * int) list
(** All counters (in registration order) followed by all gauges. *)

val pp : Format.formatter -> unit -> unit
