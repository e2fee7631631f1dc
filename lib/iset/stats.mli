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

(** {1 The memo tables}

    One value per in-memory memo table. Each declaration creates the
    table's [<name> lookups] and [<name> hits] counters (placed among the
    other counters in {!report}'s order) and adds the table to {!memos}.
    A {!Cache.Id} or {!Cache.Ids} table is created from it, and its miss
    slices are named after it. *)

type memo = { name : string; lookups : counter; hits : counter }

val sat : memo
val simplify : memo

val rel : memo
(** The relation-level memo of {!Rel} (inter, diff, coalesce, compose,
    domain, range, inverse, restrict_domain, restrict_range, flatten,
    apply_point, and the pairwise meets). *)

val codegen : memo
(** The loop-nest memo of {!Codegen.gen}. *)

val memos : memo list
(** Every memo table above, in declaration (= reporting) order. The
    [iset/cache hits] trace counter, the serve daemon's [memo_hit] ratio
    and Table 1's cache rows are all derived from this list, so a new
    table appears in each of them by construction. *)

(** {1 The engine's other counters} *)

(** Omega elimination steps done on memo misses: Fourier-Motzkin
    eliminations that were exact (in simplification and in the
    satisfiability test), dark shadows tested after a satisfiable real
    shadow, and splinters tested after an empty dark shadow. *)

val fme_exact : counter
val dark_shadows : counter
val splinters : counter

val evictions : counter

(** On-disk analysis-cache traffic (see {!Diskcache}): lookups/hits count
    content-addressed entry reads on in-memory misses, stores count
    published entries, evictions count files removed by the size-bounded
    GC. *)

val disk_lookups : counter
val disk_hits : counter
val disk_stores : counter
val disk_evictions : counter

(** {1 Reporting} *)

val reset : unit -> unit
(** Zero every counter (cache contents are untouched). *)

val report : unit -> (string * int) list
(** All counters (in registration order) followed by all gauges. *)

val pp : Format.formatter -> unit -> unit
