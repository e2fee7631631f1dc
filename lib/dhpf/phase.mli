(** Wall-clock phase accounting, used to regenerate the paper's Table 1
    (breakdown of dHPF compilation time). Phases may nest; re-entrant
    timings of one label are not double counted. Safe to share across
    domains: totals are mutex-protected and the nesting stack is
    domain-local, so the parallel compiler phases can attribute time to
    one profiler concurrently. *)

type t

val create : unit -> t
val reset : t -> unit

val time : t -> string -> (unit -> 'a) -> 'a
(** Run the thunk as an {!Obs.span} of category ["phase"] and add the
    span's duration to the label's total, so a total is the sum of its
    trace slices. *)

val total : t -> string -> float
val elapsed : t -> float
(** Wall-clock seconds since {!create} or the last {!reset}. *)

val labels : t -> string list

val global : t
(** The profiler used by {!Gen.compile} by default. Its totals reach every
    metrics export as [compiler/phase_s{phase}] gauges, read live. *)
