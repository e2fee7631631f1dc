(** Domain-pool helpers: session domain-count policy and small
    spawn/join + worklist combinators shared by the parallel compiler
    phases and the simulator's lane scheduler.

    The library never clamps requested counts to the physical core count
    — four domains on one core is merely slow, and the differential
    suites deliberately over-subscribe. The [dhpfc] CLI applies {!clamp}
    as its [-j] / [DHPF_DOMAINS] policy. *)

val recommended : unit -> int
(** [Domain.recommended_domain_count ()]. *)

val clamp : int -> int
(** Clamp to [1 .. recommended ()]. *)

val domains : unit -> int
(** Session default domain count: [DHPF_DOMAINS] at startup, else 1. *)

val set_domains : int -> unit
(** Override the session default (floored at 1). *)

val spawn_join : int -> (int -> unit) -> unit
(** [spawn_join n f] runs [f 0 .. f (n-1)] concurrently ([f 0] on the
    calling domain), joins every domain even on failure, and re-raises
    the lowest-index exception with its backtrace. *)

val iter : domains:int -> int -> (int -> unit) -> unit
(** Atomic-worklist parallel iteration over [0 .. n-1] on
    [min domains n] domains; order unspecified. *)

val map : domains:int -> int -> (int -> 'a) -> 'a array
(** {!iter} collecting results. *)
