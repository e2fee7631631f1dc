(** Relations between integer tuples: unions of conjuncts with declared
    input/output arities. A {e set} is a relation with [out_ar = 0] whose
    tuple variables are the inputs.

    Operation names follow the paper's Appendix A: {!compose} is the paper's
    [R1 o R2] (diagrammatic: [i -> j] iff there is an [a] with [r1 : i -> a]
    and [r2 : a -> j]); {!apply} is [R(S)]; {!restrict_domain} and
    {!restrict_range} are the [n_domain] / [n_range] operators.

    Emptiness, subset and equality are exact (backed by the Omega test);
    {!diff} is exact on sets whose residual existentials are stride/window
    shaped and raises {!Conj.Inexact_negation} otherwise.

    {!diff}, {!coalesce}, {!compose}, {!domain}, {!range}, {!apply_point}
    and {!subset} are memoized on their operands' arities and interned
    conjunct (and term) ids, never on names (see {!Cache}): a repeat
    returns the same conjuncts, under names built from its own operands. *)

type t

(** {1 Construction} *)

val make :
  ?in_names:string array ->
  ?out_names:string array ->
  in_ar:int ->
  out_ar:int ->
  Conj.t list ->
  t

val empty :
  ?in_names:string array -> ?out_names:string array -> in_ar:int -> out_ar:int -> unit -> t

val set : ?names:string array -> ar:int -> Conj.t list -> t

(** {1 Accessors} *)

val in_arity : t -> int
val out_arity : t -> int
val conjuncts : t -> Conj.t list
val in_names : t -> string array
val out_names : t -> string array
val with_names : ?in_names:string array -> ?out_names:string array -> t -> t
val is_set : t -> bool

(** {1 Simplification and decision procedures} *)

val simplify : t -> t
(** Per-conjunct simplification; drops conjuncts detected unsatisfiable. *)

val coalesce : t -> t
(** {!simplify} plus an Omega-test satisfiability prune and syntactic
    duplicate removal. *)

val is_empty : t -> bool
val is_sat : t -> bool
val subset : t -> t -> bool
val equal : t -> t -> bool

(** {1 Boolean operations} *)

val union : t -> t -> t
val inter : t -> t -> t

val diff : t -> t -> t
(** Exact set difference.
    @raise Conj.Inexact_negation if a subtrahend conjunct cannot be negated
    within the stride/window class. *)

val complement : t -> t

(** {1 Relational operations} *)

val domain : t -> t
val range : t -> t
val inverse : t -> t

val compose : t -> t -> t
(** [compose r1 r2]: the paper's [R1 o R2] — [i -> j] iff [exists a. r1(i,a)
    and r2(a,j)]. Requires [out_arity r1 = in_arity r2]. *)

val restrict_domain : t -> t -> t
val restrict_range : t -> t -> t

val apply : t -> t -> t
(** [apply r s] is the paper's [R(S)] = Range(restrict_domain r s). *)

val apply_point : t -> Lin.t list -> t
(** [apply_point r lins]: the image set of a symbolic input point, e.g.
    [CPMap({m})] with [m] given as parameter terms. *)

val flatten : t -> t
(** A relation [k -> m] as a set over the concatenated [k + m] tuple. *)

val unflatten : in_ar:int -> t -> t

val map_tuple_vars : (Var.t -> Var.t) -> t -> t

val gist : t -> given:t -> t
(** Simplify [t] assuming [given] (effective when [given] has a single
    conjunct). *)

val disjointify : t -> t
(** Same union of points, pairwise-disjoint conjuncts. Worst-case
    expensive; code generation prefers runtime first-match guards. *)

(** {1 Membership (testing oracle)} *)

val mem : ?env:(string * int) list -> t -> int list * int list -> bool
(** Exact membership of a concrete tuple, with parameters bound by [env];
    residual existentials are decided by the Omega test. *)

val mem_set : ?env:(string * int) list -> t -> int list -> bool

(** {1 Printing} *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
