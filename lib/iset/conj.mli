(** Conjuncts: a conjunction of affine constraints with a block of
    existentially quantified variables.

    This module carries the heart of the framework: constraint
    normalization, Pugh's exact equality elimination (including the
    symmetric-modulus coefficient-reduction step), exact and inexact
    Fourier–Motzkin elimination, the Omega satisfiability test (real shadow,
    dark shadow, splinters), exact negation over the stride/window class,
    and gist. *)

type t

exception Inexact_negation
(** Raised by {!negate} (and operations built on it, such as set difference)
    when a residual existential is not in window form; does not occur for
    the set class the compiler produces. *)

exception Too_hard
(** Raised by {!sat} (and every operation that decides emptiness through
    it) when the Omega test exhausts its fuel: a fixed budget of
    elimination, shadow and splinter steps per query. The query is not
    undecidable, only too expensive to answer; the compiler reports it as
    an unsupported program rather than a runtime failure. *)

val true_ : t
val make : n_ex:int -> Constr.t list -> t
val constraints : t -> Constr.t list
val n_ex : t -> int
(** Number of existential variables; their ids are [0 .. n_ex-1]. *)

val add : t -> Constr.t list -> t
val map_lin : (Lin.t -> Lin.t) -> t -> t
val subst : Var.t -> Lin.t -> t -> t

val vars : t -> Var.Set.t
val constr_has_ex : Constr.t -> bool

val equal : t -> t -> bool
(** Structural equality (same existential count, same constraint list), with
    a physical-equality fast path. *)

val hash : t -> int

val intern : t -> t
(** Canonical physically-shared representative. A new representative gets
    its constraints and terms interned too; a lookup that finds one interns
    nothing else. *)

val id : t -> int
(** Stable interned id (see {!Hcons}); never reused across evictions. *)

val wire_put : Buffer.t -> t -> unit
(** Canonical byte codec (see {!Wire}): the content key and value format
    of the on-disk analysis cache ({!Diskcache}). Structurally equal
    conjuncts encode to equal bytes; interned ids are never written. *)

val wire_read : Wire.cursor -> t
(** @raise Wire.Malformed on a truncated or ill-formed stream. *)

val trivially_unsat : t -> bool
(** Cheap sound unsatisfiability pre-filter (constant violations, equality
    gcd tests, single-variable interval contradictions); [true] means the
    conjunct is definitely empty, [false] means "don't know". It lists no
    coefficient map's bindings. *)

val shift_ex : int -> t -> t
(** Shift every existential id; used to rename conjuncts apart. *)

val meet : t -> t -> t
(** Conjunction; the right operand's existentials are renamed apart, the
    left operand's ids are stable. *)

val compact_ex : t -> t
(** Renumber existentials densely, dropping unused ids. *)

val simplify : t -> t option
(** Normalize constraints, propagate equalities, eliminate existentials
    where exact (unit substitution, modulus reduction, exact FME, gcd
    merging, stride-coefficient reduction), and tighten inequality pairs.
    [None] means the conjunct was detected unsatisfiable. Memoized on the
    interned id (see {!Cache}). *)

val simplify_raw : t -> t option
(** {!simplify} without the memo: nothing is looked up, interned or
    stored. For a caller that memoizes the step that built its argument
    under that step's own operands, such as {!Rel}'s meets. *)

val sat : t -> bool
(** The full Omega test, treating every variable (tuple, parameter,
    existential) as existentially quantified: is the conjunct satisfiable
    for {e some} assignment? Exact. Memoized on the interned id (see
    {!Cache}). A conjunct that carries a trusted id (an interned
    representative, such as a memoized result) is looked up in the table
    first; any other conjunct is guarded by {!trivially_unsat} first, and
    only those kills count as [sat pre-filter kills] in {!Stats}. *)

val is_empty : t -> bool

val negate : t -> t list
(** Negation as a disjunction of conjuncts. Exact when every residual
    existential α occurs as a window [l <= k·α <= u] (a stride when
    [l = u]); the complement of a window is again a window, so the class is
    closed under the operations the compiler performs.
    @raise Inexact_negation otherwise. *)

val implies : t -> Constr.t -> bool
(** [implies t c]: does [t] entail [c]? [c] must not mention existentials
    of [t]. *)

val gist : t -> given:t -> t
(** Drop constraints of [t] entailed by [given] plus the remaining
    constraints; constraints mentioning [t]'s existentials are kept. *)

val pp : ?pp_var:(Format.formatter -> Var.t -> unit) -> Format.formatter -> t -> unit
val to_string : t -> string
