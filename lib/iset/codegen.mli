(** Loop-nest synthesis from integer sets — the analogue of Kelly, Pugh and
    Rosser's multiple-mappings code generation used by the paper.

    Given one iteration set per statement over a common tuple of loop
    variables, {!gen} produces an AST of [do] loops, guards and statement
    leaves that enumerates each set in lexicographic order (statements in
    list order within an iteration). Single-conjunct nests take a fast
    path in which every constraint becomes a loop bound or a stride;
    non-convex sets either share hull loops with per-statement guards or
    (order-insensitive callers) emit one exact nest per disjunct. *)

exception Unsupported of string

(** {1 Expressions, conditions, ASTs} *)

type expr =
  | EInt of int
  | EVar of string
  | EAdd of expr * expr
  | ESub of expr * expr
  | EMul of int * expr
  | EFloorDiv of expr * int
  | ECeilDiv of expr * int
  | EMax of expr list
  | EMin of expr list
  | EAlignUp of expr * expr * expr
      (** [EAlignUp (e, target, k)]: smallest [x >= e] with
          [x ≡ target (mod k)]; the modulus may be symbolic. *)

type cond =
  | CTrue
  | CGeq0 of expr
  | CEq0 of expr
  | CDivides of int * expr
  | CAnd of cond list
  | COr of cond list
  | CNot of cond

type 'a ast =
  | AFor of { var : string; lo : expr; hi : expr; step : int; body : 'a ast list }
  | AIf of cond * 'a ast list
  | ALeaf of 'a

(** Smart constructors with constant folding. *)

val eint : int -> expr
val eadd : expr -> expr -> expr
val esub : expr -> expr -> expr
val emul : int -> expr -> expr
val efloordiv : expr -> int -> expr
val emax : expr list -> expr
val emin : expr list -> expr
val cand : cond list -> cond

val expr_of_lin : name_of:(int -> string) -> Lin.t -> expr
(** Convert a linear term; [name_of] maps input-variable positions to loop
    variable names. @raise Unsupported on existentials. *)

(** {1 Evaluation} *)

val eval_expr : (string -> int) -> expr -> int
val eval_cond : (string -> int) -> cond -> bool

val run : env:(string -> int) -> f:('a -> (string * int) list -> unit) -> 'a ast list -> unit
(** Execute the AST: call [f tag bindings] for every statement instance in
    emission order. [env] resolves parameters; loop variables shadow it.
    Loops follow the sign of their step ([step > 0] ascending while
    [i <= hi], [step < 0] descending while [i >= hi]); an empty range
    (e.g. [lo > hi] with a positive step) runs zero iterations.
    @raise Invalid_argument on a zero step. *)

val count_points : env:(string -> int) -> 'a ast list -> int
(** Number of statement instances the AST enumerates at a concrete
    parameter binding — the point count of the generated nest (set
    cardinality times any deliberate disjunct overlap). This is the
    compile-time evaluation of the paper's message-size loops: counting
    the points of a communication set at given distribution parameters
    without materializing the elements. Same loop-direction and zero-step
    semantics as {!run}. *)

(** {1 Interval analysis}

    Conservative bounds for expressions, used by the native engine to prove
    at lowering time that a subscript expression stays inside an array's
    declared extent, licensing unchecked accesses in emitted kernels. *)

type interval = { ilo : int option; ihi : int option }
(** Inclusive integer interval; [None] means unbounded on that side. *)

val itv_top : interval
val itv_const : int -> interval
val itv : ?lo:int -> ?hi:int -> unit -> interval

val interval_of_expr : (string -> interval) -> expr -> interval
(** Interval of an expression under an environment that must return
    {!itv_top} for names it cannot bound. Sound (the true value always lies
    inside the returned interval) but not exact. *)

val itv_within : interval -> lo:int -> hi:int -> bool
(** [itv_within iv ~lo ~hi] is true when the interval is finite and contained
    in [\[lo, hi\]] — the proof obligation for an unchecked access. *)

(** {1 Generation} *)

type 'a stmt = { tag : 'a; dom : Rel.t }

val gen :
  ?context:Rel.t ->
  ?disjoint:bool ->
  ?order:[ `Lex | `Any ] ->
  names:string array ->
  'a stmt list ->
  'a ast list
(** Generate loop nests enumerating every statement's [dom] (a set over the
    variables named by [names]).

    [context] holds constraints already enforced by the enclosing scope (the
    paper's [Known] argument); it supplies fallback bounds. Overlapping
    disjuncts of one statement fire exactly once via runtime first-match
    exclusion guards; pass [~disjoint:false] to allow re-enumeration instead
    (idempotent statements such as message packing). [~order:`Any] — legal
    when the caller does not need lexicographic interleaving across
    disjuncts and all statements share one domain — emits each disjunct as
    its own exact nest (tight bounds instead of hull-plus-guards).

    Repeats are answered from a bounded memo table ([codegen lookups] /
    [codegen hits] in {!Stats}) keyed on the flags, the arities and the
    interned conjunct ids of the context and the domains, never on names
    or tags: a hit returns the nest renamed to this call's [names] and
    re-tagged with this call's tags, exactly as generation would.

    @raise Unsupported on unbounded variables or non-window existentials
    (never cached; the message names the caller's variable). *)

val approx : Rel.t -> Rel.t
(** Sound over-approximation: drop every constraint involving an existential
    outside the stride/window class (enlarging the set). Used for
    intermediate iteration-demand sets, which deeper levels re-restrict. *)

(** {1 Internals exposed for the compiler and tests} *)

type classified = {
  plain : Constr.t list;
  strides : stride list;
  windows : window list;
}

and stride = { level : int; modulus : int; rest : Lin.t; vcoef : int }

and window = { w_lows : (int * Lin.t) list; w_highs : (int * Lin.t) list }

val classify : Conj.t -> Constr.t list * stride list * window list
(** Split a conjunct into existential-free constraints, loop strides and
    existential windows. @raise Unsupported on other existential shapes. *)

type bound = Lower of expr | Upper of expr | NotBound

val bound_of : name_of:(int -> string) -> int -> Constr.t -> bound
val cond_of_constr : name_of:(int -> string) -> Constr.t -> cond
val cond_of_stride : name_of:(int -> string) -> stride -> cond
val cond_of_window : name_of:(int -> string) -> window -> cond

(** {1 Printing} *)

val add_expr : Linebuf.t -> expr -> unit
val add_cond : Linebuf.t -> cond -> unit
(** Fortran-like text; the comma between [max]/[min] arguments is a
    {!Linebuf.comma} hint, every other comma is plain text. *)

val ast_to_string : string ast list -> string
(** The nest as [do]/[if] lines indented by two per level, one line per
    leaf tag, through one {!Linebuf}. *)
