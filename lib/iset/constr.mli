(** Atomic constraints over linear terms: [t = 0] or [t >= 0]. *)

type kind = Eq | Geq

type t = { kind : kind; lin : Lin.t }

val eq : Lin.t -> t
(** [eq t] is the constraint [t = 0]. *)

val geq : Lin.t -> t
(** [geq t] is the constraint [t >= 0]. *)

val le : Lin.t -> Lin.t -> t
(** [le a b] is [a <= b], i.e. [b - a >= 0]. *)

val equal_terms : Lin.t -> Lin.t -> t
(** [equal_terms a b] is [a = b]. *)

val kind : t -> kind
val lin : t -> Lin.t
val compare : t -> t -> int
val equal : t -> t -> bool

val hash : t -> int
(** O(1), from the term's stored hash. *)

val intern : t -> t
(** Canonical representative; a new representative gets its term interned
    too. *)

val id : t -> int
(** Stable interned id; never reused across cache evictions. *)

val wire_put : Buffer.t -> t -> unit
(** Canonical byte codec (see {!Wire}); structurally equal constraints
    encode to equal bytes. *)

val wire_read : Wire.cursor -> t
(** @raise Wire.Malformed on a truncated or ill-formed stream. *)

val mem : Var.t -> t -> bool
val coeff : t -> Var.t -> int

type norm = Tauto | Contra | Ok of t

val normalize : t -> norm
(** Canonicalize: divide by the gcd of the variable coefficients (tightening
    the constant of an inequality, detecting unsatisfiable equalities), and
    sign-normalize equalities. Constant constraints resolve to [Tauto] or
    [Contra]. *)

val subst : Var.t -> Lin.t -> t -> t
val map_lin : (Lin.t -> Lin.t) -> t -> t

val negate : t -> t list
(** Negation as a disjunction: [not (t >= 0)] is [[-t-1 >= 0]];
    [not (t = 0)] is [[t-1 >= 0; -t-1 >= 0]]. *)

val pp : ?pp_var:(Format.formatter -> Var.t -> unit) -> Format.formatter -> t -> unit
val to_string : t -> string
