(** Linear (affine) integer terms: [sum_i c_i * v_i + k].

    Coefficients are native ints (the sets the compiler manipulates stay far
    below [2^62]); zero coefficients are never stored, so structural
    equality of the coefficient map is semantic equality.

    A term stores its hash, set once by the constructor that builds it;
    the type is private so that no record literal can skip it. *)

type t = private { coeffs : int Var.Map.t; const : int; hash : int }

val zero : t
val const : int -> t

val var : ?coef:int -> Var.t -> t
(** [var ~coef v] is [coef * v]; [coef] defaults to 1. *)

val of_list : (int * Var.t) list -> int -> t
(** [of_list [(c1,v1);...] k] is [c1*v1 + ... + k]. *)

val of_coeffs : int Var.Map.t -> int -> t
(** [of_coeffs m k] is the term with coefficient map [m] (which must hold
    no zero coefficient) and constant [k]. *)

val coeff : t -> Var.t -> int
(** Coefficient of a variable (0 when absent). *)

val constant : t -> int
val is_const : t -> bool
val mem : Var.t -> t -> bool

val add : t -> t -> t
val sub : t -> t -> t
val neg : t -> t
val scale : int -> t -> t
val add_const : int -> t -> t

val drop : Var.t -> t -> t
(** Remove the variable's term entirely. *)

val subst : Var.t -> t -> t -> t
(** [subst v rhs t] replaces every occurrence of [v] by the term [rhs]. *)

val vars : t -> Var.Set.t
val fold : (Var.t -> int -> 'a -> 'a) -> t -> 'a -> 'a
val exists_var : (Var.t -> bool) -> t -> bool
val map_vars : (Var.t -> Var.t) -> t -> t

val gcd : int -> int -> int
val coeff_gcd : t -> int
(** Gcd of all variable coefficients (0 if the term is constant). *)

val compare : t -> t -> int
(** Physical equality is tried first. *)

val equal : t -> t -> bool
(** Rejects on unequal stored hashes before comparing coefficient maps. *)

val hash : t -> int
(** The stored hash, O(1); never written to {!Wire}. *)

val equal_coeffs : t -> t -> bool
(** Same variable part (the constants may differ); rejects in O(1) on the
    stored hashes less the constants' shares. *)

val opposite_coeffs : t -> t -> bool
(** [opposite_coeffs a b]: [a]'s variable part is the negation of [b]'s;
    rejects in O(1) as {!equal_coeffs} does. *)

val intern : t -> t
(** Canonical physically-shared representative (see {!Cache.Intern}):
    the terms of the representatives the memo tables keep are stored
    once. *)

val id : t -> int
(** Stable interned id; never reused across cache evictions. *)

val wire_put : Buffer.t -> t -> unit
(** Canonical byte codec (see {!Wire}); structurally equal terms encode
    to equal bytes. *)

val wire_read : Wire.cursor -> t
(** @raise Wire.Malformed on a truncated or ill-formed stream. *)

val fdiv : int -> int -> int
(** Floor division; the divisor must be positive. *)

val cdiv : int -> int -> int
(** Ceiling division; the divisor must be positive. *)

val pmod : int -> int -> int
(** Positive remainder in [\[0, b)]. *)

val smod : int -> int -> int
(** Symmetric remainder in [(-b/2, b/2]] — the "mod-hat" of Omega's
    equality-coefficient reduction. *)

val eval : (Var.t -> int) -> t -> int

val pp : ?pp_var:(Format.formatter -> Var.t -> unit) -> Format.formatter -> t -> unit
val to_string : t -> string
