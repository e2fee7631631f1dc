(** Variables occurring in integer-set formulas.

    A relation constrains an input tuple ([In i]) and an output tuple
    ([Out i]); a set uses only the input tuple. [Param] names a free symbolic
    constant (array extent, processor count, block size, enclosing loop
    index at a vectorization point, [vm$k] ...). [Ex] is an existentially
    quantified variable local to one conjunct; its id is dense within the
    owning conjunct. *)

type t = In of int | Out of int | Param of string | Ex of int

val compare : t -> t -> int
val equal : t -> t -> bool
val hash : t -> int

val is_ex : t -> bool
val is_param : t -> bool

val wire_put : Buffer.t -> t -> unit
(** Canonical byte codec (see {!Wire}); structurally equal variables
    encode to equal bytes. *)

val wire_read : Wire.cursor -> t
(** @raise Wire.Malformed on a truncated or ill-formed stream. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string

module Map : Map.S with type key = t
module Set : Set.S with type elt = t
