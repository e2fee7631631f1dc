(** Semantic analysis for mini-HPF programs: symbol tables, resolution of
    [name(args)] into array references vs. intrinsic calls, affine subscript
    extraction, and structural checks of the HPF directives. *)

open Ast

exception Error of string

val intrinsics : string list

type extent = Concrete of int | Symbolic of string * iexpr
(** A processor-array extent: known at compile time, or a named symbolic
    parameter whose value is computed at SPMD startup from the expression
    (which may use [number_of_processors()] and integer division). *)

type array_info = {
  aname : string;
  elt : elt_type;
  adims : (iexpr * iexpr) list;  (** bounds, affine in program parameters *)
}

type proc_info = { pname : string; pextents : extent list }
type template_info = { tname : string; tdims : (iexpr * iexpr) list }

type align_info = {
  al_array : string;
  al_dummies : string list;
  al_template : string;
  al_targets : align_target list;
}

type dist_info = { di_template : string; di_fmts : dist_fmt list; di_onto : string }

type env = {
  params : (string, int option) Hashtbl.t;  (** None: symbolic *)
  arrays : (string, array_info) Hashtbl.t;
  scalars : (string, elt_type) Hashtbl.t;
  procs : (string, proc_info) Hashtbl.t;
  templates : (string, template_info) Hashtbl.t;
  aligns : (string, align_info) Hashtbl.t;  (** keyed by array *)
  dists : (string, dist_info) Hashtbl.t;  (** keyed by template *)
  subroutines : (string, unit_) Hashtbl.t;
}

val find_array : env -> string -> array_info option
val is_param : env -> string -> bool
val param_value : env -> string -> int option
val align_of : env -> string -> align_info option
val template_of : env -> string -> template_info

val the_proc_array : env -> proc_info
(** The single processor arrangement (multiple arrangements are not
    supported; see DESIGN.md). *)

(** {1 Affine conversion} *)

exception Nonaffine of iexpr

val affine : lookup:(string -> Iset.Var.t) -> iexpr -> Iset.Lin.t
(** Convert to a linear term; [lookup] maps names to variables.
    @raise Nonaffine on division, intrinsic calls, variable products. *)

val eval_iexpr : bind:(string -> int) -> iexpr -> int
(** Runtime evaluation (processor extents, parameter binding); supports
    integer division and [number_of_processors()]. *)

val subst_known_params : env -> Iset.Lin.t -> Iset.Lin.t
(** Inline compile-time-known parameter values as constants (keeping known
    constants symbolic only manufactures spurious case splits). *)

(** {1 Entry points} *)

type checked = { prog : program; env : env }

val analyze : program -> checked
(** Build symbol tables, check directives, and normalize every unit body
    (call/array-reference resolution, arity checks). @raise Error. *)

val analyze_source : string -> checked
(** {!Parser.program} followed by {!analyze}. *)
