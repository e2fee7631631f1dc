(** Reference (serial) interpreter for mini-HPF programs.

    Executes the source AST directly on dense arrays, ignoring the HPF
    directives, and accounts time with the computation part of the
    {!Machine} cost model. It is both the T(1) baseline of the Figure 7
    speedups and the correctness oracle the test suite compares compiled
    SPMD executions against. *)

exception Error of string

type state

val eval_iexpr : state -> Hpf.Ast.iexpr -> int
val intrinsic : string -> float list -> float

type result = {
  r_time : float;  (** modeled serial execution time *)
  r_flops : int;
  r_state : state;
}

val run : ?machine:Machine.t -> Hpf.Sema.checked -> result
(** Execute a checked program with the parameter values {!Hpf.Sema.analyze}
    bound; a parameter left valueless there is an unbound name here. *)

val get_elem : result -> string -> int list -> float
val get_scalar : result -> string -> float
