(** Reference (serial) interpreter for mini-HPF programs.

    Executes the source AST directly on dense arrays, ignoring all HPF
    directives, and accounts time with the same cost model the SPMD
    simulator uses for computation. Serves two purposes: the T(1) baseline
    of the Figure 7 speedups, and the correctness oracle the test suite
    compares compiled SPMD executions against. *)

open Hpf

exception Error of string

let errf fmt = Fmt.kstr (fun s -> raise (Error s)) fmt

type arr = {
  bounds : (int * int) list;
  strides : int array;
  base : int;
  data : float array;
}

type state = {
  env : Sema.env;  (** parameter values, arrays, scalars, subroutines *)
  arrays : (string, arr) Hashtbl.t;
  scalars : (string, float) Hashtbl.t;
  ivars : (string, int) Hashtbl.t;  (** loop variables *)
  machine : Machine.t;
  mutable time : float;
  mutable flops : int;
}

let lookup_int st s =
  match Hashtbl.find_opt st.ivars s with
  | Some v -> v
  | None -> (
      match Sema.param_value st.env s with
      | Some v -> v
      | None -> errf "unbound integer name %s" s)

let rec eval_iexpr st (e : Ast.iexpr) : int =
  match e with
  | INum k -> k
  | IName s -> lookup_int st s
  | IAdd (a, b) -> eval_iexpr st a + eval_iexpr st b
  | ISub (a, b) -> eval_iexpr st a - eval_iexpr st b
  | IMul (a, b) -> eval_iexpr st a * eval_iexpr st b
  | IDiv (a, b) -> Iset.Lin.fdiv (eval_iexpr st a) (eval_iexpr st b)
  | INeg a -> -eval_iexpr st a
  | ICall ("number_of_processors", []) -> 1
  | ICall (f, _) -> errf "unknown integer intrinsic %s" f

let alloc_array st (ai : Sema.array_info) =
  let bounds = List.map (fun (lo, hi) -> (eval_iexpr st lo, eval_iexpr st hi)) ai.adims in
  let extents = List.map (fun (lo, hi) -> hi - lo + 1) bounds in
  List.iter (fun e -> if e <= 0 then errf "array %s has empty extent" ai.aname) extents;
  (* column-major strides, as in Fortran *)
  let n = List.length extents in
  let strides = Array.make n 1 in
  List.iteri
    (fun i e -> if i + 1 < n then strides.(i + 1) <- strides.(i) * e)
    extents;
  let total = List.fold_left ( * ) 1 extents in
  let base =
    List.fold_left2 (fun acc (lo, _) k -> acc + (lo * k)) 0 bounds (Array.to_list strides)
  in
  { bounds; strides; base; data = Array.make total 0.0 }

let offset arr idx =
  let off = ref (-arr.base) in
  List.iteri
    (fun i x ->
      let lo, hi = List.nth arr.bounds i in
      if x < lo || x > hi then
        errf "index %d out of bounds [%d,%d] in dimension %d" x lo hi (i + 1);
      off := !off + (x * arr.strides.(i)))
    idx;
  !off

let get_arr st name =
  match Hashtbl.find_opt st.arrays name with
  | Some a -> a
  | None -> errf "unknown array %s" name

let intrinsic name args =
  match (name, args) with
  | "abs", [ x ] -> Float.abs x
  | "sqrt", [ x ] -> sqrt x
  | "exp", [ x ] -> exp x
  | "log", [ x ] -> log x
  | "sin", [ x ] -> sin x
  | "cos", [ x ] -> cos x
  | "float", [ x ] -> x
  | "max", [ a; b ] -> Float.max a b
  | "min", [ a; b ] -> Float.min a b
  | "mod", [ a; b ] -> Float.rem a b
  | "sign", [ a; b ] -> if b >= 0.0 then Float.abs a else -.Float.abs a
  | _ -> errf "unknown intrinsic %s/%d" name (List.length args)

let rec eval_fexpr st (e : Ast.fexpr) : float =
  match e with
  | FNum x -> x
  | FInt ie -> float_of_int (eval_iexpr st ie)
  | FRef (n, []) -> (
      match Hashtbl.find_opt st.scalars n with
      | Some v -> v
      | None ->
          (* integer scalar or loop variable used in float context *)
          float_of_int (lookup_int st n))
  | FRef (n, idx) ->
      let a = get_arr st n in
      st.flops <- st.flops + 1;
      a.data.(offset a (List.map (eval_iexpr st) idx))
  | FNeg a -> -.eval_fexpr st a
  | FBin (op, a, b) ->
      let x = eval_fexpr st a and y = eval_fexpr st b in
      st.flops <- st.flops + 1;
      (match op with
      | Add -> x +. y
      | Sub -> x -. y
      | Mul -> x *. y
      | Div -> x /. y)
  | FCall (f, args) ->
      st.flops <- st.flops + 1;
      intrinsic f (List.map (eval_fexpr st) args)

let rec eval_cond st (c : Ast.cond) : bool =
  match c with
  | CCmp (a, op, b) ->
      let x = eval_fexpr st a and y = eval_fexpr st b in
      (match op with
      | Lt -> x < y
      | Le -> x <= y
      | Gt -> x > y
      | Ge -> x >= y
      | Eq -> x = y
      | Ne -> x <> y)
  | CAnd (a, b) -> eval_cond st a && eval_cond st b
  | COr (a, b) -> eval_cond st a || eval_cond st b
  | CNot a -> not (eval_cond st a)

let rec exec_stmt st (s : Ast.stmt) : unit =
  match s with
  | SAssign { lhs = name, []; rhs; _ } ->
      let v = eval_fexpr st rhs in
      st.flops <- st.flops + 1;
      Hashtbl.replace st.scalars name v
  | SAssign { lhs = name, idx; rhs; _ } ->
      let v = eval_fexpr st rhs in
      st.flops <- st.flops + 1;
      let a = get_arr st name in
      a.data.(offset a (List.map (eval_iexpr st) idx)) <- v
  | SDo { var; lo; hi; step; body } ->
      let l = eval_iexpr st lo and h = eval_iexpr st hi in
      let i = ref l in
      while !i <= h do
        Hashtbl.replace st.ivars var !i;
        List.iter (exec_stmt st) body;
        st.flops <- st.flops + 1;
        i := !i + step
      done;
      Hashtbl.remove st.ivars var
  | SIf { cond; then_; else_ } ->
      st.flops <- st.flops + 1;
      if eval_cond st cond then List.iter (exec_stmt st) then_
      else List.iter (exec_stmt st) else_
  | SCall (f, _) -> (
      match Hashtbl.find_opt st.env.Sema.subroutines f with
      | Some u -> List.iter (exec_stmt st) u.body
      | None -> errf "unknown subroutine %s" f)

type result = {
  r_time : float;  (** modeled serial execution time *)
  r_flops : int;
  r_state : state;
}

(** Execute a checked program serially, with the parameter values
    {!Sema.analyze} bound. *)
let run ?(machine = Machine.default) (chk : Sema.checked) : result =
  let st =
    {
      env = chk.env;
      arrays = Hashtbl.create 16;
      scalars = Hashtbl.create 16;
      ivars = Hashtbl.create 16;
      machine;
      time = 0.0;
      flops = 0;
    }
  in
  Hashtbl.iter
    (fun name ai -> Hashtbl.replace st.arrays name (alloc_array st ai))
    chk.env.Sema.arrays;
  Hashtbl.iter (fun name _ -> Hashtbl.replace st.scalars name 0.0) chk.env.Sema.scalars;
  let u = Ast.main_unit chk.prog in
  List.iter (exec_stmt st) u.body;
  st.time <- float_of_int st.flops *. machine.Machine.flop_time;
  { r_time = st.time; r_flops = st.flops; r_state = st }

(** Read back a value (testing). *)
let get_elem (r : result) name idx =
  let a = get_arr r.r_state name in
  a.data.(offset a idx)

let get_scalar (r : result) name = Hashtbl.find r.r_state.scalars name
