(** Semantic analysis for mini-HPF programs: symbol tables, resolution of
    name(args) into array references vs. intrinsic calls, affine subscript
    extraction, and structural checks of the HPF directives. *)

open Ast

exception Error of string

let errf fmt = Fmt.kstr (fun s -> raise (Error s)) fmt

let intrinsics =
  [ "abs"; "max"; "min"; "sqrt"; "exp"; "log"; "mod"; "sin"; "cos"; "sign"; "float" ]

type extent = Concrete of int | Symbolic of string * iexpr
(** A processor-array extent: known at compile time, or a named symbolic
    parameter whose value is computed at SPMD startup from the expression
    (which may use [number_of_processors()] and integer division). *)

type array_info = {
  aname : string;
  elt : elt_type;
  adims : (iexpr * iexpr) list; (* bounds, affine in program parameters *)
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
  params : (string, int option) Hashtbl.t; (* None: symbolic *)
  arrays : (string, array_info) Hashtbl.t;
  scalars : (string, elt_type) Hashtbl.t;
  procs : (string, proc_info) Hashtbl.t;
  templates : (string, template_info) Hashtbl.t;
  aligns : (string, align_info) Hashtbl.t; (* keyed by array *)
  dists : (string, dist_info) Hashtbl.t; (* keyed by template *)
  subroutines : (string, unit_) Hashtbl.t;
}

let find_array env name = Hashtbl.find_opt env.arrays name
let is_param env name = Hashtbl.mem env.params name
let param_value env name = try Hashtbl.find env.params name with Not_found -> None
let align_of env array = Hashtbl.find_opt env.aligns array
let proc_of env name = try Hashtbl.find env.procs name with Not_found -> errf "unknown processor array %s" name
let template_of env name =
  try Hashtbl.find env.templates name with Not_found -> errf "unknown template %s" name

let the_proc_array env =
  match Hashtbl.fold (fun _ p acc -> p :: acc) env.procs [] with
  | [ p ] -> p
  | [] -> errf "no processors declaration"
  | _ -> errf "multiple processor arrays are not supported (see DESIGN.md)"

(* ------------------------------------------------------------------ *)
(* Affine conversion                                                   *)
(* ------------------------------------------------------------------ *)

exception Nonaffine of iexpr

(** Convert an integer expression to a linear term. [lookup] maps a name to
    its variable (loop variables and parameters); unknown names raise.
    Division and [number_of_processors] are rejected: they may appear only in
    processor extents (handled by {!eval_extent_iexpr} at run time). *)
let rec affine ~lookup e : Iset.Lin.t =
  let module L = Iset.Lin in
  match e with
  | INum k -> L.const k
  | IName s -> L.var (lookup s)
  | IAdd (a, b) -> L.add (affine ~lookup a) (affine ~lookup b)
  | ISub (a, b) -> L.sub (affine ~lookup a) (affine ~lookup b)
  | INeg a -> L.neg (affine ~lookup a)
  | IMul (a, b) -> (
      let ka = try Some (const_only a) with Nonaffine _ -> None in
      let kb = try Some (const_only b) with Nonaffine _ -> None in
      match (ka, kb) with
      | Some k, _ -> L.scale k (affine ~lookup b)
      | _, Some k -> L.scale k (affine ~lookup a)
      | None, None -> raise (Nonaffine e))
  | IDiv _ | ICall _ -> raise (Nonaffine e)

(** Evaluate an iexpr that must be a compile-time constant (array bounds with
    concrete parameters, multiplier positions). *)
and const_only e =
  match e with
  | INum k -> k
  | INeg a -> -const_only a
  | IAdd (a, b) -> const_only a + const_only b
  | ISub (a, b) -> const_only a - const_only b
  | IMul (a, b) -> const_only a * const_only b
  | IDiv (a, b) -> Iset.Lin.fdiv (const_only a) (const_only b)
  | IName _ | ICall _ -> raise (Nonaffine e)

(** Evaluate an integer expression given runtime bindings (used for processor
    extents and parameter binding at simulation time). *)
let rec eval_iexpr ~bind e =
  match e with
  | INum k -> k
  | IName s -> bind s
  | IAdd (a, b) -> eval_iexpr ~bind a + eval_iexpr ~bind b
  | ISub (a, b) -> eval_iexpr ~bind a - eval_iexpr ~bind b
  | IMul (a, b) -> eval_iexpr ~bind a * eval_iexpr ~bind b
  | IDiv (a, b) -> Iset.Lin.fdiv (eval_iexpr ~bind a) (eval_iexpr ~bind b)
  | INeg a -> -eval_iexpr ~bind a
  | ICall ("number_of_processors", []) -> bind "number_of_processors"
  | ICall (f, _) -> errf "unknown intrinsic %s in integer expression" f

(* ------------------------------------------------------------------ *)
(* Environment construction                                            *)
(* ------------------------------------------------------------------ *)

let build_env (p : program) : env =
  let env =
    {
      params = Hashtbl.create 16;
      arrays = Hashtbl.create 16;
      scalars = Hashtbl.create 16;
      procs = Hashtbl.create 4;
      templates = Hashtbl.create 4;
      aligns = Hashtbl.create 16;
      dists = Hashtbl.create 4;
      subroutines = Hashtbl.create 8;
    }
  in
  let add_decl = function
    | DParam { name; value } ->
        if Hashtbl.mem env.params name then errf "duplicate parameter %s" name;
        Hashtbl.replace env.params name value
    | DArray { name; elt; dims } ->
        if Hashtbl.mem env.arrays name then errf "duplicate array %s" name;
        Hashtbl.replace env.arrays name { aname = name; elt; adims = dims }
    | DScalar { name; elt } -> Hashtbl.replace env.scalars name elt
    | DProcessors { name; extents } ->
        let pextents =
          List.mapi
            (fun i e ->
              match e with
              | INum k ->
                  if k <= 0 then errf "processor extent must be positive";
                  Concrete k
              | e -> Symbolic (Printf.sprintf "%s$%d" name (i + 1), e))
            extents
        in
        Hashtbl.replace env.procs name { pname = name; pextents }
    | DTemplate { name; dims } ->
        Hashtbl.replace env.templates name { tname = name; tdims = dims }
    | DAlign { array; dummies; template; targets } ->
        Hashtbl.replace env.aligns array
          { al_array = array; al_dummies = dummies; al_template = template;
            al_targets = targets }
    | DDistribute { template; fmts; onto } ->
        Hashtbl.replace env.dists template
          { di_template = template; di_fmts = fmts; di_onto = onto }
  in
  List.iter
    (fun u ->
      List.iter add_decl u.decls;
      if u.kind = `Subroutine then Hashtbl.replace env.subroutines u.uname u)
    p.units;
  env

(* ------------------------------------------------------------------ *)
(* Expression normalization                                            *)
(* ------------------------------------------------------------------ *)

(* fexpr -> iexpr, for FCall arguments that are really array subscripts *)
let rec iexpr_of_fexpr e =
  match e with
  | FInt ie -> ie
  | FNum x ->
      if Float.is_integer x then INum (int_of_float x)
      else errf "non-integer subscript %g" x
  | FRef (n, []) -> IName n
  | FNeg a -> INeg (iexpr_of_fexpr a)
  | FBin (Add, a, b) -> IAdd (iexpr_of_fexpr a, iexpr_of_fexpr b)
  | FBin (Sub, a, b) -> ISub (iexpr_of_fexpr a, iexpr_of_fexpr b)
  | FBin (Mul, a, b) -> IMul (iexpr_of_fexpr a, iexpr_of_fexpr b)
  | FBin (Div, a, b) -> IDiv (iexpr_of_fexpr a, iexpr_of_fexpr b)
  | FRef (n, _) | FCall (n, _) -> errf "subscript too complex (reference to %s)" n

(** Rewrite FCall nodes into array references where the name is a declared
    array, and check arities. *)
let rec norm_fexpr env e =
  match e with
  | FNum _ -> e
  | FInt _ -> e
  | FNeg a -> FNeg (norm_fexpr env a)
  | FBin (op, a, b) -> FBin (op, norm_fexpr env a, norm_fexpr env b)
  | FRef (n, idx) -> (
      match find_array env n with
      | Some ai ->
          if List.length idx <> List.length ai.adims then
            errf "array %s has rank %d" n (List.length ai.adims);
          FRef (n, idx)
      | None -> FRef (n, idx))
  | FCall (n, args) -> (
      match find_array env n with
      | Some ai ->
          if List.length args <> List.length ai.adims then
            errf "array %s has rank %d, referenced with %d subscripts" n
              (List.length ai.adims) (List.length args);
          FRef (n, List.map iexpr_of_fexpr args)
      | None ->
          if List.mem n intrinsics then FCall (n, List.map (norm_fexpr env) args)
          else errf "unknown function or array %s" n)

let rec norm_cond env c =
  match c with
  | CCmp (a, op, b) -> CCmp (norm_fexpr env a, op, norm_fexpr env b)
  | CAnd (a, b) -> CAnd (norm_cond env a, norm_cond env b)
  | COr (a, b) -> COr (norm_cond env a, norm_cond env b)
  | CNot a -> CNot (norm_cond env a)

let rec norm_stmt env ~loopvars s =
  match s with
  | SAssign { lhs = name, idx; rhs; on_home; line } ->
      let lhs =
        match find_array env name with
        | Some ai ->
            if List.length idx <> List.length ai.adims then
              errf "line %d: array %s has rank %d" line name (List.length ai.adims);
            (name, idx)
        | None ->
            if idx <> [] then errf "line %d: %s is not an array" line name;
            if not (Hashtbl.mem env.scalars name) then
              errf "line %d: undeclared scalar %s" line name;
            (name, [])
      in
      let on_home =
        Option.map
          (List.map (fun (n, idx) ->
               match find_array env n with
               | Some ai when List.length idx = List.length ai.adims -> (n, idx)
               | Some _ -> errf "line %d: on_home rank mismatch for %s" line n
               | None -> errf "line %d: on_home target %s is not an array" line n))
          on_home
      in
      SAssign { lhs; rhs = norm_fexpr env rhs; on_home; line }
  | SDo { var; lo; hi; step; body } ->
      if Hashtbl.mem env.arrays var || Hashtbl.mem env.params var then
        errf "loop variable %s shadows a declaration" var;
      SDo { var; lo; hi; step;
            body = List.map (norm_stmt env ~loopvars:(var :: loopvars)) body }
  | SIf { cond; then_; else_ } ->
      SIf { cond = norm_cond env cond;
            then_ = List.map (norm_stmt env ~loopvars) then_;
            else_ = List.map (norm_stmt env ~loopvars) else_ }
  | SCall (f, line) ->
      if not (Hashtbl.mem env.subroutines f) then
        errf "line %d: unknown subroutine %s" line f;
      SCall (f, line)

(* ------------------------------------------------------------------ *)
(* Directive checks                                                    *)
(* ------------------------------------------------------------------ *)

let check_directives env =
  Hashtbl.iter
    (fun _ (al : align_info) ->
      (match find_array env al.al_array with
      | None -> errf "align: unknown array %s" al.al_array
      | Some ai ->
          if List.length al.al_dummies <> List.length ai.adims then
            errf "align %s: %d dummies for rank-%d array" al.al_array
              (List.length al.al_dummies) (List.length ai.adims));
      let ti = template_of env al.al_template in
      if List.length al.al_targets <> List.length ti.tdims then
        errf "align %s: %d targets for rank-%d template" al.al_array
          (List.length al.al_targets) (List.length ti.tdims))
    env.aligns;
  Hashtbl.iter
    (fun _ (di : dist_info) ->
      let ti = template_of env di.di_template in
      let pi = proc_of env di.di_onto in
      if List.length di.di_fmts <> List.length ti.tdims then
        errf "distribute %s: %d formats for rank-%d template" di.di_template
          (List.length di.di_fmts) (List.length ti.tdims);
      let ndist = List.length (List.filter (fun f -> f <> DStar) di.di_fmts) in
      if ndist <> List.length pi.pextents then
        errf "distribute %s: %d distributed dims onto rank-%d processor array"
          di.di_template ndist (List.length pi.pextents))
    env.dists

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)
(* ------------------------------------------------------------------ *)

type checked = { prog : program; env : env }

(** Analyze a parsed program: returns the checked program with FCall/FRef
    resolution applied, or raises {!Error}. *)
let analyze (p : program) : checked =
  let env = build_env p in
  check_directives env;
  let units =
    List.map
      (fun u -> { u with body = List.map (norm_stmt env ~loopvars:[]) u.body })
      p.units
  in
  (* re-register the normalized subroutine bodies *)
  List.iter
    (fun u -> if u.kind = `Subroutine then Hashtbl.replace env.subroutines u.uname u)
    units;
  { prog = { units }; env }

(** Convenience: parse and analyze source text. *)
let analyze_source src = analyze (Parser.program src)

(** Substitute compile-time-known parameter values into a linear term.
    Keeping known constants symbolic only manufactures spurious case splits
    in the set algebra, so every set-building site applies this. *)
let subst_known_params env (lin : Iset.Lin.t) : Iset.Lin.t =
  Iset.Lin.fold
    (fun v c acc ->
      match v with
      | Iset.Var.Param s -> (
          match Hashtbl.find_opt env.params s with
          | Some (Some k) ->
              Iset.Lin.add_const (c * k) (Iset.Lin.drop v acc)
          | _ -> acc)
      | _ -> acc)
    lin lin
