(** Loop-nest synthesis from integer sets — the analogue of Kelly, Pugh and
    Rosser's multiple-mappings code generation used by the paper.

    Given one iteration set per statement (over a common tuple of loop
    variables) and a [context] of constraints already enforced by the
    enclosing scope, [gen] produces an AST of [do] loops, guards and
    statement leaves that enumerates each set in lexicographic order.

    Single-statement nests take the fast path: every constraint of the (one)
    conjunct becomes a loop bound or stride, so the generated loops carry no
    guards. Multi-statement nests share loops over the implied-constraint
    hull of the union and filter with per-statement guards placed at the
    innermost level — the paper's "guards not lifted" configuration, which
    avoids the code replication MM-CODEGEN otherwise performs (§5). Loop
    strides come from stride-like existentials; non-loop divisibility
    constraints become [k | e] guards. *)

exception Unsupported of string

(* A loop level left without a lower or upper bound, by position: [gen]
   names the variable, so the message carries the caller's name even when
   the nest was generated over placeholder names. *)
exception Unbounded of int

(* ------------------------------------------------------------------ *)
(* Expressions and conditions                                          *)
(* ------------------------------------------------------------------ *)

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
      (** [EAlignUp (e, target, k)]: smallest [x >= e] with [x ≡ target (mod k)];
          the modulus may be symbolic (virtual-processor strides). *)

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

(* Smart constructors with constant folding. *)

let eint k = EInt k

let eadd a b =
  match (a, b) with
  | EInt x, EInt y -> EInt (x + y)
  | EInt 0, e | e, EInt 0 -> e
  | _ -> EAdd (a, b)

let esub a b =
  match (a, b) with
  | EInt x, EInt y -> EInt (x - y)
  | e, EInt 0 -> e
  | _ -> ESub (a, b)

let emul k e =
  match (k, e) with
  | 0, _ -> EInt 0
  | 1, e -> e
  | k, EInt x -> EInt (k * x)
  | _ -> EMul (k, e)

let efloordiv e k =
  assert (k > 0);
  match (e, k) with e, 1 -> e | EInt x, k -> EInt (Lin.fdiv x k) | _ -> EFloorDiv (e, k)

let eceildiv e k =
  assert (k > 0);
  match (e, k) with e, 1 -> e | EInt x, k -> EInt (Lin.cdiv x k) | _ -> ECeilDiv (e, k)

let emax = function
  | [] -> invalid_arg "emax: empty"
  | [ e ] -> e
  | es -> EMax es

let emin = function
  | [] -> invalid_arg "emin: empty"
  | [ e ] -> e
  | es -> EMin es

let cand = function [] -> CTrue | [ c ] -> c | cs -> CAnd cs

(* ------------------------------------------------------------------ *)
(* Lin -> expr                                                         *)
(* ------------------------------------------------------------------ *)

(** Convert a linear term to an expression; [name_of] maps tuple variables to
    loop-variable names. Raises [Unsupported] on existentials. *)
let expr_of_lin ~name_of lin =
  Lin.fold
    (fun v c acc ->
      match v with
      | Var.Ex _ -> raise (Unsupported "existential variable in generated expression")
      | Var.Param s -> eadd acc (emul c (EVar s))
      | Var.In i -> eadd acc (emul c (EVar (name_of i)))
      | Var.Out _ -> raise (Unsupported "output variable in generated expression"))
    lin
    (eint (Lin.constant lin))

(* ------------------------------------------------------------------ *)
(* Evaluation (used by the SPMD interpreter and the tests)             *)
(* ------------------------------------------------------------------ *)

let rec eval_expr env = function
  | EInt k -> k
  | EVar s -> env s
  | EAdd (a, b) -> eval_expr env a + eval_expr env b
  | ESub (a, b) -> eval_expr env a - eval_expr env b
  | EMul (k, e) -> k * eval_expr env e
  | EFloorDiv (e, k) -> Lin.fdiv (eval_expr env e) k
  | ECeilDiv (e, k) -> Lin.cdiv (eval_expr env e) k
  | EMax es -> List.fold_left (fun m e -> max m (eval_expr env e)) min_int es
  | EMin es -> List.fold_left (fun m e -> min m (eval_expr env e)) max_int es
  | EAlignUp (e, target, k) ->
      let x = eval_expr env e in
      x + Lin.pmod (eval_expr env target - x) (eval_expr env k)

let rec eval_cond env = function
  | CTrue -> true
  | CGeq0 e -> eval_expr env e >= 0
  | CEq0 e -> eval_expr env e = 0
  | CDivides (k, e) -> Lin.pmod (eval_expr env e) k = 0
  | CAnd cs -> List.for_all (eval_cond env) cs
  | COr cs -> List.exists (eval_cond env) cs
  | CNot c -> not (eval_cond env c)

(** Execute the AST: call [f tag bindings] for every statement instance, in
    emission order. [env] resolves parameters; loop variables shadow it.
    Loop direction follows the sign of the step: [step > 0] counts up while
    [!i <= hi], [step < 0] counts down while [!i >= hi]; a zero step is
    rejected rather than looping forever. *)
let run ~env ~f asts =
  let tbl : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let lookup s = match Hashtbl.find_opt tbl s with Some v -> v | None -> env s in
  let rec go = function
    | ALeaf tag ->
        f tag (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])
    | AIf (c, body) -> if eval_cond lookup c then List.iter go body
    | AFor { var; lo; hi; step; body } ->
        if step = 0 then invalid_arg "Codegen.run: zero loop step";
        let l = eval_expr lookup lo and h = eval_expr lookup hi in
        let i = ref l in
        while (if step > 0 then !i <= h else !i >= h) do
          Hashtbl.replace tbl var !i;
          List.iter go body;
          i := !i + step
        done;
        Hashtbl.remove tbl var
  in
  List.iter go asts

(** Number of statement instances the AST enumerates at a concrete
    parameter binding, i.e. the point count of the underlying set times
    any deliberate disjunct overlap — the compile-time evaluation of the
    paper's message-size loops. Avoids allocating the per-instance
    binding lists that {!run} builds for its callback. *)
let count_points ~env asts =
  let tbl : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let lookup s = match Hashtbl.find_opt tbl s with Some v -> v | None -> env s in
  let n = ref 0 in
  let rec go = function
    | ALeaf _ -> incr n
    | AIf (c, body) -> if eval_cond lookup c then List.iter go body
    | AFor { var; lo; hi; step; body } ->
        if step = 0 then invalid_arg "Codegen.count_points: zero loop step";
        let l = eval_expr lookup lo and h = eval_expr lookup hi in
        let i = ref l in
        while (if step > 0 then !i <= h else !i >= h) do
          Hashtbl.replace tbl var !i;
          List.iter go body;
          i := !i + step
        done;
        Hashtbl.remove tbl var
  in
  List.iter go asts;
  !n

(* ------------------------------------------------------------------ *)
(* Interval analysis (bounds proofs for emitted kernels)               *)
(* ------------------------------------------------------------------ *)

type interval = { ilo : int option; ihi : int option }

let itv_top = { ilo = None; ihi = None }
let itv_const k = { ilo = Some k; ihi = Some k }
let itv ?lo ?hi () = { ilo = lo; ihi = hi }

let opt_map2 f a b = match (a, b) with Some x, Some y -> Some (f x y) | _ -> None

let itv_add a b = { ilo = opt_map2 ( + ) a.ilo b.ilo; ihi = opt_map2 ( + ) a.ihi b.ihi }
let itv_sub a b = { ilo = opt_map2 ( - ) a.ilo b.ihi; ihi = opt_map2 ( - ) a.ihi b.ilo }

let itv_scale k a =
  if k = 0 then itv_const 0
  else if k > 0 then
    { ilo = Option.map (fun x -> k * x) a.ilo; ihi = Option.map (fun x -> k * x) a.ihi }
  else
    { ilo = Option.map (fun x -> k * x) a.ihi; ihi = Option.map (fun x -> k * x) a.ilo }

(* Monotone image for f with f(lo) <= f(hi) whenever lo <= hi. *)
let itv_mono f a = { ilo = Option.map f a.ilo; ihi = Option.map f a.ihi }

(* max of two intervals: the lower bound improves as soon as either side
   has one; the upper bound needs both. *)
let itv_max a b =
  let lo =
    match (a.ilo, b.ilo) with
    | Some x, Some y -> Some (max x y)
    | (Some _ as s), None | None, (Some _ as s) -> s
    | None, None -> None
  in
  { ilo = lo; ihi = opt_map2 max a.ihi b.ihi }

let itv_min a b =
  let hi =
    match (a.ihi, b.ihi) with
    | Some x, Some y -> Some (min x y)
    | (Some _ as s), None | None, (Some _ as s) -> s
    | None, None -> None
  in
  { ilo = opt_map2 min a.ilo b.ilo; ihi = hi }

(** Conservative integer interval of an expression under [env] (which must
    return {!itv_top} for unknown names). Used by the native engine to prove
    array subscripts in-range at lowering time so the emitted kernel can use
    unchecked accesses. *)
let rec interval_of_expr env = function
  | EInt k -> itv_const k
  | EVar s -> env s
  | EAdd (a, b) -> itv_add (interval_of_expr env a) (interval_of_expr env b)
  | ESub (a, b) -> itv_sub (interval_of_expr env a) (interval_of_expr env b)
  | EMul (k, e) -> itv_scale k (interval_of_expr env e)
  | EFloorDiv (e, k) -> itv_mono (fun x -> Lin.fdiv x k) (interval_of_expr env e)
  | ECeilDiv (e, k) -> itv_mono (fun x -> Lin.cdiv x k) (interval_of_expr env e)
  | EMax [] | EMin [] -> itv_top
  | EMax (e :: es) ->
      List.fold_left
        (fun acc e -> itv_max acc (interval_of_expr env e))
        (interval_of_expr env e) es
  | EMin (e :: es) ->
      List.fold_left
        (fun acc e -> itv_min acc (interval_of_expr env e))
        (interval_of_expr env e) es
  | EAlignUp (e, _target, k) -> (
      (* result = e + pmod (target - e) k, with pmod in [0, k-1] for k >= 1 *)
      let ie = interval_of_expr env e and ik = interval_of_expr env k in
      match ik.ilo with
      | Some klo when klo >= 1 -> (
          match ik.ihi with
          | Some khi -> { ilo = ie.ilo; ihi = Option.map (fun h -> h + khi - 1) ie.ihi }
          | None -> { ilo = ie.ilo; ihi = None })
      | _ -> itv_top)

let itv_within iv ~lo ~hi =
  match (iv.ilo, iv.ihi) with
  | Some l, Some h -> l >= lo && h <= hi
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Constraint classification                                           *)
(* ------------------------------------------------------------------ *)

(* Deepest input-variable index in a term; -1 if none. *)
let deepest lin =
  Lin.fold (fun v _ acc -> match v with Var.In i -> max acc i | _ -> acc) lin (-1)

type stride = { level : int; modulus : int; rest : Lin.t; vcoef : int }
(* A stride-like equality  vcoef·v_level + modulus·α + rest = 0  (α existential,
   |vcoef| = 1) — representable as a loop step; or, when vcoef = 0 or
   |vcoef| > 1, a divisibility guard on [rest']. *)

type window = { w_lows : (int * Lin.t) list; w_highs : (int * Lin.t) list }
(* ∃α: a_i·α >= l_i for all i, b_j·α <= u_j for all j (all a_i, b_j > 0):
   an integer α exists iff max_i ceil(l_i/a_i) <= min_j floor(u_j/b_j),
   which is directly expressible as a guard. Produced by set differences
   and inexact projections (e.g. pipelined participation sets). *)

(* Classify a conjunct: returns (plain ex-free constraints, strides,
   windows). Raises [Unsupported] on other existential shapes. *)
let classify conj =
  let cs = Conj.constraints conj in
  let exvars = Var.Set.filter Var.is_ex (Conj.vars conj) in
  let strides = ref [] in
  let windows = ref [] in
  let consumed = ref [] in
  let only_ex a lin =
    Var.Set.for_all
      (fun v -> (not (Var.is_ex v)) || Var.equal v a)
      (Lin.vars lin)
  in
  Var.Set.iter
    (fun a ->
      match List.filter (Constr.mem a) cs with
      | [ c ] when Constr.kind c = Constr.Eq ->
          let lin = Constr.lin c in
          if not (only_ex a lin) then
            raise (Unsupported "coupled existentials in code generation");
          let m = abs (Lin.coeff lin a) in
          let rest = Lin.drop a lin in
          (* m·α ± ... : rest ≡ 0 (mod m). Find the deepest variable in rest;
             if it has unit coefficient the stride can drive that loop. *)
          let d = deepest rest in
          let vc = if d >= 0 then Lin.coeff rest (Var.In d) else 0 in
          strides := { level = d; modulus = m; rest; vcoef = vc } :: !strides;
          consumed := c :: !consumed
      | occs when List.for_all (fun c -> Constr.kind c = Constr.Geq) occs ->
          (* α bounded by inequalities only: collect lower/upper bounds *)
          let lows = ref [] and highs = ref [] in
          List.iter
            (fun c ->
              if not (only_ex a (Constr.lin c)) then
                raise (Unsupported "coupled existentials in code generation");
              let k = Constr.coeff c a in
              let rest = Lin.drop a (Constr.lin c) in
              if k > 0 then
                (* k·α + rest >= 0 -> k·α >= -rest *)
                lows := (k, Lin.neg rest) :: !lows
              else highs := (-k, rest) :: !highs;
              consumed := c :: !consumed)
            occs;
          if !lows <> [] && !highs <> [] then
            windows := { w_lows = !lows; w_highs = !highs } :: !windows
          (* one-sided: vacuous, constraints dropped *)
      | _ -> raise (Unsupported "non-stride existential in code generation"))
    exvars;
  let plain =
    List.filter
      (fun c ->
        (not (List.memq c !consumed))
        && not (Lin.exists_var Var.is_ex (Constr.lin c)))
      cs
  in
  (plain, List.rev !strides, List.rev !windows)

(* Lower/upper bound expressions for variable [v_d] from a Geq constraint. *)
type bound = Lower of expr | Upper of expr | NotBound

let bound_of ~name_of d c =
  match Constr.kind c with
  | Constr.Eq -> NotBound
  | Constr.Geq ->
      let lin = Constr.lin c in
      let a = Lin.coeff lin (Var.In d) in
      if a = 0 then NotBound
      else
        let rest = Lin.drop (Var.In d) lin in
        if a > 0 then
          (* a·v + rest >= 0  =>  v >= ceil(−rest / a) *)
          Lower (eceildiv (expr_of_lin ~name_of (Lin.neg rest)) a)
        else Upper (efloordiv (expr_of_lin ~name_of rest) (-a))

let cond_of_constr ~name_of c =
  let e = expr_of_lin ~name_of (Constr.lin c) in
  match Constr.kind c with Constr.Eq -> CEq0 e | Constr.Geq -> CGeq0 e

let cond_of_stride ~name_of (s : stride) =
  CDivides (s.modulus, expr_of_lin ~name_of s.rest)

let cond_of_window ~name_of (w : window) =
  CGeq0
    (esub
       (emin (List.map (fun (b, u) -> efloordiv (expr_of_lin ~name_of u) b) w.w_highs))
       (emax (List.map (fun (a, l) -> eceildiv (expr_of_lin ~name_of l) a) w.w_lows)))

(* ------------------------------------------------------------------ *)
(* Generation                                                          *)
(* ------------------------------------------------------------------ *)

type 'a stmt = { tag : 'a; dom : Rel.t }

type classified = {
  plain : Constr.t list;
  strides : stride list;
  windows : window list;
}

type 'a item = {
  tag_ : 'a;
  cls : classified;
  excl : classified list;
      (* earlier overlapping pieces of the same statement: a point fires
         this piece only if it matches no earlier piece (runtime
         first-match replaces set-level disjointification) *)
}

(* Split constraints of an item by deepest level. *)
let at_level d cs = List.partition (fun c -> deepest (Constr.lin c) = d) cs

let strides_at_level d ss = List.partition (fun s -> s.level = d) ss

(* Membership condition of a classified conjunct, for runtime exclusion. *)
let cond_of_classified ~name_of (c : classified) =
  cand
    (List.map (cond_of_constr ~name_of) c.plain
    @ List.map (cond_of_stride ~name_of) c.strides
    @ List.map (cond_of_window ~name_of) c.windows)

let excl_conds ~name_of excl =
  List.map (fun prior -> CNot (cond_of_classified ~name_of prior)) excl

(* Fast path: a single conjunct enumerated exactly, constraints become
   bounds and strides become steps; no guards except divisibility windows
   and first-match exclusions at the leaf. [tags] are the statements to
   emit, in order, at each enumerated point. *)
let rec gen_single ~names ~context_conj ~k ~tags level (it : unit item) : 'a ast list =
  let name_of i = names.(i) in
  if level = k then begin
    (* remaining constraints involve no loop vars deeper than k: they were
       either consumed or are invariant; emit them as a guard. *)
    let conds =
      List.map (cond_of_constr ~name_of) it.cls.plain
      @ List.map (cond_of_stride ~name_of) it.cls.strides
      @ List.map (cond_of_window ~name_of) it.cls.windows
      @ excl_conds ~name_of it.excl
    in
    let leaves = List.map (fun t -> ALeaf t) tags in
    match conds with [] -> leaves | cs -> [ AIf (cand cs, leaves) ]
  end
  else begin
    let here, rest = at_level level it.cls.plain in
    let strides_here, strides_rest = strides_at_level level it.cls.strides in
    let lbs, ubs, guards =
      List.fold_left
        (fun (lbs, ubs, gs) c ->
          match Constr.kind c with
          | Constr.Eq ->
              let lin = Constr.lin c in
              let a = Lin.coeff lin (Var.In level) in
              let rest = Lin.drop (Var.In level) lin in
              (* a·v + rest = 0  =>  v = −rest/a *)
              let num =
                expr_of_lin ~name_of (if a > 0 then Lin.neg rest else rest)
              in
              let a = abs a in
              (eceildiv num a :: lbs, efloordiv num a :: ubs, gs)
          | Constr.Geq -> (
              match bound_of ~name_of level c with
              | Lower e -> (e :: lbs, ubs, gs)
              | Upper e -> (lbs, e :: ubs, gs)
              | NotBound -> (lbs, ubs, c :: gs)))
        ([], [], []) here
    in
    assert (guards = []);
    (* fall back on context bounds when the set leaves a side open *)
    let ctx_bounds side =
      List.filter_map
        (fun c ->
          if deepest (Constr.lin c) <> level then None
          else
            match bound_of ~name_of level c with
            | Lower e when side = `Lo -> Some e
            | Upper e when side = `Hi -> Some e
            | _ -> None)
        (Conj.constraints context_conj)
    in
    let lbs = if lbs = [] then ctx_bounds `Lo else lbs in
    let ubs = if ubs = [] then ctx_bounds `Hi else ubs in
    if lbs = [] || ubs = [] then raise (Unbounded level);
    (* steps from stride-like existentials on this level *)
    let step, lo, extra_guards =
      match strides_here with
      | [ st ] when abs st.vcoef = 1 && deepest (Lin.drop (Var.In st.level) st.rest) < level ->
          (* vcoef·v + rest' ≡ 0 (mod m): v ≡ −vcoef·rest' (mod m) *)
          let rest' = Lin.drop (Var.In level) st.rest in
          let target = expr_of_lin ~name_of (Lin.scale (-st.vcoef) rest') in
          (st.modulus, EAlignUp (emax lbs, target, EInt st.modulus), [])
      | ss -> (1, emax lbs, List.map (cond_of_stride ~name_of) ss)
    in
    let body =
      gen_single ~names ~context_conj ~k ~tags (level + 1)
        { it with cls = { it.cls with plain = rest; strides = strides_rest } }
    in
    let body = match extra_guards with [] -> body | gs -> [ AIf (cand gs, body) ] in
    [ AFor { var = names.(level); lo; hi = emin ubs; step; body } ]
  end

(* One conjunct as its own exact nest, invariant constraints lifted to a
   top-level guard. *)
let gen_piece ~names ~context_conj ~k ~tags (it : unit item) : 'a ast list =
  let inv, rest = List.partition (fun c -> deepest (Constr.lin c) < 0) it.cls.plain in
  let inv_s, rest_s = List.partition (fun st -> deepest st.rest < 0) it.cls.strides in
  let nest =
    gen_single ~names ~context_conj ~k ~tags 0
      { it with cls = { it.cls with plain = rest; strides = rest_s } }
  in
  let name_of i = names.(i) in
  let conds =
    List.map (cond_of_constr ~name_of) inv @ List.map (cond_of_stride ~name_of) inv_s
  in
  if conds = [] then nest else [ AIf (cand conds, nest) ]

(* General path: shared hull loops, per-item guards at the leaves.

   Hull bounds are computed lazily: constraints shared syntactically by
   every conjunct are free; the Omega-backed entailment test runs only for
   a loop level whose lower or upper bound is otherwise missing. Residual
   leaf guards keep the enumeration exact either way. *)
let gen_multi ~names ~context_conj ~k (items : 'a item list) : 'a ast list =
  let name_of i = names.(i) in
  let conjs = List.map (fun it -> Conj.make ~n_ex:0 it.cls.plain) items in
  let syn_implied =
    Hull.implied_constraints ~syntactic_only:true ~context:context_conj conjs
  in
  let exact_implied =
    lazy (Hull.implied_constraints ~context:context_conj conjs)
  in
  (* Expand equalities into inequality pairs so they can serve as bounds. *)
  let expand c =
    match Constr.kind c with
    | Constr.Geq -> [ c ]
    | Constr.Eq -> [ Constr.geq (Constr.lin c); Constr.geq (Lin.neg (Constr.lin c)) ]
  in
  let syn_ineqs = List.concat_map expand syn_implied in
  (* invariant (loop-variable-free) constraints shared by every item cannot
     become loop bounds and are filtered out of the leaf residuals, so they
     must guard the whole nest *)
  let inv_conds =
    List.filter_map
      (fun c ->
        if deepest (Constr.lin c) < 0 then Some (cond_of_constr ~name_of c) else None)
      syn_implied
  in
  let rec build level =
    if level = k then
      List.concat_map
        (fun it ->
          let residual =
            List.filter
              (fun c -> not (List.exists (Constr.equal c) syn_implied))
              it.cls.plain
          in
          let conds =
            List.map (cond_of_constr ~name_of) residual
            @ List.map (cond_of_stride ~name_of) it.cls.strides
            @ List.map (cond_of_window ~name_of) it.cls.windows
            @ excl_conds ~name_of it.excl
          in
          match conds with
          | [] -> [ ALeaf it.tag_ ]
          | cs -> [ AIf (cand cs, [ ALeaf it.tag_ ]) ])
        items
    else begin
      let collect cs side =
        List.filter_map
          (fun c ->
            if deepest (Constr.lin c) <> level then None
            else
              match bound_of ~name_of level c with
              | Lower e when side = `Lo -> Some e
              | Upper e when side = `Hi -> Some e
              | _ -> None)
          cs
      in
      let pick side =
        match collect syn_ineqs side with
        | [] -> (
            match collect (Conj.constraints context_conj) side with
            | [] -> collect (List.concat_map expand (Lazy.force exact_implied)) side
            | bs -> bs)
        | bs -> bs
      in
      let lbs = pick `Lo and ubs = pick `Hi in
      if lbs = [] || ubs = [] then raise (Unbounded level);
      [ AFor { var = names.(level); lo = emax lbs; hi = emin ubs; step = 1; body = build (level + 1) } ]
    end
  in
  match inv_conds with [] -> build 0 | cs -> [ AIf (cand cs, build 0) ]

(* The generator proper; [context_conj] is the context [gen] reduced to
   one conjunct. *)
let generate ~context_conj ~disjoint ~order ~names (stmts : 'a stmt list) :
    'a ast list =
  let k = Array.length names in
  let classify_dom dom =
    let dom = Rel.coalesce dom in
    List.map
      (fun conj ->
        let plain, strides, windows = classify conj in
        { plain; strides; windows })
      (Rel.conjuncts dom)
  in
  (* piecewise generation: each disjunct becomes its own exact nest (bounds
     instead of hull-plus-guards); earlier pieces are excluded at run time.
     Legal only when the caller does not need lexicographic interleaving
     across pieces. Requires all statements to share one domain. *)
  let shared_dom =
    match stmts with
    | [] -> None
    | [ s ] -> Some s.dom
    | s0 :: rest -> if List.for_all (fun s -> s.dom == s0.dom) rest then Some s0.dom else None
  in
  match (order, shared_dom) with
  | `Any, Some dom ->
      let tags = List.map (fun s -> s.tag) stmts in
      let classifieds = classify_dom dom in
      List.concat
        (List.mapi
           (fun i cls ->
             let excl =
               if disjoint && i > 0 then List.filteri (fun j _ -> j < i) classifieds
               else []
             in
             gen_piece ~names ~context_conj ~k ~tags { tag_ = (); cls; excl })
           classifieds)
  | _ ->
      let items =
        List.concat_map
          (fun { tag; dom } ->
            if Rel.in_arity dom <> k || not (Rel.is_set dom) then
              invalid_arg "Codegen.gen: statement domain arity mismatch";
            let classifieds = classify_dom dom in
            List.mapi
              (fun i cls ->
                let excl =
                  if disjoint && i > 0 then List.filteri (fun j _ -> j < i) classifieds
                  else []
                in
                { tag_ = tag; cls; excl })
              classifieds)
          stmts
      in
      (match items with
      | [] -> []
      | [ it ] ->
          gen_piece ~names ~context_conj ~k ~tags:[ it.tag_ ]
            { tag_ = (); cls = it.cls; excl = it.excl }
      | items -> gen_multi ~names ~context_conj ~k items)

(* Loop-nest memo. [generate] reads exactly: [order], [disjoint], the tuple
   arity, the context conjunct and, per statement, its domain's arities
   and conjuncts plus whether it shares the first statement's domain
   physically (the piecewise test above). The key spells that out as a
   flat int array of flags, arities and interned conjunct ids; for the
   sharing test each statement records the first earlier statement whose
   domain is physically its own (-1 if none). Names and tags stay out of
   the key: the table holds the nest generated over placeholder names,
   with each leaf tagged by its statement's position, and every call
   renames and re-tags a copy (the renaming is kept for the next call
   under the same names). A placeholder starts with a NUL byte, so it
   cannot collide with a parameter name. [Unbounded] and [Unsupported] are
   never cached ([find_or_add] inserts only after [generate] returns).

   A 256th of the shared capacity (16 entries a stripe, 256 in all, at
   the default): an entry holds a whole nest and a Table-1 compile adds at
   most 56, while a daemon serving programs that never repeat keeps only
   dead entries. At capacity/64 such a daemon's peak RSS grew by about
   6%. *)

type entry = {
  nest : int ast list;  (* over placeholder names *)
  mutable named : string array * int ast list;
      (* the last caller's names and the nest renamed to them: repeats
         mostly come back under the same names, and renaming is most of
         the cost of a hit. Shared by every domain: a write stores one
         immutable pair (its names a private copy), which a reader takes
         in one read and uses only if the names are its own. *)
}

let key ~order ~disjoint ~k ~context_id doms =
  let len =
    Array.fold_left (fun n d -> n + 4 + List.length (Rel.conjuncts d)) 5 doms
  in
  let key = Array.make len 0 in
  let pos = ref 0 in
  let put x =
    key.(!pos) <- x;
    incr pos
  in
  put (match order with `Lex -> 0 | `Any -> 1);
  put (Bool.to_int disjoint);
  put k;
  put context_id;
  put (Array.length doms);
  Array.iteri
    (fun i d ->
      let rec first_sharer j =
        if j = i then -1 else if doms.(j) == d then j else first_sharer (j + 1)
      in
      put (Rel.in_arity d);
      put (Rel.out_arity d);
      put (first_sharer 0);
      put (List.length (Rel.conjuncts d));
      List.iter (fun c -> put (Conj.id c)) (Rel.conjuncts d))
    doms;
  key

let placeholder i = "\000" ^ string_of_int i

(* the operand is what [generate] reads besides the names: the nest is
   generated over placeholders, one statement per domain, tagged by its
   position *)
let memo =
  Cache.Ids.create ~share:256 Stats.codegen
    (fun (context_conj, disjoint, order, k, doms) ->
      let nest =
        generate ~context_conj ~disjoint ~order
          ~names:(Array.init k placeholder)
          (List.mapi (fun i dom -> { tag = i; dom }) (Array.to_list doms))
      in
      (* under no names there is nothing to rename *)
      { nest; named = ([||], nest) })

(* the position a placeholder stands for, or -1 for any other name *)
let placeholder_index s =
  let n = String.length s in
  if n < 2 || s.[0] <> '\000' then -1
  else begin
    let i = ref 0 in
    for j = 1 to n - 1 do
      i := (!i * 10) + Char.code s.[j] - Char.code '0'
    done;
    !i
  end

(* The nest over the caller's names: every placeholder variable renamed.
   A subterm that names no loop variable is shared, not copied. *)
let rename names nest =
  let rec expr e =
    match e with
    | EInt _ -> e
    | EVar s -> (
        match placeholder_index s with -1 -> e | i -> EVar names.(i))
    | EAdd (a, b) -> two e a b (fun a b -> EAdd (a, b))
    | ESub (a, b) -> two e a b (fun a b -> ESub (a, b))
    | EMul (c, x) -> one e x (fun x -> EMul (c, x))
    | EFloorDiv (x, c) -> one e x (fun x -> EFloorDiv (x, c))
    | ECeilDiv (x, c) -> one e x (fun x -> ECeilDiv (x, c))
    | EMax es -> many e es (fun es -> EMax es)
    | EMin es -> many e es (fun es -> EMin es)
    | EAlignUp (x, t, m) ->
        let x' = expr x and t' = expr t and m' = expr m in
        if x' == x && t' == t && m' == m then e else EAlignUp (x', t', m')
  and one e x k =
    let x' = expr x in
    if x' == x then e else k x'
  and two e a b k =
    let a' = expr a and b' = expr b in
    if a' == a && b' == b then e else k a' b'
  and many e es k =
    let es' = List.map expr es in
    if List.for_all2 ( == ) es es' then e else k es'
  in
  let rec cond c =
    match c with
    | CTrue -> c
    | CGeq0 x -> atom c x (fun x -> CGeq0 x)
    | CEq0 x -> atom c x (fun x -> CEq0 x)
    | CDivides (m, x) -> atom c x (fun x -> CDivides (m, x))
    | CAnd cs -> CAnd (List.map cond cs)
    | COr cs -> COr (List.map cond cs)
    | CNot c -> CNot (cond c)
  and atom c x k =
    let x' = expr x in
    if x' == x then c else k x'
  in
  let name s = match placeholder_index s with -1 -> s | i -> names.(i) in
  let rec ast = function
    | AFor f ->
        AFor
          {
            f with
            var = name f.var;
            lo = expr f.lo;
            hi = expr f.hi;
            body = List.map ast f.body;
          }
    | AIf (c, body) -> AIf (cond c, List.map ast body)
    | ALeaf _ as l -> l
  in
  List.map ast nest

(* The nest with each position replaced by its statement's tag; bounds
   and guards are shared, only the loop, guard and leaf nodes are new. *)
let retag tags nest =
  let rec ast = function
    | AFor f -> AFor { f with body = List.map ast f.body }
    | AIf (c, body) -> AIf (c, List.map ast body)
    | ALeaf i -> ALeaf tags.(i)
  in
  List.map ast nest

(** Generate loop nests that enumerate every statement's iteration set in
    lexicographic order (statements in list order within an iteration).
    All [dom]s must be sets of the same arity over the variables named by
    [names]; [context] holds constraints already enforced by the enclosing
    scope (the paper's [Known] argument).

    Overlapping disjuncts of one statement are resolved by first-match
    exclusion guards evaluated at run time (pass [~disjoint:false] to allow
    re-enumeration instead, for idempotent statements such as packing).
    Repeats are answered from the loop-nest memo above. *)
let gen ?context ?(disjoint = true) ?(order = `Lex) ~names (stmts : 'a stmt list) :
    'a ast list =
  let context =
    match Option.map Rel.conjuncts context with
    | Some [ c ] -> Some c
    | _ -> None
  in
  let context_conj = Option.value context ~default:Conj.true_ in
  try
    if not (Cache.enabled ()) then
      generate ~context_conj ~disjoint ~order ~names stmts
    else
      let k = Array.length names in
      let context_id = Option.fold ~none:(-1) ~some:Conj.id context in
      let doms = Array.of_list (List.map (fun s -> s.dom) stmts) in
      let e =
        Cache.Ids.find_or_add memo
          (key ~order ~disjoint ~k ~context_id doms)
          (context_conj, disjoint, order, k, doms)
      in
      let named =
        match e.named with
        | last, named when last = names -> named
        | _ ->
            let named = rename names e.nest in
            e.named <- (Array.copy names, named);
            named
      in
      retag (Array.of_list (List.map (fun s -> s.tag) stmts)) named
  with Unbounded level ->
    raise
      (Unsupported (Printf.sprintf "unbounded loop variable %s" names.(level)))

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)
(* ------------------------------------------------------------------ *)

module B = Linebuf

let rec add_expr b = function
  | EInt k -> B.add_int b k
  | EVar s -> B.add_string b s
  | EAdd (x, y) -> add_expr b x; B.add_string b " + "; add_expr b y
  | ESub (x, y) -> add_expr b x; B.add_string b " - "; add_paren b y
  | EMul (k, e) -> B.add_int b k; B.add_char b '*'; add_paren b e
  | EFloorDiv (e, k) -> call2 b "floor(" e k
  | ECeilDiv (e, k) -> call2 b "ceil(" e k
  | EMax es -> B.add_string b "max("; B.list add_expr b es; B.add_char b ')'
  | EMin es -> B.add_string b "min("; B.list add_expr b es; B.add_char b ')'
  | EAlignUp (e, t, k) ->
      B.add_string b "alignup(";
      add_expr b e;
      B.add_string b ", ";
      add_expr b t;
      B.add_string b ", ";
      add_expr b k;
      B.add_char b ')'

and add_paren b e =
  match e with
  | EAdd _ | ESub _ -> B.add_char b '('; add_expr b e; B.add_char b ')'
  | _ -> add_expr b e

(* [f(e, k)]: the ", " here is text, not a break hint *)
and call2 b f e k =
  B.add_string b f;
  add_expr b e;
  B.add_string b ", ";
  B.add_int b k;
  B.add_char b ')'

let rec add_cond b = function
  | CTrue -> B.add_string b ".true."
  | CGeq0 e -> add_expr b e; B.add_string b " >= 0"
  | CEq0 e -> add_expr b e; B.add_string b " == 0"
  | CDivides (k, e) -> call2 b "mod(" e k; B.add_string b " == 0"
  | CAnd cs -> add_conds b " .and. " cs
  | COr cs -> add_conds b " .or. " cs
  | CNot c -> B.add_string b ".not. "; add_cond_paren b c

and add_conds b sep cs =
  List.iteri
    (fun i c ->
      if i > 0 then B.add_string b sep;
      add_cond_paren b c)
    cs

and add_cond_paren b c =
  match c with
  | CAnd _ | COr _ | CNot _ -> B.add_char b '('; add_cond b c; B.add_char b ')'
  | _ -> add_cond b c

let rec add_ast b indent = function
  | AFor { var; lo; hi; step; body } ->
      B.add_spaces b indent;
      B.add_string b "do ";
      B.add_string b var;
      B.add_string b " = ";
      add_expr b lo;
      B.add_string b ", ";
      add_expr b hi;
      if step <> 1 then begin
        B.add_string b ", ";
        B.add_int b step
      end;
      B.newline b;
      List.iter (add_ast b (indent + 2)) body;
      B.add_spaces b indent;
      B.add_string b "enddo";
      B.newline b
  | AIf (c, body) ->
      B.add_spaces b indent;
      B.add_string b "if (";
      add_cond b c;
      B.add_string b ") then";
      B.newline b;
      List.iter (add_ast b (indent + 2)) body;
      B.add_spaces b indent;
      B.add_string b "endif";
      B.newline b
  | ALeaf tag ->
      B.add_spaces b indent;
      B.add_string b tag;
      B.newline b

let ast_to_string asts =
  let b = B.create 1024 in
  List.iter (add_ast b 0) asts;
  B.contents b

(* ------------------------------------------------------------------ *)
(* Sound over-approximation                                            *)
(* ------------------------------------------------------------------ *)

(* Is the existential [a] in a shape classify can handle? *)
let ex_shape_ok cs a =
  let occs = List.filter (Constr.mem a) cs in
  let only_ex lin =
    Var.Set.for_all (fun v -> (not (Var.is_ex v)) || Var.equal v a) (Lin.vars lin)
  in
  match occs with
  | [ c ] when Constr.kind c = Constr.Eq -> only_ex (Constr.lin c)
  | occs ->
      List.for_all
        (fun c -> Constr.kind c = Constr.Geq && only_ex (Constr.lin c))
        occs

(** Sound over-approximation of a set: drop every constraint involving an
    existential that does not fit the stride/window classification (removing
    constraints only enlarges the set). Intermediate iteration-demand sets
    may be enlarged freely — deeper loop levels and leaf guards re-restrict
    — so this keeps code generation total on projections that exact
    simplification cannot decouple. *)
let approx (r : Rel.t) : Rel.t =
  let fix_conj conj =
    let rec go conj =
      let cs = Conj.constraints conj in
      let bad =
        Var.Set.filter
          (fun v -> Var.is_ex v && not (ex_shape_ok cs v))
          (Conj.vars conj)
      in
      if Var.Set.is_empty bad then conj
      else
        let cs' =
          List.filter
            (fun c ->
              not (Var.Set.exists (fun v -> Constr.mem v c) bad))
            cs
        in
        go (Conj.make ~n_ex:(Conj.n_ex conj) cs')
    in
    Conj.compact_ex (go conj)
  in
  Rel.make ~in_names:(Rel.in_names r) ~out_names:(Rel.out_names r)
    ~in_ar:(Rel.in_arity r) ~out_ar:(Rel.out_arity r)
    (List.map fix_conj (Rel.conjuncts r))
