(** Relations between integer tuples: unions of {!Conj.t} with declared
    input/output arities. A set is a relation with [out_ar = 0] whose tuple
    variables are the inputs.

    Operation names follow the paper (Appendix A): [compose r1 r2] is the
    paper's [R1 o R2] — it maps [i -> j] iff there is an [a] with
    [r1 : i -> a] and [r2 : a -> j] (diagrammatic order). *)

type t = {
  in_ar : int;
  out_ar : int;
  conjs : Conj.t list; (* disjunction; [] is the empty relation *)
  in_names : string array;
  out_names : string array;
}

let default_names prefix n = Array.init n (fun i -> Printf.sprintf "%s%d" prefix (i + 1))

let make ?in_names ?out_names ~in_ar ~out_ar conjs =
  let in_names =
    match in_names with Some a -> a | None -> default_names "i" in_ar
  in
  let out_names =
    match out_names with Some a -> a | None -> default_names "j" out_ar
  in
  assert (Array.length in_names = in_ar && Array.length out_names = out_ar);
  { in_ar; out_ar; conjs; in_names; out_names }

let empty ?in_names ?out_names ~in_ar ~out_ar () =
  make ?in_names ?out_names ~in_ar ~out_ar []

let set ?names ~ar conjs = make ?in_names:names ~in_ar:ar ~out_ar:0 conjs

let in_arity t = t.in_ar
let out_arity t = t.out_ar
let conjuncts t = t.conjs
let in_names t = t.in_names
let out_names t = t.out_names
let with_names ?in_names ?out_names t =
  {
    t with
    in_names = (match in_names with Some a -> a | None -> t.in_names);
    out_names = (match out_names with Some a -> a | None -> t.out_names);
  }

let is_set t = t.out_ar = 0

let same_sig a b = a.in_ar = b.in_ar && a.out_ar = b.out_ar

let check_sig op a b =
  if not (same_sig a b) then
    invalid_arg
      (Printf.sprintf "Rel.%s: signature mismatch (%d->%d vs %d->%d)" op a.in_ar
         a.out_ar b.in_ar b.out_ar)

(* ------------------------------------------------------------------ *)
(* Relation-level memo                                                 *)
(* ------------------------------------------------------------------ *)

(* The relation operations the compiler chains (inter, diff, coalesce,
   compose, domain, range, inverse, restrict_domain, restrict_range,
   flatten, apply_point) are pure functions of their operands' conjuncts,
   so they are memoized like the conjunct-level operations. A key is a
   flat int array: an op code, then for each operand its arities, its
   conjunct count and the interned id of every conjunct, then (for
   [apply_point]) the interned id of every term. The pairwise meets of
   [inter], [diff] and the restrictions have entries of their own,
   keyed by [op_meet] and the two conjunct ids. Names are cosmetic and
   stay out of the key: the table holds result conjuncts, and each
   operation builds the result's names exactly as the uncached path
   does. The result conjuncts are interned representatives,
   so a chain of operations passes trusted ids along and the next key,
   [simplify] or [sat] on a result is a table lookup. Ids are never
   reused (see {!Cache}), so a key can never match an entry of a retired
   id. Exceptions are not cached: [find_or_add] inserts only after the
   computation returns. *)

let op_diff = 0
let op_coalesce = 1
let op_compose = 2
let op_domain = 3
let op_range = 4
let op_apply_point = 5
let op_inter = 6
let op_inverse = 7
let op_restrict_domain = 8
let op_restrict_range = 9
let op_flatten = 10
let op_meet = 11

let key ?(lins = []) op rels =
  let len =
    List.fold_left
      (fun n r -> n + 3 + List.length r.conjs)
      (1 + List.length lins) rels
  in
  let k = Array.make len op in
  let pos = ref 1 in
  let put x =
    k.(!pos) <- x;
    incr pos
  in
  List.iter
    (fun r ->
      put r.in_ar;
      put r.out_ar;
      put (List.length r.conjs);
      List.iter (fun c -> put (Conj.id c)) r.conjs)
    rels;
  List.iter (fun l -> put (Lin.id l)) lins;
  k

(* A sixteenth of the shared capacity: an entry keeps its result
   conjuncts alive after the intern and simplify tables have dropped
   them, which makes it several times heavier than a conjunct-level
   entry, and one entry stands for many conjunct-level lookups. A
   Table-1 compile needs a few hundred entries; a daemon serving
   unrelated programs would otherwise hold tens of thousands, mostly
   dead. *)
let rel_memo = Cache.Ids.create ~share:16 Stats.rel (fun f -> f ())

(* [memo op rels f]: the result conjuncts [f ()] computes, answered from
   the table when [op] met the same operands before, as interned
   representatives (a result of [Conj.simplify] is one already). With
   caching off no key is built and nothing is interned (building a key
   interns the operands). *)
let memo ?lins op rels f =
  if Cache.enabled () then
    Cache.Ids.find_or_add rel_memo (key ?lins op rels) (fun () ->
        List.map Conj.intern (f ()))
  else f ()

(* ------------------------------------------------------------------ *)
(* Simplification                                                      *)
(* ------------------------------------------------------------------ *)

(** Light simplification: per-conjunct normalization only. *)
let simplify t = { t with conjs = List.filter_map Conj.simplify t.conjs }

(* duplicates by [Conj.equal], which tries physical equality first:
   simplification ends in [compact_ex], so [n_ex] follows from the
   constraints and the comparison is the constraint-list one *)
let coalesce_conjs conjs =
  let conjs = List.filter_map Conj.simplify conjs in
  let conjs = List.filter Conj.sat conjs in
  List.fold_left
    (fun acc c -> if List.exists (Conj.equal c) acc then acc else c :: acc)
    [] conjs
  |> List.rev

(** Heavier: additionally drop unsatisfiable conjuncts (Omega test) and
    duplicate conjuncts. *)
let coalesce t =
  { t with conjs = memo op_coalesce [ t ] (fun () -> coalesce_conjs t.conjs) }

let is_empty t = not (List.exists Conj.sat t.conjs)

let is_sat t = List.exists Conj.sat t.conjs

(* ------------------------------------------------------------------ *)
(* Boolean operations                                                  *)
(* ------------------------------------------------------------------ *)

let union a b =
  check_sig "union" a b;
  { a with conjs = a.conjs @ b.conjs }

(* [simplify (meet x y)] as a list of at most one conjunct, answered from
   the relation memo under the operands' ids ([op_meet], then the two
   conjunct ids). A miss simplifies the meet without interning it or
   looking it up, and interns only the result: the meet itself is a
   throwaway that no later key names. *)
let meet x y =
  if Cache.enabled () then
    Cache.Ids.find_or_add rel_memo [| op_meet; Conj.id x; Conj.id y |]
      (fun () ->
        Option.to_list (Option.map Conj.intern (Conj.simplify_raw (Conj.meet x y))))
  else Option.to_list (Conj.simplify_raw (Conj.meet x y))

(* the simplified pairwise meets of two conjunct lists *)
let meets xs ys = List.concat_map (fun x -> List.concat_map (meet x) ys) xs

let inter a b =
  check_sig "inter" a b;
  { a with conjs = memo op_inter [ a; b ] (fun () -> meets a.conjs b.conjs) }

(** [diff a b] = a minus b. Exact; raises [Conj.Inexact_negation] if some
    conjunct of [b] has non-stride residual existentials (does not occur for
    the set classes the compiler produces). *)
let diff a b =
  check_sig "diff" a b;
  let sub_one acc bconj =
    (* acc := acc ∧ ¬bconj *)
    meets acc (Conj.negate bconj)
  in
  let conjs =
    memo op_diff [ a; b ] (fun () ->
        coalesce_conjs (List.fold_left sub_one a.conjs b.conjs))
  in
  { a with conjs }

(* ------------------------------------------------------------------ *)
(* Variable plumbing                                                   *)
(* ------------------------------------------------------------------ *)

let map_tuple_vars f t =
  { t with conjs = List.map (Conj.map_lin (Lin.map_vars f)) t.conjs }

(* Existentially quantify [n] tuple variables of every conjunct: [f base]
   renames them to [Var.Ex (base + i)], [base] being the conjunct's own
   existential count, and may rename the remaining tuple variables. *)
let quantify ~n f conjs =
  List.filter_map
    (fun c ->
      let base = Conj.n_ex c in
      Conj.simplify
        (Conj.make ~n_ex:(base + n)
           (List.map (Constr.map_lin (Lin.map_vars (f base))) (Conj.constraints c))))
    conjs

(** Existentially quantify the output tuple: Domain. *)
let domain t =
  let conjs =
    memo op_domain [ t ] (fun () ->
        quantify ~n:t.out_ar
          (fun base -> function Var.Out i -> Var.Ex (base + i) | v -> v)
          t.conjs)
  in
  make ~in_names:t.in_names ~in_ar:t.in_ar ~out_ar:0 conjs

let range_conjs ~in_ar =
  quantify ~n:in_ar (fun base -> function
    | Var.In i -> Var.Ex (base + i) | Var.Out i -> Var.In i | v -> v)

(** Existentially quantify the input tuple and make outputs the set tuple:
    Range. *)
let range t =
  let conjs =
    memo op_range [ t ] (fun () -> range_conjs ~in_ar:t.in_ar t.conjs)
  in
  make ~in_names:t.out_names ~in_ar:t.out_ar ~out_ar:0 conjs

let inverse t =
  let f = function Var.In i -> Var.Out i | Var.Out i -> Var.In i | v -> v in
  make ~in_names:t.out_names ~out_names:t.in_names ~in_ar:t.out_ar ~out_ar:t.in_ar
    (memo op_inverse [ t ] (fun () ->
         List.map (Conj.map_lin (Lin.map_vars f)) t.conjs))

(** [compose r1 r2] (paper's [R1 o R2]): i -> j iff exists a. r1(i,a) and
    r2(a,j). Requires [r1.out_ar = r2.in_ar]. *)
let compose r1 r2 =
  if r1.out_ar <> r2.in_ar then
    invalid_arg
      (Printf.sprintf "Rel.compose: mid arity mismatch (%d vs %d)" r1.out_ar r2.in_ar);
  let mid = r1.out_ar in
  let conjs =
    memo op_compose [ r1; r2 ] @@ fun () ->
    List.concat_map
      (fun c1 ->
        List.filter_map
          (fun c2 ->
            (* rename apart, then map r1's Out and r2's In to shared
               existentials *)
            let c2 = Conj.shift_ex (Conj.n_ex c1) c2 in
            let base = Conj.n_ex c2 in
            let f1 = function Var.Out i -> Var.Ex (base + i) | v -> v in
            let f2 = function Var.In i -> Var.Ex (base + i) | v -> v in
            let cs1 =
              List.map (Constr.map_lin (Lin.map_vars f1)) (Conj.constraints c1)
            in
            let cs2 =
              List.map (Constr.map_lin (Lin.map_vars f2)) (Conj.constraints c2)
            in
            Conj.simplify (Conj.make ~n_ex:(base + mid) (cs1 @ cs2)))
          r2.conjs)
      r1.conjs
  in
  make ~in_names:r1.in_names ~out_names:r2.out_names ~in_ar:r1.in_ar
    ~out_ar:r2.out_ar conjs

let restrict_domain r s =
  if not (is_set s) || s.in_ar <> r.in_ar then
    invalid_arg "Rel.restrict_domain: operand must be a set over the input tuple";
  let conjs =
    memo op_restrict_domain [ r; s ] (fun () -> meets r.conjs s.conjs)
  in
  { r with conjs }

let restrict_range r s =
  if not (is_set s) || s.in_ar <> r.out_ar then
    invalid_arg "Rel.restrict_range: operand must be a set over the output tuple";
  let f = function Var.In i -> Var.Out i | v -> v in
  let conjs =
    memo op_restrict_range [ r; s ] (fun () ->
        meets r.conjs (List.map (Conj.map_lin (Lin.map_vars f)) s.conjs))
  in
  { r with conjs }

(** [apply r s] = Range(restrict_domain r s) — the paper's [R(S)]. *)
let apply r s = range (restrict_domain r s)

(** Flatten a relation into a set over the concatenated [in; out] tuple. *)
let flatten r =
  let k = r.in_ar in
  let f = function Var.Out i -> Var.In (k + i) | v -> v in
  let names = Array.append r.in_names r.out_names in
  make ~in_names:names ~in_ar:(k + r.out_ar) ~out_ar:0
    (memo op_flatten [ r ] (fun () ->
         List.map (Conj.map_lin (Lin.map_vars f)) r.conjs))

(** Inverse of {!flatten}: split a set over [k + m] variables into a relation
    [k -> m]. *)
let unflatten ~in_ar set =
  assert (is_set set);
  let m = set.in_ar - in_ar in
  assert (m >= 0);
  let f = function
    | Var.In i when i >= in_ar -> Var.Out (i - in_ar)
    | v -> v
  in
  make
    ~in_names:(Array.sub set.in_names 0 in_ar)
    ~out_names:(Array.sub set.in_names in_ar m)
    ~in_ar ~out_ar:m
    (List.map (fun c -> Conj.map_lin (Lin.map_vars f) c) set.conjs)

(** [apply_point r lins]: the set {j : r(p, j)} where the input tuple is fixed
    to the given linear terms (typically parameters such as the processor id
    [m], or constants). *)
let apply_point r lins =
  if List.length lins <> r.in_ar then invalid_arg "Rel.apply_point: arity";
  let conjs =
    memo ~lins op_apply_point [ r ] (fun () ->
        range_conjs ~in_ar:r.in_ar
          (List.map
             (fun c ->
               List.fold_left
                 (fun (c, i) lin -> (Conj.subst (Var.In i) lin c, i + 1))
                 (c, 0) lins
               |> fst)
             r.conjs))
  in
  make ~in_names:r.out_names ~in_ar:r.out_ar ~out_ar:0 conjs

(* ------------------------------------------------------------------ *)
(* Predicates                                                          *)
(* ------------------------------------------------------------------ *)

let subset a b =
  check_sig "subset" a b;
  is_empty (diff a b)

let equal a b = subset a b && subset b a

(** Gist: simplify [t] under the assumption [given] (applied per conjunct,
    using every conjunct of [given] that is a single conjunct; when [given]
    is a union, only constraints common to all its conjuncts could be
    assumed, so we conservatively use the first conjunct only if the union is
    a singleton). *)
let gist t ~given =
  match given.conjs with
  | [ g ] -> { t with conjs = List.map (fun c -> Conj.gist c ~given:g) t.conjs }
  | _ -> t

(** Make the disjuncts pairwise disjoint (same union of points). Used before
    code generation so that no tuple is enumerated twice. Note that the
    pieces produced by a single [diff] may overlap each other (the negation
    of a conjunct is a non-disjoint disjunction), so each piece is inserted
    separately and re-differenced against the pieces accepted so far. *)
let disjointify t =
  let one conj = { t with conjs = [ conj ] } in
  let budget = ref 1000 in
  let rec insert acc c =
    decr budget;
    if !budget < 0 then invalid_arg "Rel.disjointify: too many pieces";
    if acc = [] then [ c ]
    else
      let d = List.fold_left (fun d s -> diff d (one s)) (one c) acc in
      let d = coalesce d in
      match d.conjs with
      | [] -> acc
      | [ p ] -> acc @ [ p ]
      | p :: rest ->
          (* p is disjoint from acc; the remaining pieces may still overlap
             p, so insert them recursively *)
          List.fold_left insert (acc @ [ p ]) rest
  in
  { t with conjs = List.fold_left insert [] t.conjs }

(* ------------------------------------------------------------------ *)
(* Membership (testing oracle)                                         *)
(* ------------------------------------------------------------------ *)

(** Exact membership test: [mem ~env t (ins, outs)] decides whether the tuple
    belongs to the relation with parameters bound by [env]. Remaining
    existentials are decided by the Omega test. *)
let mem ?(env = []) t (ins, outs) =
  if List.length ins <> t.in_ar || List.length outs <> t.out_ar then
    invalid_arg "Rel.mem: arity";
  List.exists
    (fun c ->
      let c =
        List.fold_left
          (fun (c, i) x -> (Conj.subst (Var.In i) (Lin.const x) c, i + 1))
          (c, 0) ins
        |> fst
      in
      let c =
        List.fold_left
          (fun (c, i) x -> (Conj.subst (Var.Out i) (Lin.const x) c, i + 1))
          (c, 0) outs
        |> fst
      in
      let c =
        List.fold_left
          (fun c (name, x) -> Conj.subst (Var.Param name) (Lin.const x) c)
          c env
      in
      Conj.sat c)
    t.conjs

let mem_set ?env t ins = mem ?env t (ins, [])

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)
(* ------------------------------------------------------------------ *)

let pp_var_named t fmt = function
  | Var.In i when i < Array.length t.in_names -> Fmt.string fmt t.in_names.(i)
  | Var.Out i when i < Array.length t.out_names -> Fmt.string fmt t.out_names.(i)
  | v -> Var.pp fmt v

(* Render a constraint in a readable a <= b / a = b form: move negative
   terms to the other side. *)
let pp_constr pp_var fmt c =
  let lin = Constr.lin c in
  let pos, neg =
    Lin.fold
      (fun v a (pos, neg) ->
        if a > 0 then (Lin.add pos (Lin.var ~coef:a v), neg)
        else (pos, Lin.add neg (Lin.var ~coef:(-a) v)))
      lin (Lin.zero, Lin.zero)
  in
  let k = Lin.constant lin in
  let pos, neg =
    if k > 0 then (Lin.add_const k pos, neg) else (pos, Lin.add_const (-k) neg)
  in
  match Constr.kind c with
  | Constr.Eq -> Fmt.pf fmt "%a = %a" (Lin.pp ~pp_var) pos (Lin.pp ~pp_var) neg
  | Constr.Geq -> Fmt.pf fmt "%a <= %a" (Lin.pp ~pp_var) neg (Lin.pp ~pp_var) pos

let pp_conj pp_var fmt c =
  let n = Conj.n_ex c in
  if n > 0 then begin
    Fmt.pf fmt "exists(%a: "
      Fmt.(list ~sep:(any ",") (fun fmt i -> Var.pp fmt (Var.Ex i)))
      (List.init n (fun i -> i))
  end;
  (match Conj.constraints c with
  | [] -> Fmt.string fmt "TRUE"
  | cs -> Fmt.(list ~sep:(any " && ") (pp_constr pp_var)) fmt cs);
  if n > 0 then Fmt.string fmt ")"

let pp fmt t =
  let pp_var = pp_var_named t in
  let tuple names = Array.to_list names in
  Fmt.pf fmt "{[%a]" Fmt.(list ~sep:(any ",") string) (tuple t.in_names);
  if t.out_ar > 0 || not (is_set t) then
    Fmt.pf fmt " -> [%a]" Fmt.(list ~sep:(any ",") string) (tuple t.out_names);
  (match t.conjs with
  | [] -> Fmt.pf fmt " : FALSE"
  | [ c ] when Conj.constraints c = [] -> ()
  | cs -> Fmt.pf fmt " : %a" Fmt.(list ~sep:(any " || ") (pp_conj pp_var)) cs);
  Fmt.string fmt "}"

let to_string t = Fmt.str "%a" pp t
