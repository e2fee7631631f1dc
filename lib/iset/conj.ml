(** Conjuncts: a conjunction of affine constraints together with a block of
    existentially quantified variables.

    This module carries the heart of the framework: constraint normalization,
    Pugh's exact equality elimination (including the symmetric-modulus
    coefficient-reduction step), exact and inexact Fourier-Motzkin
    elimination, the Omega satisfiability test (real shadow / dark shadow /
    splinters), negation of conjuncts (exact, provided residual existentials
    are stride-like), and gist. *)

exception Inexact_negation

(* [hc] and [cid] are caches, -1 until filled: the hash, computed on
   first demand, and, in an interned representative only, its id. Every
   record is built by [make], so no copy carries another record's
   caches. Domains that race to fill one write the same value. *)
type t = { n_ex : int; cs : Constr.t list; mutable hc : int; mutable cid : int }

let make ~n_ex cs = { n_ex; cs; hc = -1; cid = -1 }

let true_ = make ~n_ex:0 []

let with_cs t cs = make ~n_ex:t.n_ex cs

let constraints t = t.cs
let n_ex t = t.n_ex

let add t cs = with_cs t (cs @ t.cs)

let fresh_ex t = (make ~n_ex:(t.n_ex + 1) t.cs, Var.Ex t.n_ex)

let map_lin f t = with_cs t (List.map (Constr.map_lin f) t.cs)

let subst v rhs t = map_lin (Lin.subst v rhs) t

(** All variables occurring in the conjunct. *)
let vars t =
  List.fold_left
    (fun acc c ->
      Lin.fold (fun v _ acc -> Var.Set.add v acc) (Constr.lin c) acc)
    Var.Set.empty t.cs

(* the existential ids occurring in the conjunct, ascending *)
let ex_ids t =
  List.fold_left
    (fun acc c ->
      Lin.fold
        (fun v _ acc -> match v with Var.Ex i -> i :: acc | _ -> acc)
        (Constr.lin c) acc)
    [] t.cs
  |> List.sort_uniq Int.compare

(* the number of existentials a constraint names *)
let count_ex c =
  Lin.fold (fun v _ n -> if Var.is_ex v then n + 1 else n) (Constr.lin c) 0

(** Shift every existential id by [offset]. *)
let shift_ex offset t =
  if offset = 0 then t
  else
    let f = function Var.Ex i -> Var.Ex (i + offset) | v -> v in
    make ~n_ex:(t.n_ex + offset) (List.map (Constr.map_lin (Lin.map_vars f)) t.cs)

(** Conjunction of two conjuncts (renaming [b]'s existentials apart). *)
let meet a b =
  let b = shift_ex a.n_ex b in
  make ~n_ex:b.n_ex (a.cs @ b.cs)

(** Renumber existentials densely and drop unused ids. *)
let compact_ex t =
  let used = ex_ids t in
  let n = List.length used in
  let rec dense i = function
    | [] -> true
    | id :: rest -> id = i && dense (i + 1) rest
  in
  if dense 0 used then make ~n_ex:n t.cs
  else
    let tbl = Hashtbl.create 8 in
    List.iteri (fun fresh old -> Hashtbl.replace tbl old fresh) used;
    let f = function Var.Ex i -> Var.Ex (Hashtbl.find tbl i) | v -> v in
    make ~n_ex:n (List.map (Constr.map_lin (Lin.map_vars f)) t.cs)

(* ------------------------------------------------------------------ *)
(* Hash-consing                                                        *)
(* ------------------------------------------------------------------ *)

let equal a b = a == b || (a.n_ex = b.n_ex && List.equal Constr.equal a.cs b.cs)

let hash t =
  if t.hc >= 0 then t.hc
  else begin
    let h =
      List.fold_left (fun acc c -> (acc * 31) + Constr.hash c) (t.n_ex + 1) t.cs
      land max_int
    in
    t.hc <- h;
    h
  end

module Tbl = Cache.Intern (struct
  type nonrec t = t
  let equal = equal
  let hash = hash
end) ()

let () = Tbl.register_gauge "interned conjuncts"

(* A new representative gets its constraints (and their terms) interned,
   so equal conjuncts share the whole subtree, and the representatives the
   memo tables keep alive share their memory (see {!Constr.intern}).
   A lookup that hits interns nothing else: the representative's children
   are canonical already. A representative keeps its id, and skips the
   table while no clear of its stripe has made that id stale (see
   {!Cache.Intern}); its [hc] is always filled, and [cid = -1] is never
   trusted. *)
let intern_table t =
  let ((rep, id) as r) =
    Tbl.intern_with t (fun t ->
        let rep = with_cs t (List.map Constr.intern t.cs) in
        rep.hc <- t.hc;
        rep)
  in
  if rep.cid <> id then rep.cid <- id;
  r

let trusted t = Tbl.trusted ~hash:t.hc t.cid
let intern_pair t = if trusted t then (t, t.cid) else intern_table t
let intern t = if trusted t then t else fst (intern_table t)
let id t = if trusted t then t.cid else snd (intern_table t)

(* canonical byte codec: the existential count, then the constraints in
   list order (the order is part of structural identity, exactly as in
   [equal]/[hash]) *)
let wire_put b t =
  Wire.int b t.n_ex;
  Wire.list Constr.wire_put b t.cs

let wire_read c =
  let n_ex = Wire.read_int c in
  if n_ex < 0 then raise Wire.Malformed;
  make ~n_ex (Wire.read_list Constr.wire_read c)

(* disk-layer codec plumbing: content keys for the persistent cache
   beneath the memo tables (see {!Diskcache}); interned ids never appear
   in these bytes *)
let wire_of_conj t =
  let b = Buffer.create 128 in
  wire_put b t;
  Buffer.contents b

(* decoded structures are interned so a disk hit hands back the same
   canonical representative recomputation would *)
let dec_conj c = intern (wire_read c)

let enc_opt_conj = function
  | None -> "N"
  | Some t -> "S" ^ wire_of_conj t

let dec_opt_conj c =
  match Wire.read_char c with
  | 'N' -> None
  | 'S' -> Some (dec_conj c)
  | _ -> raise Wire.Malformed

(* ------------------------------------------------------------------ *)
(* Normalization                                                       *)
(* ------------------------------------------------------------------ *)

exception Unsat

(* [normalize_list] sorts by [Constr.compare], each comparison decided
   where it can be by the kinds and the first bindings of the coefficient
   maps, taken once per constraint: maps compare by their bindings in
   order, so only ties walk both maps. *)
type keyed = { constr : Constr.t; v0 : Var.t; a0 : int }

let compare_keyed x y =
  match (Constr.kind x.constr, Constr.kind y.constr) with
  | Constr.Eq, Constr.Geq -> -1
  | Constr.Geq, Constr.Eq -> 1
  | _ ->
      let r = Var.compare x.v0 y.v0 in
      if r <> 0 then r
      else
        let r = Int.compare x.a0 y.a0 in
        if r <> 0 then r else Constr.compare x.constr y.constr

let normalize_list cs =
  let keyed =
    List.fold_left
      (fun acc c ->
        match Constr.normalize c with
        | Constr.Tauto -> acc
        | Constr.Contra -> raise Unsat
        | Constr.Ok c ->
            let v0, a0 = Var.Map.min_binding (Constr.lin c).Lin.coeffs in
            { constr = c; v0; a0 } :: acc)
      [] cs
  in
  List.map (fun k -> k.constr) (List.sort_uniq compare_keyed keyed)

(* Keep the tightest inequality per coefficient vector, and resolve
   opposite pairs: [v·x + k >= 0] with [-v·x + k' >= 0] bounds [v·x] to
   [\[-k, k'\]], a contradiction when empty and an equality, replacing
   both, when one point. [cs] is [normalize_list]'s output: the
   equalities, then the inequalities sorted by vector and, within one
   vector, by constant, so equal vectors are adjacent and the first of a
   run is the tightest. The result is the equalities, the new equalities
   and the kept inequalities, the last two each in descending vector
   order (the order [propagate_equalities] and [pick_eq] see). *)
let tighten cs =
  let rec split eqs = function
    | c :: rest when Constr.kind c = Constr.Eq -> split (c :: eqs) rest
    | geqs -> (eqs, Array.of_list geqs)
  in
  let eqs_rev, a = split [] cs in
  let n = Array.length a in
  let lin i = Constr.lin a.(i) in
  (* [out.(i)]: not the first of its run, or the second of a one-point
     pair *)
  let out =
    Array.init n (fun i -> i > 0 && Lin.equal_coeffs (lin (i - 1)) (lin i))
  in
  let eqs = ref [] and kept = ref [] in
  for i = 0 to n - 1 do
    if not out.(i) then begin
      (* the opposite vector, if any: the first of its run is the first
         found *)
      let j = ref (i + 1) in
      while !j < n && not (Lin.opposite_coeffs (lin i) (lin !j)) do
        incr j
      done;
      let k = Lin.constant (lin i) in
      let tight =
        !j < n
        &&
        let k' = Lin.constant (lin !j) in
        if -k > k' then raise Unsat;
        -k = k'
      in
      if tight then begin
        out.(!j) <- true;
        eqs := Constr.eq (lin i) :: !eqs
      end
      else kept := a.(i) :: !kept
    end
  done;
  List.rev_append eqs_rev (!eqs @ !kept)

(* ------------------------------------------------------------------ *)
(* Equality-based elimination (Pugh)                                   *)
(* ------------------------------------------------------------------ *)

(* Solve equality [c] for variable [v] when |coeff| = 1: returns rhs term. *)
let solve_unit_eq c v =
  let lin = Constr.lin c in
  let a = Lin.coeff lin v in
  assert (abs a = 1);
  let rest = Lin.drop v lin in
  (* a·v + rest = 0  =>  v = -rest / a *)
  if a = 1 then Lin.neg rest else rest

(* One step of Omega's symmetric-modulus coefficient reduction applied to an
   equality in which every variable has |coeff| > 1. Returns the transformed
   conjunct (a fresh existential is introduced; coefficients strictly
   shrink). [t] must contain [c]. *)
let reduce_equality t c =
  let lin = Constr.lin c in
  (* pick the variable with the smallest |coeff| *)
  let xk, ak =
    Lin.fold
      (fun v a (bv, ba) -> if abs a < abs ba then (v, a) else (bv, ba))
      lin
      (Var.Param "!none", max_int)
  in
  assert (ak <> max_int);
  let m = abs ak + 1 in
  let t, sigma = fresh_ex t in
  (* m·σ = Σ smod(a_i, m)·x_i + smod(c, m); and smod(a_k, m) = -sign(a_k) *)
  let rhs =
    Lin.fold
      (fun v a acc -> Lin.add acc (Lin.var ~coef:(Lin.smod a m) v))
      lin
      (Lin.const (Lin.smod (Lin.constant lin) m))
  in
  (* The defining constraint m·σ = rhs has coefficient −sign(a_k) on x_k
     (since |a_k| = m − 1 gives smod(a_k, m) = −sign(a_k)), so it can be
     solved exactly for x_k:
       x_k = sign(a_k) · (Σ_{i≠k} smod(a_i,m)·x_i + smod(c,m) − m·σ).
     Substituting everywhere eliminates x_k and shrinks the coefficients of
     the original equality. *)
  let sign = if ak > 0 then 1 else -1 in
  let rest = Lin.drop xk rhs in
  let xk_rhs = Lin.scale sign (Lin.sub rest (Lin.var ~coef:m sigma)) in
  let cs = List.map (Constr.subst xk xk_rhs) t.cs in
  (* Re-add the definition of x_k so the relation still mentions x_k if it is
     a tuple variable; if x_k is existential the definition fully replaces
     it. *)
  let defc = Constr.eq (Lin.sub (Lin.var xk) xk_rhs) in
  let cs = if Var.is_ex xk then cs else defc :: cs in
  with_cs t cs

(* ------------------------------------------------------------------ *)
(* Fourier-Motzkin elimination                                         *)
(* ------------------------------------------------------------------ *)

type bounds = {
  lowers : (int * Lin.t) list; (* a·v >= L  encoded as (a, L) with a > 0 *)
  uppers : (int * Lin.t) list; (* b·v <= U  encoded as (b, U) with b > 0 *)
  others : Constr.t list; (* constraints not involving v *)
  eqs_with_v : Constr.t list;
}

let bounds_of v t =
  let rec go lowers uppers others eqs = function
    | [] -> { lowers; uppers; others; eqs_with_v = eqs }
    | c :: rest -> (
        let a = Constr.coeff c v in
        if a = 0 then go lowers uppers (c :: others) eqs rest
        else
          match Constr.kind c with
          | Constr.Eq -> go lowers uppers others (c :: eqs) rest
          | Constr.Geq ->
              let r = Lin.drop v (Constr.lin c) in
              if a > 0 then
                (* a·v + r >= 0  =>  a·v >= -r *)
                go ((a, Lin.neg r) :: lowers) uppers others eqs rest
              else
                (* a·v + r >= 0 with a < 0  =>  |a|·v <= r *)
                go lowers ((-a, r) :: uppers) others eqs rest)
  in
  go [] [] [] [] t.cs

(* How [v] occurs in [cs], found without building its bounds: its
   equalities, the last first (as [bounds_of] lists them), the number of
   its lower and upper bounds, and whether Fourier-Motzkin elimination of
   [v] is exact (no lower and upper bound both with a coefficient above
   1). *)
type occurrences = {
  eqs : Constr.t list;
  n_lower : int;
  n_upper : int;
  fme_exact : bool;
}

let occurrences v cs =
  let rec go eqs nl nu big_l big_u = function
    | [] ->
        { eqs; n_lower = nl; n_upper = nu; fme_exact = not (big_l && big_u) }
    | c :: rest -> (
        let a = Constr.coeff c v in
        if a = 0 then go eqs nl nu big_l big_u rest
        else
          match Constr.kind c with
          | Constr.Eq -> go (c :: eqs) nl nu big_l big_u rest
          | Constr.Geq ->
              if a > 0 then go eqs (nl + 1) nu (big_l || a > 1) big_u rest
              else go eqs nl (nu + 1) big_l (big_u || a < -1) rest)
  in
  go [] 0 0 false false cs

(* Real-shadow constraint for pair (a·v >= L, b·v <= U): a·U − b·L >= 0. *)
let real_shadow_pair (a, l) (b, u) = Constr.geq (Lin.sub (Lin.scale a u) (Lin.scale b l))

(* Dark-shadow: a·U − b·L >= (a−1)(b−1). *)
let dark_shadow_pair (a, l) (b, u) =
  Constr.geq (Lin.add_const (-((a - 1) * (b - 1))) (Lin.sub (Lin.scale a u) (Lin.scale b l)))

type elim_result =
  | Exact of t
  | Inexact of { real : t; dark : t; lowers : (int * Lin.t) list; max_upper_coef : int }

(* Eliminate variable [v] from the inequalities of [t]. Precondition: v does
   not occur in any equality of [t]. *)
let fme v t =
  let b = bounds_of v t in
  assert (b.eqs_with_v = []);
  if b.lowers = [] || b.uppers = [] then Exact (with_cs t b.others)
  else
    let exact =
      List.for_all
        (fun (a, _) -> List.for_all (fun (bb, _) -> a = 1 || bb = 1) b.uppers)
        b.lowers
    in
    let combine pairf =
      List.concat_map (fun lo -> List.map (fun up -> pairf lo up) b.uppers) b.lowers
    in
    if exact then begin
      Stats.bump Stats.fme_exact;
      Exact (with_cs t (combine real_shadow_pair @ b.others))
    end
    else
      let real = with_cs t (combine real_shadow_pair @ b.others) in
      let dark = with_cs t (combine dark_shadow_pair @ b.others) in
      let max_upper_coef = List.fold_left (fun m (bb, _) -> max m bb) 1 b.uppers in
      Inexact { real; dark; lowers = b.lowers; max_upper_coef }

(* ------------------------------------------------------------------ *)
(* Simplification                                                      *)
(* ------------------------------------------------------------------ *)

(* Use equality [c] (with coefficient a on v, |a| > 1) to remove v from every
   OTHER constraint, by scaling each by |a| and substituting a·v = −rest.
   Exact: scaling an inequality by a positive factor preserves its integer
   solutions, and the equality itself is kept. Afterwards v occurs only in
   [c], i.e. it is stride-like. *)
let scale_subst t c v =
  let a = Constr.coeff c v in
  let s = if a > 0 then 1 else -1 in
  let rest = Lin.drop v (Constr.lin c) in
  let cs =
    List.map
      (fun c2 ->
        if c2 == c then c2
        else
          let b = Constr.coeff c2 v in
          if b = 0 then c2
          else
            let r2 = Lin.drop v (Constr.lin c2) in
            (* |a|·(b·v + r2) = b·s·(a·v) + |a|·r2 = −b·s·rest + |a|·r2 *)
            let lin = Lin.sub (Lin.scale (abs a) r2) (Lin.scale (b * s) rest) in
            match Constr.kind c2 with
            | Constr.Eq -> Constr.eq lin
            | Constr.Geq -> Constr.geq lin)
      t.cs
  in
  with_cs t cs

(* Try to remove existential variables exactly. One pass; returns the
   conjunct and whether progress was made. *)
let eliminate_existentials t =
  let progress = ref false in
  (* Each step keeps only variables [t] had, so the candidates are [t]'s
     existentials, the ones no longer present skipped. [confined] prevents
     ping-ponging: two existentials coupled by one equality would otherwise
     take turns rewriting each other's bounds forever. Each variable is
     confined (scale_subst'ed) at most once per pass; the outer
     simplification fixpoint handles the rest. *)
  let exs = List.map (fun i -> Var.Ex i) (ex_ids t) in
  (* prefer a defining equality with as few existentials as possible, so
     bounds get rewritten towards tuple variables and parameters *)
  let pick_eq eqs =
    List.fold_left
      (fun best c -> if count_ex c < count_ex best then c else best)
      (List.hd eqs) (List.tl eqs)
  in
  let try_var confined t v =
    match occurrences v t.cs with
    | { eqs = []; n_lower = 0; n_upper = 0; _ } -> None
    | { eqs = c :: _; _ } when abs (Constr.coeff c v) = 1 ->
        (* substitute v away; the defining equality disappears *)
        let rhs = solve_unit_eq c v in
        let cs = List.filter (fun c' -> not (c' == c)) t.cs in
        progress := true;
        Some (`Elim (with_cs t (List.map (Constr.subst v rhs) cs)))
    | { eqs = _ :: rest as eqs; n_lower; n_upper; _ } ->
        let occurs_elsewhere = n_lower > 0 || n_upper > 0 || rest <> [] in
        if occurs_elsewhere && not (Var.Set.mem v confined) then begin
          (* confine v to its defining equality; it becomes stride-like *)
          progress := true;
          let t' = scale_subst t (pick_eq eqs) v in
          let t' = with_cs t' (normalize_list t'.cs) in
          Some (`Confined t')
        end
        else
          (* v occurs only in this equality: a stride (divisibility)
             constraint on the remaining variables; keep it *)
          None
    | { eqs = []; n_lower; n_upper; fme_exact } ->
        if n_lower = 0 || n_upper = 0 then begin
          progress := true;
          let others =
            List.fold_left
              (fun acc c -> if Constr.mem v c then acc else c :: acc)
              [] t.cs
          in
          Some (`Elim (with_cs t others))
        end
        else if not fme_exact then None
        else (
          match fme v t with
          | Exact t' ->
              progress := true;
              Some (`Elim t')
          | Inexact _ -> None)
  in
  let rec go confined t =
    let rec loop t = function
      | [] -> t
      | v :: rest -> (
          match try_var confined t v with
          | Some (`Elim t') -> go confined t'
          | Some (`Confined t') -> go (Var.Set.add v confined) t'
          | None -> loop t rest)
    in
    loop t exs
  in
  let t = go Var.Set.empty t in
  (t, !progress)

(* [List.map f l], sharing the longest tail [f] leaves physically
   unchanged *)
let rec map_shared f l =
  match l with
  | [] -> l
  | x :: rest ->
      let y = f x and rest' = map_shared f rest in
      if y == x && rest' == rest then l else y :: rest'

(* Substitute unit-coefficient equalities through the other constraints so
   that tuple-variable relationships propagate (the equality itself is
   kept when it defines a tuple or parameter variable). *)
let propagate_equalities t =
  let rec go processed = function
    | [] -> with_cs t (List.rev processed)
    | c :: rest when Constr.kind c = Constr.Eq -> (
        (* a variable with unit coefficient, preferring existentials: the
           last in variable order, where the existentials are *)
        let pickv =
          Lin.fold
            (fun v a acc -> if abs a = 1 then Some v else acc)
            (Constr.lin c) None
        in
        match pickv with
        | None -> go (c :: processed) rest
        | Some v ->
            let rhs = solve_unit_eq c v in
            let processed = map_shared (Constr.subst v rhs) processed in
            let rest = map_shared (Constr.subst v rhs) rest in
            (* existential definitions disappear; tuple/parameter definitions
               are kept so the relation still relates its tuple variables *)
            let processed = if Var.is_ex v then processed else c :: processed in
            go processed rest)
    | c :: rest -> go (c :: processed) rest
  in
  go [] t.cs

(* the number of constraints of [t] mentioning [v] *)
let occurrences_in t v =
  List.fold_left (fun n c -> if Constr.mem v c then n + 1 else n) 0 t.cs

(* Merge several existentials that occur only in one equality into a single
   one: c1·α1 + c2·α2 + ... (each αi nowhere else) spans exactly the
   multiples of gcd(c1,c2,...), so the group is replaced by g·β. This is
   what turns the composition of two cyclic layouts into a single stride. *)
let merge_eq_existentials t =
  (* only an equality with two existentials or more can merge any *)
  if
    not
      (List.exists (fun c -> Constr.kind c = Constr.Eq && count_ex c >= 2) t.cs)
  then (t, false)
  else
    let progress = ref false in
    let occurrences = occurrences_in t in
    let t =
      List.fold_left
        (fun t c ->
          if Constr.kind c <> Constr.Eq || not (List.memq c t.cs) then t
          else
            let lin = Constr.lin c in
            let exclusive =
              Lin.fold
                (fun v coef acc ->
                  if Var.is_ex v && occurrences v = 1 then (v, coef) :: acc
                  else acc)
                lin []
            in
            if List.length exclusive < 2 then t
            else begin
              progress := true;
              let g =
                List.fold_left (fun g (_, c) -> Lin.gcd g c) 0 exclusive
              in
              let t', beta = fresh_ex t in
              let lin' =
                List.fold_left (fun l (v, _) -> Lin.drop v l) lin exclusive
              in
              let lin' = Lin.add lin' (Lin.var ~coef:g beta) in
              let cs =
                List.map
                  (fun c' -> if c' == c then Constr.eq lin' else c')
                  t'.cs
              in
              with_cs t' cs
            end)
        t t.cs
    in
    (t, !progress)

(* An equality c·α + rest = 0 with α occurring nowhere else is just the
   congruence rest ≡ 0 (mod |c|), so every coefficient of [rest] (and its
   constant) can be reduced to its symmetric remainder mod |c|. In
   particular coefficients divisible by |c| vanish — this decouples
   stride constraints produced by composing cyclic layouts. *)
let reduce_stride_coeffs t =
  let progress = ref false in
  let occurrences = occurrences_in t in
  let reduce c =
    if Constr.kind c <> Constr.Eq then c
    else
      let lin = Constr.lin c in
      match
        Lin.fold
          (fun v coef acc ->
            if acc = None && Var.is_ex v && occurrences v = 1 then
              Some (v, coef)
            else acc)
          lin None
      with
      | None -> c
      | Some (alpha, coef) ->
          let m = abs coef in
          let k = Lin.constant lin in
          let changes v r = (not (Var.equal v alpha)) && Lin.smod r m <> r in
          if
            m <= 1
            || (Lin.smod k m = k && not (Var.Map.exists changes lin.Lin.coeffs))
          then c
          else begin
            progress := true;
            let coeffs =
              Var.Map.filter_map
                (fun v r ->
                  let r' = if Var.equal v alpha then r else Lin.smod r m in
                  if r' = 0 then None else Some r')
                lin.Lin.coeffs
            in
            Constr.eq (Lin.of_coeffs coeffs (Lin.smod k m))
          end
  in
  if
    not
      (List.exists (fun c -> Constr.kind c = Constr.Eq && count_ex c > 0) t.cs)
  then (t, false)
  else
    let cs = List.map reduce t.cs in
    (with_cs t cs, !progress)

(* Every pass ends in [normalize_list], which is idempotent, so only the
   input is normalized before the first. *)
let simplify_raw t =
  try
    let rec fix t n =
      if n > 12 then Some t
      else
        let t = propagate_equalities (with_cs t (tighten t.cs)) in
        let t, progress = eliminate_existentials t in
        let t, progress2 = merge_eq_existentials t in
        let t, progress3 = reduce_stride_coeffs t in
        let t = with_cs t (normalize_list t.cs) in
        if progress || progress2 || progress3 then fix t (n + 1)
        else Some (compact_ex t)
    in
    fix (with_cs t (normalize_list t.cs)) 0
  with Unsat -> None

(* Simplification is a pure function of the structure, so memoizing on the
   interned id returns exactly what recomputation would. The cached result
   is interned too: every caller of a repeated conjunct gets the same
   physically-shared simplified form. *)
let simplify_memo =
  Cache.Id.create Stats.simplify
    ~disk:{ key = wire_of_conj; encode = enc_opt_conj; decode = dec_opt_conj }
    (fun rep -> Option.map intern (simplify_raw rep))

let simplify t =
  if not (Cache.enabled ()) then simplify_raw t
  else
    let rep, key = intern_pair t in
    Cache.Id.find_or_add simplify_memo key rep

(* ------------------------------------------------------------------ *)
(* Omega satisfiability test                                           *)
(* ------------------------------------------------------------------ *)

exception Too_hard

(* For satisfiability every variable is treated as existential. *)
let all_existential t =
  let tbl = Hashtbl.create 8 in
  let next = ref t.n_ex in
  let f v =
    if Var.is_ex v then v
    else begin
      match Hashtbl.find_opt tbl v with
      | Some v' -> v'
      | None ->
          let v' = Var.Ex !next in
          incr next;
          Hashtbl.replace tbl v v';
          v'
    end
  in
  let cs = List.map (Constr.map_lin (Lin.map_vars f)) t.cs in
  make ~n_ex:!next cs

let rec omega_sat ~fuel t =
  if fuel <= 0 then raise Too_hard;
  match simplify t with
  | None -> false
  | Some t -> (
      let vs = vars t |> Var.Set.elements in
      match vs with
      | [] -> true (* only tautological constraints remain *)
      | _ -> (
          (* After simplify, any remaining equality has no unit-coefficient
             handle on an existential; but since every var is existential in
             sat mode, propagate_equalities has already consumed unit
             equalities. Handle remaining equalities by coefficient
             reduction. *)
          match List.find_opt (fun c -> Constr.kind c = Constr.Eq) t.cs with
          | Some c -> (
              let unit_v =
                Lin.fold
                  (fun v a acc -> if abs a = 1 then Some v else acc)
                  (Constr.lin c) None
              in
              match unit_v with
              | Some v ->
                  let rhs = solve_unit_eq c v in
                  let cs = List.filter (fun c' -> not (c' == c)) t.cs in
                  omega_sat ~fuel:(fuel - 1)
                    (with_cs t (List.map (Constr.subst v rhs) cs))
              | None -> omega_sat ~fuel:(fuel - 1) (reduce_equality t c))
          | None ->
              (* choose the variable with the cheapest elimination *)
              let cost v =
                let o = occurrences v t.cs in
                let nl = o.n_lower and nu = o.n_upper in
                ((if o.fme_exact then 0 else 1000000), (nl * nu) - nl - nu)
              in
              let v =
                List.fold_left
                  (fun (bv, bc) v ->
                    let c = cost v in
                    if c < bc then (v, c) else (bv, bc))
                  (List.hd vs, cost (List.hd vs))
                  (List.tl vs)
                |> fst
              in
              (match fme v t with
              | Exact t' -> omega_sat ~fuel:(fuel - 1) t'
              | Inexact { real; dark; lowers; max_upper_coef = m } ->
                  if not (omega_sat ~fuel:(fuel - 1) real) then false
                  else begin
                    Stats.bump Stats.dark_shadows;
                    omega_sat ~fuel:(fuel - 1) dark
                    ||
                    (* splinters: for each lower bound a·v >= L, test
                       a·v = L + i for i in 0 .. (a·m − a − m)/m *)
                    List.exists
                      (fun (a, l) ->
                        let hi = ((a * m) - a - m) / m in
                        let rec try_i i =
                          if i > hi then false
                          else
                            let eqc =
                              Constr.eq
                                (Lin.sub (Lin.var ~coef:a v) (Lin.add_const i l))
                            in
                            Stats.bump Stats.splinters;
                            omega_sat ~fuel:(fuel - 1) (with_cs t (eqc :: t.cs))
                            || try_i (i + 1)
                        in
                        try_i 0)
                      lowers
                  end)))

let sat_raw t = omega_sat ~fuel:300 (all_existential t)

let sat_memo =
  Cache.Id.create Stats.sat ~disk:(Diskcache.bool_codec wire_of_conj) sat_raw

(* A conjunct with a trusted id (a representative, such as a memoized
   result) goes straight to the lookup: [intern_pair] skips the intern
   table for it. *)
let sat t =
  if not (Cache.enabled ()) then sat_raw t
  else
    let rep, key = intern_pair t in
    Cache.Id.find_or_add sat_memo key rep

let is_empty t = not (sat t)

(* ------------------------------------------------------------------ *)
(* Negation, implication, gist                                         *)
(* ------------------------------------------------------------------ *)

(** Negate a conjunct, producing a disjunction of conjuncts.

    Exact when every residual existential α is in {e window} form: its
    occurrences amount to [l <= k·α <= u] for affine l, u free of other
    existentials — either a single equality ([l = u], a stride) or a
    lower/upper inequality pair. The negation of "some multiple of k lies in
    [l,u]" is "some multiple of k lies in [u−k+1, l−1]", which is again a
    window, so the class is closed under the set operations the compiler
    performs. Raises [Inexact_negation] otherwise. *)
let negate t =
  match simplify t with
  | None -> [ true_ ] (* ¬false = true *)
  | Some t ->
      let exs = Var.Set.filter Var.is_ex (vars t) in
      (* window_of α: (k, l, u, constraints consumed) with l <= k·α <= u *)
      let window_of a =
        let occs = List.filter (Constr.mem a) t.cs in
        let no_other_ex lin =
          Var.Set.for_all
            (fun v -> (not (Var.is_ex v)) || Var.equal v a)
            (Lin.vars lin)
        in
        match occs with
        | [ c ] when Constr.kind c = Constr.Eq ->
            let ka = Lin.coeff (Constr.lin c) a in
            let rest = Lin.drop a (Constr.lin c) in
            if not (no_other_ex rest) then raise Inexact_negation;
            (* ka·α + rest = 0  ⇔  |ka|·α = −sign(ka)·rest *)
            let r = Lin.scale (if ka > 0 then -1 else 1) rest in
            (abs ka, r, r, occs)
        | [ c1; c2 ] when Constr.kind c1 = Constr.Geq && Constr.kind c2 = Constr.Geq ->
            let k1 = Constr.coeff c1 a and k2 = Constr.coeff c2 a in
            if k1 + k2 <> 0 then raise Inexact_negation;
            let clo, chi = if k1 > 0 then (c1, c2) else (c2, c1) in
            let l = Lin.neg (Lin.drop a (Constr.lin clo)) in
            let u = Lin.drop a (Constr.lin chi) in
            if not (no_other_ex l && no_other_ex u) then raise Inexact_negation;
            (abs k1, l, u, occs)
        | _ -> raise Inexact_negation
      in
      let windows = List.map window_of (Var.Set.elements exs) in
      let consumed = List.concat_map (fun (_, _, _, cs) -> cs) windows in
      let plain = List.filter (fun c -> not (List.memq c consumed)) t.cs in
      let neg_plain =
        List.concat_map
          (fun c -> List.map (fun nc -> make ~n_ex:0 [ nc ]) (Constr.negate c))
          plain
      in
      let neg_windows =
        List.map
          (fun (k, l, u, _) ->
            (* ¬(∃α: l <= k·α <= u) = ∃β: u − k + 1 <= k·β <= l − 1 *)
            let beta = Var.Ex 0 in
            let kb = Lin.var ~coef:k beta in
            make ~n_ex:1
              [
                Constr.geq (Lin.sub kb (Lin.add_const (-k + 1) u));
                Constr.geq (Lin.sub (Lin.add_const (-1) l) kb);
              ])
          windows
      in
      neg_plain @ neg_windows

(** [implies t c]: does [t] entail the single constraint [c]?
    [c] must not mention existential variables of [t]. *)
let implies t c =
  List.for_all (fun nc -> is_empty (meet t nc)) (negate (make ~n_ex:0 [ c ]))

let constr_has_ex c = Lin.exists_var Var.is_ex (Constr.lin c)

(** [gist t ~given]: drop constraints of [t] entailed by [given] plus the
    remaining constraints of [t]. Constraints mentioning existentials of [t]
    are always kept (dropping them safely would require scoped negation). *)
let gist t ~given =
  let rec go kept = function
    | [] -> with_cs t (List.rev kept)
    | c :: rest ->
        if constr_has_ex c then go (c :: kept) rest
        else
          let ctx = with_cs t (List.rev_append kept rest) in
          if implies (meet ctx given) c then go kept rest else go (c :: kept) rest
  in
  go [] t.cs

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)
(* ------------------------------------------------------------------ *)

let pp ?pp_var fmt t =
  if t.cs = [] then Fmt.string fmt "TRUE"
  else Fmt.(list ~sep:(any " && ") (Constr.pp ?pp_var)) fmt t.cs

let to_string t = Fmt.str "%a" (pp ?pp_var:None) t
