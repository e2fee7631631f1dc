(* The reference simplifier: [Conj.simplify_raw], [tighten] and
   [Constr.normalize] as the library ran them before the lean miss path
   (with the pieces of [Conj] they call), kept so that a property can
   check that the library's simplification returns structurally the same
   conjunct: the same existential count and the same constraint list, in
   the same order. Nothing here is tuned.

   One change from the old code: [tighten]'s [dropped] set was a
   polymorphic [Hashtbl] over coefficient maps, which finds a map only
   when both have the same balanced-tree shape. An opposite pair whose
   maps were built in different orders then gave two equalities instead
   of one, and the result depended on how the input was built, not only
   on what it is (the "simplify is a function of structure" test in
   [test_conj]). [Dropped] below compares maps structurally. *)

open Iset

type t = { n_ex : int; cs : Constr.t list }

module Constr = struct
  include Constr

  (** Canonicalize: divide by the gcd of variable coefficients; for [Geq] the
      constant is floored (integer tightening), for [Eq] non-divisibility means
      the constraint (hence the conjunct) is unsatisfiable. Equalities are
      sign-normalized so the leading coefficient is positive. *)
  let normalize c =
    if Lin.is_const c.lin then
      let k = Lin.constant c.lin in
      match c.kind with
      | Eq -> if k = 0 then Tauto else Contra
      | Geq -> if k >= 0 then Tauto else Contra
    else
      let g = Lin.coeff_gcd c.lin in
      let lin =
        if g <= 1 then c.lin
        else
          match c.kind with
          | Geq ->
              let scaled =
                Lin.fold (fun v cf acc -> Lin.add acc (Lin.var ~coef:(cf / g) v)) c.lin Lin.zero
              in
              Lin.add_const (Lin.fdiv (Lin.constant c.lin) g) scaled
          | Eq ->
              if Lin.constant c.lin mod g <> 0 then Lin.const 1 (* marker: unsat *)
              else
                let scaled =
                  Lin.fold (fun v cf acc -> Lin.add acc (Lin.var ~coef:(cf / g) v)) c.lin Lin.zero
                in
                Lin.add_const (Lin.constant c.lin / g) scaled
      in
      if c.kind = Eq && Lin.is_const lin then Contra
      else
        let lin =
          if c.kind = Eq then
            (* make the smallest variable's coefficient positive for canonical form *)
            match Var.Map.min_binding_opt lin.Lin.coeffs with
            | Some (_, cf) when cf < 0 -> Lin.neg lin
            | _ -> lin
          else lin
        in
        Ok { c with lin }
end

let fresh_ex t = ({ t with n_ex = t.n_ex + 1 }, Var.Ex t.n_ex)

(** All variables occurring in the conjunct. *)
let vars t =
  List.fold_left
    (fun acc c -> Var.Set.union acc (Lin.vars (Constr.lin c)))
    Var.Set.empty t.cs

let mem_var v t = List.exists (Constr.mem v) t.cs

(** Renumber existentials densely and drop unused ids. *)
let compact_ex t =
  let used =
    Var.Set.filter Var.is_ex (vars t) |> Var.Set.elements
    |> List.map (function Var.Ex i -> i | _ -> assert false)
    |> List.sort Int.compare
  in
  let tbl = Hashtbl.create 8 in
  List.iteri (fun fresh old -> Hashtbl.replace tbl old fresh) used;
  let f = function
    | Var.Ex i -> Var.Ex (Hashtbl.find tbl i)
    | v -> v
  in
  { n_ex = List.length used; cs = List.map (Constr.map_lin (Lin.map_vars f)) t.cs }

exception Unsat

let normalize_list cs =
  let keep =
    List.filter_map
      (fun c ->
        match Constr.normalize c with
        | Constr.Tauto -> None
        | Constr.Contra -> raise Unsat
        | Constr.Ok c -> Some c)
      cs
  in
  List.sort_uniq Constr.compare keep

(* Group inequalities by their coefficient vector; for identical coefficient
   vectors keep the tightest constant; detect opposite pairs that contradict
   or force an equality. *)
module Dropped = Hashtbl.Make (struct
  type t = int Var.Map.t
  let equal = Var.Map.equal Int.equal
  let hash m = Var.Map.fold (fun v c h -> (h * 31) + (Var.hash v * c)) m 0
end)

module LinKey = Map.Make (struct
  type t = int Var.Map.t
  let compare = Var.Map.compare Int.compare
end)

let tighten cs =
  let eqs, geqs = List.partition (fun c -> Constr.kind c = Constr.Eq) cs in
  (* tightest constant per coefficient vector *)
  let best =
    List.fold_left
      (fun m c ->
        let lin = Constr.lin c in
        let key = lin.Lin.coeffs in
        let k = Lin.constant lin in
        LinKey.update key
          (function None -> Some k | Some k' -> Some (min k k'))
          m)
      LinKey.empty geqs
  in
  (* opposite pairs *)
  let extra_eqs = ref [] in
  let dropped = Dropped.create 8 in
  LinKey.iter
    (fun key k ->
      let nkey = Var.Map.map (fun c -> -c) key in
      match LinKey.find_opt nkey best with
      | Some k' when not (Var.Map.is_empty key) ->
          (* key·x + k >= 0 and -key·x + k' >= 0, i.e. -k <= key·x <= k' *)
          if -k > k' then raise Unsat
          else if -k = k' then begin
            if not (Dropped.mem dropped nkey) then begin
              Dropped.replace dropped key ();
              extra_eqs :=
                Constr.eq (Lin.of_coeffs key k) :: !extra_eqs
            end
          end
      | _ -> ())
    best;
  let geqs =
    LinKey.fold
      (fun key k acc ->
        if Dropped.mem dropped key || Dropped.mem dropped (Var.Map.map (fun c -> -c) key)
        then acc
        else Constr.geq (Lin.of_coeffs key k) :: acc)
      best []
  in
  eqs @ !extra_eqs @ geqs

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
  List.fold_left
    (fun acc c ->
      let a = Constr.coeff c v in
      if a = 0 then { acc with others = c :: acc.others }
      else
        match Constr.kind c with
        | Constr.Eq -> { acc with eqs_with_v = c :: acc.eqs_with_v }
        | Constr.Geq ->
            let rest = Lin.drop v (Constr.lin c) in
            if a > 0 then
              (* a·v + rest >= 0  =>  a·v >= -rest *)
              { acc with lowers = (a, Lin.neg rest) :: acc.lowers }
            else
              (* a·v + rest >= 0 with a < 0  =>  |a|·v <= rest *)
              { acc with uppers = (-a, rest) :: acc.uppers })
    { lowers = []; uppers = []; others = []; eqs_with_v = [] }
    t.cs

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
  if b.lowers = [] || b.uppers = [] then Exact { t with cs = b.others }
  else
    let exact =
      List.for_all
        (fun (a, _) -> List.for_all (fun (bb, _) -> a = 1 || bb = 1) b.uppers)
        b.lowers
    in
    let combine pairf =
      List.concat_map (fun lo -> List.map (fun up -> pairf lo up) b.uppers) b.lowers
    in
    if exact then Exact { t with cs = combine real_shadow_pair @ b.others }
    else
      let real = { t with cs = combine real_shadow_pair @ b.others } in
      let dark = { t with cs = combine dark_shadow_pair @ b.others } in
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
  { t with cs }

(* Try to remove existential variables exactly. One pass; returns the
   conjunct and whether progress was made. *)
let eliminate_existentials t =
  let progress = ref false in
  (* [confined] prevents ping-ponging: two existentials coupled by one
     equality would otherwise take turns rewriting each other's bounds
     forever. Each variable is confined (scale_subst'ed) at most once per
     pass; the outer simplification fixpoint handles the rest. *)
  let rec go confined t =
    let exs = Var.Set.filter Var.is_ex (vars t) |> Var.Set.elements in
    (* prefer a defining equality with as few existentials as possible, so
       bounds get rewritten towards tuple variables and parameters *)
    let pick_eq eqs =
      let n_ex_of c =
        Var.Set.cardinal (Var.Set.filter Var.is_ex (Lin.vars (Constr.lin c)))
      in
      List.fold_left
        (fun best c -> if n_ex_of c < n_ex_of best then c else best)
        (List.hd eqs) (List.tl eqs)
    in
    let try_var t v =
      let b = bounds_of v t in
      match b.eqs_with_v with
      | c :: _ when abs (Constr.coeff c v) = 1 ->
          (* substitute v away; the defining equality disappears *)
          let rhs = solve_unit_eq c v in
          let cs = List.filter (fun c' -> not (c' == c)) t.cs in
          progress := true;
          Some (`Elim { t with cs = List.map (Constr.subst v rhs) cs })
      | _ :: _ as eqs ->
          let occurs_elsewhere =
            b.lowers <> [] || b.uppers <> [] || List.length eqs > 1
          in
          if occurs_elsewhere && not (Var.Set.mem v confined) then begin
            (* confine v to its defining equality; it becomes stride-like *)
            progress := true;
            let t' = scale_subst t (pick_eq eqs) v in
            let t' = { t' with cs = normalize_list t'.cs } in
            Some (`Confined (v, t'))
          end
          else
            (* v occurs only in this equality: a stride (divisibility)
               constraint on the remaining variables; keep it *)
            None
      | [] -> (
          if b.lowers = [] || b.uppers = [] then begin
            progress := true;
            Some (`Elim { t with cs = b.others })
          end
          else
            match fme v t with
            | Exact t' ->
                progress := true;
                Some (`Elim t')
            | Inexact _ -> None)
    in
    let rec loop t = function
      | [] -> t
      | v :: rest -> (
          if not (mem_var v t) then loop t rest
          else
            match try_var t v with
            | Some (`Elim t') -> go confined t'
            | Some (`Confined (v, t')) -> go (Var.Set.add v confined) t'
            | None -> loop t rest)
    in
    loop t exs
  in
  let t = go Var.Set.empty t in
  (t, !progress)

(* Substitute unit-coefficient equalities through the other constraints so
   that tuple-variable relationships propagate (the equality itself is
   kept when it defines a tuple or parameter variable). *)
let propagate_equalities t =
  let rec go processed = function
    | [] -> { t with cs = List.rev processed }
    | c :: rest when Constr.kind c = Constr.Eq -> (
        (* find a variable with unit coefficient, preferring existentials *)
        let lin = Constr.lin c in
        let candidates =
          Lin.fold (fun v a acc -> if abs a = 1 then v :: acc else acc) lin []
        in
        let pickv =
          match List.find_opt Var.is_ex candidates with
          | Some v -> Some v
          | None -> ( match candidates with v :: _ -> Some v | [] -> None)
        in
        match pickv with
        | None -> go (c :: processed) rest
        | Some v ->
            let rhs = solve_unit_eq c v in
            let processed = List.map (Constr.subst v rhs) processed in
            let rest = List.map (Constr.subst v rhs) rest in
            (* existential definitions disappear; tuple/parameter definitions
               are kept so the relation still relates its tuple variables *)
            let processed = if Var.is_ex v then processed else c :: processed in
            go processed rest)
    | c :: rest -> go (c :: processed) rest
  in
  go [] t.cs

(* Merge several existentials that occur only in one equality into a single
   one: c1·α1 + c2·α2 + ... (each αi nowhere else) spans exactly the
   multiples of gcd(c1,c2,...), so the group is replaced by g·β. This is
   what turns the composition of two cyclic layouts into a single stride. *)
let merge_eq_existentials t =
  let progress = ref false in
  let occurrences v = List.length (List.filter (Constr.mem v) t.cs) in
  let t =
    List.fold_left
      (fun t c ->
        if Constr.kind c <> Constr.Eq || not (List.memq c t.cs) then t
        else
          let lin = Constr.lin c in
          let exclusive =
            Lin.fold
              (fun v coef acc ->
                if Var.is_ex v && occurrences v = 1 then (v, coef) :: acc else acc)
              lin []
          in
          if List.length exclusive < 2 then t
          else begin
            progress := true;
            let g = List.fold_left (fun g (_, c) -> Lin.gcd g c) 0 exclusive in
            let t', beta = fresh_ex t in
            let lin' =
              List.fold_left (fun l (v, _) -> Lin.drop v l) lin exclusive
            in
            let lin' = Lin.add lin' (Lin.var ~coef:g beta) in
            let cs =
              List.map (fun c' -> if c' == c then Constr.eq lin' else c') t'.cs
            in
            { t' with cs }
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
  let occurrences v = List.length (List.filter (Constr.mem v) t.cs) in
  let cs =
    List.map
      (fun c ->
        if Constr.kind c <> Constr.Eq then c
        else
          let lin = Constr.lin c in
          match
            Lin.fold
              (fun v coef acc ->
                if acc = None && Var.is_ex v && occurrences v = 1 then Some (v, coef)
                else acc)
              lin None
          with
          | None -> c
          | Some (alpha, coef) ->
              let m = abs coef in
              if m <= 1 then c
              else
                let lin' =
                  Lin.fold
                    (fun v r acc ->
                      if Var.equal v alpha then Lin.add acc (Lin.var ~coef:r v)
                      else begin
                        let r' = Lin.smod r m in
                        if r' <> r then progress := true;
                        Lin.add acc (Lin.var ~coef:r' v)
                      end)
                    lin
                    (let k = Lin.constant lin in
                     let k' = Lin.smod k m in
                     if k' <> k then progress := true;
                     Lin.const k')
                in
                Constr.eq lin')
      t.cs
  in
  ({ t with cs }, !progress)

let simplify_raw t =
  try
    let rec fix t n =
      if n > 12 then Some t
      else
        let cs = normalize_list t.cs in
        let cs = tighten cs in
        let t = { t with cs } in
        let t = propagate_equalities t in
        let t, progress = eliminate_existentials t in
        let t, progress2 = merge_eq_existentials t in
        let t, progress3 = reduce_stride_coeffs t in
        let cs' = normalize_list t.cs in
        let t = { t with cs = cs' } in
        if progress || progress2 || progress3 then fix t (n + 1)
        else Some (compact_ex t)
    in
    fix t 0
  with Unsat -> None

let simplify c =
  simplify_raw { n_ex = Conj.n_ex c; cs = Conj.constraints c }
  |> Option.map (fun r -> Conj.make ~n_ex:r.n_ex r.cs)
