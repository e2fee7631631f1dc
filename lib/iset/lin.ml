(** Linear (affine) integer terms: [sum_i c_i * v_i + k].

    Coefficients are native ints; the sets manipulated by the compiler stay
    far below 2^62. Zero coefficients are never stored.

    Every term carries its hash, set once by the constructor that builds
    it. The hash is linear in the term, [sum_i c_i * weight v_i + k *
    const_weight] in wrapping arithmetic, so [add], [neg], [scale],
    [add_const] and [drop] update it in O(1) and interning never folds
    over the coefficient map. *)

type t = { coeffs : int Var.Map.t; const : int; hash : int }

(* pseudo-random weight per variable, so that distinct small coefficient
   vectors get unrelated sums *)
let weight v =
  let h = (Var.hash v + 1) * 0x1e3779b97f4a7c15 in
  (h lxor (h lsr 32)) * 0x3f51afd7ed558ccd

let const_weight = 0x2545f4914f6cdd1d

let zero = { coeffs = Var.Map.empty; const = 0; hash = 0 }

let const k = { coeffs = Var.Map.empty; const = k; hash = k * const_weight }

let var ?(coef = 1) v =
  if coef = 0 then zero
  else { coeffs = Var.Map.singleton v coef; const = 0; hash = coef * weight v }

(** The term with the given coefficient map (no zero coefficients) and
    constant; the hash is computed with one fold. *)
let of_coeffs coeffs k =
  let hash =
    Var.Map.fold (fun v c acc -> acc + (c * weight v)) coeffs (k * const_weight)
  in
  { coeffs; const = k; hash }

let coeff t v = match Var.Map.find_opt v t.coeffs with Some c -> c | None -> 0

let constant t = t.const

let is_const t = Var.Map.is_empty t.coeffs

let add a b =
  let coeffs =
    Var.Map.union (fun _ x y -> if x + y = 0 then None else Some (x + y)) a.coeffs b.coeffs
  in
  { coeffs; const = a.const + b.const; hash = a.hash + b.hash }

let neg a =
  { coeffs = Var.Map.map (fun c -> -c) a.coeffs; const = -a.const; hash = -a.hash }

let sub a b = add a (neg b)

let scale k a =
  if k = 0 then zero
  else if k = 1 then a
  else
    {
      coeffs = Var.Map.map (fun c -> k * c) a.coeffs;
      const = k * a.const;
      hash = k * a.hash;
    }

let add_const k a =
  { a with const = a.const + k; hash = a.hash + (k * const_weight) }

let of_list pairs k =
  List.fold_left (fun acc (c, v) -> add acc (var ~coef:c v)) (const k) pairs

(** Remove [v]'s term entirely. *)
let drop v t =
  match Var.Map.find_opt v t.coeffs with
  | None -> t
  | Some c ->
      { t with coeffs = Var.Map.remove v t.coeffs; hash = t.hash - (c * weight v) }

(** [subst v rhs t] replaces every occurrence of [v] by the term [rhs]. *)
let subst v rhs t =
  match Var.Map.find_opt v t.coeffs with
  | None -> t
  | Some c -> add (drop v t) (scale c rhs)

let vars t = Var.Map.fold (fun v _ acc -> Var.Set.add v acc) t.coeffs Var.Set.empty

let mem v t = Var.Map.mem v t.coeffs

let fold f t acc = Var.Map.fold f t.coeffs acc

let exists_var p t = Var.Map.exists (fun v _ -> p v) t.coeffs

(* renamed variables that meet add their coefficients, and a zero sum
   drops the variable; the hash is linear, so it sums per binding *)
let map_vars f t =
  let hash = ref (t.const * const_weight) in
  let coeffs =
    Var.Map.fold
      (fun v c m ->
        let v = f v in
        hash := !hash + (c * weight v);
        Var.Map.update v
          (function
            | None -> Some c
            | Some c0 -> if c0 + c = 0 then None else Some (c0 + c))
          m)
      t.coeffs Var.Map.empty
  in
  { coeffs; const = t.const; hash = !hash }

let rec gcd a b = if b = 0 then abs a else gcd b (a mod b)

(** Gcd of all variable coefficients (0 if constant). *)
let coeff_gcd t = Var.Map.fold (fun _ c g -> gcd c g) t.coeffs 0

let compare a b =
  if a == b then 0
  else
    let c = Var.Map.compare Int.compare a.coeffs b.coeffs in
    if c <> 0 then c else Int.compare a.const b.const

(* unequal hashes reject before the map walk *)
let equal a b =
  a == b
  || a.hash = b.hash
     && a.const = b.const
     && Var.Map.equal Int.equal a.coeffs b.coeffs

let hash t = t.hash land max_int

(* the constant's share taken out of the linear hash, unmasked so that
   negating the coefficients negates it *)
let coeffs_hash t = t.hash - (t.const * const_weight)

let equal_coeffs a b =
  coeffs_hash a = coeffs_hash b && Var.Map.equal Int.equal a.coeffs b.coeffs

let opposite_coeffs a b =
  coeffs_hash a = -coeffs_hash b
  && Var.Map.equal (fun x y -> x = -y) a.coeffs b.coeffs

module Tbl = Cache.Intern (struct
  type nonrec t = t
  let equal = equal
  let hash = hash
end) ()

let () = Tbl.register_gauge "interned terms"
let intern t = fst (Tbl.intern t)
let id t = snd (Tbl.intern t)

(* canonical byte codec: coefficient pairs in Var.Map key order (zero
   coefficients are never stored, so structural equality is byte
   equality), then the constant *)
let wire_put b t =
  Wire.list
    (fun b (v, c) ->
      Var.wire_put b v;
      Wire.int b c)
    b (Var.Map.bindings t.coeffs);
  Wire.int b t.const

let wire_read c =
  let pairs =
    Wire.read_list
      (fun c ->
        let v = Var.wire_read c in
        let k = Wire.read_int c in
        (v, k))
      c
  in
  let coeffs =
    List.fold_left (fun m (v, k) -> Var.Map.add v k m) Var.Map.empty pairs
  in
  of_coeffs coeffs (Wire.read_int c)

(* Euclidean division helpers: floor and ceil for possibly-negative
   numerators, positive denominators. *)
let fdiv a b =
  assert (b > 0);
  if a >= 0 then a / b else -(((-a) + b - 1) / b)

let cdiv a b =
  assert (b > 0);
  if a >= 0 then (a + b - 1) / b else -((-a) / b)

(* Positive remainder in [0, b). *)
let pmod a b =
  assert (b > 0);
  let r = a mod b in
  if r < 0 then r + b else r

(* Symmetric remainder in (-b/2, b/2] used by Omega's equality reduction:
   a mod' b = a - b * floor(a/b + 1/2). *)
let smod a b =
  assert (b > 0);
  let r = pmod a b in
  if 2 * r > b then r - b else r

let eval env t =
  Var.Map.fold (fun v c acc -> acc + (c * env v)) t.coeffs t.const

let pp ?(pp_var = Var.pp) fmt t =
  let terms = Var.Map.bindings t.coeffs in
  let pp_term first fmt (v, c) =
    if c = 1 then Fmt.pf fmt (if first then "%a" else "+%a") pp_var v
    else if c = -1 then Fmt.pf fmt "-%a" pp_var v
    else if c >= 0 then Fmt.pf fmt (if first then "%d%a" else "+%d%a") c pp_var v
    else Fmt.pf fmt "%d%a" c pp_var v
  in
  match terms with
  | [] -> Fmt.int fmt t.const
  | (v0, c0) :: rest ->
      pp_term true fmt (v0, c0);
      List.iter (fun vc -> pp_term false fmt vc) rest;
      if t.const > 0 then Fmt.pf fmt "+%d" t.const
      else if t.const < 0 then Fmt.pf fmt "%d" t.const

let to_string t = Fmt.str "%a" (pp ?pp_var:None) t
