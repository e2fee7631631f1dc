(** Atomic constraints over linear terms: [t = 0] or [t >= 0]. *)

type kind = Eq | Geq

type t = { kind : kind; lin : Lin.t }

let eq lin = { kind = Eq; lin }
let geq lin = { kind = Geq; lin }

(** [a <= b] as a constraint: b - a >= 0. *)
let le a b = geq (Lin.sub b a)

(** [a = b]. *)
let equal_terms a b = eq (Lin.sub a b)

let kind c = c.kind
let lin c = c.lin

let compare a b =
  if a == b then 0
  else
    match (a.kind, b.kind) with
    | Eq, Geq -> -1
    | Geq, Eq -> 1
    | _ -> Lin.compare a.lin b.lin

let equal a b = a == b || (a.kind = b.kind && Lin.equal a.lin b.lin)

(* O(1): the term stores its hash *)
let hash c = (Lin.hash c.lin * 2) + (match c.kind with Eq -> 0 | Geq -> 1)

module Tbl = Cache.Intern (struct
  type nonrec t = t
  let equal = equal
  let hash = hash
end) ()

let () = Tbl.register_gauge "interned constraints"

(* A new representative gets its term interned, so the representatives
   the memo tables keep alive store each constraint and term once: that
   memory is what this table and the term table are worth (EXPERIMENTS,
   "What the kept tables are worth"), not pointer-equality fast paths.
   A lookup that hits interns nothing else. *)
let intern_pair c = Tbl.intern_with c (fun c -> { c with lin = Lin.intern c.lin })
let intern c = fst (intern_pair c)
let id c = snd (intern_pair c)

(* canonical byte codec: one kind character, then the term *)
let wire_put b c =
  Wire.char b (match c.kind with Eq -> '=' | Geq -> '>');
  Lin.wire_put b c.lin

let wire_read cur =
  let kind =
    match Wire.read_char cur with
    | '=' -> Eq
    | '>' -> Geq
    | _ -> raise Wire.Malformed
  in
  { kind; lin = Lin.wire_read cur }

let mem v c = Lin.mem v c.lin
let coeff c v = Lin.coeff c.lin v

type norm = Tauto | Contra | Ok of t

(** Canonicalize: divide by the gcd of variable coefficients; for [Geq] the
    constant is floored (integer tightening), for [Eq] non-divisibility means
    the constraint (hence the conjunct) is unsatisfiable. Equalities are
    sign-normalized so the leading coefficient is positive. A constraint
    that is canonical already is returned as it is. *)
let normalize c =
  (* the coefficients divided by [g], which divides them all; constant [k] *)
  let divide g k lin =
    Lin.of_coeffs (Var.Map.map (fun a -> a / g) lin.Lin.coeffs) k
  in
  let lin = c.lin in
  if Lin.is_const lin then
    let k = Lin.constant lin in
    match c.kind with
    | Eq -> if k = 0 then Tauto else Contra
    | Geq -> if k >= 0 then Tauto else Contra
  else
    let g = Lin.coeff_gcd lin in
    let k = Lin.constant lin in
    match c.kind with
    | Geq ->
        if g = 1 then Ok c
        else Ok (geq (divide g (Lin.fdiv k g) lin))
    | Eq ->
        if k mod g <> 0 then Contra
        else
          let lin = if g = 1 then lin else divide g (k / g) lin in
          (* make the smallest variable's coefficient positive *)
          let _, c0 = Var.Map.min_binding lin.Lin.coeffs in
          if c0 < 0 then Ok (eq (Lin.neg lin))
          else if g = 1 then Ok c
          else Ok (eq lin)

let subst v rhs c =
  let lin = Lin.subst v rhs c.lin in
  if lin == c.lin then c else { c with lin }

let map_lin f c = { c with lin = f c.lin }

(** Negation of a single constraint, as a disjunction of constraints.
    [not (t >= 0)] is [-t - 1 >= 0]; [not (t = 0)] is [t - 1 >= 0 \/ -t - 1 >= 0]. *)
let negate c =
  match c.kind with
  | Geq -> [ geq (Lin.add_const (-1) (Lin.neg c.lin)) ]
  | Eq ->
      [ geq (Lin.add_const (-1) c.lin); geq (Lin.add_const (-1) (Lin.neg c.lin)) ]

let pp ?pp_var fmt c =
  match c.kind with
  | Eq -> Fmt.pf fmt "%a = 0" (Lin.pp ?pp_var) c.lin
  | Geq -> Fmt.pf fmt "%a >= 0" (Lin.pp ?pp_var) c.lin

let to_string c = Fmt.str "%a" (pp ?pp_var:None) c
