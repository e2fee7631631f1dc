(* Random bounded sets over two variables, shared by the property suites:
   ground constraints that can be evaluated directly, and their sets,
   bounded inside a box so that every set is finite. *)

open Iset

let box_lo = -6
let box_hi = 6

(* A "ground" constraint we can evaluate directly. *)
type gc =
  | Ge of int * int * int (* a*x + b*y + c >= 0 *)
  | Equ of int * int * int (* a*x + b*y + c = 0 *)
  | Stride of int * int * int * int (* a*x + b*y + c ≡ 0 (mod k) *)

let eval_gc (x, y) = function
  | Ge (a, b, c) -> (a * x) + (b * y) + c >= 0
  | Equ (a, b, c) -> (a * x) + (b * y) + c = 0
  | Stride (a, b, c, k) -> Lin.pmod ((a * x) + (b * y) + c) k = 0

let conj_of_gcs ?(bound_y = true) gcs =
  let lin a b c = Lin.of_list [ (a, Var.In 0); (b, Var.In 1) ] c in
  let n_ex = ref 0 in
  let cs =
    List.map
      (function
        | Ge (a, b, c) -> Constr.geq (lin a b c)
        | Equ (a, b, c) -> Constr.eq (lin a b c)
        | Stride (a, b, c, k) ->
            let e = Var.Ex !n_ex in
            incr n_ex;
            Constr.eq (Lin.add (lin a b c) (Lin.var ~coef:k e)))
      gcs
  in
  (* bound both variables inside the box so every set is finite; with
     [~bound_y:false] only the constraints drawn may bound y *)
  let bounds =
    [
      Constr.geq (Lin.of_list [ (1, Var.In 0) ] (-box_lo));
      Constr.geq (Lin.of_list [ (-1, Var.In 0) ] box_hi);
    ]
    @
    if bound_y then
      [
        Constr.geq (Lin.of_list [ (1, Var.In 1) ] (-box_lo));
        Constr.geq (Lin.of_list [ (-1, Var.In 1) ] box_hi);
      ]
    else []
  in
  Conj.make ~n_ex:!n_ex (cs @ bounds)

let gen_gc =
  QCheck.Gen.(
    let coef = int_range (-3) 3 in
    let cst = int_range (-8) 8 in
    frequency
      [
        (6, map3 (fun a b c -> Ge (a, b, c)) coef coef cst);
        (1, map3 (fun a b c -> Equ (a, b, c)) coef coef cst);
        ( 2,
          map3 (fun a b (c, k) -> Stride (a, b, c, k)) coef coef
            (pair cst (int_range 2 4)) );
      ])

let gen_gcs = QCheck.Gen.(list_size (int_range 0 3) gen_gc)

(* a set = 1..2 disjuncts, each a list of ground constraints *)
let gen_gset = QCheck.Gen.(list_size (int_range 1 2) gen_gcs)

let set_of_gset ?bound_y gset =
  Rel.set ~ar:2 (List.map (conj_of_gcs ?bound_y) gset)

let eval_gset gset pt =
  List.exists (fun gcs -> List.for_all (eval_gc pt) gcs) gset

let in_box (x, y) = x >= box_lo && x <= box_hi && y >= box_lo && y <= box_hi

let arb_gset = QCheck.make ~print:(fun g -> Rel.to_string (set_of_gset g)) gen_gset
