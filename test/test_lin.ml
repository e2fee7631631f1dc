(* Unit tests for linear terms and atomic constraints. *)

open Iset

let i = Var.In 0
let j = Var.In 1
let n = Var.Param "n"

let check_lin msg expected lin = Alcotest.(check string) msg expected (Lin.to_string lin)

let test_build () =
  check_lin "zero" "0" Lin.zero;
  check_lin "const" "7" (Lin.const 7);
  check_lin "var" "$in0" (Lin.var i);
  check_lin "combo" "2$in0-3$in1+5" (Lin.of_list [ (2, i); (-3, j) ] 5);
  check_lin "cancel" "0" (Lin.add (Lin.var i) (Lin.var ~coef:(-1) i))

let test_arith () =
  let t = Lin.of_list [ (2, i); (1, n) ] 3 in
  Alcotest.(check int) "coeff i" 2 (Lin.coeff t i);
  Alcotest.(check int) "coeff j" 0 (Lin.coeff t j);
  Alcotest.(check int) "const" 3 (Lin.constant t);
  let s = Lin.scale 3 t in
  Alcotest.(check int) "scaled coeff" 6 (Lin.coeff s i);
  Alcotest.(check int) "scaled const" 9 (Lin.constant s);
  let d = Lin.sub t t in
  Alcotest.(check bool) "t - t = 0" true (Lin.is_const d && Lin.constant d = 0)

let test_subst () =
  (* substitute i := 2j + 1 in 3i + n *)
  let t = Lin.of_list [ (3, i); (1, n) ] 0 in
  let t' = Lin.subst i (Lin.of_list [ (2, j) ] 1) t in
  Alcotest.(check int) "coeff j" 6 (Lin.coeff t' j);
  Alcotest.(check int) "coeff i" 0 (Lin.coeff t' i);
  Alcotest.(check int) "const" 3 (Lin.constant t')

let test_division () =
  Alcotest.(check int) "fdiv 7 2" 3 (Lin.fdiv 7 2);
  Alcotest.(check int) "fdiv -7 2" (-4) (Lin.fdiv (-7) 2);
  Alcotest.(check int) "cdiv 7 2" 4 (Lin.cdiv 7 2);
  Alcotest.(check int) "cdiv -7 2" (-3) (Lin.cdiv (-7) 2);
  Alcotest.(check int) "pmod -7 3" 2 (Lin.pmod (-7) 3);
  Alcotest.(check int) "smod 5 3" (-1) (Lin.smod 5 3);
  Alcotest.(check int) "smod 4 3" 1 (Lin.smod 4 3);
  (* |a_k| = m - 1 gives smod = -sign for m >= 3 *)
  Alcotest.(check int) "smod 2 3" (-1) (Lin.smod 2 3);
  Alcotest.(check int) "smod -2 3" 1 (Lin.smod (-2) 3)

let test_eval () =
  let t = Lin.of_list [ (2, i); (-1, j); (3, n) ] 4 in
  let env = function
    | v when Var.equal v i -> 5
    | v when Var.equal v j -> 2
    | v when Var.equal v n -> 10
    | _ -> 0
  in
  Alcotest.(check int) "eval" (10 - 2 + 30 + 4) (Lin.eval env t)

let test_normalize () =
  (* 2i + 4 >= 0 normalizes to i + 2 >= 0 *)
  let c = Constr.geq (Lin.of_list [ (2, i) ] 4) in
  (match Constr.normalize c with
  | Constr.Ok c' ->
      Alcotest.(check int) "coeff" 1 (Constr.coeff c' i);
      Alcotest.(check int) "const" 2 (Lin.constant (Constr.lin c'))
  | _ -> Alcotest.fail "expected Ok");
  (* 2i + 3 >= 0 tightens to i + 1 >= 0 (i >= -3/2 means i >= -1) *)
  let c = Constr.geq (Lin.of_list [ (2, i) ] 3) in
  (match Constr.normalize c with
  | Constr.Ok c' -> Alcotest.(check int) "tightened const" 1 (Lin.constant (Constr.lin c'))
  | _ -> Alcotest.fail "expected Ok");
  (* 2i + 3 = 0 has no integer solution *)
  let c = Constr.eq (Lin.of_list [ (2, i) ] 3) in
  (match Constr.normalize c with
  | Constr.Contra -> ()
  | _ -> Alcotest.fail "expected Contra");
  (* 0 >= -1 is a tautology; 0 >= 1 a contradiction *)
  (match Constr.normalize (Constr.geq (Lin.const 1)) with
  | Constr.Tauto -> ()
  | _ -> Alcotest.fail "expected Tauto");
  match Constr.normalize (Constr.geq (Lin.const (-1))) with
  | Constr.Contra -> ()
  | _ -> Alcotest.fail "expected Contra"

let test_negate () =
  (* not (i >= 0)  =  -i - 1 >= 0 *)
  let c = Constr.geq (Lin.var i) in
  (match Constr.negate c with
  | [ c' ] ->
      Alcotest.(check int) "coeff" (-1) (Constr.coeff c' i);
      Alcotest.(check int) "const" (-1) (Lin.constant (Constr.lin c'))
  | _ -> Alcotest.fail "expected one disjunct");
  (* not (i = 0) = i >= 1 or -i >= 1 *)
  match Constr.negate (Constr.eq (Lin.var i)) with
  | [ _; _ ] -> ()
  | _ -> Alcotest.fail "expected two disjuncts"

(* [map_vars] against the fold of [add] it replaced, on random terms and
   renamings into a smaller set of variables, so that renamed variables
   meet and their coefficients merge or cancel *)
let prop_map_vars =
  let vars = [| i; j; Var.In 2; n; Var.Param "m"; Var.Ex 0 |] in
  let gen =
    QCheck.Gen.(
      triple
        (list_size (int_range 0 6) (pair (int_range (-2) 2) (int_bound 5)))
        (int_range (-5) 5)
        (array_repeat 6 (int_bound 2)))
  in
  let print (pairs, k, target) =
    Printf.sprintf "%s under %s"
      (Lin.to_string (Lin.of_list (List.map (fun (c, v) -> (c, vars.(v))) pairs) k))
      (String.concat ", "
         (Array.to_list
            (Array.mapi
               (fun v t -> Var.to_string vars.(v) ^ "->" ^ Var.to_string vars.(t))
               target)))
  in
  QCheck.Test.make ~count:500 ~name:"map_vars equals the fold of add"
    (QCheck.make ~print gen)
    (fun (pairs, k, target) ->
      let t = Lin.of_list (List.map (fun (c, v) -> (c, vars.(v))) pairs) k in
      let f v =
        let rec index x = if Var.equal vars.(x) v then x else index (x + 1) in
        vars.(target.(index 0))
      in
      let got = Lin.map_vars f t in
      let want =
        Lin.fold
          (fun v c acc -> Lin.add acc (Lin.var ~coef:c (f v)))
          t (Lin.const k)
      in
      Var.Map.equal Int.equal got.coeffs want.coeffs
      && Lin.constant got = Lin.constant want
      && Lin.hash got = Lin.hash want
      && Lin.hash got = Lin.hash (Lin.of_coeffs got.coeffs k))

let () =
  Alcotest.run "lin"
    [
      ( "lin",
        [
          Alcotest.test_case "build" `Quick test_build;
          Alcotest.test_case "arith" `Quick test_arith;
          Alcotest.test_case "subst" `Quick test_subst;
          Alcotest.test_case "division" `Quick test_division;
          Alcotest.test_case "eval" `Quick test_eval;
          QCheck_alcotest.to_alcotest prop_map_vars;
        ] );
      ( "constr",
        [
          Alcotest.test_case "normalize" `Quick test_normalize;
          Alcotest.test_case "negate" `Quick test_negate;
        ] );
    ]
