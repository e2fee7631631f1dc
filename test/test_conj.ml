(* Unit tests for conjunct simplification and the Omega satisfiability
   test, exercised through the Parse front door where convenient. *)

open Iset

let set = Parse.set

let sat_of s =
  match Rel.conjuncts (set s) with
  | [ c ] -> Conj.sat c
  | [] -> false
  | cs -> List.exists Conj.sat cs

let check_sat msg expected s = Alcotest.(check bool) msg expected (sat_of s)

let test_basic_sat () =
  check_sat "box" true "{[i] : 1 <= i <= 10}";
  check_sat "empty box" false "{[i] : 10 <= i <= 1}";
  check_sat "point" true "{[i,j] : i = 3 && j = i + 1}";
  check_sat "conflict" false "{[i] : i = 3 && i = 4}";
  check_sat "open" true "{[i] : i >= 5}";
  check_sat "two vars" true "{[i,j] : i <= j && j <= i}";
  check_sat "strict chain" false "{[i,j] : i < j && j < i}"

let test_stride_sat () =
  check_sat "even in range" true "{[i] : exists(a : i = 2a) && 3 <= i <= 4}";
  check_sat "even, empty range" false "{[i] : exists(a : i = 2a) && 3 <= i <= 3}";
  check_sat "mult of 6 via 2 and 3" true
    "{[i] : exists(a : i = 2a) && exists(b : i = 3b) && 1 <= i <= 6}";
  check_sat "mult of 6, short range" false
    "{[i] : exists(a : i = 2a) && exists(b : i = 3b) && 1 <= i <= 5}"

(* Classic cases needing the dark shadow / splinters: coefficients > 1 on
   both sides of an eliminated variable. *)
let test_omega_hard () =
  (* exists a : 3a in [x, x+1] for x=1: 3a in {1,2}: unsat; x=2: 3a=3 sat *)
  check_sat "3a between 2 and 3" true "{[i] : exists(a : 2 <= 3a <= 3) && i = 0}";
  check_sat "3a between 4 and 5" false "{[i] : exists(a : 4 <= 3a <= 5) && i = 0}";
  (* 2a in [2x+1, 2x+1]: odd number, never *)
  check_sat "2a = odd" false "{[x] : exists(a : 2a = 2x + 1) && 0 <= x <= 100}";
  (* Pugh's example shape: exists y: 27 <= 11y <= 30 -> no *)
  check_sat "11y in [27,30]" false "{[i] : exists(y : 27 <= 11y <= 30) && i = 0}";
  (* 11y in [22,30] -> y = 2 *)
  check_sat "11y in [22,30]" true "{[i] : exists(y : 22 <= 11y <= 30) && i = 0}";
  (* coupled: exists a,b: 5 <= 3a + 2b <= 5 with 0<=a,b<=1 -> a=1,b=1 *)
  check_sat "coupled" true
    "{[i] : exists(a,b : 3a + 2b = 5 && 0 <= a <= 1 && 0 <= b <= 1) && i = 0}";
  check_sat "coupled unsat" false
    "{[i] : exists(a,b : 3a + 2b = 4 && 0 <= a <= 1 && 0 <= b <= 1 && a <= b) && i = 0}";
  (* Pugh's example: a real shadow and no integer point; one step wider,
     the point (2, 1) *)
  check_sat "27 <= 11x + 13y <= 45, -10 <= 7x - 9y <= 4" false
    "{[x,y] : 27 <= 11x + 13y <= 45 && -10 <= 7x - 9y <= 4}";
  check_sat "27 <= 11x + 13y <= 45, -10 <= 7x - 9y <= 5" true
    "{[x,y] : 27 <= 11x + 13y <= 45 && -10 <= 7x - 9y <= 5}"

(* the Omega elimination counters: over the omega-hard cases (Pugh's
   among them) dark shadows and splinters are tested, a box needs
   neither *)
let test_omega_steps () =
  let steps () = Stats.(count dark_shadows, count splinters) in
  (* answered afresh, not from the memo tables *)
  Cache.clear_all ();
  let d0, s0 = steps () in
  test_omega_hard ();
  let d1, s1 = steps () in
  Alcotest.(check bool) "dark shadows counted" true (d1 > d0);
  Alcotest.(check bool) "splinters counted" true (s1 > s0);
  check_sat "box" true "{[i,j] : 3 <= i <= 17 && -4 <= j <= 9}";
  Alcotest.(check (pair int int)) "a box adds neither" (d1, s1) (steps ())

let test_equality_reduction () =
  (* all-coefficients-greater-than-1 equalities exercise the modulus trick *)
  check_sat "7x + 12y = 22 solvable" true "{[i] : exists(x,y : 7x + 12y = 22) && i = 0}";
  check_sat "6x + 9y = 22 unsolvable (gcd 3)" false
    "{[i] : exists(x,y : 6x + 9y = 22) && i = 0}";
  check_sat "bounded diophantine" true
    "{[i] : exists(x,y : 7x + 12y = 22 && 0 <= x <= 10 && -10 <= y <= 10) && i = 0}";
  (* 7x + 12y = 22 with x,y >= 0 forces x = 10k+... check small window *)
  check_sat "positive diophantine empty window" false
    "{[i] : exists(x,y : 7x + 12y = 22 && 1 <= x <= 1 && 0 <= y <= 10) && i = 0}"

let test_implies () =
  let c1 =
    match Rel.conjuncts (set "{[i] : 1 <= i <= 10}") with [ c ] -> c | _ -> assert false
  in
  let ge0 = Constr.geq (Lin.var (Var.In 0)) in
  Alcotest.(check bool) "1<=i<=10 implies i>=0" true (Conj.implies c1 ge0);
  let ge5 = Constr.geq (Lin.add_const (-5) (Lin.var (Var.In 0))) in
  Alcotest.(check bool) "1<=i<=10 does not imply i>=5" false (Conj.implies c1 ge5)

let test_gist () =
  let conj_of s =
    match Rel.conjuncts (set s) with [ c ] -> c | _ -> assert false
  in
  let t = conj_of "{[i] : 1 <= i <= 10 && i >= 0}" in
  let given = conj_of "{[i] : 1 <= i}" in
  let g = Conj.gist t ~given in
  (* i >= 0 and i >= 1 both implied by given && i <= 10; only i <= 10 left *)
  Alcotest.(check int) "one constraint remains" 1 (List.length (Conj.constraints g))

let test_negate_strides () =
  (* not(even) inside 1..10 = odds: 5 points *)
  let s = Parse.set "{[i] : 1 <= i <= 10}" in
  let evens = Parse.set "{[i] : exists(a : i = 2a) && 1 <= i <= 10}" in
  let odds = Rel.diff s evens in
  let count = ref 0 in
  for x = 1 to 10 do
    if Rel.mem_set odds [ x ] then incr count
  done;
  Alcotest.(check int) "5 odds" 5 !count;
  Alcotest.(check bool) "3 is odd" true (Rel.mem_set odds [ 3 ]);
  Alcotest.(check bool) "4 is not" false (Rel.mem_set odds [ 4 ])

(* structurally equal conjuncts simplify alike however their terms were
   built: here an opposite pair whose coefficient maps have different
   tree shapes, one from each insertion order *)
let test_simplify_structural () =
  let in0 = Var.In 0 and in1 = Var.In 1 in
  let n = Var.Param "n" and a0 = Var.Ex 0 in
  let box =
    [
      Constr.geq (Lin.of_list [ (1, in1) ] (-2));
      Constr.geq (Lin.of_list [ (-1, in1) ] 8);
      Constr.geq (Lin.of_list [ (1, in0) ] (-2));
      Constr.geq (Lin.of_list [ (-1, in0) ] 8);
    ]
  in
  let orders =
    [
      [ (1, in1); (1, n); (2, a0) ];
      [ (2, a0); (1, n); (1, in1) ];
      [ (1, n); (1, in1); (2, a0) ];
    ]
  in
  let simplify p q =
    let c1 = Constr.geq (Lin.of_list p 1) in
    let neg = List.map (fun (a, v) -> (-a, v)) q in
    let c2 = Constr.geq (Lin.of_list neg (-1)) in
    Conj.simplify (Conj.make ~n_ex:1 (box @ [ c1; c2 ]))
  in
  (* the memo would answer every order from the first one's entry *)
  let was = Cache.enabled () in
  Cache.set_enabled false;
  Fun.protect ~finally:(fun () -> Cache.set_enabled was) @@ fun () ->
  let first = simplify (List.hd orders) (List.hd orders) in
  List.iter
    (fun p ->
      List.iter
        (fun q ->
          Alcotest.(check bool)
            "same simplified conjunct" true
            (Option.equal Conj.equal first (simplify p q)))
        orders)
    orders

(* Random conjuncts over In 0 .. In 3, the parameter n and up to two
   existentials, drawn in the shapes the simplifier treats specially:
   strides, existentials with coefficients above 1, opposite inequality
   pairs (tight, contradictory or loose), repeated coefficient vectors and
   coefficients with a common divisor. *)
let gen_conj =
  let open QCheck.Gen in
  let* nv = int_range 3 4 in
  let* n_ex = int_range 0 2 in
  let var =
    frequency
      ([ (4, map (fun i -> Var.In i) (int_bound (nv - 1))); (1, return (Var.Param "n")) ]
      @ if n_ex > 0 then [ (2, map (fun i -> Var.Ex i) (int_bound (n_ex - 1))) ] else [])
  in
  let term =
    let* v = var in
    let+ c =
      match v with
      | Var.Ex _ -> oneofl [ -3; -2; 2; 3 ]
      | _ -> oneofl [ -3; -2; -1; 1; 1; 2; 3 ]
    in
    (c, v)
  in
  let lin =
    let* ts = list_size (int_range 1 3) term in
    let+ k = int_range (-9) 9 in
    Lin.of_list ts k
  in
  let group =
    frequency
      ([
         (4, map (fun l -> [ Constr.geq l ]) lin);
         (1, map (fun l -> [ Constr.eq l ]) lin);
         ( 2,
           let* l = lin in
           let+ d = oneofl [ -1; 0; 0; 1; 3 ] in
           [ Constr.geq l; Constr.geq (Lin.add_const d (Lin.neg l)) ] );
         ( 2,
           let* l = lin in
           let+ d = int_range (-3) 3 in
           [ Constr.geq l; Constr.geq (Lin.add_const d l) ] );
         ( 1,
           let* l = lin in
           let* g = int_range 2 3 in
           let+ eq = bool in
           [ (if eq then Constr.eq else Constr.geq) (Lin.scale g l) ] );
       ]
      @
      if n_ex = 0 then []
      else
        [
          ( 2,
            let* l = lin in
            let* e = int_bound (n_ex - 1) in
            let+ k = int_range 2 4 in
            [ Constr.eq (Lin.add l (Lin.var ~coef:k (Var.Ex e))) ] );
        ])
  in
  let+ groups = list_size (int_range 2 6) group in
  Conj.make ~n_ex (List.concat groups)

let prop_simplify_reference =
  QCheck.Test.make ~count:2000 ~name:"simplify matches the reference"
    (QCheck.make ~print:Conj.to_string gen_conj) (fun c ->
      Option.equal Conj.equal (Conj.simplify c) (Simplifyref.simplify c))

let () =
  Alcotest.run "conj"
    [
      ( "sat",
        [
          Alcotest.test_case "basic" `Quick test_basic_sat;
          Alcotest.test_case "strides" `Quick test_stride_sat;
          Alcotest.test_case "omega-hard" `Quick test_omega_hard;
          Alcotest.test_case "equality reduction" `Quick test_equality_reduction;
          Alcotest.test_case "omega step counters" `Quick test_omega_steps;
        ] );
      ( "logic",
        [
          Alcotest.test_case "implies" `Quick test_implies;
          Alcotest.test_case "gist" `Quick test_gist;
          Alcotest.test_case "negate strides" `Quick test_negate_strides;
        ] );
      ( "simplify",
        [
          Alcotest.test_case "simplify is a function of structure" `Quick
            test_simplify_structural;
          QCheck_alcotest.to_alcotest prop_simplify_reference;
        ] );
    ]
