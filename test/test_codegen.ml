(* Tests for loop-nest code generation: the generated AST must enumerate
   exactly the tuples of each statement's set, in lexicographic order. *)

open Iset

let enumerate ?(env = fun _ -> failwith "no param") asts =
  let out = ref [] in
  Codegen.run ~env
    ~f:(fun tag binds -> out := (tag, binds) :: !out)
    asts;
  List.rev !out

let points_of names enum =
  List.map
    (fun (tag, binds) -> (tag, List.map (fun n -> List.assoc n binds) names))
    enum

(* Brute-force reference: all tuples of [set] within box, via Rel.mem. *)
let brute ?env set box =
  let k = Rel.in_arity set in
  let rec go prefix d acc =
    if d = k then if Rel.mem_set ?env set (List.rev prefix) then List.rev prefix :: acc else acc
    else
      let lo, hi = box in
      let acc = ref acc in
      for x = lo to hi do
        acc := go (x :: prefix) (d + 1) !acc
      done;
      !acc
  in
  List.rev (go [] 0 [])

let check_enum ?env ?(box = (-2, 12)) msg src =
  let set = Parse.set src in
  let names = Rel.in_names set in
  let asts = Codegen.gen ~names [ { Codegen.tag = 0; dom = set } ] in
  let got =
    points_of (Array.to_list names)
      (enumerate ?env:(Option.map (fun e s -> List.assoc s e) env) asts)
    |> List.map snd
  in
  let env = match env with Some e -> Some e | None -> None in
  let want = brute ?env set box in
  Alcotest.(check (list (list int))) msg want got

let test_box () = check_enum "1d box" "{[i] : 1 <= i <= 10}"
let test_empty () = check_enum "empty" "{[i] : 5 <= i <= 2}"

let test_2d () =
  check_enum "2d box" "{[i,j] : 1 <= i <= 4 && i <= j <= 5}"

let test_triangular () =
  check_enum "triangle" "{[i,j] : 1 <= i <= 5 && 1 <= j < i}"

let test_stride () =
  check_enum "stride 2" "{[i] : exists(a : i = 2a) && 1 <= i <= 10}";
  check_enum "stride 3 offset" "{[i] : exists(a : i = 3a + 1) && 0 <= i <= 12}"

let test_stride_2d () =
  check_enum "inner stride depends on outer"
    "{[i,j] : 1 <= i <= 4 && exists(a : j = 2a + i) && i <= j <= 8}"

let test_union () =
  check_enum "disjoint union" "{[i] : 1 <= i <= 3} union {[i] : 7 <= i <= 9}";
  check_enum "overlapping union" "{[i] : 1 <= i <= 5} union {[i] : 4 <= i <= 9}"

let test_union_2d () =
  check_enum "L-shape"
    "{[i,j] : 1 <= i <= 2 && 1 <= j <= 6} union {[i,j] : 1 <= i <= 6 && 1 <= j <= 2}"

let test_params () =
  check_enum ~env:[ ("n", 7) ] "symbolic bound" "{[i] : 1 <= i <= n}";
  check_enum ~env:[ ("n", 6); ("p", 1) ] "block slice"
    "{[i] : 3p + 1 <= i <= 3p + 3 && 1 <= i <= n}"

let test_equality_loop () =
  check_enum "pinned var" "{[i,j] : i = 3 && 1 <= j <= 4}";
  check_enum "diagonal" "{[i,j] : 1 <= i <= 5 && j = i}"

let test_multi_stmt () =
  (* two statements sharing a nest: interleaving must preserve source order
     within an iteration and lexicographic order across iterations *)
  let s1 = Parse.set "{[i] : 1 <= i <= 4}" in
  let s2 = Parse.set "{[i] : 3 <= i <= 6}" in
  let asts =
    Codegen.gen ~names:[| "i" |]
      [ { Codegen.tag = 1; dom = s1 }; { Codegen.tag = 2; dom = s2 } ]
  in
  let got = List.map (fun (tag, binds) -> (tag, List.assoc "i" binds)) (enumerate asts) in
  let want =
    [ (1, 1); (1, 2); (1, 3); (2, 3); (1, 4); (2, 4); (2, 5); (2, 6) ]
  in
  Alcotest.(check (list (pair int int))) "interleaved" want got

let test_context () =
  (* unbounded set, bounds supplied by context *)
  let s = Parse.set "{[i] : exists(a : i = 2a)}" in
  let ctx = Parse.set "{[i] : 0 <= i <= 9}" in
  let asts = Codegen.gen ~context:ctx ~names:[| "i" |] [ { Codegen.tag = 0; dom = s } ] in
  let got = List.map (fun (_, binds) -> List.assoc "i" binds) (enumerate asts) in
  Alcotest.(check (list int)) "evens via context" [ 0; 2; 4; 6; 8 ] got

(* count_points: direct coverage for empty, single-point, and negative-step
   nests (previously only exercised indirectly through Predict). *)
let env_fail _ = failwith "no param"

let afor ?(step = 1) var lo hi body =
  Codegen.AFor { var; lo; hi; step; body }

let test_count_points () =
  let open Codegen in
  let count = count_points ~env:env_fail in
  (* empty range: lo > hi with a positive step runs zero iterations *)
  Alcotest.(check int) "empty nest" 0 (count [ afor "i" (EInt 5) (EInt 2) [ ALeaf () ] ]);
  (* empty from the set level too *)
  let s = Parse.set "{[i] : 5 <= i <= 2}" in
  let asts = Codegen.gen ~names:[| "i" |] [ { Codegen.tag = (); dom = s } ] in
  Alcotest.(check int) "empty set" 0 (count asts);
  (* single point: lo = hi *)
  Alcotest.(check int) "single point" 1 (count [ afor "i" (EInt 3) (EInt 3) [ ALeaf () ] ]);
  let s1 = Parse.set "{[i,j] : i = 2 && j = 7}" in
  let asts1 = Codegen.gen ~names:[| "i"; "j" |] [ { Codegen.tag = (); dom = s1 } ] in
  Alcotest.(check int) "single-point set" 1 (count asts1);
  (* negative step: 10, 8, 6, 4, 2 — five iterations, counting down *)
  Alcotest.(check int) "negative step" 5
    (count [ afor ~step:(-2) "i" (EInt 10) (EInt 2) [ ALeaf () ] ]);
  (* negative step, empty: lo already below hi *)
  Alcotest.(check int) "negative step empty" 0
    (count [ afor ~step:(-1) "i" (EInt 0) (EInt 4) [ ALeaf () ] ]);
  (* nested, inner descending and bounded by the outer variable:
     i = 1..3, j counts down from i to 1 -> 1 + 2 + 3 points *)
  Alcotest.(check int) "nested descending" 6
    (count [ afor "i" (EInt 1) (EInt 3) [ afor ~step:(-1) "j" (EVar "i") (EInt 1) [ ALeaf () ] ] ]);
  (* run must agree with count_points on the descending nest, in order *)
  let seen = ref [] in
  Codegen.run ~env:env_fail
    ~f:(fun () binds -> seen := List.assoc "j" binds :: !seen)
    [ afor ~step:(-2) "j" (EInt 9) (EInt 4) [ ALeaf () ] ];
  Alcotest.(check (list int)) "run descending order" [ 9; 7; 5 ] (List.rev !seen);
  (* zero step is rejected, not an infinite loop *)
  Alcotest.check_raises "zero step" (Invalid_argument "Codegen.count_points: zero loop step")
    (fun () -> ignore (count [ afor ~step:0 "i" (EInt 1) (EInt 2) [ ALeaf () ] ]))

let test_intervals () =
  let open Codegen in
  let env = function
    | "n" -> itv ~lo:1 ~hi:100 ()
    | "p" -> itv ~lo:0 ~hi:3 ()
    | _ -> itv_top
  in
  let iv e = interval_of_expr env e in
  Alcotest.(check bool) "const in range" true (itv_within (iv (EInt 7)) ~lo:0 ~hi:10);
  Alcotest.(check bool) "var bounded" true (itv_within (iv (EVar "n")) ~lo:1 ~hi:100);
  Alcotest.(check bool) "unknown unbounded" false
    (itv_within (iv (EVar "mystery")) ~lo:min_int ~hi:max_int);
  Alcotest.(check bool) "sum" true
    (itv_within (iv (EAdd (EVar "n", EVar "p"))) ~lo:1 ~hi:103);
  Alcotest.(check bool) "sub flips" true
    (itv_within (iv (ESub (EVar "n", EVar "p"))) ~lo:(-2) ~hi:100);
  Alcotest.(check bool) "negative scale flips" true
    (itv_within (iv (EMul (-2, EVar "p"))) ~lo:(-6) ~hi:0);
  Alcotest.(check bool) "floordiv" true
    (itv_within (iv (EFloorDiv (EVar "n", 3))) ~lo:0 ~hi:33);
  Alcotest.(check bool) "max improves lower bound" true
    (match (iv (EMax [ EVar "mystery"; EInt 5 ])).ilo with Some l -> l >= 5 | None -> false);
  Alcotest.(check bool) "min improves upper bound" true
    (match (iv (EMin [ EVar "mystery"; EInt 5 ])).ihi with Some h -> h <= 5 | None -> false);
  (* alignup: bounded when the modulus is provably positive *)
  Alcotest.(check bool) "alignup bounded" true
    (itv_within (iv (EAlignUp (EVar "p", EInt 0, EInt 4))) ~lo:0 ~hi:6);
  Alcotest.(check bool) "alignup unknown modulus unbounded" false
    (itv_within (iv (EAlignUp (EVar "p", EInt 0, EVar "mystery"))) ~lo:min_int ~hi:max_int)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let test_pretty () =
  let s = Parse.set "{[i,j] : 1 <= i <= n && exists(a : j = 2a) && i <= j <= n}" in
  let asts = Codegen.gen ~names:(Rel.in_names s) [ { Codegen.tag = "S1"; dom = s } ] in
  let str = Codegen.ast_to_string asts in
  Alcotest.(check bool) "mentions do i" true (contains str "do i");
  Alcotest.(check bool) "has stride 2" true (contains str ", 2")

(* -- printing: Linebuf against the Format reference (test/printref.ml) -- *)

open Codegen
module S = Dhpf.Spmd

(* identifiers of every length class: short ones keep lines short, long
   ones push hints past column 400 and whole lines past 1,000 *)
let gen_name =
  let open QCheck.Gen in
  let len = frequency [ (6, int_range 1 6); (3, int_range 7 40); (1, int_range 41 260) ] in
  map2 (fun n c -> String.make n c) len (oneofl [ 'i'; 'v'; 'x'; 'b' ])

let gen_expr =
  let open QCheck.Gen in
  sized_size (int_range 0 4)
  @@ fix (fun self n ->
         let leaf =
           oneof [ map (fun k -> EInt k) (int_range (-300) 100000); map (fun v -> EVar v) gen_name ]
         in
         if n = 0 then leaf
         else
           let sub = self (n - 1) in
           let args = list_size (int_range 1 12) sub in
           frequency
             [ (3, leaf);
               (1, map2 (fun a b -> EAdd (a, b)) sub sub);
               (1, map2 (fun a b -> ESub (a, b)) sub sub);
               (1, map2 (fun k e -> EMul (k, e)) (int_range (-9) 9) sub);
               (1, map2 (fun e k -> EFloorDiv (e, k)) sub (int_range 2 64));
               (1, map2 (fun e k -> ECeilDiv (e, k)) sub (int_range 2 64));
               (2, map (fun es -> EMax es) args);
               (2, map (fun es -> EMin es) args);
               (1, map3 (fun e t k -> EAlignUp (e, t, k)) sub sub sub) ])

let gen_cond =
  let open QCheck.Gen in
  sized_size (int_range 0 2)
  @@ fix (fun self n ->
         let leaf =
           oneof
             [ return CTrue; map (fun e -> CGeq0 e) gen_expr; map (fun e -> CEq0 e) gen_expr;
               map2 (fun k e -> CDivides (k, e)) (int_range 2 16) gen_expr ]
         in
         if n = 0 then leaf
         else
           let subs = list_size (int_range 0 4) (self (n - 1)) in
           frequency
             [ (3, leaf); (1, map (fun cs -> CAnd cs) subs); (1, map (fun cs -> COr cs) subs);
               (1, map (fun c -> CNot c) (self (n - 1))) ])

let gen_ast =
  let open QCheck.Gen in
  sized_size (int_range 0 3)
  @@ fix (fun self n ->
         let leaf = map (fun t -> ALeaf t) gen_name in
         if n = 0 then leaf
         else
           let body = list_size (int_range 0 3) (self (n - 1)) in
           frequency
             [ (1, leaf);
               ( 2,
                 map3
                   (fun (var, step) (lo, hi) body -> AFor { var; lo; hi; step; body })
                   (pair gen_name (oneofl [ 1; 1; 2; 7 ]))
                   (pair gen_expr gen_expr) body );
               (1, map2 (fun c body -> AIf (c, body)) gen_cond body) ])

let gen_fexpr =
  let open QCheck.Gen in
  let idx = list_size (int_range 1 12) gen_expr in
  let access = oneofl [ S.Local; S.Overlay; S.Checked; S.Global ] in
  sized_size (int_range 0 3)
  @@ fix (fun self n ->
         let leaf =
           oneof
             [ map (fun x -> S.FConst x) (oneof [ float; float_range (-10.) 10. ]);
               map (fun s -> S.FScalar s) gen_name;
               map3 (fun arr idx access -> S.FLoad { arr; idx; access }) gen_name idx access;
               map (fun e -> S.FOfInt e) gen_expr ]
         in
         if n = 0 then leaf
         else
           let sub = self (n - 1) in
           frequency
             [ (3, leaf);
               ( 2,
                 map3 (fun op a b -> S.FBin (op, a, b))
                   (oneofl Hpf.Ast.[ Add; Sub; Mul; Div ]) sub sub );
               (1, map (fun a -> S.FNeg a) sub);
               ( 1,
                 map2 (fun f args -> S.FIntrin (f, args)) (oneofl [ "sqrt"; "max"; "f" ])
                   (list_size (int_range 1 5) sub) ) ])

let gen_fcond =
  let open QCheck.Gen in
  sized_size (int_range 0 2)
  @@ fix (fun self n ->
         let leaf =
           map3 (fun a op b -> S.FCmp (a, op, b)) gen_fexpr
             (oneofl Hpf.Ast.[ Lt; Le; Gt; Ge; Eq; Ne ])
             gen_fexpr
         in
         if n = 0 then leaf
         else
           let sub = self (n - 1) in
           frequency
             [ (2, leaf); (1, map2 (fun a b -> S.FAnd (a, b)) sub sub);
               (1, map2 (fun a b -> S.FOr (a, b)) sub sub); (1, map (fun a -> S.FNot a) sub) ])

let gen_stmt =
  let open QCheck.Gen in
  let exprs = list_size (int_range 1 12) gen_expr in
  let ev = int_range 0 120 in
  sized_size (int_range 0 2)
  @@ fix (fun self n ->
         let body = if n = 0 then return [] else list_size (int_range 0 2) (self (n - 1)) in
         oneof
           [ map3
               (fun (var, step) (lo, hi) body -> S.For { var; lo; hi; step; body })
               (pair gen_name (oneof [ return (EInt 1); gen_expr ]))
               (pair gen_expr gen_expr) body;
             map2 (fun c b -> S.If (c, b)) gen_cond body;
             map3 (fun c t e -> S.FIf (c, t, e)) gen_fcond body body;
             map2
               (fun (arr, idx) (value, access) -> S.Store { arr; idx; value; access })
               (pair gen_name exprs)
               (pair gen_fexpr (oneofl [ S.Local; S.Overlay; S.Checked; S.Global ]));
             map2 (fun s v -> S.SetScalar (s, v)) gen_name gen_fexpr;
             map3 (fun event arr idx -> S.Pack { event; arr; idx }) ev gen_name exprs;
             map2 (fun event dest -> S.Send { event; dest }) ev exprs;
             map2 (fun event src -> S.Recv { event; src }) ev exprs;
             map2 (fun scalar op -> S.Reduce { scalar; op }) gen_name
               (oneofl [ S.RSum; S.RMax; S.RMin ]);
             map (fun f -> S.Call f) gen_name;
             map (fun c -> S.Comment c) gen_name ])

let program ?(subs = []) main =
  { S.proc_dims = []; proc_extents = []; params = []; arrays = []; scalars = [];
    events = []; main; subs }

let same_text ~print ref_text new_text =
  if ref_text = new_text then true
  else QCheck.Test.fail_reportf "Format:\n%s\nLinebuf:\n%s" (print ref_text) (print new_text)

let prop_ast_text =
  QCheck.Test.make ~count:300 ~name:"loop nests print as Format did"
    (QCheck.make (QCheck.Gen.list_size (QCheck.Gen.int_range 1 3) gen_ast))
    (fun asts ->
      same_text ~print:Fun.id (Printref.ast_to_string asts) (Codegen.ast_to_string asts))

let prop_stmt_text =
  QCheck.Test.make ~count:300 ~name:"SPMD statements print as Format did"
    (QCheck.make
       QCheck.Gen.(pair (list_size (int_range 1 4) gen_stmt) (list_size (int_range 0 2) gen_stmt)))
    (fun (main, sub) ->
      let p = program ~subs:(if sub = [] then [] else [ ("sub1", sub) ]) main in
      same_text ~print:Fun.id (Printref.program_to_string p) (S.program_to_string p))

(* The boundary of the break rule, swept: in "  a(x.., y.., z) = 0" the
   first hint sits in column l + 5 and its segment ", y..," is m + 2
   bytes, so m = 393 - l puts it exactly at [>= 400 - column]. A rule
   with [>] in place of [>=] prints those lines differently. *)
let test_break_boundary () =
  let crossings = ref 0 in
  for l = 330 to 420 do
    for m = 1 to 80 do
      if m + 2 = 400 - (l + 5) then incr crossings;
      let idx = [ EVar (String.make l 'x'); EVar (String.make m 'y'); EVar "z" ] in
      let p =
        program
          [ S.Store { arr = "a"; idx; value = S.FConst 0.; access = S.Local };
            S.For { var = "i"; lo = EMax idx; hi = EMin (List.rev idx); step = EInt 1; body = [] } ]
      in
      let want = Printref.program_to_string p in
      if S.program_to_string p <> want then
        Alcotest.failf "l = %d, m = %d: text differs from Format's:\n%s" l m want
    done
  done;
  Alcotest.(check bool) "the sweep hits the boundary" true (!crossings > 0)

let () =
  Alcotest.run "codegen"
    [
      ( "single",
        [
          Alcotest.test_case "box" `Quick test_box;
          Alcotest.test_case "empty" `Quick test_empty;
          Alcotest.test_case "2d" `Quick test_2d;
          Alcotest.test_case "triangular" `Quick test_triangular;
          Alcotest.test_case "stride" `Quick test_stride;
          Alcotest.test_case "stride 2d" `Quick test_stride_2d;
          Alcotest.test_case "equality" `Quick test_equality_loop;
          Alcotest.test_case "params" `Quick test_params;
        ] );
      ( "multi",
        [
          Alcotest.test_case "union" `Quick test_union;
          Alcotest.test_case "union 2d" `Quick test_union_2d;
          Alcotest.test_case "two stmts" `Quick test_multi_stmt;
          Alcotest.test_case "context" `Quick test_context;
          Alcotest.test_case "pretty" `Quick test_pretty;
        ] );
      ( "printing",
        [
          QCheck_alcotest.to_alcotest prop_ast_text;
          QCheck_alcotest.to_alcotest prop_stmt_text;
          Alcotest.test_case "break boundary" `Quick test_break_boundary;
        ] );
      ( "eval",
        [
          Alcotest.test_case "count_points" `Quick test_count_points;
          Alcotest.test_case "intervals" `Quick test_intervals;
        ] );
    ]
