(* Front-end tests: lexer, parser, semantic analysis. *)

let parse src = Hpf.Parser.program src

let analyze src = Hpf.Sema.analyze_source src

let prelude =
  {|
program t
  parameter n = 10
  real a(n,n), b(0:n,n)
  real s
  processors p(2)
  template tt(n,n)
  align a(i,j) with tt(i,j)
  align b(i,j) with tt(*,j)
  distribute tt(*,block) onto p
|}

let with_body body = prelude ^ body ^ "\nend\n"

let test_lexer () =
  let toks = Hpf.Lexer.tokenize "do i = 1, n-1\n  a(i,j) = 2.5e-1 * b(i+1,j)\nend do\n" in
  Alcotest.(check bool) "has DO" true (List.exists (fun (t, _) -> t = Hpf.Tok.DO) toks);
  Alcotest.(check bool) "has float"
    true
    (List.exists (function Hpf.Tok.FLOATLIT x, _ -> x = 0.25 | _ -> false) toks);
  (* comments are dropped, directives kept *)
  let toks = Hpf.Lexer.tokenize "! plain comment\n!on_home a(i,j)\n" in
  Alcotest.(check bool) "directive" true
    (List.exists (fun (t, _) -> t = Hpf.Tok.ONHOME) toks);
  Alcotest.(check int) "comment dropped: ONHOME IDENT ( idents ) NEWLINE+eof tokens"
    2
    (List.length (List.filter (fun (t, _) -> t = Hpf.Tok.NEWLINE) toks))

let test_parse_basic () =
  let p = parse (with_body "  do i = 1, n\n    s = s + 1.0\n  end do") in
  let u = Hpf.Ast.main_unit p in
  Alcotest.(check int) "decl count" 9 (List.length u.decls);
  match u.body with
  | [ Hpf.Ast.SDo { var = "i"; step = 1; body = [ Hpf.Ast.SAssign _ ]; _ } ] -> ()
  | _ -> Alcotest.fail "unexpected body shape"

let test_parse_step () =
  let p = parse (with_body "  do i = 1, n, 2\n    s = 1.0\n  end do") in
  match (Hpf.Ast.main_unit p).body with
  | [ Hpf.Ast.SDo { step = 2; _ } ] -> ()
  | _ -> Alcotest.fail "expected step 2"

let test_parse_if () =
  let p =
    parse (with_body "  if (s < 1.0) then\n    s = 2.0\n  else\n    s = 3.0\n  end if")
  in
  match (Hpf.Ast.main_unit p).body with
  | [ Hpf.Ast.SIf { then_ = [ _ ]; else_ = [ _ ]; _ } ] -> ()
  | _ -> Alcotest.fail "expected if/else"

let test_parse_onhome () =
  let p =
    parse (with_body "  do i = 1, n\n    !on_home b(i,i)\n    a(i,i) = 1.0\n  end do")
  in
  match (Hpf.Ast.main_unit p).body with
  | [ Hpf.Ast.SDo { body = [ Hpf.Ast.SAssign { on_home = Some [ ("b", _) ]; _ } ]; _ } ]
    -> ()
  | _ -> Alcotest.fail "expected on_home directive"

let test_parse_subroutine () =
  let src = prelude ^ "  call f\nend\nsubroutine f\n  s = 1.0\nend subroutine\n" in
  let p = parse src in
  Alcotest.(check int) "two units" 2 (List.length p.units)

let test_parse_errors () =
  let expect src =
    match parse src with
    | exception Hpf.Parser.Error _ -> ()
    | exception Hpf.Lexer.Error _ -> ()
    | _ -> Alcotest.fail ("expected parse error: " ^ src)
  in
  expect "program t\n  do i = 1\n  end do\nend\n";
  expect "program t\n  a(1 = 2.0\nend\n";
  expect "program t\n  if s then\n  end if\nend\n"

let test_sema_resolution () =
  (* max(...) stays a call; a(...) becomes an array reference *)
  let chk = analyze (with_body "  s = max(s, a(1,2))") in
  match (Hpf.Ast.main_unit chk.prog).body with
  | [ Hpf.Ast.SAssign { rhs = Hpf.Ast.FCall ("max", [ _; Hpf.Ast.FRef ("a", [ _; _ ]) ]); _ } ]
    -> ()
  | _ -> Alcotest.fail "resolution failed"

let test_sema_errors () =
  let expect body =
    match analyze (with_body body) with
    | exception Hpf.Sema.Error _ -> ()
    | _ -> Alcotest.fail ("expected semantic error: " ^ body)
  in
  expect "  s = a(1)"; (* rank mismatch *)
  expect "  s = undeclared_fn(1.0)";
  expect "  q = 1.0"; (* undeclared scalar *)
  expect "  call nothere"

let test_sema_directive_errors () =
  let expect src =
    match analyze src with
    | exception Hpf.Sema.Error _ -> ()
    | _ -> Alcotest.fail "expected directive error"
  in
  expect
    "program t\n  real a(4,4)\n  processors p(2)\n  template tt(4,4)\n  align a(i) with tt(i,i)\n  distribute tt(*,block) onto p\nend\n";
  expect
    "program t\n  real a(4,4)\n  processors p(2)\n  template tt(4,4)\n  align a(i,j) with tt(i,j)\n  distribute tt(block,block) onto p\nend\n"

let test_known_params () =
  let chk = analyze (with_body "  s = 0.0") in
  Alcotest.(check (option int)) "n known" (Some 10)
    (Hpf.Sema.param_value chk.env "n");
  let lin =
    Hpf.Sema.subst_known_params chk.env
      (Iset.Lin.var (Iset.Var.Param "n"))
  in
  Alcotest.(check bool) "n inlined" true
    (Iset.Lin.is_const lin && Iset.Lin.constant lin = 10)

(* [params] is the one place a caller binds parameters: it overrides a
   declared value or binds a valueless one, and rejects any other name *)
let test_param_bindings () =
  let symbolic =
    "program t\n  parameter n = 10\n  parameter m\n  real s\nend\n"
  in
  let chk = Hpf.Sema.analyze_source ~params:[ ("n", 64); ("m", 3) ] symbolic in
  Alcotest.(check (option int)) "declared n overridden" (Some 64)
    (Hpf.Sema.param_value chk.env "n");
  Alcotest.(check (option int)) "valueless m bound" (Some 3)
    (Hpf.Sema.param_value chk.env "m");
  Alcotest.(check (option int)) "m symbolic without params" None
    (Hpf.Sema.param_value (Hpf.Sema.analyze_source symbolic).env "m");
  let rejects src params msg =
    match Hpf.Sema.analyze_source ~params src with
    | exception Hpf.Sema.Error m -> Alcotest.(check string) "message" msg m
    | _ -> Alcotest.failf "expected: %s" msg
  in
  rejects symbolic [ ("bogus", 3) ]
    "cannot bind bogus: not a declared parameter of the program";
  rejects symbolic [ ("number_of_processors", 8) ]
    "cannot bind number_of_processors: not a declared parameter of the program";
  rejects symbolic [ ("n", 1); ("n", 2) ] "parameter n bound twice";
  (* names the compiler derives from the layout are not parameters: the
     symbolic grid extent and a block size *)
  rejects (Codes.jacobi ()) [ ("p$2", 2) ]
    "cannot bind p$2: not a declared parameter of the program";
  rejects (Codes.jacobi ()) [ ("b$t$1", 2) ]
    "cannot bind b$t$1: not a declared parameter of the program"

let () =
  Alcotest.run "hpf"
    [
      ( "front-end",
        [
          Alcotest.test_case "lexer" `Quick test_lexer;
          Alcotest.test_case "parse basic" `Quick test_parse_basic;
          Alcotest.test_case "parse step" `Quick test_parse_step;
          Alcotest.test_case "parse if" `Quick test_parse_if;
          Alcotest.test_case "parse on_home" `Quick test_parse_onhome;
          Alcotest.test_case "parse subroutine" `Quick test_parse_subroutine;
          Alcotest.test_case "parse errors" `Quick test_parse_errors;
          Alcotest.test_case "sema resolution" `Quick test_sema_resolution;
          Alcotest.test_case "sema errors" `Quick test_sema_errors;
          Alcotest.test_case "directive errors" `Quick test_sema_directive_errors;
          Alcotest.test_case "known params" `Quick test_known_params;
          Alcotest.test_case "parameter bindings" `Quick test_param_bindings;
        ] );
    ]
