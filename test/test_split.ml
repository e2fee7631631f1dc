(* Loop splitting (Figure 4) tests: the four sections must partition the
   processor's iteration set, and the per-section access classification must
   be consistent with actual element locality. *)

open Iset
open Dhpf

let setup () =
  let src =
    {|
program t
  parameter n = 12
  real a(n), b(n)
  processors p(3)
  template tt(n)
  align a(i) with tt(i)
  align b(i) with tt(i)
  distribute tt(block) onto p
  do i = 2, n-1
    b(i) = a(i-1) + a(i+1)
  end do
end
|}
  in
  let chk = Hpf.Sema.analyze_source src in
  let ctx = Layout.build chk in
  let u = Hpf.Ast.main_unit chk.Hpf.Sema.prog in
  let nest, lhs, rhs =
    match u.body with
    | [ Hpf.Ast.SDo { var; lo; hi; step; body = [ Hpf.Ast.SAssign { lhs; rhs; _ } ] } ] ->
        ([ { Cp.lvar = var; llo = lo; lhi = hi; lstep = step } ], lhs, rhs)
    | _ -> assert false
  in
  let iter = Cp.iter_space ctx nest in
  let cpmap = Cp.cpmap_of_refs ctx nest iter [ lhs ] in
  let cp_iter = Cp.cp_iter_set ctx cpmap in
  let refs =
    List.map
      (fun r -> (r, `Read, Rel.restrict_domain (Cp.refmap ctx nest r) iter))
      (Cp.refs_of_fexpr rhs)
  in
  (ctx, cp_iter, Split.compute ctx ~cp_iter ~refs)

let mem ~vm set i = Rel.mem ~env:[ ("vm$1", vm) ] set ([ i ], [])

let test_partition () =
  let _, cp_iter, s = setup () in
  (* for each processor, the four sections are disjoint and cover cpiter *)
  for vm = 0 to 2 do
    for i = 1 to 12 do
      let in_cp = mem ~vm cp_iter i in
      let inl = mem ~vm s.Split.local_iters i in
      let ro = mem ~vm s.Split.nl_ro_iters i in
      let wo = mem ~vm s.Split.nl_wo_iters i in
      let rw = mem ~vm s.Split.nl_rw_iters i in
      let count = List.length (List.filter Fun.id [ inl; ro; wo; rw ]) in
      Alcotest.(check int)
        (Printf.sprintf "vm=%d i=%d: exactly one section iff in cpiter" vm i)
        (if in_cp then 1 else 0)
        count
    done
  done

let test_sections_shape () =
  let _, _, s = setup () in
  (* blocks of 4: proc 1 owns 5..8, executes i in 5..8; boundary
     iterations 5 (reads a(4)) and 8 (reads a(9)) are non-local reads;
     there are no non-local writes *)
  Alcotest.(check bool) "i=6 local" true (mem ~vm:1 s.Split.local_iters 6);
  Alcotest.(check bool) "i=5 nlRO" true (mem ~vm:1 s.Split.nl_ro_iters 5);
  Alcotest.(check bool) "i=8 nlRO" true (mem ~vm:1 s.Split.nl_ro_iters 8);
  Alcotest.(check bool) "no nlWO" true (Rel.is_empty s.Split.nl_wo_iters);
  Alcotest.(check bool) "no nlRW" true (Rel.is_empty s.Split.nl_rw_iters);
  Alcotest.(check bool) "worthwhile" true (Split.worthwhile s)

let test_access_modes () =
  let _, _, s = setup () in
  (* within the local section, both references are all-local *)
  List.iter
    (fun rc ->
      Alcotest.(check bool) "local section all-local" true
        (Split.access_in s.Split.local_iters rc = Split.AllLocal))
    s.Split.ref_classes;
  (* within nlRO, the two refs are mixed per-reference: a(i-1) is non-local
     only at the left edge, a(i+1) only at the right; across the section each
     is Mixed (or AllNonLocal in degenerate cases) but not AllLocal *)
  List.iter
    (fun rc ->
      Alcotest.(check bool) "nlRO section not all-local" true
        (Split.access_in s.Split.nl_ro_iters rc <> Split.AllLocal))
    s.Split.ref_classes

(* Non-local writes: ON_HOME forces execution away from the owner. *)
let test_nl_write_sections () =
  let src =
    {|
program t
  parameter n = 12
  real a(n), b(n)
  processors p(3)
  template tt(n)
  align a(i) with tt(i)
  align b(i) with tt(i)
  distribute tt(block) onto p
  do i = 1, n-1
    !on_home a(i)
    b(i+1) = a(i)
  end do
end
|}
  in
  let chk = Hpf.Sema.analyze_source src in
  let ctx = Layout.build chk in
  let u = Hpf.Ast.main_unit chk.Hpf.Sema.prog in
  let nest, lhs, oh =
    match u.body with
    | [ Hpf.Ast.SDo { var; lo; hi; step; body = [ Hpf.Ast.SAssign { lhs; on_home; _ } ] } ]
      ->
        ([ { Cp.lvar = var; llo = lo; lhi = hi; lstep = step } ], lhs, Option.get on_home)
    | _ -> assert false
  in
  let iter = Cp.iter_space ctx nest in
  let cpmap = Cp.cpmap_of_refs ctx nest iter oh in
  let cp_iter = Cp.cp_iter_set ctx cpmap in
  let refs = [ (lhs, `Write, Rel.restrict_domain (Cp.refmap ctx nest lhs) iter) ] in
  let s = Split.compute ctx ~cp_iter ~refs in
  (* proc 0 owns 1..4 and executes i=1..4; the write b(i+1) at i=4 hits
     b(5), owned by proc 1: nlWO *)
  Alcotest.(check bool) "i=4 is nlWO for p0" true (mem ~vm:0 s.Split.nl_wo_iters 4);
  Alcotest.(check bool) "i=3 is local for p0" true (mem ~vm:0 s.Split.local_iters 3);
  Alcotest.(check bool) "nlRO empty" true (Rel.is_empty s.Split.nl_ro_iters)

(* Every mode [Split.fixed_mode] fixes equals the query it replaces, over
   the split nests of the six built-ins and the Table 1 programs. *)
let test_fixed_modes () =
  let programs =
    [
      ("jacobi", Codes.jacobi ());
      ("tomcatv", Codes.tomcatv ());
      ("erlebacher", Codes.erlebacher ());
      ("gauss", Codes.gauss ());
      ("figure2", Codes.figure2 ());
      ("sp_like", Codes.sp_like ());
      ("SP-4", Codes.sp_like ~n:24 ~nsub:30 ~procs:(Codes.Fixed (2, 2)) ());
      ("SP-sym", Codes.sp_like ~n:24 ~nsub:30 ~procs:(Codes.Symbolic2 2) ());
      ("T-sym", Codes.tomcatv ~n:257 ~iters:3 ~procs:(Codes.Symbolic2 1) ());
    ]
  in
  let total =
    List.fold_left
      (fun total (name, src) ->
        let n, bad = Fixedmodes.check (Gen.compile (Hpf.Sema.analyze_source src)) in
        Alcotest.(check (list string))
          (name ^ ": fixed modes equal the queries")
          [] bad;
        total + n)
      0 programs
  in
  Alcotest.(check bool) "some split nest has fixed modes" true (total > 0)

let () =
  Alcotest.run "split"
    [
      ( "figure4",
        [
          Alcotest.test_case "sections partition cpiter" `Quick test_partition;
          Alcotest.test_case "section shapes" `Quick test_sections_shape;
          Alcotest.test_case "access modes" `Quick test_access_modes;
          Alcotest.test_case "non-local writes" `Quick test_nl_write_sections;
          Alcotest.test_case "fixed modes equal the queries" `Quick
            test_fixed_modes;
        ] );
    ]
