(* Compiler-level tests: optimization ablations must preserve semantics,
   symbolic-P compilation must not be pricier than fixed-P (the §6 claim),
   and generated SPMD text must carry the expected structure. *)

let compile ?(opts = Dhpf.Gen.default_options) src =
  Dhpf.Gen.compile ~opts (Hpf.Sema.analyze_source src)

let validate_with opts name src nprocs =
  let chk = Hpf.Sema.analyze_source src in
  let compiled = Dhpf.Gen.compile ~opts chk in
  let sref = Spmdsim.Serial.run chk in
  let sim = Spmdsim.Exec.make ~nprocs compiled.Dhpf.Gen.cprog in
  let _ = Spmdsim.Exec.run sim in
  let bad = ref 0 in
  Hashtbl.iter
    (fun aname (ai : Hpf.Sema.array_info) ->
      let bounds =
        List.map
          (fun (lo, hi) ->
            ( Spmdsim.Serial.eval_iexpr sref.r_state lo,
              Spmdsim.Serial.eval_iexpr sref.r_state hi ))
          ai.adims
      in
      let rec go idx = function
        | [] ->
            let idx = List.rev idx in
            if
              abs_float
                (Spmdsim.Serial.get_elem sref aname idx
                -. Spmdsim.Exec.get_elem sim aname idx)
              > 1e-6
            then incr bad
        | (lo, hi) :: rest ->
            for x = lo to hi do
              go (x :: idx) rest
            done
      in
      go [] bounds)
    chk.env.arrays;
  Alcotest.(check int) (name ^ ": mismatches") 0 !bad

let jaco = Codes.jacobi ~n:16 ~iters:2 ~procs:(Codes.Symbolic2 2) ()
let erle = Codes.erlebacher ~n:8 ~iters:1 ~procs:(Codes.Symbolic2 1) ()

(* a small single-nest stencil for the expensive no-vectorize ablation
   (communication per iteration makes compilation deliberately heavy) *)
let tiny =
  {|
program tiny
  parameter n = 12
  real a(n), b(n)
  processors p(2)
  template tt(n)
  align a(i) with tt(i)
  align b(i) with tt(i)
  distribute tt(block) onto p
  do i = 1, n
    a(i) = i
  end do
  do i = 2, n
    b(i) = a(i-1)
  end do
end
|}

let test_ablation_no_split () =
  validate_with { Dhpf.Gen.default_options with opt_split = false } "no-split" jaco 4;
  validate_with { Dhpf.Gen.default_options with opt_split = false } "no-split-e" erle 4

let test_ablation_no_vectorize () =
  validate_with
    { Dhpf.Gen.default_options with opt_vectorize = false }
    "no-vectorize" tiny 2

let test_ablation_no_coalesce () =
  validate_with
    { Dhpf.Gen.default_options with opt_coalesce = false }
    "no-coalesce" jaco 4

let test_ablation_no_inplace () =
  validate_with
    { Dhpf.Gen.default_options with opt_inplace = false }
    "no-inplace" jaco 4

let test_coalesce_reduces_events () =
  let with_c = compile jaco in
  let without_c =
    compile ~opts:{ Dhpf.Gen.default_options with opt_coalesce = false } jaco
  in
  Alcotest.(check bool) "coalescing produces fewer events" true
    (List.length with_c.cevents < List.length without_c.cevents)

let test_vectorize_reduces_messages () =
  let count opts =
    let chk =
      Hpf.Sema.analyze_source (Codes.jacobi ~n:8 ~iters:1 ~procs:(Codes.Fixed (2, 2)) ())
    in
    let compiled = Dhpf.Gen.compile ~opts chk in
    let sim = Spmdsim.Exec.make ~nprocs:4 compiled.Dhpf.Gen.cprog in
    (Spmdsim.Exec.run sim).s_msgs
  in
  let v = count Dhpf.Gen.default_options in
  let nv = count { Dhpf.Gen.default_options with opt_vectorize = false } in
  Alcotest.(check bool)
    (Printf.sprintf "vectorization reduces messages (%d < %d)" v nv)
    true (v < nv)

(* §6: compiling for a symbolic number of processors costs about the same
   as for a fixed number (we allow a generous 5x window to keep the test
   robust; the paper reports SP-sym slightly *faster* than SP-4) *)
let test_symbolic_compile_cost () =
  let time f =
    let t0 = Unix.gettimeofday () in
    ignore (f ());
    Unix.gettimeofday () -. t0
  in
  let fixed =
    time (fun () -> compile (Codes.sp_like ~n:12 ~nsub:10 ~procs:(Codes.Fixed (2, 2)) ()))
  in
  let sym =
    time (fun () -> compile (Codes.sp_like ~n:12 ~nsub:10 ~procs:(Codes.Symbolic2 2) ()))
  in
  Alcotest.(check bool)
    (Printf.sprintf "symbolic within 5x of fixed (%.2fs vs %.2fs)" sym fixed)
    true
    (sym < 5.0 *. Float.max fixed 0.05)

let test_spmd_structure () =
  let compiled = compile jaco in
  let txt = Dhpf.Spmd.program_to_string compiled.cprog in
  let contains needle =
    let nh = String.length txt and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub txt i nn = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "has pack calls" true (contains "pack_");
  Alcotest.(check bool) "has sends" true (contains "send_");
  Alcotest.(check bool) "has recvs" true (contains "recv_");
  Alcotest.(check bool) "has allreduce" true (contains "allreduce_max");
  Alcotest.(check bool) "bounds use vm" true (contains "vm$1");
  (* loop splitting produces labeled sections *)
  Alcotest.(check bool) "split sections present" true (contains "local section")

let test_phase_report () =
  Dhpf.Phase.reset Dhpf.Phase.global;
  ignore (compile jaco);
  let labels = Dhpf.Phase.labels Dhpf.Phase.global in
  List.iter
    (fun expected ->
      Alcotest.(check bool) ("phase recorded: " ^ expected) true
        (List.mem expected labels))
    [
      "partitioning computation";
      "communication analysis";
      "communication generation";
      "loop bounds reduction";
      "module compilation";
      "interprocedural analysis";
    ]

let test_unsupported_diagnostics () =
  let expect src =
    match compile src with
    | exception (Dhpf.Gen.Unsupported _ | Dhpf.Layout.Unsupported _) -> ()
    | _ -> Alcotest.fail "expected Unsupported"
  in
  (* non-affine subscript *)
  expect
    {|
program t
  parameter n = 8
  real a(n,n)
  integer k
  processors p(2)
  template tt(n,n)
  align a(i,j) with tt(i,j)
  distribute tt(block,*) onto p
  do i = 1, n
    a(i,i*i) = 1.0
  end do
end
|};
  (* recursion *)
  expect
    {|
program t
  parameter n = 8
  real a(n)
  processors p(2)
  template tt(n)
  align a(i) with tt(i)
  distribute tt(block) onto p
  call f
end
subroutine f
  call f
end
|}

(* Whole-compile memo equivalence: every built-in at its default size
   and the three Table-1 programs at paper scale compile to byte-identical
   SPMD text and --show-sets text with every cache off, over cold tables,
   and again over the tables the cold compile warmed (where the loop-nest,
   relation- and conjunct-level memos answer from their tables). *)
let memo_programs =
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

let test_memo_equivalence () =
  let texts src =
    let c = Dhpf.Gen.compile ~domains:1 (Hpf.Sema.analyze_source src) in
    ( Dhpf.Spmd.program_to_string c.Dhpf.Gen.cprog,
      Fmt.str "%a" Dhpf.Gen.pp_sets c.Dhpf.Gen.cevents )
  in
  List.iter
    (fun (name, src) ->
      Iset.Cache.set_enabled false;
      let off =
        Fun.protect ~finally:(fun () -> Iset.Cache.set_enabled true) (fun () -> texts src)
      in
      Iset.Cache.clear_all ();
      let cold = texts src in
      let hits = Iset.Stats.count Iset.Stats.rel.hits in
      let nest_hits = Iset.Stats.count Iset.Stats.codegen.hits in
      let warm = texts src in
      Alcotest.(check bool) (name ^ ": warm compile hits the relation memo") true
        (Iset.Stats.count Iset.Stats.rel.hits > hits);
      Alcotest.(check bool)
        (name ^ ": warm compile hits the loop-nest memo")
        true
        (Iset.Stats.count Iset.Stats.codegen.hits > nest_hits);
      List.iter
        (fun (state, (spmd, sets)) ->
          Alcotest.(check string) (name ^ ": SPMD text, " ^ state) (fst off) spmd;
          Alcotest.(check string) (name ^ ": --show-sets text, " ^ state) (snd off) sets)
        [ ("cold", cold); ("warm", warm) ])
    memo_programs

let () =
  Alcotest.run "compile"
    [
      ( "ablations",
        [
          Alcotest.test_case "no-split correct" `Quick test_ablation_no_split;
          Alcotest.test_case "no-vectorize correct" `Quick test_ablation_no_vectorize;
          Alcotest.test_case "no-coalesce correct" `Quick test_ablation_no_coalesce;
          Alcotest.test_case "no-inplace correct" `Quick test_ablation_no_inplace;
          Alcotest.test_case "coalescing merges events" `Quick test_coalesce_reduces_events;
          Alcotest.test_case "vectorization cuts messages" `Quick
            test_vectorize_reduces_messages;
        ] );
      ( "compiler",
        [
          Alcotest.test_case "symbolic-P compile cost" `Quick test_symbolic_compile_cost;
          Alcotest.test_case "SPMD structure" `Quick test_spmd_structure;
          Alcotest.test_case "phase report" `Quick test_phase_report;
          Alcotest.test_case "unsupported diagnostics" `Quick test_unsupported_diagnostics;
          Alcotest.test_case "memo equivalence" `Slow test_memo_equivalence;
        ] );
    ]
