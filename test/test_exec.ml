(* Unit tests for the simulated machine itself: ownership arithmetic,
   message timing, collectives, deadlock detection, and the cost model. *)

open Dhpf

let compile src = Gen.compile (Hpf.Sema.analyze_source src)

let block_1d =
  {|
program t
  parameter n = 16
  real a(n)
  processors p(4)
  template tt(n)
  align a(i) with tt(i)
  distribute tt(block) onto p
  do i = 1, n
    a(i) = i
  end do
end
|}

let test_ownership_block () =
  let c = compile block_1d in
  let sim = Spmdsim.Exec.make ~nprocs:4 c.cprog in
  let _ = Spmdsim.Exec.run sim in
  (* blocks of 4: a(5) lives on proc 1 *)
  Alcotest.(check (float 0.0)) "a(5)" 5.0 (Spmdsim.Exec.get_elem sim "a" [ 5 ]);
  Alcotest.(check (float 0.0)) "a(16)" 16.0 (Spmdsim.Exec.get_elem sim "a" [ 16 ])

let test_ownership_cyclic () =
  let src =
    {|
program t
  parameter n = 10
  real a(n)
  processors p(3)
  template tt(n)
  align a(i) with tt(i)
  distribute tt(cyclic) onto p
  do i = 1, n
    a(i) = 10.0 * i
  end do
end
|}
  in
  let c = compile src in
  let sim = Spmdsim.Exec.make ~nprocs:3 c.cprog in
  let _ = Spmdsim.Exec.run sim in
  for i = 1 to 10 do
    Alcotest.(check (float 0.0))
      (Printf.sprintf "a(%d)" i)
      (10.0 *. float_of_int i)
      (Spmdsim.Exec.get_elem sim "a" [ i ])
  done

let test_clock_monotone () =
  (* more iterations => strictly more simulated time *)
  let t iters =
    let src =
      Printf.sprintf
        {|
program t
  parameter n = 64
  real a(n)
  real s
  processors p(2)
  template tt(n)
  align a(i) with tt(i)
  distribute tt(block) onto p
  do k = 1, %d
    do i = 1, n
      a(i) = a(i) + 1.0
    end do
  end do
end
|}
        iters
    in
    let c = compile src in
    (Spmdsim.Exec.run (Spmdsim.Exec.make ~nprocs:2 c.cprog)).s_time
  in
  let t1 = t 1 and t4 = t 4 in
  Alcotest.(check bool) "4 iters slower than 1" true (t4 > t1 *. 2.0)

let test_message_cost_visible () =
  (* a shift adds latency: time with comm exceeds comm-free machine time *)
  let src =
    {|
program t
  parameter n = 32
  real a(n), b(n)
  processors p(4)
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
  in
  let c = compile src in
  let with_comm = (Spmdsim.Exec.run (Spmdsim.Exec.make ~nprocs:4 c.cprog)).s_time in
  let free =
    { Spmdsim.Machine.sp2 with alpha = 0.0; beta = 0.0; send_overhead = 0.0;
      recv_overhead = 0.0; pack_time = 0.0; unpack_time = 0.0 }
  in
  let without =
    (Spmdsim.Exec.run (Spmdsim.Exec.make ~machine:free ~nprocs:4 c.cprog)).s_time
  in
  Alcotest.(check bool) "latency visible" true (with_comm > without +. 30e-6)

let test_allreduce_cost () =
  (* a scalar all-reduce is a one-element one *)
  let scalar p = Spmdsim.Machine.allreduce_cost Spmdsim.Machine.sp2 p 1 in
  Alcotest.(check (float 0.0)) "P=1 free" 0.0 (scalar 1);
  let t4 = scalar 4 in
  let t16 = scalar 16 in
  Alcotest.(check bool) "log growth" true (t16 > t4 && t16 < 3.0 *. t4)

let test_deadlock_detected () =
  (* a program with a recv and no matching send must be reported with a
     structured diagnostic naming the waiting processors and event *)
  let c = compile block_1d in
  let prog = c.cprog in
  let bogus_recv =
    Spmd.Recv { event = 99; src = [ Iset.Codegen.EInt 0 ] }
  in
  let prog =
    { prog with Spmd.main = prog.Spmd.main @ [ Spmd.If (Iset.Codegen.CGeq0 (Iset.Codegen.EVar "m$1"), [ bogus_recv ]) ] }
  in
  let sim = Spmdsim.Exec.make ~nprocs:4 prog in
  match Spmdsim.Exec.run sim with
  | exception Spmdsim.Exec.Deadlock d ->
      Alcotest.(check int) "all four procs stuck" 4 (List.length d.dg_waiting);
      List.iter
        (fun (w : Spmdsim.Exec.proc_wait) ->
          match w.w_reason with
          | Spmdsim.Exec.WaitRecv r ->
              Alcotest.(check int) "waiting on event 99" 99 r.wr_event
          | _ -> Alcotest.fail "expected a recv wait")
        d.dg_waiting;
      (* proc 0 waits on vp(0) — itself — a self-cycle; 1..3 dangle off it *)
      Alcotest.(check (list int)) "self-cycle on proc 0" [ 0 ] d.dg_cycle;
      let msg = Spmdsim.Exec.diagnostic_to_string d in
      Alcotest.(check bool) "pretty-printer mentions deadlock" true
        (String.length msg >= 8 && String.sub msg 0 8 = "deadlock")
  | _ -> Alcotest.fail "expected deadlock"

(* [n] is declared without a value: the program is compiled once and
   bound at startup *)
let symbolic_n =
  {|
program t
  parameter n
  real a(100)
  processors p(2)
  template tt(100)
  align a(i) with tt(i)
  distribute tt(block) onto p
  do i = 1, n
    a(i) = i
  end do
end
|}

let test_param_binding () =
  let c = compile symbolic_n in
  (* n is symbolic: must be supplied *)
  (match Spmdsim.Exec.make ~nprocs:2 c.cprog with
  | exception Spmdsim.Exec.Error _ -> ()
  | sim -> (
      match Spmdsim.Exec.run sim with
      | exception Spmdsim.Exec.Error _ -> ()
      | _ -> Alcotest.fail "expected unbound-parameter error"));
  let sim = Spmdsim.Exec.make ~nprocs:2 ~params:[ ("n", 7) ] c.cprog in
  let _ = Spmdsim.Exec.run sim in
  Alcotest.(check (float 0.0)) "a(7) written" 7.0 (Spmdsim.Exec.get_elem sim "a" [ 7 ]);
  Alcotest.(check (float 0.0)) "a(8) untouched" 0.0 (Spmdsim.Exec.get_elem sim "a" [ 8 ])

(* [Exec.make ~params] binds the names the compiler left symbolic and
   nothing else: a declared constant, the processor count, a derived
   binding or a repeated name is an error, not silently ignored *)
let test_param_names () =
  let rejects what params prog =
    match Spmdsim.Exec.make ~nprocs:4 ~params prog with
    | exception Spmdsim.Exec.Error _ -> ()
    | _ -> Alcotest.failf "%s: expected Exec.Error" what
  in
  let gauss = (compile (Codes.gauss ())).cprog in
  rejects "declared constant n" [ ("n", 8) ] gauss;
  rejects "number_of_processors" [ ("number_of_processors", 8) ] gauss;
  rejects "undeclared name" [ ("bogus", 3) ] gauss;
  rejects "layout-derived grid extent" [ ("p$2", 2) ] gauss;
  rejects "symbolic n supplied twice"
    [ ("n", 7); ("n", 8) ]
    (compile symbolic_n).cprog

(* Regression: the gauss builtin uses a (cyclic,cyclic) distribution whose
   split compute sections reference the vm$k virtual-processor coordinates;
   they must be wrapped in VP loops like the unsplit path (previously failed
   at runtime with "unbound integer name vm$2"). *)
let test_gauss_cyclic_split_sections () =
  let chk = Hpf.Sema.analyze_source (Codes.gauss ()) in
  let c = Gen.compile chk in
  let serial = Spmdsim.Serial.run chk in
  let sim = Spmdsim.Exec.make ~nprocs:4 c.cprog in
  let _ = Spmdsim.Exec.run sim in
  for i = 1 to 12 do
    for j = 1 to 12 do
      let want = Spmdsim.Serial.get_elem serial "a" [ i; j ] in
      let got = Spmdsim.Exec.get_elem sim "a" [ i; j ] in
      Alcotest.(check (float 1e-9)) (Printf.sprintf "a(%d,%d)" i j) want got
    done
  done

(* Each sim is single-use: running it again would start from stale clocks,
   sequence numbers and array contents. Both engines must refuse. *)
let test_double_run_guard () =
  List.iter
    (fun engine ->
      let c = compile block_1d in
      let sim = Spmdsim.Exec.make ~engine ~nprocs:4 c.cprog in
      let _ = Spmdsim.Exec.run sim in
      match Spmdsim.Exec.run sim with
      | exception Spmdsim.Exec.Error msg ->
          let contains hay needle =
            let nh = String.length hay and nn = String.length needle in
            let rec go i =
              i + nn <= nh && (String.sub hay i nn = needle || go (i + 1))
            in
            go 0
          in
          Alcotest.(check bool) "error names the re-run" true
            (contains msg "already")
      | _ -> Alcotest.fail "expected Error on second run")
    [ `Closure; `Interp ]

(* The interpreter is kept as the differential oracle for the closure
   engine: same program, same machine, same ownership answers. *)
let test_ownership_interp_engine () =
  let c = compile block_1d in
  let sim = Spmdsim.Exec.make ~engine:`Interp ~nprocs:4 c.cprog in
  let _ = Spmdsim.Exec.run sim in
  Alcotest.(check (float 0.0)) "a(5)" 5.0 (Spmdsim.Exec.get_elem sim "a" [ 5 ]);
  Alcotest.(check (float 0.0)) "a(16)" 16.0 (Spmdsim.Exec.get_elem sim "a" [ 16 ])

(* gauss exercises (cyclic,cyclic) with split VP sections, scalar state and
   subroutine calls; the engines must agree bit-for-bit, fault-free and
   under a seeded fault schedule. *)
let test_engines_agree_gauss () =
  List.iter
    (fun src ->
      let chk = Hpf.Sema.analyze_source src in
      match Spmdsim.Diffcheck.engines ~nprocs:4 ~seeds:[ 7 ] chk with
      | Spmdsim.Diffcheck.Pass { runs } -> Alcotest.(check int) "runs" 2 runs
      | out -> Alcotest.failf "%a" Spmdsim.Diffcheck.pp_outcome out)
    [ Codes.gauss (); Colocated.src ];
  Colocated.check_copies ~nprocs:4

(* The run phase of both kernel engines allocates (almost) nothing on
   the hot path: float expressions evaluate into a register file, the
   clock is a flat float cell, addressing returns an int, and intrinsics
   are resolved when the kernel is built. One domain, because
   [Gc.minor_words] counts only the calling domain's allocation. The
   bound is twice the closure engine's measured 0.65 words per grid point
   per iteration (the native engine's is 0.61). *)
let test_run_allocation () =
  let n = 96 and iters = 3 in
  let prog = (compile (Codes.jacobi ~n ~iters ())).cprog in
  List.iter
    (fun engine ->
      let sim = Spmdsim.Exec.make ~engine ~domains:1 ~nprocs:4 prog in
      let w0 = Gc.minor_words () in
      ignore (Spmdsim.Exec.run sim : Spmdsim.Exec.stats);
      let per_point =
        (Gc.minor_words () -. w0) /. float_of_int (n * n * iters)
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s run allocates %.3f words per point-iteration"
           (Spmdsim.Exec.engine_to_string engine) per_point)
        true (per_point <= 1.3))
    [ `Closure; `Native ]

let test_serial_interpreter () =
  let chk = Hpf.Sema.analyze_source block_1d in
  let r = Spmdsim.Serial.run chk in
  Alcotest.(check (float 0.0)) "a(3)" 3.0 (Spmdsim.Serial.get_elem r "a" [ 3 ]);
  Alcotest.(check bool) "flops counted" true (r.r_flops > 16);
  Alcotest.(check bool) "time positive" true (r.r_time > 0.0)

let test_serial_subroutines_and_if () =
  let src =
    {|
program t
  parameter n = 4
  real a(n)
  real s
  processors p(2)
  template tt(n)
  align a(i) with tt(i)
  distribute tt(block) onto p
  call fill
  if (a(2) > 1.0) then
    s = 1.0
  else
    s = 2.0
  end if
end
subroutine fill
  do i = 1, n
    a(i) = i * 1.5
  end do
end
|}
  in
  let chk = Hpf.Sema.analyze_source src in
  let r = Spmdsim.Serial.run chk in
  Alcotest.(check (float 1e-9)) "subroutine ran" 6.0 (Spmdsim.Serial.get_elem r "a" [ 4 ]);
  Alcotest.(check (float 1e-9)) "if took then-branch" 1.0 (Spmdsim.Serial.get_scalar r "s")

(* ---- engine-differential property ----

   Random small stencil programs (random distributions, alignments and
   shift patterns, as in test_random.ml) validated through
   Diffcheck.engines: the closure engine and the tree-walking interpreter
   must produce bit-identical element values and scalars, bit-identical
   simulated clocks, and identical message/byte/retransmit counters —
   fault-free and under two seeded fault schedules (drop+retransmit,
   duplication, delay, stragglers). *)

type ed_spec = {
  ed_dist : int;  (* index into ed_dists *)
  ed_align_a : int;  (* index into ed_aligns *)
  ed_align_b : int;
  ed_stmts : ((string * (int * int)) * (string * (int * int)) list) list;
      (* (lhs array, lhs shift), rhs refs (array, shifts) *)
}

let ed_dists =
  [|
    ("processors p(2)", "distribute t(block,*) onto p");
    ("processors p(2)", "distribute t(*,block) onto p");
    ("processors p(2,2)", "distribute t(block,block) onto p");
    ("processors p(2)", "distribute t(cyclic,*) onto p");
    ("processors p(2,2)", "distribute t(cyclic,cyclic) onto p");
  |]

let ed_align name = function
  | 0 -> Printf.sprintf "align %s(i,j) with t(i,j)" name
  | 1 -> Printf.sprintf "align %s(i,j) with t(i+1,j)" name
  | _ -> Printf.sprintf "align %s(i,j) with t(j,i)" name

let ed_n = 8

let ed_src spec =
  let buf = Buffer.create 1024 in
  let pf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let procs, dist = ed_dists.(spec.ed_dist) in
  pf "program enginediff\n";
  pf "  parameter n = %d\n" ed_n;
  pf "  real a(n,n), b(n,n)\n";
  pf "  %s\n" procs;
  pf "  template t(n+1,n+1)\n";
  pf "  %s\n" (ed_align "a" spec.ed_align_a);
  pf "  %s\n" (ed_align "b" spec.ed_align_b);
  pf "  %s\n" dist;
  pf "  do i = 1, n\n    do j = 1, n\n";
  pf "      a(i,j) = i + 2*j + mod(i*j, 5)\n";
  pf "      b(i,j) = 2*i - j + mod(i+j, 3)\n";
  pf "    end do\n  end do\n";
  List.iter
    (fun ((lhs, (li, lj)), refs) ->
      let sub (di, dj) =
        let f v d = if d = 0 then v else Printf.sprintf "%s%+d" v d in
        Printf.sprintf "%s,%s" (f "i" di) (f "j" dj)
      in
      pf "  do i = 2, n-1\n    do j = 2, n-1\n";
      let rhs =
        String.concat " + "
          (List.map (fun (arr, d) -> Printf.sprintf "0.5*%s(%s)" arr (sub d)) refs)
      in
      pf "      %s(%s) = %s + 1.0\n" lhs (sub (li, lj)) rhs;
      pf "    end do\n  end do\n")
    spec.ed_stmts;
  pf "end\n";
  Buffer.contents buf

let ed_gen =
  QCheck.Gen.(
    let shift = int_range (-1) 1 in
    let ref_ = pair (oneofl [ "a"; "b" ]) (pair shift shift) in
    let stmt =
      pair (pair (oneofl [ "a"; "b" ]) (pair shift shift))
        (list_size (int_range 1 2) ref_)
    in
    map
      (fun (dist, (aa, ab), stmts) ->
        { ed_dist = dist; ed_align_a = aa; ed_align_b = ab; ed_stmts = stmts })
      (triple (int_range 0 4)
         (pair (int_range 0 2) (int_range 0 2))
         (list_size (int_range 1 2) stmt)))

let prop_engines_differential =
  QCheck.Test.make ~count:25
    ~name:"closure engine bit-identical to the interpreter (incl. faults)"
    (QCheck.make ~print:ed_src ed_gen)
    (fun spec ->
      match Hpf.Sema.analyze_source (ed_src spec) with
      | chk -> (
          match Spmdsim.Diffcheck.engines ~nprocs:4 ~seeds:[ 1; 2 ] chk with
          | Spmdsim.Diffcheck.Pass _ -> true
          | out -> QCheck.Test.fail_reportf "%a" Spmdsim.Diffcheck.pp_outcome out
          | exception Dhpf.Gen.Unsupported _ -> QCheck.assume_fail ()
          | exception Dhpf.Layout.Unsupported _ -> QCheck.assume_fail ())
      | exception Hpf.Sema.Error _ -> QCheck.assume_fail ())

let () =
  Alcotest.run "exec"
    [
      ( "machine",
        [
          Alcotest.test_case "ownership block" `Quick test_ownership_block;
          Alcotest.test_case "ownership cyclic" `Quick test_ownership_cyclic;
          Alcotest.test_case "clock monotone" `Quick test_clock_monotone;
          Alcotest.test_case "message cost" `Quick test_message_cost_visible;
          Alcotest.test_case "allreduce cost" `Quick test_allreduce_cost;
          Alcotest.test_case "deadlock detected" `Quick test_deadlock_detected;
          Alcotest.test_case "parameter binding" `Quick test_param_binding;
          Alcotest.test_case "parameter names" `Quick test_param_names;
          Alcotest.test_case "gauss cyclic split sections" `Quick
            test_gauss_cyclic_split_sections;
        ] );
      ( "engines",
        [
          Alcotest.test_case "double-run guard" `Quick test_double_run_guard;
          Alcotest.test_case "interp engine ownership" `Quick
            test_ownership_interp_engine;
          Alcotest.test_case "engines agree on gauss" `Quick
            test_engines_agree_gauss;
          Alcotest.test_case "run phase allocation bound" `Quick
            test_run_allocation;
          QCheck_alcotest.to_alcotest prop_engines_differential;
        ] );
      ( "serial",
        [
          Alcotest.test_case "interpreter" `Quick test_serial_interpreter;
          Alcotest.test_case "subroutines and if" `Quick test_serial_subroutines_and_if;
        ] );
    ]
