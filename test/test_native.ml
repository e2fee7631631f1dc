(* Native-engine differential suite: the generated-OCaml backend must be
   bit-identical to the closure engine and the tree-walking interpreter —
   element values, scalars, simulated clocks, message/byte counters and
   per-pair communication cells — on every built-in benchmark, under
   fault schedules, and on randomly generated programs. Also covers the
   source-hash build cache (second make of the same program must hit)
   and the emitted unit: one loop per function, and what emitting costs. *)

let three_way ?(seeds = [ 7; 21 ]) src =
  let chk = Hpf.Sema.analyze_source src in
  match Spmdsim.Diffcheck.engines ~seeds chk with
  | Spmdsim.Diffcheck.Pass _ -> ()
  | out -> Alcotest.failf "%a" Spmdsim.Diffcheck.pp_outcome out

(* one case per built-in benchmark, fault-free plus two fault schedules,
   all three engines agreeing exactly *)
let benchmark_cases =
  List.map
    (fun (name, src) ->
      Alcotest.test_case name `Slow (fun () -> three_way src))
    (Codes.all_small ())

(* random programs: reuse the shape of the serial-oracle fuzzer (random
   distribution, alignments, stencil shifts) but assert the stronger
   three-engine bit-identity property instead of a tolerance check.
   Count is kept small because each distinct program costs one
   out-of-process ocamlopt build on a cold cache. *)
let gen_src =
  QCheck.Gen.(
    let shift = int_range (-1) 1 in
    let dist =
      oneofl
        [
          ("processors p(2)", "distribute t(block,*) onto p");
          ("processors p(2)", "distribute t(*,block) onto p");
          ("processors p(2,2)", "distribute t(block,block) onto p");
          ("processors p(2)", "distribute t(cyclic,*) onto p");
        ]
    in
    let align name =
      map
        (fun k ->
          match k with
          | 0 -> Printf.sprintf "align %s(i,j) with t(i,j)" name
          | 1 -> Printf.sprintf "align %s(i,j) with t(i+1,j)" name
          | _ -> Printf.sprintf "align %s(i,j) with t(j,i)" name)
        (int_range 0 2)
    in
    let ref_ = pair (oneofl [ "a"; "b" ]) (pair shift shift) in
    let stmt = pair ref_ (list_size (int_range 1 3) ref_) in
    map
      (fun ((procs, dist), (aa, ab), stmts) ->
        let buf = Buffer.create 1024 in
        let pf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
        pf "program nfuzz\n  parameter n = 9\n  real a(n,n), b(n,n)\n";
        pf "  %s\n  template t(n+1,n+1)\n  %s\n  %s\n  %s\n" procs aa ab dist;
        pf "  do i = 1, n\n    do j = 1, n\n";
        pf "      a(i,j) = i + 2*j + mod(i*j, 5)\n";
        pf "      b(i,j) = 2*i - j + mod(i+j, 3)\n";
        pf "    end do\n  end do\n";
        List.iter
          (fun ((lhs, ld), refs) ->
            let sub (di, dj) =
              let f v d = if d = 0 then v else Printf.sprintf "%s%+d" v d in
              Printf.sprintf "%s,%s" (f "i" di) (f "j" dj)
            in
            pf "  do i = 2, n-1\n    do j = 2, n-1\n";
            let rhs =
              String.concat " + "
                (List.map
                   (fun (arr, d) -> Printf.sprintf "0.5*%s(%s)" arr (sub d))
                   refs)
            in
            pf "      %s(%s) = %s + 1.0\n" lhs (sub ld) rhs;
            pf "    end do\n  end do\n")
          stmts;
        pf "end\n";
        Buffer.contents buf)
      (triple dist
         (pair (align "a") (align "b"))
         (list_size (int_range 1 2) stmt)))

let prop_three_way_random =
  QCheck.Test.make ~count:5
    ~name:"random programs are bit-identical across all three engines"
    (QCheck.make ~print:Fun.id gen_src)
    (fun src ->
      match Hpf.Sema.analyze_source src with
      | chk -> (
          match Spmdsim.Diffcheck.engines ~seeds:[ 1 ] chk with
          | Spmdsim.Diffcheck.Pass _ -> true
          | out ->
              QCheck.Test.fail_reportf "%a" Spmdsim.Diffcheck.pp_outcome out
          | exception Dhpf.Gen.Unsupported _ -> QCheck.assume_fail ()
          | exception Dhpf.Layout.Unsupported _ -> QCheck.assume_fail ())
      | exception Hpf.Sema.Error _ -> QCheck.assume_fail ())

(* the source-hash cache: building the same program twice into a fresh
   cache directory must invoke the compiler exactly once and hit on the
   second make, and both runs must produce bit-identical results *)
let test_cache_hit () =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "dhpf-native-test-%d" (Unix.getpid ()))
  in
  Obs.Metrics.enable ();
  Obs.Metrics.reset ();
  let chk = Hpf.Sema.analyze_source (Codes.jacobi ()) in
  let cprog = (Dhpf.Gen.compile chk).Dhpf.Gen.cprog in
  let run () =
    let sim = Spmdsim.Native.make ~cache_dir:dir ~nprocs:4 cprog in
    ignore (Spmdsim.Compile.run sim);
    sim
  in
  let s1 = run () in
  let s2 = run () in
  let find name =
    List.find_opt
      (fun s -> s.Obs.Metrics.m_name = name)
      (Obs.Metrics.snapshot ())
  in
  (match find "native/build_s" with
  | Some { m_value = VHisto h; _ } ->
      Alcotest.(check int) "exactly one compiler invocation" 1 h.hs_count
  | _ -> Alcotest.fail "native/build_s histogram missing");
  (match find "native/cache_hit" with
  | Some { m_value = VCounter c; _ } ->
      Alcotest.(check bool) "second make hit the cache" true (c >= 1.0)
  | _ -> Alcotest.fail "native/cache_hit counter missing");
  List.iter
    (fun idx ->
      let a = Spmdsim.Compile.get_elem s1 "a" idx in
      let b = Spmdsim.Compile.get_elem s2 "a" idx in
      Alcotest.(check bool)
        (Printf.sprintf "a(%s) bit-identical across cache hit"
           (String.concat "," (List.map string_of_int idx)))
        true
        (Int64.bits_of_float a = Int64.bits_of_float b))
    [ [ 1; 1 ]; [ 8; 8 ]; [ 128; 128 ] ];
  Obs.Metrics.disable ();
  ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote dir)))

(* ---- hand-built programs: runtime error paths, subroutine resolution ---- *)

open Dhpf
open Iset.Codegen

let engines = [ `Closure; `Interp; `Native ]

let prog ?(arrays = []) ?(scalars = []) ?(subs = []) main : Spmd.program =
  {
    proc_dims =
      [ { Spmd.pd_mode = Spmd.VpIsPhys; pd_extent = EInt 2; pd_tlo = EInt 0;
          pd_bsize = None } ];
    proc_extents = [ EInt 2 ];
    params = [];
    arrays;
    scalars;
    events = [];
    main;
    subs;
  }

(* a(1:4), block-distributed: processor 0 owns a(1:2), processor 1 a(3:4) *)
let block_a =
  {
    Spmd.ad_name = "a";
    ad_bounds = [ (EInt 1, EInt 4) ];
    ad_layout =
      Some
        {
          Spmd.la_name = "a";
          la_dims =
            [
              {
                Spmd.source = Spmd.FromData { data_dim = 0; coef = 1; off = EInt 0 };
                fmt = Spmd.RBlock { bsize = EInt 2 };
                tlo = EInt 1;
                vp_mode = Spmd.VpIsPhys;
                pextent = EInt 2;
              };
            ];
        };
  }

let on_proc0 body = Spmd.If (CEq0 (EVar "m$1"), body)

let loop var ~hi ?(step = EInt 1) body =
  Spmd.For { var; lo = EInt 1; hi; step; body }

(* each case raises on processor 0 only, so the message is deterministic *)
let error_cases =
  [
    ( "subscript out of bounds (unproven dimension)",
      prog ~arrays:[ block_a ]
        [
          on_proc0
            [
              loop "k" ~hi:(EInt 5)
                [
                  Spmd.Store
                    { arr = "a"; idx = [ EVar "k" ]; value = FConst 1.0;
                      access = Spmd.Global };
                ];
            ];
        ],
      "array a: index 5 outside [1,4] (dim 1)" );
    ( "non-positive loop step",
      prog [ on_proc0 [ loop "k" ~hi:(EInt 4) ~step:(EVar "m$1") [] ] ],
      "proc 0: non-positive loop step for k" );
    ( "unbound integer name",
      prog ~scalars:[ "s" ]
        [ on_proc0 [ Spmd.SetScalar ("s", Spmd.FOfInt (EVar "nope")) ] ],
      "proc 0: unbound integer name nope" );
    ( "Local store to a non-owned element",
      prog ~arrays:[ block_a ]
        [
          on_proc0
            [
              Spmd.Store
                { arr = "a"; idx = [ EInt 3 ]; value = FConst 1.0; access = Spmd.Local };
            ];
        ],
      "proc 0: Local store to non-owned a(3)" );
    ( "Checked read of never-received data",
      prog ~arrays:[ block_a ] ~scalars:[ "s" ]
        [
          on_proc0
            [
              Spmd.SetScalar
                ("s", Spmd.FLoad { arr = "a"; idx = [ EInt 4 ]; access = Spmd.Checked });
            ];
        ],
      "proc 0: Checked access to non-local a(4) with no received value" );
    ( "packing a non-resident element",
      prog ~arrays:[ block_a ]
        [ on_proc0 [ Spmd.Pack { event = 0; arr = "a"; idx = [ EInt 3 ] } ] ],
      "proc 0: packing non-resident element a(3)" );
    ( "Call to an unknown subroutine",
      prog [ on_proc0 [ Spmd.Call "missing" ] ],
      "proc 0: unknown subroutine missing" );
  ]

let error_case (name, p, want) =
  Alcotest.test_case name `Quick (fun () ->
      List.iter
        (fun engine ->
          let got =
            match Spmdsim.Exec.run (Spmdsim.Exec.make ~engine ~nprocs:2 p) with
            | _ -> None
            | exception Spmdsim.Runtime.Error msg -> Some msg
          in
          Alcotest.(check (option string))
            (Spmdsim.Exec.engine_to_string engine)
            (Some want) got)
        engines)

(* Subroutine names resolve by the lowering's rules: a later definition
   shadows an earlier one but is lowered at the first one's position in
   slot order, a subroutine may call one declared after it, and a slot
   first seen inside a subroutine still sizes every processor's state. *)
let sub_prog =
  let b =
    { Spmd.ad_name = "b"; ad_bounds = [ (EInt 1, EInt 4) ]; ad_layout = None }
  in
  prog ~arrays:[ b ] ~scalars:[ "s" ]
    ~subs:
      [
        ("first", [ Spmd.Call "second" ]);
        ("dup", [ loop "x" ~hi:(EInt 1) [ Spmd.SetScalar ("s", Spmd.FConst 1.0) ] ]);
        ( "second",
          [
            loop "k" ~hi:(EInt 4)
              [
                Spmd.Store
                  {
                    arr = "b";
                    idx = [ EVar "k" ];
                    value = Spmd.FBin (Hpf.Ast.Mul, Spmd.FOfInt (EVar "k"), Spmd.FConst 0.5);
                    access = Spmd.Global;
                  };
                Spmd.SetScalar ("t", Spmd.FOfInt (EVar "k"));
              ];
          ] );
        ( "dup",
          [
            loop "j" ~hi:(EInt 2)
              [
                Spmd.SetScalar
                  ("s", Spmd.FBin (Hpf.Ast.Add, Spmd.FScalar "s", Spmd.FOfInt (EVar "j")));
              ];
          ] );
      ]
    [ Spmd.Call "first"; Spmd.Call "dup" ]

let test_sub_resolution () =
  let k = (Spmdsim.Compile.prepare ~nprocs:2 sub_prog).Spmdsim.Compile.c_kernel in
  let islot n = List.assoc_opt n k.Spmdsim.Imp.k_islots in
  Alcotest.(check (option int)) "shadowed body is never lowered" None (islot "x");
  Alcotest.(check bool) "later dup body lowered at dup's first position" true
    (islot "j" < islot "k" && islot "j" <> None);
  let bits x = Int64.bits_of_float x in
  let observe engine =
    let sim = Spmdsim.Exec.make ~engine ~nprocs:2 sub_prog in
    let st = Spmdsim.Exec.run sim in
    ( List.map bits
        ([ Spmdsim.Exec.get_scalar sim "s"; Spmdsim.Exec.get_scalar sim "t" ]
        @ List.map (fun i -> Spmdsim.Exec.get_elem sim "b" [ i ]) [ 1; 2; 3; 4 ]),
      List.map bits (st.Spmdsim.Exec.s_time :: Array.to_list (Spmdsim.Exec.clocks sim)) )
  in
  let want = List.map bits [ 3.0; 4.0; 0.5; 1.0; 1.5; 2.0 ] in
  let _, ref_clocks = observe `Interp in
  List.iter
    (fun engine ->
      let name = Spmdsim.Exec.engine_to_string engine in
      let values, clocks = observe engine in
      Alcotest.(check (list int64)) (name ^ ": values") want values;
      Alcotest.(check (list int64)) (name ^ ": clocks match the interpreter")
        ref_clocks clocks)
    engines

(* Every intrinsic, at the inputs where implementations part ways:
   negative arguments, both signed zeros under max/min/sign (y holds -0.0
   past the middle and +0.0 before it), negative mod operands, and
   intrinsics inside a float condition and a scalar update. Each result
   lands in its own array so Diffcheck compares it bit for bit. *)
let intrinsics_src =
  {|
program intrin
  parameter n = 8
  real x(n), y(n), z(n)
  real r1(n), r2(n), r3(n), r4(n), r5(n), r6(n), r7(n), r8(n)
  real r9(n), r10(n), r11(n), r12(n), r13(n), r14(n), r15(n), r16(n)
  real s
  processors p(2)
  template t(n)
  align x(i) with t(i)
  align y(i) with t(i)
  align z(i) with t(i)
  align r1(i) with t(i)
  align r2(i) with t(i)
  align r3(i) with t(i)
  align r4(i) with t(i)
  align r5(i) with t(i)
  align r6(i) with t(i)
  align r7(i) with t(i)
  align r8(i) with t(i)
  align r9(i) with t(i)
  align r10(i) with t(i)
  align r11(i) with t(i)
  align r12(i) with t(i)
  align r13(i) with t(i)
  align r14(i) with t(i)
  align r15(i) with t(i)
  align r16(i) with t(i)
  distribute t(block) onto p

  do i = 1, n
    x(i) = i - 4.5
    y(i) = (4 - i) * 0.0
    z(i) = 3 - i
  end do
  s = 0.0
  do i = 1, n
    r1(i) = abs(x(i))
    r2(i) = sqrt(abs(x(i)))
    r3(i) = exp(x(i))
    r4(i) = log(abs(x(i)))
    r5(i) = sin(x(i))
    r6(i) = cos(z(i))
    r7(i) = float(i - 5)
    r8(i) = max(y(i), 0.0)
    r9(i) = max(0.0, -y(i))
    r10(i) = min(y(i), 0.0)
    r11(i) = min(-0.0, x(i))
    r12(i) = mod(x(i), 2.0)
    r13(i) = mod(z(i), -2.5)
    r14(i) = sign(x(i), y(i))
    r15(i) = sign(-1.5, -y(i))
    if (max(s - 3.0, -0.0) > min(float(i) - 4.0, 0.0)) then
      r16(i) = sign(z(i), x(i))
    else
      r16(i) = -sign(2.0, z(i))
    end if
    s = max(s, abs(x(i) - z(i)))
  end do
end program intrin
|}

let test_intrinsics () = three_way intrinsics_src

(* [max] with three arguments passes Sema, and every engine builds it; it
   fails only when executed, with the interpreter's error *)
let test_unknown_intrinsic () =
  let src =
    {|
program badmax
  parameter n = 4
  real x(n)
  processors p(2)
  template t(n)
  align x(i) with t(i)
  distribute t(block) onto p
  do i = 1, n
    x(i) = max(1.0, 2.0, float(i))
  end do
end program badmax
|}
  in
  let p = (Gen.compile (Hpf.Sema.analyze_source src)).Gen.cprog in
  List.iter
    (fun engine ->
      let sim = Spmdsim.Exec.make ~engine ~nprocs:2 p in
      let got =
        match Spmdsim.Exec.run sim with
        | _ -> None
        | exception Spmdsim.Serial.Error msg -> Some msg
      in
      Alcotest.(check (option string))
        (Spmdsim.Exec.engine_to_string engine)
        (Some "unknown intrinsic max/3") got)
    engines

(* ---- the emitted unit: one function per loop, emitted cheaply ---- *)

let kernel_of ~nprocs src =
  let p = (Gen.compile (Hpf.Sema.analyze_source src)).Gen.cprog in
  (Spmdsim.Compile.prepare ~nprocs p).Spmdsim.Compile.c_kernel

(* the unit's functions, as (header, [while] count): each starts at a
   line beginning [let rec] or [and] *)
let functions unit_src =
  let starts l = String.starts_with ~prefix:"let rec " l || String.starts_with ~prefix:"and " l in
  List.fold_left
    (fun acc l ->
      match acc with
      | _ when starts l -> (l, 0) :: acc
      | (h, n) :: rest when String.starts_with ~prefix:"while " (String.trim l) ->
          (h, n + 1) :: rest
      | _ -> acc)
    [] (String.split_on_char '\n' unit_src)

let test_loop_per_function () =
  List.iter
    (fun (name, src) ->
      let fns = functions (Spmdsim.Emit.emit (kernel_of ~nprocs:4 src)) in
      if List.length fns < 2 then Alcotest.failf "%s: loops were not outlined" name;
      List.iter
        (fun (h, n) -> if n > 1 then Alcotest.failf "%s: %d loops in %s" name n h)
        fns)
    (Codes.all_small ())

(* Emitting JACOBI-384 (945 loops, 1.3 MB of source) writes into one
   buffer: 1.2 M words measured (minor plus major), bounded at twice
   that; every native [Exec.make] pays it *)
let emit_words_bound = 2.5e6

let test_emit_cost () =
  let k =
    kernel_of ~nprocs:8 (Codes.jacobi ~n:384 ~iters:4 ~procs:(Codes.Symbolic2 2) ())
  in
  ignore (Spmdsim.Emit.emit k);
  let mi0, _, ma0 = Gc.counters () in
  ignore (Spmdsim.Emit.emit k);
  let mi1, _, ma1 = Gc.counters () in
  let words = mi1 -. mi0 +. (ma1 -. ma0) in
  if words > emit_words_bound then
    Alcotest.failf "emitting JACOBI-384 allocated %.0f words (bound %.0f)" words
      emit_words_bound

(* Concurrent cold builds of one kernel: three processes make the same
   never-seen program over one empty cache directory at once. Each must
   succeed (no process may link against another's half-written objects)
   and all must compute bit-identical results. *)
let test_concurrent_build () =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "dhpf-native-race-%d" (Unix.getpid ()))
  in
  (* a literal no earlier build has seen: every child misses memo and disk *)
  let fresh = Unix.gettimeofday () in
  let p =
    prog ~arrays:[ block_a ] ~scalars:[ "s" ]
      [
        loop "k" ~hi:(EInt 4)
          [
            Spmd.If
              ( CEq0 (ESub (EVar "m$1", EFloorDiv (ESub (EVar "k", EInt 1), 2))),
                [
                  Spmd.Store
                    {
                      arr = "a";
                      idx = [ EVar "k" ];
                      value = Spmd.FBin (Hpf.Ast.Mul, Spmd.FOfInt (EVar "k"), Spmd.FConst fresh);
                      access = Spmd.Local;
                    };
                ] );
          ];
      ]
  in
  let result i = Filename.concat dir (Printf.sprintf "result.%d" i) in
  let child i () =
    let sim = Spmdsim.Native.make ~cache_dir:dir ~nprocs:2 p in
    let st = Spmdsim.Compile.run sim in
    let oc = open_out (result i) in
    List.iter
      (fun x -> Printf.fprintf oc "%Lx\n" (Int64.bits_of_float x))
      (st.Spmdsim.Runtime.s_time
      :: List.map (fun k -> Spmdsim.Compile.get_elem sim "a" [ k ]) [ 1; 2; 3; 4 ]);
    close_out oc
  in
  Unix.mkdir dir 0o755;
  let pids =
    List.map
      (fun i ->
        match Unix.fork () with
        | 0 -> Unix._exit (match child i () with () -> 0 | exception _ -> 1)
        | pid -> pid)
      [ 0; 1; 2 ]
  in
  List.iteri
    (fun i pid ->
      match Unix.waitpid [] pid with
      | _, Unix.WEXITED 0 -> ()
      | _ -> Alcotest.failf "child %d failed to make or run the kernel" i)
    pids;
  let read i = In_channel.with_open_bin (result i) In_channel.input_all in
  Alcotest.(check bool) "results were written" true (read 0 <> "");
  Alcotest.(check string) "child 1 bit-identical to child 0" (read 0) (read 1);
  Alcotest.(check string) "child 2 bit-identical to child 0" (read 0) (read 2);
  ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote dir)))

let () =
  Alcotest.run "native"
    [
      (* forks: first, before any test can leave other domains running *)
      ( "build race",
        [ Alcotest.test_case "concurrent cold builds" `Slow test_concurrent_build ] );
      ("benchmarks", benchmark_cases);
      ( "random",
        List.map QCheck_alcotest.to_alcotest [ prop_three_way_random ] );
      ( "cache",
        [ Alcotest.test_case "source-hash cache hit" `Slow test_cache_hit ] );
      ("errors", List.map error_case error_cases);
      ( "calls",
        [ Alcotest.test_case "resolution rules" `Quick test_sub_resolution ] );
      ( "intrinsics",
        [
          Alcotest.test_case "all engines agree" `Slow test_intrinsics;
          Alcotest.test_case "unknown arity fails at run" `Quick
            test_unknown_intrinsic;
        ] );
      ( "emit",
        [
          Alcotest.test_case "one loop per function" `Quick test_loop_per_function;
          Alcotest.test_case "JACOBI-384 emission allocation" `Quick test_emit_cost;
        ] );
    ]
