(* Differential fuzzing of the whole compiler: random small HPF programs
   (random distributions, alignments, stencil shapes, ON_HOME choices) are
   compiled, executed on the simulated machine, and compared element by
   element against the serial reference interpreter. Any dropped or
   misplaced communication, wrong loop bound, wrong guard or wrong ownership
   either mismatches or raises inside the simulator. *)

let n = 9

type dist = DBlockStar | DStarBlock | DBlockBlock | DCyclicStar | DCyclicCyclic

let dist_txt = function
  | DBlockStar -> ("processors p(2)", "distribute t(block,*) onto p")
  | DStarBlock -> ("processors p(2)", "distribute t(*,block) onto p")
  | DBlockBlock -> ("processors p(2,2)", "distribute t(block,block) onto p")
  | DCyclicStar -> ("processors p(2)", "distribute t(cyclic,*) onto p")
  | DCyclicCyclic -> ("processors p(2,2)", "distribute t(cyclic,cyclic) onto p")

type align = AId | AShift | ASwap

let align_txt name = function
  | AId -> Printf.sprintf "align %s(i,j) with t(i,j)" name
  | AShift -> Printf.sprintf "align %s(i,j) with t(i+1,j)" name
  | ASwap -> Printf.sprintf "align %s(i,j) with t(j,i)" name

type prog_spec = {
  dist : dist;
  align_a : align;
  align_b : align;
  step_i : int;  (* step of the outer loop of every compute nest *)
  stmts : ((string * (int * int)) * (string * (int * int)) list * bool) list;
      (* (lhs array, lhs shift), rhs refs (array, shifts), on_home other *)
}

let gen_spec =
  QCheck.Gen.(
    let shift = int_range (-1) 1 in
    let ref_ = pair (oneofl [ "a"; "b" ]) (pair shift shift) in
    let stmt =
      triple
        (pair (oneofl [ "a"; "b" ]) (pair shift shift))
        (list_size (int_range 1 3) ref_)
        (frequency [ (4, return false); (1, return true) ])
    in
    map
      (fun ((dist, step_i), (aa, ab), stmts) ->
        { dist; align_a = aa; align_b = ab; step_i; stmts })
      (triple
         (pair
            (oneofl [ DBlockStar; DStarBlock; DBlockBlock; DCyclicStar; DCyclicCyclic ])
            (frequencyl [ (3, 1); (1, 2) ]))
         (pair (oneofl [ AId; AShift; ASwap ]) (oneofl [ AId; AShift; ASwap ]))
         (list_size (int_range 1 3) stmt)))

let src_of_spec spec =
  let buf = Buffer.create 1024 in
  let pf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let procs, dist = dist_txt spec.dist in
  pf "program fuzz\n";
  pf "  parameter n = %d\n" n;
  (* the shifted alignment needs a template one larger than the arrays *)
  pf "  real a(n,n), b(n,n)\n";
  pf "  %s\n" procs;
  pf "  template t(n+1,n+1)\n";
  pf "  %s\n" (align_txt "a" spec.align_a);
  pf "  %s\n" (align_txt "b" spec.align_b);
  pf "  %s\n" dist;
  pf "  do i = 1, n\n    do j = 1, n\n";
  pf "      a(i,j) = i + 2*j + mod(i*j, 5)\n";
  pf "      b(i,j) = 2*i - j + mod(i+j, 3)\n";
  pf "    end do\n  end do\n";
  List.iter
    (fun ((lhs, (li, lj)), refs, oh) ->
      let sub (di, dj) =
        let f v d = if d = 0 then v else Printf.sprintf "%s%+d" v d in
        Printf.sprintf "%s,%s" (f "i" di) (f "j" dj)
      in
      (if spec.step_i = 1 then pf "  do i = 2, n-1\n"
       else pf "  do i = 2, n-1, %d\n" spec.step_i);
      pf "    do j = 2, n-1\n";
      if oh then begin
        let other = if lhs = "a" then "b" else "a" in
        pf "      !on_home %s(i,j)\n" other
      end;
      let rhs =
        String.concat " + "
          (List.map (fun (arr, d) -> Printf.sprintf "0.5*%s(%s)" arr (sub d)) refs)
      in
      pf "      %s(%s) = %s + 1.0\n" lhs (sub (li, lj)) rhs;
      pf "    end do\n  end do\n")
    spec.stmts;
  pf "end\n";
  Buffer.contents buf

let validate spec =
  let src = src_of_spec spec in
  let chk = Hpf.Sema.analyze_source src in
  let compiled = Dhpf.Gen.compile chk in
  let sref = Spmdsim.Serial.run chk in
  let sim = Spmdsim.Exec.make ~nprocs:4 compiled.Dhpf.Gen.cprog in
  let _ = Spmdsim.Exec.run sim in
  let ok = ref true in
  List.iter
    (fun name ->
      for i = 1 to n do
        for j = 1 to n do
          let want = Spmdsim.Serial.get_elem sref name [ i; j ] in
          let got = Spmdsim.Exec.get_elem sim name [ i; j ] in
          if abs_float (want -. got) > 1e-6 *. (abs_float want +. 1.0) then ok := false
        done
      done)
    [ "a"; "b" ];
  !ok

let arb_spec = QCheck.make ~print:src_of_spec gen_spec

let prop_differential =
  QCheck.Test.make ~count:30 ~name:"compiled SPMD executions match the serial oracle"
    arb_spec
    (fun spec ->
      match validate spec with
      | ok -> ok
      | exception Dhpf.Gen.Unsupported _ -> QCheck.assume_fail ()
      | exception Dhpf.Layout.Unsupported _ -> QCheck.assume_fail ())

(* the same programs with each optimization disabled must also match *)
let prop_differential_ablated =
  let opts_list =
    [
      { Dhpf.Gen.default_options with opt_split = false };
      { Dhpf.Gen.default_options with opt_coalesce = false };
    ]
  in
  QCheck.Test.make ~count:15 ~name:"ablated configurations match the serial oracle"
    arb_spec
    (fun spec ->
      let src = src_of_spec spec in
      match Hpf.Sema.analyze_source src with
      | chk ->
          List.for_all
            (fun opts ->
              match Dhpf.Gen.compile ~opts chk with
              | compiled -> (
                  let sref = Spmdsim.Serial.run chk in
                  let sim = Spmdsim.Exec.make ~nprocs:4 compiled.Dhpf.Gen.cprog in
                  match Spmdsim.Exec.run sim with
                  | _ ->
                      let ok = ref true in
                      List.iter
                        (fun name ->
                          for i = 1 to n do
                            for j = 1 to n do
                              let want = Spmdsim.Serial.get_elem sref name [ i; j ] in
                              let got = Spmdsim.Exec.get_elem sim name [ i; j ] in
                              if abs_float (want -. got) > 1e-6 *. (abs_float want +. 1.0)
                              then ok := false
                            done
                          done)
                        [ "a"; "b" ];
                      !ok)
              | exception Dhpf.Gen.Unsupported _ -> true
              | exception Dhpf.Layout.Unsupported _ -> true)
            opts_list
      | exception Hpf.Sema.Error _ -> QCheck.assume_fail ())

(* the same random programs must also survive adversarial fault schedules:
   drop+retransmit, duplicates, delays and stragglers, three seeds each,
   all matching the serial oracle through the differential harness *)
let prop_differential_faulted =
  QCheck.Test.make ~count:15
    ~name:"fault-injected executions match the serial oracle" arb_spec
    (fun spec ->
      let src = src_of_spec spec in
      match Hpf.Sema.analyze_source src with
      | chk -> (
          match Spmdsim.Diffcheck.run ~seeds:[ 1; 2; 3 ] chk with
          | Spmdsim.Diffcheck.Pass _ -> true
          | out ->
              QCheck.Test.fail_reportf "%a" Spmdsim.Diffcheck.pp_outcome out
          | exception Dhpf.Gen.Unsupported _ -> QCheck.assume_fail ()
          | exception Dhpf.Layout.Unsupported _ -> QCheck.assume_fail ())
      | exception Hpf.Sema.Error _ -> QCheck.assume_fail ())

(* and they must survive fail-stop crashes with checkpoint/restart
   recovery: random crash schedules, three seeds, both engines, every
   element bit-identical to the fault-free run and the per-pair
   communication table fault-invariant *)
let prop_crash_recovery =
  QCheck.Test.make ~count:10
    ~name:"crash + checkpoint/restart recovery is value-exact" arb_spec
    (fun spec ->
      let src = src_of_spec spec in
      match Hpf.Sema.analyze_source src with
      | chk -> (
          match
            Spmdsim.Diffcheck.crashes ~ckpt_every:6 ~seeds:[ 1; 2; 3 ] chk
          with
          | Spmdsim.Diffcheck.Pass _ -> true
          | out ->
              QCheck.Test.fail_reportf "%a" Spmdsim.Diffcheck.pp_outcome out
          | exception Dhpf.Gen.Unsupported _ -> QCheck.assume_fail ()
          | exception Dhpf.Layout.Unsupported _ -> QCheck.assume_fail ())
      | exception Hpf.Sema.Error _ -> QCheck.assume_fail ())

(* the access modes loop splitting fixes without a query equal the
   queries' answers on every section of every split nest *)
let prop_fixed_modes =
  QCheck.Test.make ~count:30
    ~name:"split access modes fixed by construction equal the queries"
    arb_spec
    (fun spec ->
      match Dhpf.Gen.compile (Hpf.Sema.analyze_source (src_of_spec spec)) with
      | c -> (
          match Fixedmodes.check c with
          | _, [] -> true
          | _, bad -> QCheck.Test.fail_reportf "%s" (String.concat "\n" bad))
      | exception Dhpf.Gen.Unsupported _ -> QCheck.assume_fail ()
      | exception Dhpf.Layout.Unsupported _ -> QCheck.assume_fail ())

let () =
  Alcotest.run "random"
    [
      ( "differential",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_differential;
            prop_differential_ablated;
            prop_differential_faulted;
            prop_crash_recovery;
          ] );
      ("split", [ QCheck_alcotest.to_alcotest prop_fixed_modes ]);
    ]
