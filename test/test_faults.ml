(* Resilience suite for the fault-injection layer: schedules are
   reproducible from their seed, adversarial transports (drop+retransmit,
   delay, stragglers) leave computed values bit-identical to the
   fault-free run and matching the serial oracle, and deadlocks surface
   as structured wait-for-cycle diagnostics. *)

open Dhpf

let jacobi () = Codes.jacobi ~n:16 ~iters:2 ~procs:(Codes.Fixed (2, 2)) ()
let gauss () = Codes.gauss ~n:8 ~pivot:2 ~procs:(Codes.Fixed (2, 2)) ()
let tomcatv () = Codes.tomcatv ~n:17 ~iters:2 ~procs:(Codes.Symbolic2 1) ()

let exec ?faults ~nprocs prog =
  let sim = Spmdsim.Exec.make ?faults ~nprocs prog in
  let stats = Spmdsim.Exec.run sim in
  (sim, stats)

(* enumerate every element of every array of a checked program *)
let iter_elems chk f =
  let sref = Spmdsim.Serial.run chk in
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
        | [] -> f aname (List.rev idx)
        | (lo, hi) :: rest ->
            for x = lo to hi do
              go (x :: idx) rest
            done
      in
      go [] bounds)
    chk.Hpf.Sema.env.arrays

(* ---- (a) determinism: same seed => same schedule, same stats ---- *)

let test_schedule_determinism () =
  let sp = Spmdsim.Fault.default ~seed:42 in
  (* the plan is a pure function of the message identity *)
  for ev = 0 to 5 do
    for seq = 0 to 5 do
      let p1 = Spmdsim.Fault.plan sp ~event:ev ~src:1 ~dst:2 ~seq in
      let p2 = Spmdsim.Fault.plan sp ~event:ev ~src:1 ~dst:2 ~seq in
      Alcotest.(check bool) "identical plans" true (p1 = p2)
    done
  done;
  (* different seeds give different schedules somewhere *)
  let differs =
    List.exists
      (fun seq ->
        Spmdsim.Fault.plan sp ~event:1 ~src:0 ~dst:1 ~seq
        <> Spmdsim.Fault.plan (Spmdsim.Fault.default ~seed:43) ~event:1 ~src:0
             ~dst:1 ~seq)
      [ 0; 1; 2; 3; 4; 5; 6; 7 ]
  in
  Alcotest.(check bool) "seed changes the schedule" true differs

let test_run_determinism () =
  let chk = Hpf.Sema.analyze_source (jacobi ()) in
  let compiled = Gen.compile chk in
  let faults = Spmdsim.Fault.default ~seed:7 in
  let _, st1 = exec ~faults ~nprocs:4 compiled.cprog in
  let _, st2 = exec ~faults ~nprocs:4 compiled.cprog in
  Alcotest.(check bool) "identical stats for identical seeds" true (st1 = st2);
  let _, st3 = exec ~faults:(Spmdsim.Fault.default ~seed:8) ~nprocs:4 compiled.cprog in
  Alcotest.(check bool) "a different seed perturbs the timing" true
    (st3.s_time <> st1.s_time || st3.s_retransmits <> st1.s_retransmits)

(* ---- (b) value identity under adversarial transports ---- *)

let check_identical name src faults =
  let chk = Hpf.Sema.analyze_source src in
  let compiled = Gen.compile chk in
  let clean, _ = exec ~nprocs:4 compiled.cprog in
  let faulty, stats = exec ~faults ~nprocs:4 compiled.cprog in
  let bad = ref 0 and total = ref 0 in
  iter_elems chk (fun aname idx ->
      incr total;
      let a = Spmdsim.Exec.get_elem clean aname idx in
      let b = Spmdsim.Exec.get_elem faulty aname idx in
      if a <> b then incr bad);
  Alcotest.(check int) (name ^ ": elements differ from fault-free run") 0 !bad;
  Alcotest.(check bool) (name ^ ": nonzero elements compared") true (!total > 0);
  stats

let drop_spec =
  { (Spmdsim.Fault.default ~seed:11) with
    drop_prob = 0.5; max_retries = 4; delay_prob = 0.0; skew_max = 1.0 }

let chaos_spec = Spmdsim.Fault.default ~seed:13

let test_drop_retransmit () =
  let st = check_identical "jacobi/drop" (jacobi ()) drop_spec in
  Alcotest.(check bool) "retransmits happened" true (st.s_retransmits > 0);
  ignore (check_identical "gauss/drop" (gauss ()) drop_spec)

let test_chaos_all_benchmarks () =
  List.iter
    (fun (name, src) ->
      ignore (check_identical (name ^ "/chaos") src chaos_spec))
    [ ("jacobi", jacobi ()); ("gauss", gauss ()); ("tomcatv", tomcatv ()) ]

let test_faults_cost_time () =
  let chk = Hpf.Sema.analyze_source (jacobi ()) in
  let compiled = Gen.compile chk in
  let _, clean = exec ~nprocs:4 compiled.cprog in
  let _, dropped = exec ~faults:drop_spec ~nprocs:4 compiled.cprog in
  Alcotest.(check bool) "retransmit timeouts slow the run" true
    (dropped.s_time > clean.s_time);
  let skew_spec =
    { Spmdsim.Fault.none with seed = 21; skew_max = 3.0 }
  in
  let _, skewed = exec ~faults:skew_spec ~nprocs:4 compiled.cprog in
  Alcotest.(check bool) "stragglers slow the run" true
    (skewed.s_time > clean.s_time);
  Alcotest.(check int) "skew alone drops nothing" 0 skewed.s_retransmits

(* serial-oracle matching under faults, via the differential harness *)
let test_diffcheck_oracle () =
  List.iter
    (fun (name, src) ->
      let chk = Hpf.Sema.analyze_source src in
      match Spmdsim.Diffcheck.run ~seeds:[ 1; 2; 3 ] chk with
      | Spmdsim.Diffcheck.Pass { runs } ->
          Alcotest.(check int) (name ^ ": all runs compared") 4 runs
      | out -> Alcotest.fail (Fmt.str "%s: %a" name Spmdsim.Diffcheck.pp_outcome out))
    [ ("jacobi", jacobi ()); ("gauss", gauss ()) ]

(* ---- (c) structured deadlock diagnostics ---- *)

(* a hand-built two-processor program where proc 0 receives from proc 1 and
   proc 1 receives from proc 0, with no sends: a genuine wait-for cycle *)
let cyclic_prog : Spmd.program =
  let open Iset.Codegen in
  {
    proc_dims =
      [ { Spmd.pd_mode = Spmd.VpIsPhys; pd_extent = EInt 2; pd_tlo = EInt 0;
          pd_bsize = None } ];
    proc_extents = [ EInt 2 ];
    params = [];
    arrays = [];
    scalars = [];
    events = [];
    main =
      [
        Spmd.If (CEq0 (EVar "m$1"), [ Spmd.Recv { event = 7; src = [ EInt 1 ] } ]);
        Spmd.If
          ( CEq0 (ESub (EVar "m$1", EInt 1)),
            [ Spmd.Recv { event = 8; src = [ EInt 0 ] } ] );
      ];
    subs = [];
  }

let test_deadlock_cycle () =
  let sim = Spmdsim.Exec.make ~nprocs:2 cyclic_prog in
  match Spmdsim.Exec.run sim with
  | _ -> Alcotest.fail "expected a deadlock"
  | exception Spmdsim.Exec.Deadlock d ->
      Alcotest.(check int) "both procs stuck" 2 (List.length d.dg_waiting);
      Alcotest.(check (list int)) "cycle names both processors" [ 0; 1 ]
        (List.sort compare d.dg_cycle);
      List.iter
        (fun (w : Spmdsim.Exec.proc_wait) ->
          match w.w_reason with
          | Spmdsim.Exec.WaitRecv r ->
              let want_event, want_src = if w.w_pid = 0 then (7, 1) else (8, 0) in
              Alcotest.(check int)
                (Printf.sprintf "proc %d waits on the right event" w.w_pid)
                want_event r.wr_event;
              Alcotest.(check int)
                (Printf.sprintf "proc %d waits on the right peer" w.w_pid)
                want_src r.wr_src_pid
          | _ -> Alcotest.fail "expected recv waits")
        d.dg_waiting;
      let txt = Spmdsim.Exec.diagnostic_to_string d in
      Alcotest.(check bool) "printer shows the cycle" true
        (let has needle =
           let nl = String.length needle and tl = String.length txt in
           let rec go i = i + nl <= tl && (String.sub txt i nl = needle || go (i + 1)) in
           go 0
         in
         has "wait-for cycle" && has "event 7" && has "event 8")

(* a reduce/recv mismatch also diagnoses: proc 0 reaches the collective
   while proc 1 blocks on a recv that is never sent *)
let mixed_stall_prog : Spmd.program =
  let open Iset.Codegen in
  {
    proc_dims =
      [ { Spmd.pd_mode = Spmd.VpIsPhys; pd_extent = EInt 2; pd_tlo = EInt 0;
          pd_bsize = None } ];
    proc_extents = [ EInt 2 ];
    params = [];
    arrays = [];
    scalars = [ "s" ];
    events = [];
    main =
      [
        Spmd.If
          ( CEq0 (ESub (EVar "m$1", EInt 1)),
            [ Spmd.Recv { event = 9; src = [ EInt 0 ] } ] );
        Spmd.Reduce { scalar = "s"; op = Spmd.RSum };
      ];
    subs = [];
  }

let test_mixed_stall () =
  let sim = Spmdsim.Exec.make ~nprocs:2 mixed_stall_prog in
  match Spmdsim.Exec.run sim with
  | _ -> Alcotest.fail "expected a deadlock"
  | exception Spmdsim.Exec.Deadlock d ->
      let reasons =
        List.map
          (fun (w : Spmdsim.Exec.proc_wait) ->
            match w.w_reason with
            | Spmdsim.Exec.WaitRecv _ -> `Recv
            | Spmdsim.Exec.WaitReduce -> `Reduce
            | Spmdsim.Exec.WaitReduceArr _ -> `ReduceArr)
          d.dg_waiting
      in
      Alcotest.(check bool) "one proc at the collective, one at a recv" true
        (List.mem `Recv reasons && List.mem `Reduce reasons)

(* a collective kind mismatch: proc 0 enters a scalar all-reduce while
   proc 1 enters an element-wise one at the same point, so neither fires;
   1 and 2 domains diagnose the same stall *)
let mixed_coll_prog : Spmd.program =
  let open Iset.Codegen in
  {
    proc_dims =
      [ { Spmd.pd_mode = Spmd.VpIsPhys; pd_extent = EInt 2; pd_tlo = EInt 0;
          pd_bsize = None } ];
    proc_extents = [ EInt 2 ];
    params = [];
    arrays = [ { Spmd.ad_name = "v"; ad_bounds = [ (EInt 1, EInt 4) ]; ad_layout = None } ];
    scalars = [ "s" ];
    events = [];
    main =
      [
        Spmd.If (CEq0 (EVar "m$1"), [ Spmd.Reduce { scalar = "s"; op = Spmd.RSum } ]);
        Spmd.If
          ( CEq0 (ESub (EVar "m$1", EInt 1)),
            [ Spmd.Reduce { scalar = "v"; op = Spmd.RMax } ] );
      ];
    subs = [];
  }

let test_mixed_collectives () =
  List.iter
    (fun (engine, domains) ->
      let what =
        Printf.sprintf "%s, %d domain(s)" (Spmdsim.Exec.engine_to_string engine) domains
      in
      let sim = Spmdsim.Exec.make ~engine ~domains ~nprocs:2 mixed_coll_prog in
      match Spmdsim.Exec.run sim with
      | _ -> Alcotest.failf "%s: expected a deadlock" what
      | exception Spmdsim.Exec.Deadlock d ->
          let reasons =
            List.map
              (fun (w : Spmdsim.Exec.proc_wait) ->
                match w.w_reason with
                | Spmdsim.Exec.WaitRecv _ -> (w.w_pid, "recv")
                | Spmdsim.Exec.WaitReduce -> (w.w_pid, "scalar")
                | Spmdsim.Exec.WaitReduceArr a -> (w.w_pid, "array " ^ a))
              d.dg_waiting
          in
          Alcotest.(check (list (pair int string)))
            (what ^ ": each proc blocked in its own kind")
            [ (0, "scalar"); (1, "array v") ] reasons)
    [ (`Interp, 1); (`Interp, 2); (`Closure, 1); (`Closure, 2) ]

(* a stall that leaves a message behind: proc 0 sends twice on event 5,
   proc 1 receives once and then waits on event 6, which is never sent,
   so the channel keeps the second message *)
let queued_stall_prog : Spmd.program =
  let open Iset.Codegen in
  {
    proc_dims =
      [ { Spmd.pd_mode = Spmd.VpIsPhys; pd_extent = EInt 2; pd_tlo = EInt 0;
          pd_bsize = None } ];
    proc_extents = [ EInt 2 ];
    params = [];
    arrays = [];
    scalars = [];
    events = [];
    main =
      [
        Spmd.If
          ( CEq0 (EVar "m$1"),
            [ Spmd.Send { event = 5; dest = [ EInt 1 ] };
              Spmd.Send { event = 5; dest = [ EInt 1 ] } ] );
        Spmd.If
          ( CEq0 (ESub (EVar "m$1", EInt 1)),
            [ Spmd.Recv { event = 5; src = [ EInt 0 ] };
              Spmd.Recv { event = 6; src = [ EInt 0 ] } ] );
      ];
    subs = [];
  }

(* every message is dropped twice and delayed, so the waiting clocks in
   the diagnosis carry the fault schedule *)
let lossy =
  { Spmdsim.Fault.none with
    seed = 5; drop_prob = 1.0; max_retries = 2; delay_prob = 1.0;
    delay_factor = 4.0 }

(* The stall diagnosis is one function of the processors' final wait
   states and the queued messages, so it prints identically at every
   domain count, on either engine *)
let test_diagnosis_domains () =
  let diagnosis ?faults ~engine ~domains prog =
    let sim = Spmdsim.Exec.make ~engine ?faults ~domains ~nprocs:2 prog in
    match Spmdsim.Exec.run sim with
    | _ -> Alcotest.fail "expected a deadlock"
    | exception Spmdsim.Exec.Deadlock d -> d
  in
  List.iter
    (fun (name, faults, prog) ->
      List.iter
        (fun engine ->
          let what d =
            Printf.sprintf "%s, %s, %d domain(s)" name
              (Spmdsim.Exec.engine_to_string engine) d
          in
          let one = diagnosis ?faults ~engine ~domains:1 prog in
          List.iter
            (fun d ->
              Alcotest.(check string) (what d)
                (Spmdsim.Exec.diagnostic_to_string one)
                (Spmdsim.Exec.diagnostic_to_string
                   (diagnosis ?faults ~engine ~domains:d prog)))
            [ 2; 4 ])
        [ `Interp; `Closure ])
    [ ("cyclic", None, cyclic_prog);
      ("mixed stall", None, mixed_stall_prog);
      ("mixed collectives", None, mixed_coll_prog);
      ("queued stall", Some lossy, queued_stall_prog) ];
  (* the queued stall's channel holds seq 1; proc 1 waits on event 6,
     expecting seq 0 *)
  let d = diagnosis ~faults:lossy ~engine:`Closure ~domains:2 queued_stall_prog in
  Alcotest.(check (list (pair int int)))
    "undelivered: event 5, one message" [ (5, 1) ]
    (List.map (fun (ev, _, _, n) -> (ev, n)) d.dg_undelivered);
  match d.dg_waiting with
  | [ { w_pid = 1; w_reason = Spmdsim.Exec.WaitRecv r; _ } ] ->
      Alcotest.(check int) "waits on event 6" 6 r.wr_event;
      Alcotest.(check int) "expecting seq 0" 0 r.wr_expected_seq
  | _ -> Alcotest.fail "expected proc 1 alone, waiting on a receive"

let () =
  Alcotest.run "faults"
    [
      ( "determinism",
        [
          Alcotest.test_case "schedule is a pure function of the seed" `Quick
            test_schedule_determinism;
          Alcotest.test_case "same seed, same stats" `Quick test_run_determinism;
        ] );
      ( "resilience",
        [
          Alcotest.test_case "drop+retransmit preserves values" `Quick
            test_drop_retransmit;
          Alcotest.test_case "full chaos on jacobi/gauss/tomcatv" `Quick
            test_chaos_all_benchmarks;
          Alcotest.test_case "faults cost simulated time" `Quick
            test_faults_cost_time;
          Alcotest.test_case "diffcheck vs serial oracle" `Quick
            test_diffcheck_oracle;
        ] );
      ( "deadlock",
        [
          Alcotest.test_case "wait-for cycle extraction" `Quick test_deadlock_cycle;
          Alcotest.test_case "mixed recv/collective stall" `Quick test_mixed_stall;
          Alcotest.test_case "scalar/array collective stall" `Quick
            test_mixed_collectives;
          Alcotest.test_case "same diagnosis at every domain count" `Quick
            test_diagnosis_domains;
        ] );
    ]
