(* Crash/recovery suite: fail-stop crash schedules validate and fire
   deterministically, coordinated checkpoints capture deterministically and
   are priced by a pinned size, and checkpoint/restart recovery reproduces the fault-free run
   bit for bit on both engines — including a crash inside a collective and
   recoveries that restart from scratch. *)

open Dhpf

let jacobi () = Codes.jacobi ~n:16 ~iters:2 ~procs:(Codes.Fixed (2, 2)) ()
let gauss () = Codes.gauss ~n:8 ~pivot:2 ~procs:(Codes.Fixed (2, 2)) ()

let compile src =
  let chk = Hpf.Sema.analyze_source src in
  (chk, (Gen.compile chk).cprog)

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

let bit_equal a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* ---- (a) fault-spec validation ---- *)

let test_validate () =
  let ok spec = Alcotest.(check bool) "valid" true (Spmdsim.Fault.validate spec = Ok ()) in
  let bad what spec =
    match Spmdsim.Fault.validate spec with
    | Ok () -> Alcotest.fail (what ^ ": expected rejection")
    | Error msg ->
        Alcotest.(check bool) (what ^ ": message is not empty") true
          (String.length msg > 0)
  in
  ok Spmdsim.Fault.none;
  ok (Spmdsim.Fault.default ~seed:3);
  ok { Spmdsim.Fault.none with crash_prob = 0.5; crash_max = 2 };
  bad "negative seed" { Spmdsim.Fault.none with seed = -1 };
  bad "probability above 1" { Spmdsim.Fault.none with crash_prob = 1.5 };
  bad "NaN probability" { Spmdsim.Fault.none with crash_prob = Float.nan };
  bad "negative crash budget" { Spmdsim.Fault.none with crash_max = -1 };
  bad "drop without retransmission"
    { Spmdsim.Fault.none with drop_prob = 0.2; max_retries = 0 };
  bad "skew below 1" { Spmdsim.Fault.none with skew_max = 0.5 }

let test_crash_schedule_determinism () =
  let sp = { Spmdsim.Fault.none with seed = 9; crash_prob = 0.3; crash_max = 5 } in
  for pid = 0 to 3 do
    for op = 1 to 20 do
      Alcotest.(check bool) "pure function of (seed, pid, op)" true
        (Spmdsim.Fault.crash sp ~pid ~op = Spmdsim.Fault.crash sp ~pid ~op)
    done
  done;
  let fires sp =
    List.exists
      (fun (pid, op) -> Spmdsim.Fault.crash sp ~pid ~op)
      (List.concat_map
         (fun pid -> List.init 20 (fun op -> (pid, op + 1)))
         [ 0; 1; 2; 3 ])
  in
  Alcotest.(check bool) "a 0.3 schedule fires somewhere in 80 draws" true (fires sp);
  Alcotest.(check bool) "crash_prob = 0 never fires" false
    (fires { sp with crash_prob = 0.0 })

(* ---- (b) snapshot capture is deterministic and its size is pinned ---- *)

(* per engine: the encoded size of the final image, then the checkpoint
   bytes of a checkpointed run (every 8 ops, no crash) — the values the
   byte-serializing encoder gave, so the size model still prices exactly
   the same writes *)
let pinned_sizes = [ (`Interp, (9461, 47046)); (`Closure, (10973, 57682)) ]

(* image equality is bit-exact on every field: a signed zero and a changed
   staged payload are differences, a NaN is equal to itself *)
let check_image_bits (img : Spmdsim.Runtime.image) =
  let eq = Spmdsim.Checkpoint.image_equal in
  let with_proc0 f =
    let procs = Array.copy img.im_procs in
    procs.(0) <- f procs.(0);
    { img with im_procs = procs }
  in
  let with_elem v =
    with_proc0 (fun pi ->
        let i =
          match
            List.find_opt
              (fun i -> Array.length (snd pi.pi_elems.(i)) > 0)
              (List.init (Array.length pi.pi_elems) Fun.id)
          with
          | Some i -> i
          | None -> Alcotest.fail "processor 0 holds no element"
        in
        let elems = Array.copy pi.pi_elems in
        let name, es = elems.(i) in
        let es = Array.copy es in
        es.(0) <- (fst es.(0), v);
        elems.(i) <- (name, es);
        { pi with pi_elems = elems })
  in
  let with_staged v =
    with_proc0 (fun pi ->
        let pl =
          { Spmdsim.Runtime.pl_arr = "a"; pl_idx = [| 3 |]; pl_val = [| v |] }
        in
        { pi with pi_staged = Array.append pi.pi_staged [| (0, pl) |] })
  in
  Alcotest.(check bool) "an element flipped from 0.0 to -0.0 differs" false
    (eq (with_elem 0.0) (with_elem (-0.0)));
  Alcotest.(check bool) "a changed staged payload differs" false
    (eq (with_staged 1.0) (with_staged 2.0));
  Alcotest.(check bool) "an image holding a NaN equals itself" true
    (eq (with_elem Float.nan) (with_elem Float.nan))

let test_snapshot_size () =
  let _, cprog = compile (jacobi ()) in
  List.iter
    (fun (engine, (final_bytes, ckpt_bytes)) ->
      let sim = Spmdsim.Exec.make ~engine ~nprocs:4 cprog in
      let _ = Spmdsim.Exec.run sim in
      let img = Spmdsim.Exec.capture sim in
      Alcotest.(check int) "encoded size of the final image" final_bytes
        (Spmdsim.Checkpoint.encoded_size img);
      (* two captures of the same state are structurally equal *)
      Alcotest.(check bool) "capture is deterministic" true
        (Spmdsim.Checkpoint.image_equal img (Spmdsim.Exec.capture sim));
      check_image_bits img;
      let rep =
        Spmdsim.Checkpoint.run ~engine ~ckpt_every:8 ~nprocs:4 cprog
      in
      Alcotest.(check int) "checkpoint bytes of a fixed run" ckpt_bytes
        rep.rp_stats.s_ckpt_bytes)
    pinned_sizes

(* ---- (c) explicit-plan recovery is value-exact and priced ---- *)

let check_recovered name ?(ckpt_every = 0) ~plan src =
  let chk, cprog = compile src in
  List.iter
    (fun engine ->
      let clean = Spmdsim.Exec.make ~engine ~nprocs:4 cprog in
      let clean_stats = Spmdsim.Exec.run clean in
      let rep =
        Spmdsim.Checkpoint.run ~engine ~plan ~ckpt_every ~nprocs:4 cprog
      in
      Alcotest.(check int) (name ^ ": every planned crash fired")
        (List.length plan)
        rep.rp_stats.s_crashes;
      Alcotest.(check int) (name ^ ": one attempt per crash plus the first")
        (List.length plan + 1)
        rep.rp_attempts;
      let bad = ref 0 in
      iter_elems chk (fun aname idx ->
          let a = Spmdsim.Exec.get_elem clean aname idx in
          let b = Spmdsim.Exec.get_elem rep.rp_sim aname idx in
          if not (bit_equal a b) then incr bad);
      Alcotest.(check int) (name ^ ": values bit-identical to fault-free") 0 !bad;
      Alcotest.(check bool) (name ^ ": recovery costs simulated time") true
        (rep.rp_stats.s_time > clean_stats.s_time);
      List.iter
        (fun (c : Spmdsim.Checkpoint.crash_record) ->
          Alcotest.(check bool) (name ^ ": lost work is nonnegative") true
            (c.cr_lost_work >= 0.0);
          Alcotest.(check bool) (name ^ ": restart happens after the crash") true
            (c.cr_restart_t > c.cr_clock))
        rep.rp_crashes)
    [ `Interp; `Closure ]

let test_recovery_from_scratch () =
  (* no checkpoints: the single recovery restarts from the beginning *)
  check_recovered "jacobi/scratch" ~plan:[ (0, 3) ] (jacobi ())

let test_recovery_from_snapshot () =
  let chk, cprog = compile (jacobi ()) in
  let clean = Spmdsim.Exec.make ~nprocs:4 cprog in
  let _ = Spmdsim.Exec.run clean in
  (* crash late enough that a coordinated checkpoint exists to roll back to
     (each jacobi processor performs 10 communication operations; global
     checkpoints land every 8, so pid 2's 7th op is well past the first) *)
  let rep =
    Spmdsim.Checkpoint.run ~plan:[ (2, 7) ] ~ckpt_every:8 ~nprocs:4 cprog
  in
  Alcotest.(check int) "one crash" 1 rep.rp_stats.s_crashes;
  Alcotest.(check bool) "checkpoints were written" true (rep.rp_stats.s_ckpts > 0);
  Alcotest.(check bool) "checkpoint bytes are counted" true
    (rep.rp_stats.s_ckpt_bytes > 0);
  (match rep.rp_crashes with
  | [ c ] ->
      Alcotest.(check bool) "rolled back to a snapshot, not to scratch" true
        (c.cr_restore_ops > 0)
  | _ -> Alcotest.fail "expected exactly one crash record");
  let bad = ref 0 in
  iter_elems chk (fun aname idx ->
      if
        not
          (bit_equal
             (Spmdsim.Exec.get_elem clean aname idx)
             (Spmdsim.Exec.get_elem rep.rp_sim aname idx))
      then incr bad);
  Alcotest.(check int) "values bit-identical after snapshot rollback" 0 !bad

let test_multiple_crashes () =
  check_recovered "jacobi/two-crashes" ~ckpt_every:6
    ~plan:[ (1, 4); (3, 9) ] (jacobi ())

(* ---- (d) crash inside a collective ---- *)

(* two processors set s = pid and sum-reduce it; each processor's first
   communication operation is the collective completion itself, so the
   (pid 1, op 1) plan kills a processor mid-collective *)
let reduce_prog : Spmd.program =
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
        Spmd.SetScalar ("s", Spmd.FOfInt (EVar "m$1"));
        Spmd.Reduce { scalar = "s"; op = Spmd.RSum };
      ];
    subs = [];
  }

let test_crash_during_collective () =
  List.iter
    (fun engine ->
      let rep =
        Spmdsim.Checkpoint.run ~engine ~plan:[ (1, 1) ] ~nprocs:2 reduce_prog
      in
      Alcotest.(check int) "the collective crash fired" 1 rep.rp_stats.s_crashes;
      Alcotest.(check int) "recovered in a second attempt" 2 rep.rp_attempts;
      Alcotest.(check bool) "the reduction still completed exactly" true
        (bit_equal 1.0 (Spmdsim.Exec.get_scalar rep.rp_sim "s")))
    [ `Interp; `Closure ]

(* ---- (e) scheduler watchdog ---- *)

let test_watchdog () =
  let _, cprog = compile (jacobi ()) in
  let sim = Spmdsim.Exec.make ~nprocs:4 cprog in
  (Spmdsim.Exec.transport sim).tr_max_events <- 5;
  (match Spmdsim.Exec.run sim with
  | _ -> Alcotest.fail "expected the watchdog to trip"
  | exception Spmdsim.Exec.Error msg ->
      Alcotest.(check bool) "diagnostic names the watchdog" true
        (let has needle hay =
           let nl = String.length needle and hl = String.length hay in
           let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
           go 0
         in
         has "watchdog" msg && has "--max-events" msg));
  (* a budget above the real event count never trips *)
  let sim2 = Spmdsim.Exec.make ~nprocs:4 cprog in
  (Spmdsim.Exec.transport sim2).tr_max_events <- 1_000_000;
  let _ = Spmdsim.Exec.run sim2 in
  ()

(* ---- (f) crash-differential harness: hash-driven schedules x engines ---- *)

let test_diffcheck_crashes () =
  List.iter
    (fun (name, src) ->
      let chk = Hpf.Sema.analyze_source src in
      match Spmdsim.Diffcheck.crashes ~ckpt_every:8 ~seeds:[ 1; 2; 3 ] chk with
      | Spmdsim.Diffcheck.Pass { runs } ->
          Alcotest.(check int) (name ^ ": every seed on both engines compared") 6 runs
      | out ->
          Alcotest.fail (Fmt.str "%s: %a" name Spmdsim.Diffcheck.pp_outcome out))
    [ ("jacobi", jacobi ()); ("gauss", gauss ());
      ("gauss (symbolic grid)", Colocated.src) ];
  Colocated.check_copies ~nprocs:4

let () =
  Alcotest.run "crash"
    [
      ( "schedule",
        [
          Alcotest.test_case "fault-spec validation" `Quick test_validate;
          Alcotest.test_case "crash schedule is pure in (seed, pid, op)" `Quick
            test_crash_schedule_determinism;
        ] );
      ( "snapshot",
        [
          Alcotest.test_case "encoded size on both engines" `Quick
            test_snapshot_size;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "restart from scratch" `Quick
            test_recovery_from_scratch;
          Alcotest.test_case "rollback to a coordinated snapshot" `Quick
            test_recovery_from_snapshot;
          Alcotest.test_case "two crashes, two recoveries" `Quick
            test_multiple_crashes;
          Alcotest.test_case "crash inside a collective" `Quick
            test_crash_during_collective;
        ] );
      ( "watchdog",
        [ Alcotest.test_case "event budget trips exit-5 error" `Quick test_watchdog ] );
      ( "differential",
        [
          Alcotest.test_case "crash schedules match the fault-free oracle" `Quick
            test_diffcheck_crashes;
        ] );
    ]
