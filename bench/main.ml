(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation section, plus Bechamel micro-benchmarks of the integer-set
   operations (backing the §6 claim that the set representation is not a
   dominant compile-time factor).

     Table 1   — breakdown of compilation time (SP-4, SP-sym, TOMCATV-sym)
     Figure 7a — TOMCATV speedups, two problem sizes
     Figure 7b — ERLEBACHER speedups, two problem sizes
     Figure 7c — JACOBI speedups
     (ablation) — optimization on/off deltas for the §3 optimizations
     (resilience) — lost work vs. checkpoint interval under crashes

   Run with: dune exec bench/main.exe
   Sections can be selected by name: dune exec bench/main.exe -- table1 fig7c
   The smoke gates (smoke, run-smoke, par-smoke, native-smoke,
   metrics-smoke) run only when named. *)

let section title =
  Fmt.pr "@.======================================================================@.";
  Fmt.pr "  %s@." title;
  Fmt.pr "======================================================================@."

(* ------------------------------------------------------------------ *)
(* Table 1                                                             *)
(* ------------------------------------------------------------------ *)

let compile_timed src =
  let ph = Dhpf.Phase.global in
  Dhpf.Phase.reset ph;
  Iset.Stats.reset ();
  Iset.Cache.clear_all ();
  let chk = Hpf.Sema.analyze_source src in
  let t0 = Unix.gettimeofday () in
  let compiled = Dhpf.Gen.compile ~phase:ph chk in
  let total = Unix.gettimeofday () -. t0 in
  (compiled, total, ph, Iset.Stats.report ())

(* The domain counts run-smoke shards the simulator lanes over. Counts
   above the host core count still run (the pool just oversubscribes), so
   the check is the same on every machine. *)
let domain_sweep = [ 1; 2; 4 ]

(* Wall-clock of a parallel compile at a given domain count (par-smoke),
   and the misses each memo table recorded during it, as
   [sat=N simplify=N rel=N codegen=N]. The output is byte-identical at
   every count (enforced by the test suite), so only the time is
   interesting here; the misses tell a slow compile that recomputed from
   one that paid for its domains. *)
let compile_par_timed ~domains chk =
  let miss (m : Iset.Stats.memo) =
    Iset.Stats.count m.lookups - Iset.Stats.count m.hits
  in
  let ph = Dhpf.Phase.create () in
  let before = List.map miss Iset.Stats.memos in
  let t0 = Unix.gettimeofday () in
  ignore (Dhpf.Gen.compile ~phase:ph ~domains chk);
  let t = Unix.gettimeofday () -. t0 in
  ( t,
    String.concat " "
      (List.map2
         (fun (m : Iset.Stats.memo) b ->
           Printf.sprintf "%s=%d" m.name (miss m - b))
         Iset.Stats.memos before) )

let table1_apps ?(smoke = false) () =
  if smoke then
    [
      ("SP-sym-small", Codes.sp_like ~n:12 ~nsub:8 ~procs:(Codes.Symbolic2 2) ());
      ("T-sym-small", Codes.tomcatv ~n:65 ~iters:1 ~procs:(Codes.Symbolic2 1) ());
    ]
  else
    [
      ("SP-4", Codes.sp_like ~n:24 ~nsub:30 ~procs:(Codes.Fixed (2, 2)) ());
      ("SP-sym", Codes.sp_like ~n:24 ~nsub:30 ~procs:(Codes.Symbolic2 2) ());
      ("T-sym", Codes.tomcatv ~n:257 ~iters:3 ~procs:(Codes.Symbolic2 1) ());
    ]

(* The cache counters shown alongside Table 1 (time and cache behaviour per
   row, as the perf-trajectory tracking wants): every memo table's lookups
   and hits from the registry, then evictions and the intern tables. *)
let cache_keys =
  List.concat_map
    (fun (m : Iset.Stats.memo) -> Iset.Stats.[ name m.lookups; name m.hits ])
    Iset.Stats.memos
  @ [
      "cache evictions";
      "interned conjuncts";
      "interned constraints";
      "interned terms";
    ]

let table1 () =
  section "Table 1: Breakdown of compilation time";
  Fmt.pr
    "(paper: SP-4 1145s, SP-sym 1073s, T-sym 28s on a 250MHz UltraSparc;@.\
    \ the row structure and the SP-sym ~ SP-4 relationship are the@.\
    \ reproduction targets, not 1998 absolute times)@.@.";
  let apps = table1_apps () in
  let rows =
    [
      ("interprocedural analysis", [ "interprocedural analysis" ]);
      ("module compilation", [ "module compilation" ]);
      ("  partitioning computation", [ "partitioning computation" ]);
      ("  communication analysis", [ "communication analysis" ]);
      ("  loop splitting", [ "loop splitting" ]);
      ("  loop bounds reduction", [ "loop bounds reduction" ]);
      ("  communication generation", [ "communication generation" ]);
      ("    loops to compute msg sizes", [ "loops to compute msg sizes" ]);
      ("    loops over comm partners", [ "loops over comm partners" ]);
      ("    check if msg is contiguous", [ "check if msg is contiguous" ]);
      ( "  set-based code generation (MM-CODEGEN analogue)",
        [ "loop bounds reduction"; "loops to compute msg sizes"; "loops over comm partners" ]
      );
    ]
  in
  let results =
    List.map
      (fun (name, src) ->
        let _, total, ph, stats = compile_timed src in
        ( name,
          total,
          List.map
            (fun (_, ls) ->
              List.fold_left (fun acc l -> acc +. Dhpf.Phase.total ph l) 0.0 ls)
            rows,
          stats ))
      apps
  in
  Fmt.pr "%-50s" "application";
  List.iter (fun (n, _, _, _) -> Fmt.pr "%10s" n) results;
  Fmt.pr "@.";
  Fmt.pr "%-50s" "total compilation wall-clock time";
  List.iter (fun (_, t, _, _) -> Fmt.pr "%9.3fs" t) results;
  Fmt.pr "@.";
  List.iteri
    (fun i (label, _) ->
      Fmt.pr "%-50s" label;
      List.iter
        (fun (_, total, vals, _) ->
          Fmt.pr "%9.1f%%" (100.0 *. List.nth vals i /. Float.max total 1e-9))
        results;
      Fmt.pr "@.")
    rows;
  Fmt.pr "@.integer-set cache behaviour (%s):@."
    (if Iset.Cache.enabled () then "enabled" else "disabled");
  List.iter
    (fun key ->
      Fmt.pr "%-50s" key;
      List.iter
        (fun (_, _, _, stats) ->
          Fmt.pr "%10d" (try List.assoc key stats with Not_found -> 0))
        results;
      Fmt.pr "@.")
    cache_keys;
  match results with
  | [ (_, t4, _, _); (_, tsym, _, _); _ ] ->
      Fmt.pr "@.SP-sym / SP-4 compile-time ratio: %.2f (paper: 0.94)@." (tsym /. t4)
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Figure 7: speedups                                                  *)
(* ------------------------------------------------------------------ *)

let speedup_series ~label ~src ~procs =
  let chk = Hpf.Sema.analyze_source src in
  let compiled = Dhpf.Gen.compile chk in
  let serial = Spmdsim.Serial.run chk in
  Fmt.pr "@.%s: T(1) = %.1f ms serial@." label (serial.r_time *. 1e3);
  Fmt.pr "%6s %12s %10s %8s %10s@." "procs" "time (ms)" "speedup" "msgs" "KiB moved";
  List.iter
    (fun p ->
      let sim = Spmdsim.Exec.make ~nprocs:p compiled.cprog in
      let stats = Spmdsim.Exec.run sim in
      Fmt.pr "%6d %12.2f %10.2f %8d %10d@." p (stats.s_time *. 1e3)
        (serial.r_time /. stats.s_time) stats.s_msgs (stats.s_bytes / 1024))
    procs

let fig7a () =
  section "Figure 7(a): TOMCATV speedups, (BLOCK,*) on 1-D processor grid";
  Fmt.pr
    "(paper: moderate speedups at the small size, limited by the two global@.\
    \ max reductions in the main loop; better scaling at the larger size)@.";
  speedup_series ~label:"TOMCATV 129x129 (small)"
    ~src:(Codes.tomcatv ~n:129 ~iters:3 ~procs:(Codes.Symbolic2 1) ())
    ~procs:[ 1; 2; 4; 8; 16 ];
  speedup_series ~label:"TOMCATV 257x257 (large)"
    ~src:(Codes.tomcatv ~n:257 ~iters:3 ~procs:(Codes.Symbolic2 1) ())
    ~procs:[ 1; 2; 4; 8; 16 ]

let fig7b () =
  section "Figure 7(b): ERLEBACHER speedups, (*,*,BLOCK) on 1-D processor grid";
  Fmt.pr
    "(paper: limited speedup — pipelined z-sweeps with many small messages,@.\
    \ a broadcast panel, a 3D-to-2D reduction; better at the larger size)@.";
  speedup_series ~label:"ERLEBACHER 24^3 (small)"
    ~src:(Codes.erlebacher ~n:24 ~iters:2 ~procs:(Codes.Symbolic2 1) ())
    ~procs:[ 1; 2; 4; 8 ];
  speedup_series ~label:"ERLEBACHER 40^3 (large)"
    ~src:(Codes.erlebacher ~n:40 ~iters:2 ~procs:(Codes.Symbolic2 1) ())
    ~procs:[ 1; 2; 4; 8 ]

let fig7c () =
  section "Figure 7(c): JACOBI speedups, (BLOCK,BLOCK) on 2 x (P/2) grid";
  Fmt.pr "(paper: near-linear scaling for this simple regular stencil)@.";
  (* the 2 x (P/2) grid needs P >= 2; T(1) is the serial reference *)
  speedup_series ~label:"JACOBI 384x384"
    ~src:(Codes.jacobi ~n:384 ~iters:4 ~procs:(Codes.Symbolic2 2) ())
    ~procs:[ 2; 4; 8; 16 ]

(* ------------------------------------------------------------------ *)
(* Optimization ablations (§3 optimizations, measured)                 *)
(* ------------------------------------------------------------------ *)

let ablations () =
  section "Ablations: effect of the section-3 optimizations (16 procs)";
  let src = Codes.jacobi ~n:256 ~iters:3 ~procs:(Codes.Symbolic2 2) () in
  let chk = Hpf.Sema.analyze_source src in
  let run name opts =
    let compiled = Dhpf.Gen.compile ~opts chk in
    let sim = Spmdsim.Exec.make ~nprocs:16 compiled.cprog in
    let stats = Spmdsim.Exec.run sim in
    Fmt.pr "%-28s %10.2f ms %8d msgs %10d KiB@." name (stats.s_time *. 1e3)
      stats.s_msgs (stats.s_bytes / 1024)
  in
  let d = Dhpf.Gen.default_options in
  run "all optimizations" d;
  run "no loop splitting" { d with opt_split = false };
  run "no in-place recognition" { d with opt_inplace = false };
  (* coalescing merges messages when one partner pair serves several
     references; the 9-point TOMCATV stencil shows it, the 4-point JACOBI
     does not *)
  let tsrc = Codes.tomcatv ~n:129 ~iters:2 ~procs:(Codes.Symbolic2 1) () in
  let tchk = Hpf.Sema.analyze_source tsrc in
  let trun name opts =
    let compiled = Dhpf.Gen.compile ~opts tchk in
    let sim = Spmdsim.Exec.make ~nprocs:8 compiled.cprog in
    let stats = Spmdsim.Exec.run sim in
    Fmt.pr "%-28s %10.2f ms %8d msgs %10d KiB   (TOMCATV, 8 procs)@." name
      (stats.s_time *. 1e3) stats.s_msgs (stats.s_bytes / 1024)
  in
  trun "tomcatv, coalescing" d;
  trun "tomcatv, no coalescing" { d with opt_coalesce = false };
  (* in-place transfers matter when whole contiguous planes move:
     ERLEBACHER's boundary planes are column-major contiguous *)
  let esrc = Codes.erlebacher ~n:32 ~iters:2 ~procs:(Codes.Symbolic2 1) () in
  let echk = Hpf.Sema.analyze_source esrc in
  let erun name opts =
    let compiled = Dhpf.Gen.compile ~opts echk in
    let sim = Spmdsim.Exec.make ~nprocs:4 compiled.cprog in
    let stats = Spmdsim.Exec.run sim in
    Fmt.pr "%-28s %10.2f ms %8d msgs %10d KiB   (ERLEBACHER, 4 procs)@." name
      (stats.s_time *. 1e3) stats.s_msgs (stats.s_bytes / 1024)
  in
  erun "erlebacher, in-place" d;
  erun "erlebacher, no in-place" { d with opt_inplace = false };
  Fmt.pr "(message vectorization, ablated on a small kernel:@.";
  let tiny = Codes.jacobi ~n:24 ~iters:1 ~procs:(Codes.Fixed (2, 2)) () in
  let chk = Hpf.Sema.analyze_source tiny in
  let msgs opts =
    let compiled = Dhpf.Gen.compile ~opts chk in
    (Spmdsim.Exec.run (Spmdsim.Exec.make ~nprocs:4 compiled.cprog)).s_msgs
  in
  Fmt.pr " vectorized: %d msgs, unvectorized: %d msgs)@."
    (msgs d)
    (msgs { d with opt_vectorize = false })

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks of the set framework                      *)
(* ------------------------------------------------------------------ *)

let set_micro () =
  section "Integer-set operation micro-benchmarks (Bechamel)";
  let open Bechamel in
  let open Toolkit in
  let s1 = Iset.Parse.set "{[i,j] : 1 <= i <= n && 25p+1 <= j <= 25p+25 && 0 <= p}" in
  let s2 = Iset.Parse.set "{[i,j] : 2 <= i <= n+1 && 1 <= j <= 100}" in
  let r1 = Iset.Parse.rel "{[i,j] -> [a,b] : a = i - 1 && b = j}" in
  let lay =
    Iset.Parse.rel "{[p] -> [a,b] : 25p+1 <= a <= 25p+25 && 1 <= b <= 100 && 0 <= p <= 3}"
  in
  let stencil =
    Iset.Parse.set
      "{[i,j] : 2 <= i <= 99 && 25m+1 <= j && j <= 25m+25 && 1 <= j} union {[i,j] : 2 <= i <= 99 && j = 25m}"
  in
  let tests =
    [
      Test.make ~name:"inter" (Staged.stage (fun () -> ignore (Iset.Rel.inter s1 s2)));
      Test.make ~name:"union+coalesce"
        (Staged.stage (fun () -> ignore (Iset.Rel.coalesce (Iset.Rel.union s1 s2))));
      Test.make ~name:"diff" (Staged.stage (fun () -> ignore (Iset.Rel.diff s1 s2)));
      Test.make ~name:"compose"
        (Staged.stage (fun () -> ignore (Iset.Rel.compose lay (Iset.Rel.inverse r1))));
      Test.make ~name:"emptiness (omega)"
        (Staged.stage (fun () -> ignore (Iset.Rel.is_empty (Iset.Rel.diff s1 s2))));
      Test.make ~name:"codegen 2-level"
        (Staged.stage (fun () ->
             ignore
               (Iset.Codegen.gen
                  ~names:(Iset.Rel.in_names stencil)
                  [ { Iset.Codegen.tag = 0; dom = stencil } ])));
    ]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:None () in
  let raw =
    Benchmark.all cfg instances (Test.make_grouped ~name:"iset" ~fmt:"%s/%s" tests)
  in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun k v acc -> (k, v) :: acc) results [] in
  List.iter
    (fun (name, est) ->
      match Analyze.OLS.estimates est with
      | Some [ t ] -> Fmt.pr "%-24s %12.1f ns/op@." name t
      | _ -> Fmt.pr "%-24s (no estimate)@." name)
    (List.sort compare rows)

(* ------------------------------------------------------------------ *)
(* Checkpoint interval sweep (`-- resilience`)                         *)
(* ------------------------------------------------------------------ *)

(* One workload under a FIXED crash schedule, swept over checkpoint
   intervals. Crash points are keyed on (pid, op), so the same crashes
   fire at every interval — the sweep isolates the checkpoint-frequency
   trade-off: frequent snapshots cost write time but bound the work a
   rollback discards; interval 0 means no snapshots (every recovery
   restarts from scratch). Values are bit-identical to the fault-free run
   at every point of the sweep (asserted by the resilience test suite);
   only the clocks move. *)

let ckpt_workload =
  ("JACOBI-384", Codes.jacobi ~n:384 ~iters:4 ~procs:(Codes.Symbolic2 2) (), 8)

let ckpt_intervals = [ 0; 5; 20; 80; 320 ]
let ckpt_faults = (17, 0.04, 4) (* seed, crash_prob, crash_max *)

let resilience () =
  section "Checkpoint interval sweep: lost work vs. checkpoint cost";
  let name, src, nprocs = ckpt_workload in
  let seed, crash_prob, crash_max = ckpt_faults in
  Fmt.pr
    "(%s on %d procs, crash schedule seed %d: p=%.2f per comm op, max %d \
     crashes;@.\
    \ the same crashes fire at every interval — only the rollback distance \
     changes)@.@."
    name nprocs seed crash_prob crash_max;
  Fmt.pr "%10s %8s %12s %9s %14s %12s@." "interval" "ckpts" "ckpt KiB"
    "crashes" "lost work ms" "time ms";
  let compiled = Dhpf.Gen.compile (Hpf.Sema.analyze_source src) in
  let faults = { Spmdsim.Fault.none with seed; crash_prob; crash_max } in
  List.iter
    (fun every ->
      let st =
        (Spmdsim.Checkpoint.run ~faults ~ckpt_every:every ~nprocs
           compiled.Dhpf.Gen.cprog)
          .Spmdsim.Checkpoint.rp_stats
      in
      Fmt.pr "%10s %8d %12d %9d %14.3f %12.2f@."
        (if every = 0 then "none" else string_of_int every)
        st.s_ckpts (st.s_ckpt_bytes / 1024) st.s_crashes
        (st.s_lost_work *. 1e3) (st.s_time *. 1e3))
    ckpt_intervals

(* ------------------------------------------------------------------ *)
(* Smoke gates: `-- smoke`, `-- run-smoke`, `-- metrics-smoke`,        *)
(* `-- par-smoke` and `-- native-smoke` (the `make bench-*-smoke`      *)
(* targets). Each prints its findings on stderr and exits 1 on failure. *)
(* ------------------------------------------------------------------ *)

(* The Figure-7 workloads timed end to end (Exec.make + Exec.run, i.e.
   including the closure engine's lowering pass) under both engines. The
   engines must agree exactly on the transport counters — a cheap standing
   differential check here; the bit-identical element comparison lives in
   the test suite's engine-differential property. *)
let run_workloads =
  [
    ("JACOBI-96", Codes.jacobi ~n:96 ~iters:3 ~procs:(Codes.Symbolic2 2) (), 4);
    ("TOMCATV-65", Codes.tomcatv ~n:65 ~iters:2 ~procs:(Codes.Symbolic2 1) (), 4);
  ]

type run_row = {
  rr_name : string;
  rr_interp_s : float;
  rr_closure_s : float;
  rr_counters_equal : bool;
  rr_domains_equal : bool;
      (* every sharded-lane run of [domain_sweep] bit-equal to the
         closure engine's *)
}

let time_engine engine prog nprocs =
  let t0 = Unix.gettimeofday () in
  let sim = Spmdsim.Exec.make ~engine ~nprocs prog in
  let stats = Spmdsim.Exec.run sim in
  (Unix.gettimeofday () -. t0, stats)

(* Closure-engine wall clock with processor lanes sharded over [domains];
   also reports whether every transport counter and the simulated clock
   are bit-equal to the reference stats (they must be — the parallel
   scheduler's contract, enforced hard by the test suite and re-checked
   here because the bench is where a silent divergence would first show
   up in the wild). *)
let time_domains ~domains prog nprocs (ref_stats : Spmdsim.Exec.stats) =
  let t0 = Unix.gettimeofday () in
  let sim = Spmdsim.Exec.make ~domains ~nprocs prog in
  let stats = Spmdsim.Exec.run sim in
  let wall = Unix.gettimeofday () -. t0 in
  let eq =
    stats.Spmdsim.Exec.s_time = ref_stats.Spmdsim.Exec.s_time
    && stats.s_msgs = ref_stats.s_msgs
    && stats.s_bytes = ref_stats.s_bytes
    && stats.s_elems = ref_stats.s_elems
    && stats.s_retransmits = ref_stats.s_retransmits
  in
  (wall, eq)

let run_row (name, src, nprocs) =
  let prog = (Dhpf.Gen.compile (Hpf.Sema.analyze_source src)).Dhpf.Gen.cprog in
  let ti, si = time_engine `Interp prog nprocs in
  let tc, sc = time_engine `Closure prog nprocs in
  {
    rr_name = name;
    rr_interp_s = ti;
    rr_closure_s = tc;
    rr_counters_equal =
      si.Spmdsim.Exec.s_msgs = sc.Spmdsim.Exec.s_msgs
      && si.s_bytes = sc.s_bytes && si.s_elems = sc.s_elems
      && si.s_retransmits = sc.s_retransmits
      && si.s_time = sc.s_time;
    rr_domains_equal =
      List.for_all
        (fun d -> snd (time_domains ~domains:d prog nprocs sc))
        domain_sweep;
  }

(* Backs `make bench-run-smoke` in the tier-1 check flow: the closure
   engine must beat the interpreter on every smoke workload, with identical
   transport counters — otherwise the staged engine (or its cost-model
   parity) has regressed. *)
let run_smoke () =
  let rows = List.map run_row run_workloads in
  let bad_counters = List.filter (fun r -> not r.rr_counters_equal) rows in
  let bad_domains = List.filter (fun r -> not r.rr_domains_equal) rows in
  let slow = List.filter (fun r -> r.rr_closure_s >= r.rr_interp_s) rows in
  List.iter
    (fun r ->
      Fmt.epr "bench run-smoke: %s: engines disagree on counters/clocks@."
        r.rr_name)
    bad_counters;
  List.iter
    (fun r ->
      Fmt.epr
        "bench run-smoke: %s: sharded-lane run not bit-identical to the \
         1-domain run@."
        r.rr_name)
    bad_domains;
  List.iter
    (fun r ->
      Fmt.epr
        "bench run-smoke: %s: closure engine not faster (%.3fs vs %.3fs interp)@."
        r.rr_name r.rr_closure_s r.rr_interp_s)
    slow;
  if bad_counters <> [] || bad_domains <> [] || slow <> [] then begin
    Fmt.epr "bench run-smoke: FAILED@.";
    exit 1
  end;
  List.iter
    (fun r ->
      Fmt.epr "bench run-smoke: %s ok (%.2fx)@." r.rr_name
        (r.rr_interp_s /. r.rr_closure_s))
    rows

(* One closure or interpreter run: the per-event communication cells its
   transport tallied. *)
let run_cells engine prog nprocs =
  let sim = Spmdsim.Exec.make ~engine ~nprocs prog in
  ignore (Spmdsim.Exec.run sim);
  Spmdsim.Exec.comm_cells sim

(* fold the per-event cells into the P x P matrix *)
let comm_matrix cells =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (c : Spmdsim.Exec.comm_cell) ->
      let key = (c.cm_src, c.cm_dst) in
      let m, e, b = try Hashtbl.find tbl key with Not_found -> (0, 0, 0) in
      Hashtbl.replace tbl key (m + c.cm_msgs, e + c.cm_elems, b + c.cm_bytes))
    cells;
  Hashtbl.fold (fun (s, d) (m, e, b) acc -> (s, d, m, e, b) :: acc) tbl []
  |> List.sort compare

(* Backs `make metrics-smoke`: on a symmetric stencil (JACOBI) over a
   square processor grid the measured communication matrix must be
   symmetric, the integer-set prediction must equal the measured table
   cell for cell, and both engines must tally identically. *)
let metrics_smoke () =
  let nprocs = 4 in
  let src = Codes.jacobi ~n:64 ~iters:2 ~procs:(Codes.Fixed (2, 2)) () in
  let chk = Hpf.Sema.analyze_source src in
  let compiled = Dhpf.Gen.compile chk in
  let cc = run_cells `Closure compiled.Dhpf.Gen.cprog nprocs in
  let ci = run_cells `Interp compiled.Dhpf.Gen.cprog nprocs in
  let fail = ref false in
  if cc <> ci then begin
    Fmt.epr "metrics-smoke: engines disagree on the communication matrix@.";
    fail := true
  end;
  let mat = comm_matrix cc in
  if mat = [] then begin
    Fmt.epr "metrics-smoke: empty communication matrix (tally broken?)@.";
    fail := true
  end;
  List.iter
    (fun (s, d, m, e, b) ->
      let mirrored =
        List.exists
          (fun (s', d', m', e', b') ->
            s' = d && d' = s && m' = m && e' = e && b' = b)
          mat
      in
      if not mirrored then begin
        Fmt.epr
          "metrics-smoke: asymmetric matrix cell %d->%d (%d msgs, %d elems, \
           %d bytes)@."
          s d m e b;
        fail := true
      end)
    mat;
  let predicted = Spmdsim.Predict.comm ~nprocs compiled.Dhpf.Gen.cprog in
  let mism = Spmdsim.Predict.check predicted cc in
  List.iter
    (fun (mm : Spmdsim.Predict.mismatch) ->
      Fmt.epr
        "metrics-smoke: event %d %d->%d predicted %d msgs/%d elems, measured \
         %d msgs/%d elems@."
        mm.mm_event mm.mm_src mm.mm_dst mm.mm_pred_msgs mm.mm_pred_elems
        mm.mm_meas_msgs mm.mm_meas_elems;
      fail := true)
    mism;
  if !fail then begin
    Fmt.epr "metrics-smoke: FAILED@.";
    exit 1
  end;
  Fmt.epr
    "metrics-smoke: ok (%d matrix cells, symmetric, prediction exact, \
     engines agree)@."
    (List.length mat)

(* The median of paired samples' ratios [x / y], each pair printed on
   stderr after [what] as [xname=…s yname=…s (ratio)], then [note i] for
   the [i]th pair. Two samples taken back to back see the same moment of a
   shared host, and the median of several pairs does not move with one
   slow moment. *)
let paired_median ?(note = fun _ -> "") ~what ~xname ~yname pairs =
  let ratios =
    List.mapi
      (fun i (x, y) ->
        let r = x /. Float.max y 1e-9 in
        Fmt.epr "%s, pair %d: %s=%.3fs %s=%.3fs (%.2fx)%s@." what (i + 1) xname
          x yname y r (note i);
        r)
      pairs
  in
  let sorted = Array.of_list (List.sort Float.compare ratios) in
  sorted.(Array.length sorted / 2)

(* Backs `make bench-par-smoke`: the correctness half always runs (the
   domain-differential axis on a mid-size workload — a sharded run must be
   bit-identical to the 1-domain run, faults included); the
   speedup half is gated on the host actually having cores to scale on.
   On a multi-core host the 4-way (or as-wide-as-the-host) compile and
   simulation must beat 1 domain by [par_min_speedup] in the median of
   [par_pairs] paired samples each; single-core hosts skip with a
   message, because oversubscribed domains can only measure
   interleaving, not speed. *)
let par_min_speedup = 1.5
let par_pairs = 7

let par_smoke () =
  let chk =
    Hpf.Sema.analyze_source
      (Codes.jacobi ~n:96 ~iters:3 ~procs:(Codes.Symbolic2 2) ())
  in
  (match
     Spmdsim.Diffcheck.domains ~nprocs:4 ~domain_counts:[ 2; 4 ] ~seeds:[ 7 ]
       chk
   with
  | Spmdsim.Diffcheck.Pass { runs } ->
      Fmt.epr "bench par-smoke: domain-differential ok (%d run(s))@." runs
  | out ->
      Fmt.epr "bench par-smoke: FAILED — %a@." Spmdsim.Diffcheck.pp_outcome out;
      exit 1);
  let cores = Par.recommended () in
  if cores < 2 then
    Fmt.epr
      "bench par-smoke: speedup check SKIPPED — host has %d usable core(s); \
       need >= 2 to measure parallel speedup@."
      cores
  else begin
    let d = min 4 cores in
    let fail = ref false in
    (* compile side: the many-unit SP application *)
    let schk =
      Hpf.Sema.analyze_source
        (Codes.sp_like ~n:24 ~nsub:30 ~procs:(Codes.Symbolic2 2) ())
    in
    ignore (compile_par_timed ~domains:1 schk) (* warm caches *);
    let misses = Array.make par_pairs "" in
    let cs =
      paired_median ~what:"bench par-smoke: compile" ~xname:"1-domain"
        ~yname:(Printf.sprintf "%d-domain" d)
        ~note:(fun i -> Printf.sprintf ", %d-domain misses %s" d misses.(i))
        (List.init par_pairs (fun i ->
             let c1, _ = compile_par_timed ~domains:1 schk in
             let cd, m = compile_par_timed ~domains:d schk in
             misses.(i) <- m;
             (c1, cd)))
    in
    Fmt.epr "bench par-smoke: compile %d-domain speedup median %.2fx of %d pairs@."
      d cs par_pairs;
    if cs < par_min_speedup then begin
      Fmt.epr "bench par-smoke: compile speedup below %.2fx threshold@."
        par_min_speedup;
      fail := true
    end;
    (* simulator side: the large JACOBI closure-engine run; a first
       1-domain run gives the stats every sharded run must equal *)
    let jchk =
      Hpf.Sema.analyze_source
        (Codes.jacobi ~n:384 ~iters:4 ~procs:(Codes.Symbolic2 2) ())
    in
    let prog = (Dhpf.Gen.compile jchk).Dhpf.Gen.cprog in
    let run1 () =
      let sim = Spmdsim.Exec.make ~domains:1 ~nprocs:8 prog in
      let t0 = Unix.gettimeofday () in
      let st = Spmdsim.Exec.run sim in
      (Unix.gettimeofday () -. t0, st)
    in
    let _, st1 = run1 () in
    let identical = ref true in
    let ss =
      paired_median ~what:"bench par-smoke: sim" ~xname:"1-domain"
        ~yname:(Printf.sprintf "%d-domain" d)
        (List.init par_pairs (fun _ ->
             let w1, _ = run1 () in
             let wd, eq = time_domains ~domains:d prog 8 st1 in
             if not eq then identical := false;
             (w1, wd)))
    in
    Fmt.epr "bench par-smoke: sim %d-domain speedup median %.2fx of %d pairs@."
      d ss par_pairs;
    if not !identical then begin
      Fmt.epr "bench par-smoke: sharded run not bit-identical@.";
      fail := true
    end;
    if ss < par_min_speedup then begin
      Fmt.epr "bench par-smoke: simulator speedup below %.2fx threshold@."
        par_min_speedup;
      fail := true
    end;
    if !fail then begin
      Fmt.epr "bench par-smoke: FAILED@.";
      exit 1
    end
  end;
  Fmt.epr "bench par-smoke: ok@."

(* Native-engine smoke: three-way bit-identity (closure / interpreter /
   generated-OCaml kernel, fault schedules included) is always asserted;
   the speedup gate compares warm-cache kernel execution against the
   closure engine's run phase on JACOBI-384, over [native_pairs] paired
   samples. The out-of-process ocamlopt build is reported separately — it
   is a one-time cost the source-hash cache amortizes across runs. *)

type native_row = {
  nv_diff_runs : int;  (* three-way differential runs that agreed *)
  nv_obtain_s : float;  (* first make: cold build or cache hit *)
  nv_make_warm_s : float;  (* second make: lower+emit+hash+dynlink *)
  nv_interp_s : float;
  nv_pairs : (float * float) list;  (* closure and native run phases *)
  nv_unit_bytes : int;  (* JACOBI-384's emitted unit *)
  nv_unit_loops : int;  (* its loop functions *)
  nv_kfors : int;  (* its kernel's [KFor] nodes *)
}

let native_pairs = 7

let native_measure () =
  let chk =
    Hpf.Sema.analyze_source
      (Codes.jacobi ~n:96 ~iters:3 ~procs:(Codes.Symbolic2 2) ())
  in
  let runs =
    match Spmdsim.Diffcheck.engines ~nprocs:4 ~seeds:[ 7 ] chk with
    | Spmdsim.Diffcheck.Pass { runs } -> runs
    | out ->
        Fmt.epr "bench native: three-way differential FAILED — %a@."
          Spmdsim.Diffcheck.pp_outcome out;
        exit 1
  in
  let jchk =
    Hpf.Sema.analyze_source
      (Codes.jacobi ~n:384 ~iters:4 ~procs:(Codes.Symbolic2 2) ())
  in
  let prog = (Dhpf.Gen.compile jchk).Dhpf.Gen.cprog in
  let kernel = (Spmdsim.Compile.prepare ~nprocs:8 prog).Spmdsim.Compile.c_kernel in
  let unit_src = Spmdsim.Emit.emit kernel in
  let timed f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (Unix.gettimeofday () -. t0, r)
  in
  let obtain_s, _ =
    timed (fun () -> Spmdsim.Exec.make ~engine:`Native ~nprocs:8 prog)
  in
  let make_warm_s, _ =
    timed (fun () -> Spmdsim.Exec.make ~engine:`Native ~nprocs:8 prog)
  in
  (* run phase only: each run gets a fresh sim (the runtime refuses to
     re-run one) *)
  let run_phase engine =
    let sim = Spmdsim.Exec.make ~engine ~nprocs:8 prog in
    fst (timed (fun () -> ignore (Spmdsim.Exec.run sim)))
  in
  (* one warm-up run of each engine first *)
  ignore (run_phase `Interp);
  let interp_s = run_phase `Interp in
  ignore (run_phase `Closure);
  ignore (run_phase `Native);
  (* a closure run and a native run back to back make one pair, so both
     halves of a ratio see the same moment of a shared host *)
  let pairs =
    List.init native_pairs (fun _ ->
        let c = run_phase `Closure in
        (c, run_phase `Native))
  in
  {
    nv_diff_runs = runs;
    nv_obtain_s = obtain_s;
    nv_make_warm_s = make_warm_s;
    nv_interp_s = interp_s;
    nv_pairs = pairs;
    nv_unit_bytes = String.length unit_src;
    nv_unit_loops =
      List.length
        (List.filter
           (String.starts_with ~prefix:"and lp_")
           (String.split_on_char '\n' unit_src));
    nv_kfors = Spmdsim.Imp.loop_count kernel;
  }

(* Backs `make bench-native-smoke`: identity always, and the run phase
   must beat the closure engine by [native_min_speedup] in the median of
   the paired samples' ratios (the comparison is single-threaded, so
   unlike par-smoke it holds on one core too). *)
let native_min_speedup = 3.0

let native_smoke () =
  let r = native_measure () in
  let sp =
    paired_median ~what:"bench native-smoke: JACOBI-384 run phase"
      ~xname:"closure" ~yname:"native" r.nv_pairs
  in
  Fmt.epr
    "bench native-smoke: three-way ok (%d run(s)); JACOBI-384 run phase \
     median %.2fx over closure of %d pairs; interp=%.3fs; warm make %.3fs, \
     first obtain %.3fs@."
    r.nv_diff_runs sp (List.length r.nv_pairs) r.nv_interp_s r.nv_make_warm_s
    r.nv_obtain_s;
  Fmt.epr
    "bench native-smoke: JACOBI-384 unit %d bytes, %d loop functions for %d \
     KFor nodes@."
    r.nv_unit_bytes r.nv_unit_loops r.nv_kfors;
  if sp < native_min_speedup then begin
    Fmt.epr "bench native-smoke: median speedup below %.2fx threshold@."
      native_min_speedup;
    exit 1
  end;
  Fmt.epr "bench native-smoke: ok@."

(* Minor words a 1-domain compile allocates: deterministic, unlike its
   time. *)
let compile_minor_words chk =
  let w0 = Gc.minor_words () in
  ignore (Dhpf.Gen.compile ~phase:(Dhpf.Phase.create ()) ~domains:1 chk);
  Gc.minor_words () -. w0

(* A repeat compile over warm memo tables must cost less than a cold one:
   fails if the warm compile allocates more than half the cold one's minor
   words (the memo hit path has regressed to re-doing work), or if it
   generates a loop nest the codegen memo does not answer at all. *)
let warm_guard () =
  List.filter_map
    (fun (name, src) ->
      let chk = Hpf.Sema.analyze_source src in
      Iset.Cache.clear_all ();
      let cold = compile_minor_words chk in
      let hits = Iset.Stats.(count codegen.hits) in
      let warm = compile_minor_words chk in
      let warm_hits = Iset.Stats.(count codegen.hits) - hits in
      Fmt.epr
        "bench smoke: %s minor words cold %.1fM, warm %.1fM; warm codegen \
         hits %d@."
        name (cold /. 1e6) (warm /. 1e6) warm_hits;
      if warm > cold /. 2.0 then
        Some (name ^ " (allocates more than half the cold minor words)")
      else if warm_hits = 0 then Some (name ^ " (no codegen hits)")
      else None)
    (table1_apps ~smoke:true ())

(* Smoke mode backs `make bench-smoke` in the tier-1 check flow: a fast
   Table-1 subset, and a hard failure if the memoization layer shows no
   hits (i.e. the caches silently stopped working), a memo table records
   no lookup at all (a table the compiler's traffic never reaches), its
   warm path allocates like a cold compile, or a warm compile records no
   codegen hits. *)
let smoke () =
  let stats =
    List.map
      (fun (_, src) ->
        let _, _, _, stats = compile_timed src in
        stats)
      (table1_apps ~smoke:true ())
  in
  if Iset.Cache.enabled () then begin
    (match warm_guard () with
    | [] -> ()
    | bad ->
        Fmt.epr "bench smoke: FAILED — warm compile: %s@."
          (String.concat ", " bad);
        exit 1);
    let hits_of stats =
      List.fold_left
        (fun acc key -> acc + (try List.assoc key stats with Not_found -> 0))
        0
        [ "sat hits"; "simplify hits" ]
    in
    let unused =
      List.filter_map
        (fun (m : Iset.Stats.memo) ->
          let key = Iset.Stats.name m.lookups in
          let lookups =
            List.fold_left (fun acc s -> acc + List.assoc key s) 0 stats
          in
          if lookups = 0 then Some m.name else None)
        Iset.Stats.memos
    in
    if unused <> [] then begin
      Fmt.epr "bench smoke: FAILED — memo tables with zero lookups: %s@."
        (String.concat ", " unused);
      exit 1
    end;
    let total_hits = List.fold_left (fun acc s -> acc + hits_of s) 0 stats in
    if total_hits = 0 then begin
      Fmt.epr "bench smoke: FAILED — zero cache hits across the smoke apps@.";
      exit 1
    end;
    Fmt.epr "bench smoke: ok (%d cache hits)@." total_hits
  end
  else Fmt.epr "bench smoke: ok (caches disabled via DHPF_ISET_CACHE)@."

let () =
  let all =
    [
      ("table1", table1);
      ("fig7a", fig7a);
      ("fig7b", fig7b);
      ("fig7c", fig7c);
      ("ablations", ablations);
      ("resilience", resilience);
      ("micro", set_micro);
    ]
  in
  (* the smoke gates are kept out of the default every-section run *)
  let special =
    [
      ("smoke", smoke);
      ("run-smoke", run_smoke);
      ("par-smoke", par_smoke);
      ("native-smoke", native_smoke);
      ("metrics-smoke", metrics_smoke);
    ]
  in
  match Array.to_list Sys.argv with
  | _ :: args when List.for_all (fun a -> List.mem_assoc a special) args && args <> []
    ->
      List.iter (fun a -> (List.assoc a special) ()) args
  | argv ->
      let want =
        match argv with _ :: args when args <> [] -> args | _ -> List.map fst all
      in
      List.iter
        (fun name ->
          match List.assoc_opt name all with
          | Some f -> f ()
          | None -> Fmt.epr "unknown section %s@." name)
        want;
      Fmt.pr "@.done.@."
