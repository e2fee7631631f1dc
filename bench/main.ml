(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation section, plus Bechamel micro-benchmarks of the integer-set
   operations (backing the §6 claim that the set representation is not a
   dominant compile-time factor).

     Table 1   — breakdown of compilation time (SP-4, SP-sym, TOMCATV-sym)
     Figure 7a — TOMCATV speedups, two problem sizes
     Figure 7b — ERLEBACHER speedups, two problem sizes
     Figure 7c — JACOBI speedups
     (ablation) — optimization on/off deltas for the §3 optimizations

   Run with: dune exec bench/main.exe
   Sections can be selected by name: dune exec bench/main.exe -- table1 fig7c *)

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

(* The domain counts every parallel sweep reports. Counts above the host
   core count still run (the pool just oversubscribes) so the sweep shape
   is stable across machines; [host_cores] in the JSON tells the reader
   which rows could actually run concurrently. *)
let domain_sweep = [ 1; 2; 4 ]

(* Wall-clock of a parallel compile at a given domain count. The output
   is byte-identical at every count (enforced by the test suite), so only
   the time is interesting here. *)
let compile_par_timed ~domains chk =
  let ph = Dhpf.Phase.create () in
  let t0 = Unix.gettimeofday () in
  ignore (Dhpf.Gen.compile ~phase:ph ~domains chk);
  Unix.gettimeofday () -. t0

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
   row, as the perf-trajectory tracking wants). *)
let cache_keys =
  [
    "sat lookups";
    "sat hits";
    "sat pre-filter kills";
    "simplify lookups";
    "simplify hits";
    "gist lookups";
    "gist hits";
    "implies lookups";
    "implies hits";
    "subset lookups";
    "subset hits";
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
  List.iter (fun (_, t, _, _) -> Fmt.pr "%9.2fs" t) results;
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
(* Machine-readable output: `-- json` (full Table 1) and `-- smoke`     *)
(* (fast subset + cache-hit assertion, for `make bench-smoke`)          *)
(* ------------------------------------------------------------------ *)

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* Compile the Table-1 applications and emit one JSON document with per-app
   wall-clock, per-phase seconds, and the cache counters — the format the
   checked-in BENCH_compile.json baseline uses to track the perf
   trajectory. *)
let bench_json ~smoke () =
  let apps = table1_apps ~smoke () in
  let results =
    List.map
      (fun (name, src) ->
        let _, total, ph, stats = compile_timed src in
        let phases =
          List.map (fun l -> (l, Dhpf.Phase.total ph l)) (Dhpf.Phase.labels ph)
        in
        (* domain sweep of the same compile: output is byte-identical at
           every count, only wall-clock moves *)
        let chk = Hpf.Sema.analyze_source src in
        let par =
          List.map (fun d -> (d, compile_par_timed ~domains:d chk)) domain_sweep
        in
        (name, total, phases, stats, par))
      apps
  in
  let buf = Buffer.create 4096 in
  let pf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  pf "{\n";
  pf "  \"schema\": \"dhpf-bench-compile/2\",\n";
  pf "  \"mode\": \"%s\",\n" (if smoke then "smoke" else "full");
  pf "  \"host_cores\": %d,\n" (Par.recommended ());
  pf "  \"cache_enabled\": %b,\n" (Iset.Cache.enabled ());
  pf "  \"apps\": [\n";
  List.iteri
    (fun i (name, total, phases, stats, par) ->
      pf "    {\n";
      pf "      \"name\": \"%s\",\n" (json_escape name);
      pf "      \"total_s\": %.6f,\n" total;
      pf "      \"compile_domains\": [\n";
      (let t1 =
         try List.assoc 1 par with Not_found -> List.assoc (List.hd domain_sweep) par
       in
       List.iteri
         (fun j (d, s) ->
           pf "        {\"domains\": %d, \"wall_s\": %.6f, \"speedup\": %.2f}%s\n"
             d s
             (t1 /. Float.max s 1e-9)
             (if j + 1 < List.length par then "," else ""))
         par);
      pf "      ],\n";
      pf "      \"phases_s\": {\n";
      List.iteri
        (fun j (l, s) ->
          pf "        \"%s\": %.6f%s\n" (json_escape l) s
            (if j + 1 < List.length phases then "," else ""))
        phases;
      pf "      },\n";
      pf "      \"cache\": {\n";
      let n = List.length stats in
      List.iteri
        (fun j (k, v) ->
          pf "        \"%s\": %d%s\n" (json_escape k) v
            (if j + 1 < n then "," else ""))
        stats;
      pf "      }\n";
      pf "    }%s\n" (if i + 1 < List.length results then "," else ""))
    results;
  pf "  ]\n";
  pf "}\n";
  print_string (Buffer.contents buf);
  results

let json () = ignore (bench_json ~smoke:false ())

(* ------------------------------------------------------------------ *)
(* Runtime benchmark: `-- run-json` / `-- run-smoke` (BENCH_run.json)   *)
(* ------------------------------------------------------------------ *)

(* The Figure-7 workloads timed end to end (Exec.make + Exec.run, i.e.
   including the closure engine's lowering pass) under both engines. The
   engines must agree exactly on the transport counters — a cheap standing
   differential check here; the bit-identical element comparison lives in
   the test suite's engine-differential property. *)
let run_workloads ?(smoke = false) () =
  if smoke then
    [
      ("JACOBI-96", Codes.jacobi ~n:96 ~iters:3 ~procs:(Codes.Symbolic2 2) (), 4);
      ("TOMCATV-65", Codes.tomcatv ~n:65 ~iters:2 ~procs:(Codes.Symbolic2 1) (), 4);
    ]
  else
    [
      ("TOMCATV-129", Codes.tomcatv ~n:129 ~iters:3 ~procs:(Codes.Symbolic2 1) (), 8);
      ("TOMCATV-257", Codes.tomcatv ~n:257 ~iters:3 ~procs:(Codes.Symbolic2 1) (), 8);
      ("ERLEBACHER-40", Codes.erlebacher ~n:40 ~iters:2 ~procs:(Codes.Symbolic2 1) (), 4);
      ("JACOBI-384", Codes.jacobi ~n:384 ~iters:4 ~procs:(Codes.Symbolic2 2) (), 8);
    ]

type run_row = {
  rr_name : string;
  rr_nprocs : int;
  rr_compile_s : float;
  rr_phases : (string * float) list;  (* per-phase compile breakdown *)
  rr_interp_s : float;
  rr_closure_s : float;
  rr_stats : Spmdsim.Exec.stats;
  rr_counters_equal : bool;
  rr_domains : (int * float * bool) list;
      (* sharded-lane sweep: domains, wall_s, counters bit-equal to 1-domain *)
  rr_matrix : (int * int * int * int * int) list;
      (* aggregated comm matrix: src, dst, msgs, elems, bytes *)
  rr_metrics : (string * float) list;  (* selected scalar series *)
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

(* One extra metered (untimed) closure run per workload. The timed runs
   stay unmetered so engine timings are not polluted by registry upkeep;
   metering cannot perturb the results themselves (the registry only
   reads simulated state). *)
let metered_run ?engine:(engine = `Closure) prog nprocs =
  Obs.Metrics.reset ();
  Obs.Metrics.enable ();
  let sim = Spmdsim.Exec.make ~engine ~nprocs prog in
  ignore (Spmdsim.Exec.run sim);
  let cells = Spmdsim.Exec.comm_cells sim in
  let snap = Obs.Metrics.snapshot () in
  Obs.Metrics.disable ();
  Obs.Metrics.reset ();
  (cells, snap)

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

let snap_scalar snap name =
  let open Obs.Metrics in
  match
    List.find_opt (fun s -> s.m_name = name && s.m_labels = []) snap
  with
  | Some { m_value = VCounter v | VGauge v; _ } -> v
  | _ -> 0.0

(* the scalar series embedded per workload in dhpf-bench-run/3 *)
let embedded_series =
  [
    "sim/msgs_total"; "sim/bytes_total"; "sim/elems_total"; "sim/coll_msgs";
    "sim/coll_bytes"; "sim/local_copies"; "sim/retransmits"; "sim/max_mailbox";
    "sim/compute_max_s"; "sim/compute_mean_s"; "sim/load_imbalance";
    "sim/comm_to_compute";
  ]

(* ---- crash/checkpoint sweep: lost work vs. checkpoint interval ---- *)

(* One workload under a FIXED crash schedule, swept over checkpoint
   intervals. Crash points are keyed on (pid, op), so the same crashes
   fire at every interval — the sweep isolates the checkpoint-frequency
   trade-off: frequent snapshots cost write time but bound the work a
   rollback discards; interval 0 means no snapshots (every recovery
   restarts from scratch). Values are bit-identical to the fault-free run
   at every point of the sweep (asserted by the resilience test suite);
   only the clocks move. *)

let ckpt_workload ~smoke =
  if smoke then
    ("JACOBI-96", Codes.jacobi ~n:96 ~iters:3 ~procs:(Codes.Symbolic2 2) (), 4)
  else
    ("JACOBI-384", Codes.jacobi ~n:384 ~iters:4 ~procs:(Codes.Symbolic2 2) (), 8)

let ckpt_intervals ~smoke = if smoke then [ 0; 8; 32 ] else [ 0; 5; 20; 80; 320 ]
let ckpt_faults = (17, 0.04, 4) (* seed, crash_prob, crash_max *)

type ckpt_row = {
  ck_every : int;
  ck_ckpts : int;
  ck_bytes : int;
  ck_crashes : int;
  ck_lost_s : float;
  ck_time_s : float;
}

let ckpt_sweep ~smoke () =
  let _, src, nprocs = ckpt_workload ~smoke in
  let chk = Hpf.Sema.analyze_source src in
  let compiled = Dhpf.Gen.compile chk in
  let seed, crash_prob, crash_max = ckpt_faults in
  let faults = { Spmdsim.Fault.none with seed; crash_prob; crash_max } in
  List.map
    (fun every ->
      let rep =
        Spmdsim.Checkpoint.run ~faults ~ckpt_every:every ~nprocs
          compiled.Dhpf.Gen.cprog
      in
      {
        ck_every = every;
        ck_ckpts = rep.Spmdsim.Checkpoint.rp_stats.s_ckpts;
        ck_bytes = rep.rp_stats.s_ckpt_bytes;
        ck_crashes = rep.rp_stats.s_crashes;
        ck_lost_s = rep.rp_stats.s_lost_work;
        ck_time_s = rep.rp_stats.s_time;
      })
    (ckpt_intervals ~smoke)

let resilience () =
  section "Checkpoint interval sweep: lost work vs. checkpoint cost";
  let name, _, nprocs = ckpt_workload ~smoke:false in
  let seed, crash_prob, crash_max = ckpt_faults in
  Fmt.pr
    "(%s on %d procs, crash schedule seed %d: p=%.2f per comm op, max %d \
     crashes;@.\
    \ the same crashes fire at every interval — only the rollback distance \
     changes)@.@."
    name nprocs seed crash_prob crash_max;
  Fmt.pr "%10s %8s %12s %9s %14s %12s@." "interval" "ckpts" "ckpt KiB"
    "crashes" "lost work ms" "time ms";
  List.iter
    (fun r ->
      Fmt.pr "%10s %8d %12d %9d %14.3f %12.2f@."
        (if r.ck_every = 0 then "none" else string_of_int r.ck_every)
        r.ck_ckpts (r.ck_bytes / 1024) r.ck_crashes (r.ck_lost_s *. 1e3)
        (r.ck_time_s *. 1e3))
    (ckpt_sweep ~smoke:false ())

let bench_run_json ~smoke () =
  let rows =
    List.map
      (fun (name, src, nprocs) ->
        let chk = Hpf.Sema.analyze_source src in
        (* fresh measurement window per workload: phase totals and cache
           counters are process-global (see Iset.Stats) *)
        let ph = Dhpf.Phase.global in
        Dhpf.Phase.reset ph;
        Iset.Stats.reset ();
        let ct0 = Unix.gettimeofday () in
        let compiled = Dhpf.Gen.compile chk in
        let compile_s = Unix.gettimeofday () -. ct0 in
        let phases =
          List.map (fun l -> (l, Dhpf.Phase.total ph l)) (Dhpf.Phase.labels ph)
        in
        let ti, si = time_engine `Interp compiled.Dhpf.Gen.cprog nprocs in
        let tc, sc = time_engine `Closure compiled.Dhpf.Gen.cprog nprocs in
        let eq =
          si.Spmdsim.Exec.s_msgs = sc.Spmdsim.Exec.s_msgs
          && si.s_bytes = sc.s_bytes && si.s_elems = sc.s_elems
          && si.s_retransmits = sc.s_retransmits
          && si.s_time = sc.s_time
        in
        let dsweep =
          List.map
            (fun d ->
              let w, deq = time_domains ~domains:d compiled.Dhpf.Gen.cprog nprocs sc in
              (d, w, deq))
            domain_sweep
        in
        let cells, snap = metered_run compiled.Dhpf.Gen.cprog nprocs in
        {
          rr_name = name;
          rr_nprocs = nprocs;
          rr_compile_s = compile_s;
          rr_phases = phases;
          rr_interp_s = ti;
          rr_closure_s = tc;
          rr_stats = sc;
          rr_counters_equal = eq;
          rr_domains = dsweep;
          rr_matrix = comm_matrix cells;
          rr_metrics = List.map (fun n -> (n, snap_scalar snap n)) embedded_series;
        })
      (run_workloads ~smoke ())
  in
  let buf = Buffer.create 2048 in
  let pf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let ckpt_rows = ckpt_sweep ~smoke () in
  pf "{\n";
  pf "  \"schema\": \"dhpf-bench-run/5\",\n";
  pf "  \"mode\": \"%s\",\n" (if smoke then "smoke" else "full");
  pf "  \"host_cores\": %d,\n" (Par.recommended ());
  pf "  \"workloads\": [\n";
  List.iteri
    (fun i r ->
      pf "    {\n";
      pf "      \"name\": \"%s\",\n" (json_escape r.rr_name);
      pf "      \"nprocs\": %d,\n" r.rr_nprocs;
      pf "      \"compile_wall_s\": %.6f,\n" r.rr_compile_s;
      pf "      \"compile_phases_s\": {\n";
      List.iteri
        (fun j (l, s) ->
          pf "        \"%s\": %.6f%s\n" (json_escape l) s
            (if j + 1 < List.length r.rr_phases then "," else ""))
        r.rr_phases;
      pf "      },\n";
      pf "      \"interp_wall_s\": %.6f,\n" r.rr_interp_s;
      pf "      \"closure_wall_s\": %.6f,\n" r.rr_closure_s;
      pf "      \"speedup\": %.2f,\n" (r.rr_interp_s /. r.rr_closure_s);
      pf "      \"counters_equal\": %b,\n" r.rr_counters_equal;
      pf "      \"sim_domains\": [\n";
      (let t1 =
         match r.rr_domains with (1, w, _) :: _ -> w | _ -> r.rr_closure_s
       in
       List.iteri
         (fun j (d, w, deq) ->
           pf
             "        {\"domains\": %d, \"wall_s\": %.6f, \"speedup\": %.2f, \
              \"bit_identical\": %b}%s\n"
             d w
             (t1 /. Float.max w 1e-9)
             deq
             (if j + 1 < List.length r.rr_domains then "," else ""))
         r.rr_domains);
      pf "      ],\n";
      pf "      \"sim\": {\n";
      pf "        \"time_s\": %.9f,\n" r.rr_stats.Spmdsim.Exec.s_time;
      pf "        \"msgs\": %d,\n" r.rr_stats.s_msgs;
      pf "        \"bytes\": %d,\n" r.rr_stats.s_bytes;
      pf "        \"elems\": %d\n" r.rr_stats.s_elems;
      pf "      },\n";
      pf "      \"metrics\": {\n";
      List.iter
        (fun (n, v) -> pf "        \"%s\": %.6f,\n" (json_escape n) v)
        r.rr_metrics;
      pf "        \"comm_matrix\": [\n";
      List.iteri
        (fun j (s, d, m, e, b) ->
          pf
            "          {\"src\": %d, \"dst\": %d, \"msgs\": %d, \"elems\": \
             %d, \"bytes\": %d}%s\n"
            s d m e b
            (if j + 1 < List.length r.rr_matrix then "," else ""))
        r.rr_matrix;
      pf "        ]\n";
      pf "      }\n";
      pf "    }%s\n" (if i + 1 < List.length rows then "," else ""))
    rows;
  pf "  ],\n";
  (let name, _, nprocs = ckpt_workload ~smoke in
   let seed, crash_prob, crash_max = ckpt_faults in
   pf "  \"resilience\": {\n";
   pf "    \"workload\": \"%s\",\n" (json_escape name);
   pf "    \"nprocs\": %d,\n" nprocs;
   pf "    \"crash_seed\": %d,\n" seed;
   pf "    \"crash_prob\": %.4f,\n" crash_prob;
   pf "    \"crash_max\": %d,\n" crash_max;
   pf "    \"sweep\": [\n";
   List.iteri
     (fun j r ->
       pf
         "      {\"checkpoint_every\": %d, \"ckpts\": %d, \"ckpt_bytes\": \
          %d, \"crashes\": %d, \"lost_work_s\": %.9f, \"time_s\": %.9f}%s\n"
         r.ck_every r.ck_ckpts r.ck_bytes r.ck_crashes r.ck_lost_s r.ck_time_s
         (if j + 1 < List.length ckpt_rows then "," else ""))
     ckpt_rows;
   pf "    ]\n";
   pf "  }\n");
  pf "}\n";
  print_string (Buffer.contents buf);
  rows

let run_json () = ignore (bench_run_json ~smoke:false ())

(* Backs `make bench-run-smoke` in the tier-1 check flow: the closure
   engine must beat the interpreter on every smoke workload, with identical
   transport counters — otherwise the staged engine (or its cost-model
   parity) has regressed. *)
let run_smoke () =
  let rows = bench_run_json ~smoke:true () in
  let bad_counters = List.filter (fun r -> not r.rr_counters_equal) rows in
  let bad_domains =
    List.filter
      (fun r -> List.exists (fun (_, _, deq) -> not deq) r.rr_domains)
      rows
  in
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

(* Backs `make metrics-smoke`: on a symmetric stencil (JACOBI) over a
   square processor grid the measured communication matrix must be
   symmetric, the integer-set prediction must equal the measured table
   cell for cell, and both engines must meter identically. *)
let metrics_smoke () =
  let nprocs = 4 in
  let src = Codes.jacobi ~n:64 ~iters:2 ~procs:(Codes.Fixed (2, 2)) () in
  let chk = Hpf.Sema.analyze_source src in
  let compiled = Dhpf.Gen.compile chk in
  let cells_of engine =
    fst (metered_run ~engine compiled.Dhpf.Gen.cprog nprocs)
  in
  let cc = cells_of `Closure in
  let ci = cells_of `Interp in
  let fail = ref false in
  if cc <> ci then begin
    Fmt.epr "metrics-smoke: engines disagree on the communication matrix@.";
    fail := true
  end;
  let mat = comm_matrix cc in
  if mat = [] then begin
    Fmt.epr "metrics-smoke: empty communication matrix (metering broken?)@.";
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

(* Backs `make bench-par-smoke`: the correctness half always runs (the
   domain-differential axis on a mid-size workload — sharded lanes must be
   bit-identical to the sequential scheduler, faults included); the
   speedup half is gated on the host actually having cores to scale on.
   On a multi-core host the 4-way (or as-wide-as-the-host) compile and
   simulation must beat 1 domain by DHPF_PAR_SMOKE_MIN_SPEEDUP (default
   1.5x); single-core hosts skip with a message, because oversubscribed
   domains can only measure interleaving, not speed. *)
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
    let min_speedup =
      match Sys.getenv_opt "DHPF_PAR_SMOKE_MIN_SPEEDUP" with
      | Some s -> ( try float_of_string s with _ -> 1.5)
      | None -> 1.5
    in
    let d = min 4 cores in
    let fail = ref false in
    (* compile side: the many-unit SP application *)
    let schk =
      Hpf.Sema.analyze_source
        (Codes.sp_like ~n:24 ~nsub:30 ~procs:(Codes.Symbolic2 2) ())
    in
    ignore (compile_par_timed ~domains:1 schk) (* warm caches *);
    let c1 = compile_par_timed ~domains:1 schk in
    let cd = compile_par_timed ~domains:d schk in
    let cs = c1 /. Float.max cd 1e-9 in
    Fmt.epr "bench par-smoke: compile %d-domain speedup %.2fx (%.3fs -> %.3fs)@."
      d cs c1 cd;
    if cs < min_speedup then begin
      Fmt.epr "bench par-smoke: compile speedup below %.2fx threshold@."
        min_speedup;
      fail := true
    end;
    (* simulator side: the large JACOBI closure-engine run *)
    let jchk =
      Hpf.Sema.analyze_source
        (Codes.jacobi ~n:384 ~iters:4 ~procs:(Codes.Symbolic2 2) ())
    in
    let prog = (Dhpf.Gen.compile jchk).Dhpf.Gen.cprog in
    let s1 = Spmdsim.Exec.make ~domains:1 ~nprocs:8 prog in
    let w1, st1 = ((fun () ->
        let t0 = Unix.gettimeofday () in
        let st = Spmdsim.Exec.run s1 in
        (Unix.gettimeofday () -. t0, st)) ()) in
    let wd, deq = time_domains ~domains:d prog 8 st1 in
    let ss = w1 /. Float.max wd 1e-9 in
    Fmt.epr "bench par-smoke: sim %d-domain speedup %.2fx (%.3fs -> %.3fs)@."
      d ss w1 wd;
    if not deq then begin
      Fmt.epr "bench par-smoke: sharded run not bit-identical@.";
      fail := true
    end;
    if ss < min_speedup then begin
      Fmt.epr "bench par-smoke: simulator speedup below %.2fx threshold@."
        min_speedup;
      fail := true
    end;
    if !fail then begin
      Fmt.epr "bench par-smoke: FAILED@.";
      exit 1
    end
  end;
  Fmt.epr "bench par-smoke: ok@."

(* --------------------------------------------------------------------- *)
(* Native-engine benchmark: `-- native-smoke` / `-- native-json`         *)
(* (BENCH_native.json). Three-way bit-identity (closure / interpreter /  *)
(* generated-OCaml kernel, fault schedules included) is always asserted; *)
(* the speedup gate compares warm-cache kernel execution against the     *)
(* closure engine's run phase on JACOBI-384. The out-of-process ocamlopt *)
(* build is reported separately — it is a one-time cost the source-hash  *)
(* cache amortizes across runs.                                          *)

type native_row = {
  nv_diff_runs : int;  (* three-way differential runs that agreed *)
  nv_obtain_s : float;  (* first make: cold build or cache hit *)
  nv_make_warm_s : float;  (* second make: lower+emit+hash+dynlink *)
  nv_interp_s : float;
  nv_closure_s : float;
  nv_native_s : float;
}

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
  (* run phase only, best of [best] after one warm-up run: each engine
     gets a fresh sim per run (the runtime refuses to re-run one) *)
  let run_phase ?(best = 3) engine =
    let one () =
      let sim = Spmdsim.Exec.make ~engine ~nprocs:8 prog in
      fst (timed (fun () -> ignore (Spmdsim.Exec.run sim)))
    in
    ignore (one ());
    let t = ref infinity in
    for _ = 1 to best do
      t := Float.min !t (one ())
    done;
    !t
  in
  {
    nv_diff_runs = runs;
    nv_obtain_s = obtain_s;
    nv_make_warm_s = make_warm_s;
    nv_interp_s = run_phase ~best:1 `Interp;
    nv_closure_s = run_phase `Closure;
    nv_native_s = run_phase `Native;
  }

let native_json_doc r =
  let buf = Buffer.create 512 in
  let pf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  pf "{\n";
  pf "  \"schema\": \"dhpf-bench-native/1\",\n";
  pf "  \"host_cores\": %d,\n" (Par.recommended ());
  pf "  \"workload\": \"JACOBI-384\",\n";
  pf "  \"nprocs\": 8,\n";
  pf
    "  \"three_way_identity\": {\"workload\": \"JACOBI-96\", \"runs\": %d, \
     \"pass\": true},\n"
    r.nv_diff_runs;
  pf "  \"kernel_obtain_s\": %.6f,\n" r.nv_obtain_s;
  pf "  \"kernel_make_warm_s\": %.6f,\n" r.nv_make_warm_s;
  pf "  \"interp_run_s\": %.6f,\n" r.nv_interp_s;
  pf "  \"closure_run_s\": %.6f,\n" r.nv_closure_s;
  pf "  \"native_run_s\": %.6f,\n" r.nv_native_s;
  pf "  \"speedup_vs_closure\": %.2f,\n"
    (r.nv_closure_s /. Float.max r.nv_native_s 1e-9);
  pf "  \"speedup_vs_interp\": %.2f\n"
    (r.nv_interp_s /. Float.max r.nv_native_s 1e-9);
  pf "}\n";
  Buffer.contents buf

let native_json () = print_string (native_json_doc (native_measure ()))

(* Backs `make bench-native-smoke`: identity always, speedup gated by
   DHPF_NATIVE_SMOKE_MIN_SPEEDUP (default 3x — the run-phase comparison
   is single-threaded, so unlike par-smoke it holds on one core too). *)
let native_smoke () =
  let r = native_measure () in
  let sp = r.nv_closure_s /. Float.max r.nv_native_s 1e-9 in
  let min_speedup =
    match Sys.getenv_opt "DHPF_NATIVE_SMOKE_MIN_SPEEDUP" with
    | Some s -> ( try float_of_string s with _ -> 3.0)
    | None -> 3.0
  in
  Fmt.epr
    "bench native-smoke: three-way ok (%d run(s)); JACOBI-384 run phase \
     closure=%.3fs native=%.3fs interp=%.3fs (%.2fx over closure; warm make \
     %.3fs, first obtain %.3fs)@."
    r.nv_diff_runs r.nv_closure_s r.nv_native_s r.nv_interp_s sp
    r.nv_make_warm_s r.nv_obtain_s;
  if sp < min_speedup then begin
    Fmt.epr "bench native-smoke: speedup below %.2fx threshold@." min_speedup;
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
   words (the memo hit path has regressed to re-doing work). *)
let warm_alloc_guard () =
  List.filter_map
    (fun (name, src) ->
      let chk = Hpf.Sema.analyze_source src in
      Iset.Cache.clear_all ();
      let cold = compile_minor_words chk in
      let warm = compile_minor_words chk in
      Fmt.epr "bench smoke: %s minor words cold %.1fM, warm %.1fM@." name
        (cold /. 1e6) (warm /. 1e6);
      if warm > cold /. 2.0 then Some name else None)
    (table1_apps ~smoke:true ())

(* Smoke mode backs `make bench-smoke` in the tier-1 check flow: a fast
   Table-1 subset, JSON on stdout, and a hard failure if the memoization
   layer shows no hits (i.e. the caches silently stopped working) or its
   warm path allocates like a cold compile. *)
let smoke () =
  let results = bench_json ~smoke:true () in
  if Iset.Cache.enabled () then begin
    (match warm_alloc_guard () with
    | [] -> ()
    | bad ->
        Fmt.epr
          "bench smoke: FAILED — warm compile allocates more than half the \
           cold one's minor words: %s@."
          (String.concat ", " bad);
        exit 1);
    let hits_of (_, _, _, stats, _) =
      List.fold_left
        (fun acc key -> acc + (try List.assoc key stats with Not_found -> 0))
        0
        [ "sat hits"; "simplify hits"; "gist hits"; "implies hits"; "subset hits" ]
    in
    let total_hits = List.fold_left (fun acc r -> acc + hits_of r) 0 results in
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
  (* json/smoke are machine-readable modes, kept out of the default
     every-section run so stdout stays a single JSON document *)
  let special =
    [
      ("json", json);
      ("smoke", smoke);
      ("run-json", run_json);
      ("run-smoke", run_smoke);
      ("par-smoke", par_smoke);
      ("native-smoke", native_smoke);
      ("native-json", native_json);
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
