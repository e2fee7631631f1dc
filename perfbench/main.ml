(* Benchmark runner behind BENCHMARK.json (see perfbench/README.md).

     main.exe --workload W --seed N --seconds S --trace 0|1

   Runs one workload for about S measured seconds on inputs generated
   from the seed, checks every output, writes a result file (and, when
   traced, a span file) under perfbench/_out, and prints the result as
   the last line of standard output:
   {"correct","attempted","failed","metrics"}. Untraced runs report the
   end-to-end metrics, traced runs the per-layer ones. *)

module J = Serve.Jsonx

let now = Unix.gettimeofday

(* CPU seconds used by this process and the children it has reaped. On a
   virtual machine whose kernel accounts steal time, this leaves out the
   time the host gave the vCPU to another guest, which wall time counts. *)
let cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.tms_stime +. t.tms_cutime +. t.tms_cstime

(* CPU seconds used so far by every thread of process [pid] (a daemon
   still running), from the scheduler's per-thread run time, which leaves
   out steal time the same way *)
let task_cpu pid =
  let dir = Printf.sprintf "/proc/%d/task" pid in
  match Sys.readdir dir with
  | exception Sys_error _ -> 0.0
  | tids ->
      Array.fold_left
        (fun acc tid ->
          match
            In_channel.with_open_bin (Filename.concat (Filename.concat dir tid) "schedstat")
              (fun ic -> Scanf.sscanf (In_channel.input_all ic) "%d" Fun.id)
          with
          | ns -> acc +. (float_of_int ns /. 1e9)
          | exception (Sys_error _ | Scanf.Scan_failure _ | End_of_file) -> acc)
        0.0 tids

let out_dir = Filename.concat "perfbench" "_out"

let rec mkdir_p d =
  if d <> "" && d <> "." && d <> "/" && not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let rec rm_rf p =
  match (Unix.lstat p).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter (fun e -> rm_rf (Filename.concat p e)) (Sys.readdir p);
      Unix.rmdir p
  | _ -> Unix.unlink p
  | exception Unix.Unix_error _ -> ()

let rec dir_bytes p =
  match Unix.lstat p with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.fold_left
        (fun acc e -> acc + dir_bytes (Filename.concat p e))
        0 (Sys.readdir p)
  | { Unix.st_kind = Unix.S_REG; st_size; _ } -> st_size
  | _ -> 0
  | exception Unix.Unix_error _ -> 0

(* a fresh scratch directory for this process under perfbench/_out *)
let scratch tag =
  let d = Filename.concat out_dir (Printf.sprintf "%s-%d" tag (Unix.getpid ())) in
  rm_rf d;
  mkdir_p d;
  d

(* ---- statistics ------------------------------------------------------- *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let p50 xs = Serve.Loadgen.percentile 0.5 (sorted xs)

(* The highest percentile with at least ten samples beyond it: the
   (n-10)-th smallest of n samples. Returns the value, that percentile
   and the sample count; with ten samples or fewer no percentile
   qualifies and the maximum stands in. *)
let tail xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then (0.0, 0.0, 0)
  else if n <= 10 then (a.(n - 1), 100.0, n)
  else (a.(n - 11), 100.0 *. float_of_int (n - 10) /. float_of_int n, n)

let sum = List.fold_left ( +. ) 0.0
let mean xs = if xs = [] then 0.0 else sum xs /. float_of_int (List.length xs)
let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

(* VmHWM of a process ("self" or a pid), in MB *)
let peak_rss_mb pid =
  match open_in (Printf.sprintf "/proc/%s/status" pid) with
  | exception Sys_error _ -> 0.0
  | ic ->
      let rec go () =
        match input_line ic with
        | l when String.starts_with ~prefix:"VmHWM:" l ->
            Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d" (fun kb ->
                float_of_int kb /. 1024.0)
        | _ -> go ()
        | exception End_of_file -> 0.0
      in
      Fun.protect ~finally:(fun () -> close_in ic) go

let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

let digest s = Digest.to_hex (Digest.string s)

(* [f ()] with its wall time and the CPU time this process (and the
   children it reaped meanwhile) spent on it *)
let measured f =
  let u0 = cpu () and t0 = now () in
  let r = f () in
  let t1 = now () in
  (r, t1 -. t0, cpu () -. u0)

(* ---- what a run reports ------------------------------------------------ *)

(* an operation's wall-clock latency and the CPU time it took *)
type op = {
  kind : string;
  lat : float;
  cpu : float;
  calib : float;  (** the reference's CPU time just before the operation *)
  traced : bool;
}

(* Operations attempted, the ones that failed, and every failure by name.
   An operation fails when it raises, is refused, or any of its output
   checks fails. Checks outside the operations (set-up compiles, clean
   daemon exits, the disk pass) only make the run incorrect. *)
type tally = { mutable attempted : int; mutable failed : int; mutable failures : string list }

let tally () = { attempted = 0; failed = 0; failures = [] }

let check t what ok = if not ok then t.failures <- what :: t.failures

let op t what ok =
  t.attempted <- t.attempted + 1;
  if not ok then t.failed <- t.failed + 1;
  check t what ok

type outcome = {
  setup_s : float list;  (** one scaled CPU-time sample per set-up performed *)
  setup_wall_s : float list;  (** the same set-ups' wall time *)
  rss_mb : float;  (** peak RSS of the process doing the work *)
  ops : op list;  (** every completed operation *)
  busy_s : float;
      (** time the operations kept the system busy: their summed latency
          for the one-at-a-time workloads, the measured wall time for the
          concurrent serve workloads *)
  checks : tally;
  layers : (string * float) list;  (** per-layer and detail figures *)
  notes : (string * J.t) list;  (** result-file-only context *)
}

let lats ops = List.map (fun o -> o.lat) ops

(* The CPU time of the calibration helper's reference work (see "host
   speed" below) on an unloaded host of the kind the bounds were set on
   (two vCPUs of a Xeon virtual machine). End-to-end times are CPU times
   scaled by it over the reference time measured with them: CPU seconds at
   that host's speed. *)
let reference_s = 0.02

let scaled ops = List.map (fun o -> o.cpu *. reference_s /. o.calib) ops
let kinds ops = List.sort_uniq compare (List.map (fun o -> o.kind) ops)
let of_kind k ops = List.filter (fun o -> o.kind = k) ops

(* The typical operation time ([f]: wall or scaled CPU time): the
   geometric mean over kinds of each kind's median. Kinds differ in cost
   by whole factors, so the pooled median would sit on the edge between
   two of them and jump with noise; this figure moves in proportion when
   any kind gets faster or slower. *)
let kind_p50 f ops =
  let ks = kinds ops in
  exp
    (sum (List.map (fun k -> log (p50 (f (of_kind k ops)))) ks)
    /. float_of_int (max 1 (List.length ks)))

(* In a traced run, operations (rounds, for the batch workloads) alternate
   between traced and untraced, so the tracer's cost is measured against
   interleaved work: per kind of operation, the traced median of scaled
   CPU time minus the untraced one, averaged over kinds. *)
let traced_turn ~trace k = trace && k mod 2 = 1

let overhead ops =
  mean
    (List.filter_map
       (fun k ->
         match List.partition (fun o -> o.traced) (of_kind k ops) with
         | [], _ | _, [] -> None
         | t, u -> Some (p50 (scaled t) -. p50 (scaled u)))
       (kinds ops))

(* iset engine counters, looked up by their Iset.Stats.report names *)
let counter l name = Option.value (List.assoc_opt name l) ~default:0

let memo_names = [ "sat"; "simplify"; "gist"; "implies"; "subset" ]

let iset_layers ~per l =
  let c = counter l in
  let per_op n = float_of_int n /. float_of_int (max 1 per) in
  let sum_of suffix = List.fold_left (fun a k -> a + c (k ^ suffix)) 0 memo_names in
  [
    ("iset.sat_lookups", per_op (c "sat lookups"));
    ("iset.sat_hit_ratio", ratio (c "sat hits") (c "sat lookups"));
    ("iset.simplify_lookups", per_op (c "simplify lookups"));
    ("iset.simplify_hit_ratio", ratio (c "simplify hits") (c "simplify lookups"));
    ("iset.subset_hit_ratio", ratio (c "subset hits") (c "subset lookups"));
    ("iset.memo_hit_ratio", ratio (sum_of " hits") (sum_of " lookups"));
    ("iset.evictions", per_op (c "cache evictions"));
    ("iset.interned_conjuncts", float_of_int (c "interned conjuncts"));
  ]

(* on-disk cache traffic per request of the passes that touched it *)
let disk_layers (l, per) =
  let c = counter l in
  let per_op n = float_of_int n /. float_of_int (max 1 per) in
  [
    ("iset.disk_lookups", per_op (c "disk lookups"));
    ("iset.disk_hit_ratio", ratio (c "disk hits") (c "disk lookups"));
    ("iset.disk_stores", per_op (c "disk stores"));
    ("iset.disk_evictions", float_of_int (c "disk evictions"));
    ("iset.disk_bytes", float_of_int (c "disk bytes"));
  ]

let delta before after =
  List.map (fun (n, v) -> (n, v - counter before n)) after

(* ---- host speed ------------------------------------------------------- *)

(* run.py pins the runner to one CPU and names another here, so the load
   generator never competes with a daemon for a core. [pin pid] moves a
   process (and the threads it starts later) to that CPU; without it, or
   without taskset, the process stays where it is. *)
let pin pid =
  match Sys.getenv_opt "PERFBENCH_DAEMON_CPU" with
  | None -> ()
  | Some cpu -> (
      try
        let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY; Unix.O_CLOEXEC ] 0 in
        let p =
          Unix.create_process "taskset"
            [| "taskset"; "-p"; "-c"; cpu; string_of_int pid |]
            Unix.stdin null Unix.stderr
        in
        Unix.close null;
        ignore (Unix.waitpid [] p)
      with Unix.Unix_error _ -> ())

(* The calibration helper (calib.ml), started beside the runner. Just
   before each timed operation the runner has it do the fixed reference
   work that resembles the operation ([mix]: "c" for compiles, "s" for
   simulations) on the CPU the operation runs on, and records the CPU time
   that took with the operation. On a shared host the same code runs up
   to half again slower at one moment than at another, as other guests
   contend for the core and its caches; the reference slows with it, so an
   operation's CPU time over its reference time stays put, while a change
   in the repository's code still shows in full. *)
type probe = {
  pid : int;
  mix : string;
  req : out_channel;
  ans : in_channel;
  mutable samples : float list;
}

let probe : probe option ref = ref None

let reference_run p =
  output_string p.req (p.mix ^ "\n");
  flush p.req;
  float_of_string (input_line p.ans)

let start_probe mix =
  let exe = Filename.concat (Filename.dirname Sys.executable_name) "calib.exe" in
  let req_r, req_w = Unix.pipe ~cloexec:true () and ans_r, ans_w = Unix.pipe ~cloexec:true () in
  let pid = Unix.create_process exe [| exe |] req_r ans_w Unix.stderr in
  Unix.close req_r;
  Unix.close ans_w;
  let p =
    { pid; mix; req = Unix.out_channel_of_descr req_w; ans = Unix.in_channel_of_descr ans_r; samples = [] }
  in
  (* the helper's first runs grow its heap and fault its pages in *)
  for _ = 1 to 3 do
    ignore (reference_run p)
  done;
  probe := Some p

let stop_probe () =
  match !probe with
  | None -> ()
  | Some p ->
      probe := None;
      (try
         output_string p.req "q\n";
         close_out p.req
       with Sys_error _ -> ());
      ignore (Unix.waitpid [] p.pid);
      close_in_noerr p.ans

(* one reference run: its CPU time, also recorded *)
let calibrate () =
  match !probe with
  | None -> failwith "calibration helper not started"
  | Some p ->
      let s = reference_run p in
      p.samples <- s :: p.samples;
      s

let probe_samples () = match !probe with Some p -> List.rev p.samples | None -> []

(* One set-up: [f ()] with its wall time and its CPU time, [extra] CPU
   seconds spent elsewhere added, scaled by the mean of the reference runs
   just before and just after it (a set-up takes up to seconds) *)
let set_up ?(extra = fun _ -> 0.0) f =
  let before = calibrate () in
  let r, wall, cpu = measured f in
  let cpu = cpu +. extra r in
  let calib = (before +. calibrate ()) /. 2.0 in
  (r, (wall, cpu *. reference_s /. calib))

(* ---- compiling --------------------------------------------------------- *)

(* Top-level Gen.compile phases (disjoint and sequential) and the Table 1
   rows nested inside module compilation, each with the per-layer metric
   it feeds. *)
let top_phases =
  [
    ("layout construction", "dhpf.layout");
    ("interprocedural analysis", "dhpf.interproc");
    ("module compilation", "dhpf.module");
  ]

let nested_phases =
  [
    ("partitioning computation", "dhpf.cp");
    ("communication analysis", "dhpf.comm_analysis");
    ("loop splitting", "dhpf.split");
    ("loop bounds reduction", "dhpf.bounds");
    ("communication generation", "dhpf.comm_gen");
    ("loops to compute msg sizes", "dhpf.msg_sizes");
    ("loops over comm partners", "dhpf.partners");
    ("check if msg is contiguous", "dhpf.contig");
  ]

(* what one compile measured; the compiled program itself is not kept, so
   a run's heap does not grow with the number of compiles *)
type compiled = {
  c_sema_s : float;
  c_compile_s : float;  (** Gen.compile wall time *)
  c_cpu_s : float;  (** CPU time of sema and Gen.compile *)
  c_phases : (string * float) list;  (** every profiler label *)
  c_alloc_words : float;
  c_major_gcs : int;
}

let phase_total c l = Option.value (List.assoc_opt l c.c_phases) ~default:0.0
let latency c = c.c_sema_s +. c.c_compile_s

(* One CLI compile: Sema.analyze_source, then Gen.compile ~domains:1 with
   a private profiler. Returns the measurement and the SPMD program. *)
let compile_once src =
  let u0 = cpu () in
  let t0 = now () in
  let chk = Trace.span "hpf.sema" (fun () -> Hpf.Sema.analyze_source src) in
  let t1 = now () in
  let phase = Dhpf.Phase.create () in
  let g0 = Gc.quick_stat () in
  let c, cid =
    Trace.span_id "dhpf.compile" (fun () -> Dhpf.Gen.compile ~domains:1 ~phase chk)
  in
  let g1 = Gc.quick_stat () in
  let t2 = now () in
  let u2 = cpu () in
  let phases =
    List.map (fun l -> (l, Dhpf.Phase.total phase l)) (Dhpf.Phase.labels phase)
  in
  let m =
    {
      c_sema_s = t1 -. t0;
      c_compile_s = t2 -. t1;
      c_cpu_s = u2 -. u0;
      c_phases = phases;
      c_alloc_words =
        (let alloc g = g.Gc.minor_words +. g.Gc.major_words -. g.Gc.promoted_words in
         alloc g1 -. alloc g0);
      c_major_gcs = g1.Gc.major_collections - g0.Gc.major_collections;
    }
  in
  ignore
    (Trace.children ~parent:cid ~t0:t1
       (List.map (fun (l, name) -> (name, phase_total m l)) top_phases));
  (m, c.Dhpf.Gen.cprog)

let spmd_text (_, prog) = Dhpf.Spmd.program_to_string prog

(* MD5 of each fixed program's printed SPMD node program: output that a
   change claims to keep must stay byte-identical. *)
let golden =
  [
    ("SP-4", "1e659fa2a3d3fb87a09b3f706e328d3a");
    ("SP-sym", "c904ceb7aa2ac5836b0c70978adb8adb");
    ("T-sym", "dbde8f0b7a3107d9e8ecc0db53db5aee");
    ("JACOBI-384", "edf5ac8a181f253b3b75cd47ee965a44");
    ("TOMCATV-257", "dbde8f0b7a3107d9e8ecc0db53db5aee");
    ("ERLEBACHER-40", "8aba071e787fb333eae22bb04aea0fd1");
  ]

let golden_ok name text =
  match List.assoc_opt name golden with
  | Some d -> d = digest text
  | None -> false

let compile_layers (all : compiled list) =
  let m f = mean (List.map f all) in
  [ ("hpf.sema_s", m (fun c -> c.c_sema_s)) ]
  @ List.map (fun (l, name) -> (name ^ "_s", m (fun c -> phase_total c l))) (top_phases @ nested_phases)
  @ [
      ( "dhpf.residual_s",
        m (fun c ->
            c.c_compile_s -. sum (List.map (fun (l, _) -> phase_total c l) top_phases)) );
      ("dhpf.alloc_mwords", m (fun c -> c.c_alloc_words /. 1e6));
      ("dhpf.major_gcs", m (fun c -> float_of_int c.c_major_gcs));
    ]

(* ---- compile-table1 ---------------------------------------------------- *)

(* The Table 1 programs at paper scale (bench/main.ml table1_apps). *)
let table1_programs =
  [
    ("SP-4", Codes.sp_like ~n:24 ~nsub:30 ~procs:(Codes.Fixed (2, 2)) ());
    ("SP-sym", Codes.sp_like ~n:24 ~nsub:30 ~procs:(Codes.Symbolic2 2) ());
    ("T-sym", Codes.tomcatv ~n:257 ~iters:3 ~procs:(Codes.Symbolic2 1) ());
  ]

(* An operation is one compile. Each program is compiled twice in a row:
   cold, after Iset.Cache.clear_all (what a CLI compile pays), then again
   over the warm memo tables (what a daemon's repeat request pays).
   Programs are drawn in seeded rounds of all three, so every run has the
   same mix of operations. Every operation starts from a collected heap,
   so it pays for its own garbage and not for its predecessors'. *)
let compile_table1 ~seed ~seconds ~trace =
  let rng = Random.State.make [| seed |] in
  let t = tally () in
  (* set-up, five times: one cold compile of each program, so code is
     paged in and the heap has grown before timing *)
  let setups =
    List.init 5 (fun _ ->
        snd
          (set_up (fun () ->
               List.iter
                 (fun (name, src) ->
                   Iset.Cache.clear_all ();
                   check t (name ^ " set-up compile") (golden_ok name (spmd_text (compile_once src))))
                 table1_programs)))
  in
  Gc.compact ();
  let before = Iset.Stats.report () in
  let cold = ref [] and warm = ref [] and ops = ref [] in
  let spmd_bytes = Hashtbl.create 4 in
  let round = ref 0 in
  let t_start = now () in
  while now () -. t_start < seconds do
    let traced = traced_turn ~trace !round in
    incr round;
    List.iter
      (fun (name, src) ->
        Iset.Cache.clear_all ();
        let compile kind =
          let calib = calibrate () in
          Gc.full_major ();
          let ((m, _) as c) =
            Trace.root ~on:traced ("op.compile_" ^ kind) (fun () -> compile_once src)
          in
          ops := { kind = name ^ "/" ^ kind; lat = latency m; cpu = m.c_cpu_s; calib; traced } :: !ops;
          c
        in
        let failed kind e = op t (name ^ " " ^ kind ^ ": " ^ Printexc.to_string e) false in
        match compile "cold" with
        | exception e -> failed "cold" e
        | (c, _) as cc -> (
            let tc = spmd_text cc in
            op t (name ^ " cold compile") (golden_ok name tc);
            Hashtbl.replace spmd_bytes name (String.length tc);
            cold := c :: !cold;
            match compile "warm" with
            | exception e -> failed "warm" e
            | (w, _) as ww ->
                op t (name ^ " warm compile") (spmd_text ww = tc);
                warm := w :: !warm))
      (shuffle rng table1_programs)
  done;
  let d = delta before (Iset.Stats.report ()) in
  let ccold = List.map latency !cold in
  let cold_tail, cold_q, cold_n = tail ccold in
  let ncomp = List.length !cold + List.length !warm in
  {
    setup_s = List.map snd setups;
    setup_wall_s = List.map fst setups;
    rss_mb = peak_rss_mb "self";
    ops = !ops;
    busy_s = sum (lats !ops);
    checks = t;
    layers =
      [
        ("compile_cold_p50_s", p50 ccold);
        ("compile_cold_tail_s", cold_tail);
        ("compile_warm_p50_s", p50 (List.map latency !warm));
        ("spmd_bytes", float_of_int (Hashtbl.fold (fun _ n a -> a + n) spmd_bytes 0));
      ]
      @ compile_layers (!cold @ !warm)
      (* the interned-conjunct gauge is a level, not a delta *)
      @ iset_layers ~per:ncomp
          (("interned conjuncts", counter (Iset.Stats.report ()) "interned conjuncts") :: d)
      @ [ ("obs.trace_overhead_s", overhead !ops) ];
    notes =
      [
        ("compile_cold_tail_percentile", J.Num cold_q);
        ("compile_cold_samples", J.int cold_n);
        ("compile_warm_samples", J.int (List.length !warm));
      ];
  }

(* ---- simulate-fig7 ----------------------------------------------------- *)

(* The Figure 7 programs (bench/main.ml run_workloads) with their
   processor counts; JACOBI-384 also runs under the native engine. *)
let fig7_programs =
  [
    ("JACOBI-384", Codes.jacobi ~n:384 ~iters:4 ~procs:(Codes.Symbolic2 2) (), 8, true);
    ("TOMCATV-257", Codes.tomcatv ~n:257 ~iters:3 ~procs:(Codes.Symbolic2 1) (), 8, false);
    ("ERLEBACHER-40", Codes.erlebacher ~n:40 ~iters:2 ~procs:(Codes.Symbolic2 1) (), 4, false);
  ]

(* The oracle's final array values, flattened in row-major order into
   unboxed float arrays: the serial interpreter's own state would stay
   live through the timed loop and slow every major collection. *)
let oracle_values (chk : Hpf.Sema.checked) =
  let r = Spmdsim.Serial.run chk in
  let st = r.Spmdsim.Serial.r_state in
  Hashtbl.fold
    (fun aname (ai : Hpf.Sema.array_info) acc ->
      let bounds =
        List.map
          (fun (lo, hi) -> (Spmdsim.Serial.eval_iexpr st lo, Spmdsim.Serial.eval_iexpr st hi))
          ai.Hpf.Sema.adims
      in
      let vals = ref [] in
      let rec go idx = function
        | [] -> vals := Spmdsim.Serial.get_elem r aname (List.rev idx) :: !vals
        | (lo, hi) :: rest ->
            for x = lo to hi do
              go (x :: idx) rest
            done
      in
      go [] bounds;
      (aname, bounds, Array.of_list (List.rev !vals)) :: acc)
    chk.Hpf.Sema.env.Hpf.Sema.arrays []

(* every array element equals the oracle's, within the relative tolerance
   the test suite uses for reassociated reductions *)
let values_match oracle sim =
  let close want got = abs_float (want -. got) <= 1e-6 *. (abs_float want +. 1.0) in
  List.for_all
    (fun (aname, bounds, want) ->
      let i = ref 0 in
      let rec go idx = function
        | [] ->
            let ok = close want.(!i) (Spmdsim.Exec.get_elem sim aname (List.rev idx)) in
            incr i;
            ok
        | (lo, hi) :: rest ->
            let rec each x = x > hi || (go (x :: idx) rest && each (x + 1)) in
            each lo
      in
      go [] bounds)
    oracle

let simulate_fig7 ~seed ~seconds ~trace =
  let rng = Random.State.make [| seed |] in
  let t = tally () in
  (* the serial oracle, computed outside set-up and the timed loop *)
  let oracle =
    List.map
      (fun (name, src, _, _) -> (name, oracle_values (Hpf.Sema.analyze_source src)))
      fig7_programs
  in
  (* set-up: compile, then build the native kernel in a fresh cache *)
  let setup () =
    let kcache = scratch "kcache" in
    Unix.putenv "DHPF_NATIVE_CACHE" kcache;
    let progs =
      List.map
        (fun (name, src, nprocs, native) ->
          let c = compile_once src in
          check t (name ^ " compile") (golden_ok name (spmd_text c));
          (name, c, nprocs, native))
        fig7_programs
    in
    let tb = now () in
    List.iter
      (fun (_, c, nprocs, native) ->
        if native then ignore (Spmdsim.Exec.make ~engine:`Native ~nprocs (snd c)))
      progs;
    (progs, kcache, now () -. tb)
  in
  (* The set-up is done three times. The native engine keeps every kernel
     it has loaded for the life of the process, so the first two run in
     forked children, each from the same state as the runner's own; their
     CPU time reaches the runner when it reaps them. *)
  let forked i =
    flush_all ();
    let status, sample =
      set_up (fun () ->
          match Unix.fork () with
          | 0 ->
              let ok =
                try
                  let _, kcache, _ = setup () in
                  rm_rf kcache;
                  t.failures = []
                with _ -> false
              in
              Unix._exit (if ok then 0 else 1)
          | pid -> snd (Unix.waitpid [] pid))
    in
    check t (Printf.sprintf "forked set-up %d" i) (status = Unix.WEXITED 0);
    sample
  in
  let forked_setups = List.init 2 forked in
  let (progs, kcache, build_s), own_setup = set_up setup in
  let timed f =
    let r, wall, _ = measured f in
    (r, wall)
  in
  let sim engine label c nprocs =
    let s, tm =
      timed (fun () ->
          Trace.span ("spmdsim.make_" ^ label) (fun () ->
              Spmdsim.Exec.make ~engine ~nprocs (snd c)))
    in
    let st, tr = timed (fun () -> Trace.span ("spmdsim.run_" ^ label) (fun () -> Spmdsim.Exec.run s)) in
    (s, st, tm, tr)
  in
  let closure = ref [] and native = ref [] and ops = ref [] in
  Gc.compact ();
  let stats_of = Hashtbl.create 4 in
  let round = ref 0 in
  let t_start = now () in
  while now () -. t_start < seconds do
    let traced = traced_turn ~trace !round in
    incr round;
    List.iter
      (fun (name, c, nprocs, with_native) ->
        let sref = List.assoc name oracle in
        let calib = calibrate () in
        Gc.full_major ();
        match
          measured (fun () ->
              Trace.root ~on:traced "op.simulate" (fun () ->
                  let cl = sim `Closure "closure" c nprocs in
                  let nat = if with_native then Some (sim `Native "native" c nprocs) else None in
                  (cl, nat)))
        with
        | ((s, st, tm, tr), nat), _, cpu ->
            closure := (tm, tr) :: !closure;
            Hashtbl.replace stats_of name st;
            let lat, native_ok =
              match nat with
              | None -> (tm +. tr, true)
              | Some (sn, stn, tmn, trn) ->
                  native := (tmn, trn) :: !native;
                  (* bit-identical clocks and counters, same values *)
                  (tm +. tr +. tmn +. trn, stn = st && values_match sref sn)
            in
            op t (name ^ " simulation") (values_match sref s && native_ok);
            ops := { kind = name; lat; cpu; calib; traced } :: !ops
        | exception e -> op t (name ^ ": " ^ Printexc.to_string e) false)
      (shuffle rng progs)
  done;
  rm_rf kcache;
  let run_lats l = List.map (fun (m, r) -> m +. r) l in
  let ctail, cq, cn = tail (run_lats !closure) in
  let stat f =
    Hashtbl.fold (fun _ st acc -> acc +. f st) stats_of 0.0
  in
  {
    setup_s = List.map snd (forked_setups @ [ own_setup ]);
    setup_wall_s = List.map fst (forked_setups @ [ own_setup ]);
    rss_mb = peak_rss_mb "self";
    ops = !ops;
    busy_s = sum (lats !ops);
    checks = t;
    layers =
      [
        ("run_closure_p50_s", p50 (run_lats !closure));
        ("run_closure_tail_s", ctail);
        ("run_native_p50_s", p50 (run_lats !native));
        ("sim_time_s", stat (fun s -> s.Spmdsim.Exec.s_time));
        ("sim_msgs", stat (fun s -> float_of_int s.Spmdsim.Exec.s_msgs));
        ("sim_bytes", stat (fun s -> float_of_int s.Spmdsim.Exec.s_bytes));
        ("spmdsim.make_closure_s", mean (List.map fst !closure));
        ("spmdsim.run_closure_s", mean (List.map snd !closure));
        ("spmdsim.make_native_s", mean (List.map fst !native));
        ("spmdsim.run_native_s", mean (List.map snd !native));
        ("spmdsim.native_build_s", build_s);
        ("obs.trace_overhead_s", overhead !ops);
      ];
    notes =
      [
        ("run_closure_tail_percentile", J.Num cq);
        ("run_closure_samples", J.int cn);
        ("run_native_samples", J.int (List.length !native));
      ];
  }

(* ---- serve-cold and serve-warm ----------------------------------------- *)

type sreq = {
  idx : int;
  label : string;  (** names the instance: program and every size *)
  text : string;
  nprocs : int option;  (** [Some p]: a run request on p processors *)
}

(* The request stream: in blocks of twenty, each of five built-in
   programs three times as a compile and once as a run (3:1), in seeded
   order. Sizes step with each kind's occurrence count from a seeded
   offset, so every run of a workload sees nearly the same sizes while no
   program text repeats: a daemon serving the stream has never compiled
   the instance it is asked for. Runs get smaller sizes and one iteration
   (compiles two), keeping simulations cheap and the two sets of texts
   apart. *)
let serve_stream ~seed n =
  let rng = Random.State.make [| seed; 7919 |] in
  let kinds = [ "jacobi"; "tomcatv"; "erlebacher"; "gauss"; "sp_like" ] in
  let offset = List.map (fun k -> (k, Random.State.int rng 3)) kinds in
  let counts = Hashtbl.create 10 in
  let instance kind ~run =
    let m = Option.value (Hashtbl.find_opt counts (kind, run)) ~default:0 in
    Hashtbl.replace counts (kind, run) (m + 1);
    let o = List.assoc kind offset in
    let size lo = lo + (3 * m) + o in
    let iters = if run then 1 else 2 in
    match kind with
    | "jacobi" ->
        let n = size (if run then 16 else 64) in
        (Printf.sprintf "jacobi-n%d-i%d" n iters, Codes.jacobi ~n ~iters ())
    | "tomcatv" ->
        let n = size (if run then 9 else 40) in
        (Printf.sprintf "tomcatv-n%d-i%d" n iters, Codes.tomcatv ~n ~iters ())
    | "erlebacher" ->
        (* three-dimensional: runs grow by one point per side *)
        let n = if run then 6 + m else size 20 in
        (Printf.sprintf "erlebacher-n%d-i%d" n iters, Codes.erlebacher ~n ~iters ())
    | "gauss" ->
        let n = size (if run then 8 else 80) and pivot = 2 + (m mod 5) in
        (Printf.sprintf "gauss-n%d-p%d" n pivot, Codes.gauss ~n ~pivot ())
    | _ ->
        (* nsub counts four fixed procedures plus nsub-4 sweeps *)
        let n, nsub =
          if run then (6 + (m / 4), 4 + ((m + o) mod 4)) else (size 15, 4 + (m mod 8))
        in
        (Printf.sprintf "sp_like-n%d-s%d" n nsub, Codes.sp_like ~n ~nsub ())
  in
  let block () =
    shuffle rng (List.concat_map (fun k -> [ (k, false); (k, false); (k, false); (k, true) ]) kinds)
  in
  let seen = Hashtbl.create n in
  let rec fill acc i pending =
    if i = n then Array.of_list (List.rev acc)
    else
      match pending with
      | [] -> fill acc i (block ())
      | (kind, run) :: rest ->
          let label, text = instance kind ~run in
          (* the working-set contract: no instance is served twice *)
          if Hashtbl.mem seen text then failwith ("serve stream repeats " ^ label);
          Hashtbl.replace seen text ();
          let q = { idx = i; label; text; nprocs = (if run then Some 4 else None) } in
          fill (q :: acc) (i + 1) rest
  in
  fill [] 0 []

let request_of q =
  let opts = Dhpf.Gen.default_options in
  match q.nprocs with
  | None -> Serve.Proto.Compile { label = q.label; source = Some q.text; opts }
  | Some nprocs ->
      Serve.Proto.Run
        { label = q.label; source = Some q.text; opts; nprocs; params = []; engine = "closure" }

(* Fork a one-worker daemon (on-disk cache in [cache] if given); returns
   its pid once it has answered a ping. *)
let fork_daemon ?cache ~socket () =
  (try Unix.unlink socket with Unix.Unix_error _ -> ());
  flush_all ();
  let rd, wr = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
      Unix.close rd;
      pin (Unix.getpid ());
      let code =
        try
          let cfg =
            {
              Serve.Server.version = "perfbench";
              socket;
              workers = 1;
              max_queue = 64;
              disk_cache = cache;
              lookup = (fun _ -> None);
              quiet = true;
              log = None;
              prom = None;
              flight_dump = None;
              (* the flight recorder, on by default in dhpfc serve *)
              recorder_slots = 1024;
            }
          in
          let srv = ref None in
          Sys.set_signal Sys.sigterm
            (Sys.Signal_handle
               (fun _ ->
                 match !srv with
                 | Some s -> Serve.Server.request_stop s
                 | None -> Unix._exit 0));
          let s = Serve.Server.launch cfg in
          srv := Some s;
          (* listening: tell the parent *)
          ignore (Unix.write_substring wr "r" 0 1);
          Unix.close wr;
          Serve.Server.wait s;
          0
        with _ -> 1
      in
      Unix._exit code
  | pid ->
      Unix.close wr;
      let b = Bytes.create 1 in
      let n = try Unix.read rd b 0 1 with Unix.Unix_error _ -> 0 in
      Unix.close rd;
      let ok =
        n = 1
        && (try J.get_str (Serve.Client.request ~socket Serve.Proto.Ping) "status" = Some "ok"
            with _ -> false)
      in
      if not ok then failwith ("daemon did not come up on " ^ socket);
      pid

(* SIGTERM, then wait: true when the daemon exited cleanly *)
let stop_daemon pid =
  (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> true
  | _ -> false

type sres = {
  r_idx : int;
  r_run : bool;
  r_ok : bool;
  r_lat : float;  (** client-observed, retries included *)
  r_cpu : float;  (** CPU time of the daemon and the client meanwhile *)
  r_calib : float;
  r_queue : float;
  r_service : float;
  r_phases : (string * float) list;  (** the dhpf-report/2 phase rows *)
  r_retries : int;
  r_fp : string;  (** digest of the response's deterministic content *)
  r_spmd : string;  (** digest of the returned SPMD program *)
  r_stats : J.t;  (** the run section *)
  r_traced : bool;
}

let report_top_phases =
  "parse and semantic analysis" :: List.map fst top_phases

(* what must match between two answers to one request: the response with
   its telemetry, timings and process-lifetime counters removed (the SPMD
   text enters by its digest) *)
let fingerprint v ~spmd =
  let strip = function
    | J.Obj fs ->
        J.Obj
          (List.filter
             (fun (k, _) ->
               not (List.mem k [ "telemetry"; "total_s"; "phases"; "cache"; "diskcache" ]))
             fs)
    | x -> x
  in
  let field k = Option.value (J.get v k) ~default:J.Null in
  digest
    (J.to_string
       (J.List [ strip (field "report"); J.Str spmd; field "run"; field "status" ]))

let telemetry_of v =
  match Option.bind (J.get v "report") (fun r -> J.get r "telemetry") with
  | Some t -> Some t
  | None -> J.get v "telemetry"

let phase_rows v =
  match Option.bind (J.get v "report") (fun r -> J.get_list r "phases") with
  | Some rows ->
      List.filter_map
        (fun row ->
          match (J.get_str row "phase", J.get_num row "seconds") with
          | Some p, Some s -> Some (p, s)
          | _ -> None)
        rows
  | None -> []

let issue ~socket ~daemon ~trace ~seed ~seq q =
  let rid = Printf.sprintf "s%d-r%d" seed seq in
  let traced = traced_turn ~trace seq in
  let req = request_of q in
  let calib = calibrate () in
  let d0 = task_cpu daemon in
  let u0 = cpu () in
  let t0 = now () in
  let v, retries, lat, queue, service, phases =
    Trace.root ~rid ~on:traced "serve.request" (fun () ->
        let rec go n =
          match Serve.Client.request ~rid ~socket req with
          | v when J.get_str v "status" = Some "overloaded" && n < 200 ->
              Unix.sleepf (0.001 *. float_of_int (min (n + 1) 20));
              go (n + 1)
          | v -> (Some v, n)
          | exception (Serve.Client.Connect_error _ | Serve.Proto.Proto_error _) -> (None, n)
        in
        let v, retries = go 0 in
        let lat = now () -. t0 in
        let tel = Option.bind v telemetry_of in
        let num k = Option.value (Option.bind tel (fun t -> J.get_num t k)) ~default:0.0 in
        let queue = num "queue_wait_s" and service = num "service_s" in
        let phases = Option.fold ~none:[] ~some:phase_rows v in
        (* the daemon's own account of the request, placed inside the
           client's span with the transport time split either side *)
        let top = sum (List.filter_map (fun p -> List.assoc_opt p phases) report_top_phases) in
        let start = t0 +. (Float.max 0.0 (lat -. queue -. service) /. 2.0) in
        (match
           Trace.children ~rid ~parent:(Trace.current ()) ~t0:start
             [ ("serve.queue_wait", queue); ("serve.service", service) ]
         with
        | [ _; sid ] ->
            ignore (Trace.children ~rid ~parent:sid ~t0:(start +. queue) [ ("serve.report_phases", top) ])
        | _ -> ());
        (v, retries, lat, queue, service, phases))
  in
  let u1 = cpu () in
  let d1 = task_cpu daemon in
  let field k = Option.bind v (fun v -> J.get v k) in
  let spmd = match field "spmd" with Some (J.Str s) -> digest s | _ -> "" in
  {
    r_idx = q.idx;
    r_run = q.nprocs <> None;
    r_ok = Option.bind v (fun v -> J.get_str v "status") = Some "ok";
    r_lat = lat;
    r_cpu = u1 -. u0 +. (d1 -. d0);
    r_calib = calib;
    r_queue = queue;
    r_service = service;
    r_phases = phases;
    r_retries = retries;
    r_fp = Option.fold ~none:"" ~some:(fingerprint ~spmd) v;
    r_spmd = spmd;
    r_stats = Option.value (field "run") ~default:J.Null;
    r_traced = traced;
  }

(* One closed-loop client takes the whole stream in order, unless
   [deadline] seconds pass first. It runs on the runner's only domain: a
   second domain would slow every minor collection of the first, and a
   process that has started one can no longer fork daemons. *)
let drive ~socket ~daemon ~trace ~seed ~deadline stream =
  let t0 = now () in
  let rec loop i acc =
    if i >= Array.length stream || now () -. t0 >= deadline then List.rev acc
    else loop (i + 1) (issue ~socket ~daemon ~trace ~seed ~seq:i stream.(i) :: acc)
  in
  let rs = loop 0 [] in
  (rs, now () -. t0)

let daemon_stats socket =
  match Serve.Client.request ~socket Serve.Proto.Stats with
  | v -> (
      match J.get v "iset" with
      | Some (J.Obj fs) ->
          List.filter_map
            (fun (k, x) -> match x with J.Num f -> Some (k, int_of_float f) | _ -> None)
            fs
      | _ -> [])
  | exception _ -> []

(* Recompile (and for a run, re-simulate) the first two compiles and the
   first run in the runner; returns the requests whose answer differs. *)
let cross_check stream results =
  let firsts pred n =
    List.filteri (fun i _ -> i < n) (List.filter pred (List.sort compare results))
  in
  List.filter_map
    (fun r ->
      let q = stream.(r.r_idx) in
      let c = Dhpf.Gen.compile ~domains:1 (Hpf.Sema.analyze_source q.text) in
      let same =
        match q.nprocs with
        | None -> r.r_spmd = digest (Dhpf.Spmd.program_to_string c.Dhpf.Gen.cprog)
        | Some nprocs ->
            let st = Spmdsim.Exec.run (Spmdsim.Exec.make ~nprocs c.Dhpf.Gen.cprog) in
            J.get_num r.r_stats "spmd_s" = Some st.Spmdsim.Exec.s_time
            && J.get_int r.r_stats "msgs" = Some st.s_msgs
            && J.get_int r.r_stats "bytes" = Some st.s_bytes
      in
      if same then None else Some r.r_idx)
    (firsts (fun r -> not r.r_run) 2 @ firsts (fun r -> r.r_run) 1)

(* a serve operation's kind: the program for a compile, "run" for a run *)
let ops_of stream rs =
  List.map
    (fun r ->
      let q = stream.(r.r_idx) in
      let kind = if r.r_run then "run" else List.hd (String.split_on_char '-' q.label) in
      { kind; lat = r.r_lat; cpu = r.r_cpu; calib = r.r_calib; traced = r.r_traced })
    rs

let serve_layers ~stream ~counters ~per ~disk (rs : sres list) wall =
  let ok = List.filter (fun r -> r.r_ok) rs in
  let compiles = List.filter (fun r -> not r.r_run) ok in
  let lat = List.map (fun r -> r.r_lat) ok in
  let stail, sq, sn = tail lat in
  let phase c l = Option.value (List.assoc_opt l c.r_phases) ~default:0.0 in
  let top c = sum (List.map (phase c) report_top_phases) in
  let p f l = p50 (List.map f l) in
  ( [
      ("serve_p50_s", p50 lat);
      ("serve_tail_s", stail);
      ("serve_rps", float_of_int (List.length ok) /. wall);
      ("serve.queue_wait_p50_s", p (fun r -> r.r_queue) ok);
      ("serve.service_p50_s", p (fun r -> r.r_service) ok);
      ("serve.transport_p50_s", p (fun r -> r.r_lat -. r.r_queue -. r.r_service) ok);
      ("serve.compile_p50_s", p (fun r -> r.r_lat) compiles);
      ("serve.run_p50_s", p (fun r -> r.r_lat) (List.filter (fun r -> r.r_run) ok));
      ("serve.report_phases_s", p top compiles);
      ("serve.service_residual_s", p (fun r -> r.r_service -. top r) compiles);
      ( "serve.overloaded_retries",
        float_of_int (List.fold_left (fun a r -> a + r.r_retries) 0 rs) );
      ("hpf.sema_s", mean (List.map (fun r -> phase r "parse and semantic analysis") compiles));
    ]
    @ List.map
        (fun (l, name) -> (name ^ "_s", mean (List.map (fun r -> phase r l) compiles)))
        (top_phases @ nested_phases)
    @ iset_layers ~per counters
    @ disk_layers disk
    @ [ ("obs.trace_overhead_s", overhead (ops_of stream ok)) ],
    [
      ("serve_tail_percentile", J.Num sq);
      ("serve_samples", J.int sn);
      ( "requests",
        J.List
          (List.map
             (fun r ->
               J.List
                 [ J.Str stream.(r.r_idx).label; J.Num r.r_lat; J.Num r.r_queue; J.Num r.r_service ])
             (List.sort (fun a b -> compare a.r_idx b.r_idx) rs)) );
    ] )

(* The timed serve phase is a fixed prefix of the stream, so every commit
   serves the same requests: [serve_rate] per second of --seconds, about
   what the one-worker daemon served per second on the two-vCPU host the
   bounds were set on. Sizes grow along the stream, so a phase that
   stopped on the clock would give a faster daemon larger programs. A
   run still serving after [deadline_factor] times --seconds stops, and
   the requests it did not serve count as failed. *)
let serve_rate = 8.0
let deadline_factor = 4.0

(* requests in the disk pass *)
let disk_set = 20

(* The on-disk cache's write and read paths, run after the timed phase of
   a traced serve-cold run for the iset.disk_* figures. A daemon serves the
   stream's first [disk_set] requests into an empty cache and is stopped; a
   fresh daemon serves them again, each of its first lookups a
   cross-process disk hit, and must give the same answers. The disk stays
   out of the timed phase: on a shared virtual disk its latency moves by
   whole factors from run to run. *)
let disk_pass t ~dir ~seed stream =
  let stream = Array.sub stream 0 disk_set in
  let cache = Filename.concat dir "cache" in
  let pass tag =
    let socket = Filename.concat dir (tag ^ ".sock") in
    let pid = fork_daemon ~cache ~socket () in
    let rs, _ = drive ~socket ~daemon:pid ~trace:false ~seed ~deadline:infinity stream in
    let stats = daemon_stats socket in
    check t (tag ^ " daemon exits") (stop_daemon pid);
    (rs, stats)
  in
  let written, w = pass "writing" in
  let read, r = pass "reading" in
  List.iter2
    (fun a b -> check t ("disk-warm " ^ stream.(b.r_idx).label) (b.r_ok && a.r_ok && a.r_fp = b.r_fp))
    written read;
  let lat rs = p50 (List.map (fun x -> x.r_lat) rs) in
  ( [
      ("disk lookups", counter r "disk lookups");
      ("disk hits", counter r "disk hits");
      ("disk stores", counter w "disk stores");
      ("disk evictions", counter w "disk evictions");
      ("disk bytes", dir_bytes cache);
    ],
    [ ("serve.disk_write_p50_s", lat written); ("serve.disk_read_p50_s", lat read) ] )

(* serve-cold: a daemon with empty memo tables and no disk cache; every
   request is an instance it has never seen, so each compile computes its
   integer-set operations, except those met before in other programs of
   the stream (iset.memo_hit_ratio shows how many). Set-up (generate the
   stream; fork, launch and ping the daemon) is done nine times; the last
   daemon is measured. The timed phase runs on the runner's only domain,
   so a traced run can still fork the disk pass's daemons after it. *)
let serve_cold ~seed ~seconds ~trace =
  (* the daemons do the work: the reference runs on their CPU *)
  Option.iter (fun p -> pin p.pid) !probe;
  let dir = scratch "serve-cold" in
  let n = max disk_set (int_of_float (Float.ceil (serve_rate *. seconds))) in
  (* every set-up starts from the same state: each spare daemon is stopped
     before the next set-up, as idle daemons slow a fork and a launch *)
  let spares_exit = ref true in
  let setups =
    List.init 9 (fun i ->
        let socket = Filename.concat dir (Printf.sprintf "d%d.sock" i) in
        let (stream, pid), sample =
          set_up
            ~extra:(fun (_, pid) -> task_cpu pid)
            (fun () ->
              let stream = serve_stream ~seed n in
              (stream, fork_daemon ~socket ()))
        in
        if i < 8 then spares_exit := stop_daemon pid && !spares_exit;
        (sample, (pid, socket, stream)))
  in
  let pid, socket, stream = snd (List.nth setups 8) in
  let t = tally () in
  check t "spare daemons exit" !spares_exit;
  let results, wall =
    drive ~socket ~daemon:pid ~trace ~seed ~deadline:(deadline_factor *. seconds) stream
  in
  let counters = daemon_stats socket in
  let rss = peak_rss_mb (string_of_int pid) in
  check t "daemon exits" (stop_daemon pid);
  let differs = cross_check stream results in
  List.iter
    (fun r ->
      let q = stream.(r.r_idx) in
      if List.mem r.r_idx differs then op t (q.label ^ " differs from the in-process answer") false
      else op t q.label r.r_ok)
    results;
  for i = List.length results to n - 1 do
    op t (stream.(i).label ^ " not served before the deadline") false
  done;
  let disk, disk_lat = if trace then disk_pass t ~dir ~seed stream else ([], []) in
  rm_rf dir;
  let layers, notes =
    serve_layers ~stream ~counters ~per:(List.length results) ~disk:(disk, disk_set) results wall
  in
  {
    setup_s = List.map (fun (s, _) -> snd s) setups;
    setup_wall_s = List.map (fun (s, _) -> fst s) setups;
    rss_mb = rss;
    ops = ops_of stream (List.filter (fun r -> r.r_ok) results);
    busy_s = wall;
    checks = t;
    layers = layers @ disk_lat;
    notes = notes @ [ ("requests_planned", J.int n) ];
  }

(* ---- entry point ------------------------------------------------------- *)

(* each workload with the reference work that resembles its operations
   (calib.ml): the serve daemon's requests are mostly compiles *)
let workloads =
  [
    ("compile-table1", ("c", compile_table1));
    ("simulate-fig7", ("s", simulate_fig7));
    ("serve-cold", ("c", serve_cold));
  ]

(* metric names and units, from BENCHMARK.json at the checkout root *)
let declared key =
  let v = J.of_string (In_channel.with_open_bin "BENCHMARK.json" In_channel.input_all) in
  List.filter_map
    (fun m ->
      match (J.get_str m "name", J.get_str m "unit") with
      | Some n, Some u -> Some (n, u)
      | _ -> None)
    (Option.value (J.get_list v key) ~default:[])

let usage () =
  prerr_endline
    ("usage: main.exe --workload (" ^ String.concat "|" (List.map fst workloads)
   ^ ") --seed N --seconds S --trace 0|1");
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse acc = function
    | k :: v :: rest when String.starts_with ~prefix:"--" k -> parse ((k, v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let opts = parse [] args in
  let get k = match List.assoc_opt k opts with Some v -> v | None -> usage () in
  let workload = get "--workload" in
  let seed = Option.value (int_of_string_opt (get "--seed")) ~default:(-1) in
  let seconds = Option.value (float_of_string_opt (get "--seconds")) ~default:0.0 in
  let trace = get "--trace" = "1" in
  let mix, run =
    match List.assoc_opt workload workloads with
    | Some w when seed >= 0 && seconds > 0.0 -> w
    | _ -> usage ()
  in
  mkdir_p out_dir;
  let e2e_units = declared "end_to_end" and layer_units = declared "per_layer" in
  start_probe mix;
  at_exit stop_probe;
  let o = run ~seed ~seconds ~trace in
  let samples = probe_samples () in
  let reference = p50 samples in
  stop_probe ();
  let ledger, roots = Trace.ledger () in
  (* End-to-end times are CPU times, each scaled by the reference time
     measured just before it; their wall-clock counterparts are per-layer
     figures *)
  let op_tail, tail_q, nops = tail (scaled o.ops) in
  let wall_tail, _, _ = tail (lats o.ops) in
  let e2e =
    [
      ("setup_s", p50 o.setup_s);
      ("peak_rss_mb", o.rss_mb);
      ("op_cpu_p50_s", kind_p50 scaled o.ops);
      ("op_cpu_tail_s", op_tail);
      ("ops_per_cpu_s", float_of_int nops /. sum (scaled o.ops));
    ]
  in
  let wall =
    [
      ("host.reference_s", reference);
      ("setup_wall_s", p50 o.setup_wall_s);
      ("op_wall_p50_s", kind_p50 lats o.ops);
      ("op_wall_tail_s", wall_tail);
      ("ops_per_wall_s", float_of_int nops /. o.busy_s);
    ]
  in
  let layers = wall @ o.layers in
  let pick units values =
    List.map
      (fun (n, u) ->
        (n, J.Obj [ ("value", J.Num (Option.value (List.assoc_opt n values) ~default:0.0)); ("unit", J.Str u) ]))
      units
  in
  let metrics = if trace then pick layer_units layers else pick e2e_units e2e in
  let failed = o.checks.failed in
  let correct = o.checks.failures = [] in
  let line =
    J.Obj
      [
        ("correct", J.Bool correct);
        ("attempted", J.int o.checks.attempted);
        ("failed", J.int failed);
        ("metrics", J.Obj metrics);
      ]
  in
  let base = Printf.sprintf "%s-s%d-t%d" workload seed (if trace then 1 else 0) in
  (* each kind of operation's latencies, for reading a run's spread *)
  let by_kind f =
    J.Obj
      (List.map
         (fun k -> (k, J.List (List.rev_map (fun o -> J.Num (f o)) (of_kind k o.ops))))
         (kinds o.ops))
  in
  let num l = J.Obj (List.map (fun (k, v) -> (k, J.Num v)) l) in
  let result =
    J.Obj
      ([
         ("schema", J.Str "dhpf-perfbench/1");
         ("workload", J.Str workload);
         ("seed", J.int seed);
         ("seconds", J.Num seconds);
         ("trace", J.Bool trace);
         ("host_cores", J.int (Domain.recommended_domain_count ()));
         ("ocaml", J.Str Sys.ocaml_version);
         ("line", line);
         ("end_to_end", num e2e);
         ("layers", num layers);
         ("setup_samples", J.List (List.map (fun x -> J.Num x) o.setup_s));
         ("setup_wall_samples", J.List (List.map (fun x -> J.Num x) o.setup_wall_s));
         ("op_samples", J.int nops);
         ("op_tail_percentile", J.Num tail_q);
         ("busy_s", J.Num o.busy_s);
         ("op_latencies", by_kind (fun o -> o.lat));
         ("op_cpu_times", by_kind (fun o -> o.cpu));
         ("op_calib", by_kind (fun o -> o.calib));
         ("calib_samples", J.List (List.map (fun x -> J.Num x) samples));
         ("failures", J.List (List.rev_map (fun f -> J.Str f) o.checks.failures));
       ]
      @ o.notes
      @
      if trace then
        [
          ("ledger", num ledger);
          ("ledger_roots_s", J.Num roots);
          ("ledger_gap_s", J.Num (roots -. sum (List.map snd ledger)));
          ("spans", J.Str (base ^ ".trace.json"));
        ]
      else [])
  in
  Out_channel.with_open_bin (Filename.concat out_dir (base ^ ".json")) (fun oc ->
      output_string oc (J.to_string result));
  if trace then Trace.write_chrome (Filename.concat out_dir (base ^ ".trace.json"));
  print_endline (J.to_string line)
