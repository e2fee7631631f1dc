(* dhpfc — command-line driver for the dHPF-reproduction compiler.

   Subcommands:
     compile     parse, analyze and compile a mini-HPF file; print the SPMD
                 node program, communication sets, or a phase-time report
     run         compile and execute on the simulated machine, with a serial
                 run for comparison
     bench       print one of the built-in benchmark programs
     serve       persistent compilation daemon on a Unix-domain socket
     bench-serve cold-vs-warm serve throughput benchmark, plus a
                 disk-cache eviction-pressure phase and an
                 observability smoke mode
     top         live-refreshing dashboard over a running daemon's
                 stats op *)

open Cmdliner

let version = "1.7.0"

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let builtin name =
  match name with
  | "jacobi" -> Some (Codes.jacobi ())
  | "tomcatv" -> Some (Codes.tomcatv ())
  | "erlebacher" -> Some (Codes.erlebacher ())
  | "gauss" -> Some (Codes.gauss ())
  | "figure2" -> Some (Codes.figure2 ())
  | "sp_like" -> Some (Codes.sp_like ())
  | _ -> None

let load src_arg =
  match builtin src_arg with
  | Some src -> src
  | None -> read_file src_arg

(* distinct exit codes so scripts can triage failures:
   2 = parse/lexical, 3 = semantic, 4 = unsupported construct,
   5 = runtime (simulator error or deadlock), 6 = serve daemon could not
   bind its socket, 7 = serve wire-protocol error *)
let exit_parse = 2
let exit_semantic = 3
let exit_unsupported = 4
let exit_runtime = 5
let exit_bind = 6
let exit_protocol = 7

let handle_errors f =
  try f () with
  | Sys_error msg ->
      Fmt.epr "error: %s (not a file or built-in benchmark)@." msg;
      exit exit_parse
  | Hpf.Parser.Error (msg, line) ->
      Fmt.epr "parse error, line %d: %s@." line msg;
      exit exit_parse
  | Hpf.Lexer.Error (msg, line) ->
      Fmt.epr "lexical error, line %d: %s@." line msg;
      exit exit_parse
  | Iset.Parse.Error msg ->
      Fmt.epr "set-expression parse error: %s@." msg;
      exit exit_parse
  | Iset.Calc.Error msg ->
      Fmt.epr "calculator error: %s@." msg;
      exit exit_parse
  | Hpf.Sema.Error msg ->
      Fmt.epr "semantic error: %s@." msg;
      exit exit_semantic
  | Dhpf.Gen.Unsupported msg | Dhpf.Layout.Unsupported msg
  | Iset.Codegen.Unsupported msg ->
      Fmt.epr "unsupported: %s@." msg;
      exit exit_unsupported
  | Spmdsim.Exec.Error msg ->
      Fmt.epr "runtime error: %s@." msg;
      exit exit_runtime
  | Spmdsim.Serial.Error msg ->
      Fmt.epr "serial interpreter error: %s@." msg;
      exit exit_runtime
  | Spmdsim.Exec.Deadlock d ->
      Fmt.epr "%a" Spmdsim.Exec.pp_diagnostic d;
      exit exit_runtime
  | Spmdsim.Predict.Unpredictable msg ->
      Fmt.epr "unsupported: communication volume not predictable: %s@." msg;
      exit exit_unsupported
  | Serve.Server.Bind_error msg ->
      Fmt.epr "bind error: %s@." msg;
      exit exit_bind
  | Serve.Proto.Proto_error msg ->
      Fmt.epr "protocol error: %s@." msg;
      exit exit_protocol
  | Serve.Client.Connect_error msg ->
      Fmt.epr "connect error: %s@." msg;
      exit exit_protocol

(* ---- tracing ---- *)

(* --trace FILE (or DHPF_TRACE=FILE in the environment, handled by
   Obs.init_env in main): record a Chrome trace-event timeline of the
   compile and/or the simulated run, plus a plain-text span summary on
   stderr. *)
let trace_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Write a Chrome trace-event JSON timeline to $(docv) (loadable \
           in Perfetto or chrome://tracing): compiler phases with \
           integer-set cache snapshots, and one lane per simulated \
           processor with compute/comm spans and send$(b,->)recv flow \
           arrows. A span summary table is printed to stderr.")

let trace_begin = function
  | None -> ()
  | Some _ ->
      Obs.enable ();
      Obs.set_process_name ~pid:0 "dhpf compiler";
      Obs.set_thread_name ~pid:0 ~tid:0 "main"

let trace_finish = function
  | None -> ()
  | Some path ->
      Obs.write path;
      Fmt.epr "%s" (Obs.summary ());
      Fmt.epr "trace: %d events -> %s@." (Obs.events_count ()) path

(* every subcommand entry starts a fresh measurement window: phase totals
   and integer-set cache counters are process-global and would otherwise
   leak across multiple compiles in one process (cache *contents* survive
   deliberately — only the counters are windowed) *)
let fresh_window () =
  Dhpf.Phase.reset Dhpf.Phase.global;
  Iset.Stats.reset ()

(* ---- metrics ---- *)

(* --metrics FILE (or DHPF_METRICS=FILE in the environment, handled by
   Obs.Metrics.init_env in main): record the aggregate metrics registry —
   compiler phase times and integer-set engine counters, and for `run` the
   simulator's communication matrix, per-processor time split and fault
   breakdown — as dhpf-metrics/1 JSON. *)
let metrics_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:
          "Write the metrics registry to $(docv) as stable dhpf-metrics/1 \
           JSON: compiler phase seconds and integer-set engine counters, \
           plus (for $(b,run)) the full P$(b,x)P communication matrix, \
           per-processor compute/send/recv-wait/collective seconds, \
           message-size and halo-occupancy histograms, retransmit \
           breakdowns and derived load-imbalance gauges.")

let metrics_begin = function None -> () | Some _ -> Obs.Metrics.enable ()

(* publish the compiler-side series; the simulator publishes its own at
   the end of each metered run *)
let metrics_compiler () =
  if Obs.Metrics.enabled () then begin
    let module M = Obs.Metrics in
    let ph = Dhpf.Phase.global in
    List.iter
      (fun l ->
        M.set
          (M.gauge ~labels:[ ("phase", l) ] "compiler/phase_s")
          (Dhpf.Phase.total ph l))
      (Dhpf.Phase.labels ph);
    List.iter
      (fun (n, v) -> M.set (M.gauge ("iset/" ^ n)) (float_of_int v))
      (Iset.Stats.report ());
    M.set (M.gauge "compiler/domains") (float_of_int (Par.domains ()))
  end

let metrics_finish = function
  | None -> ()
  | Some path ->
      Obs.Metrics.write path;
      Fmt.epr "metrics: %d series -> %s@."
        (List.length (Obs.Metrics.snapshot ()))
        path

(* ---- arguments ---- *)

let src_t =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"SRC"
        ~doc:
          "Mini-HPF source file, or the name of a built-in benchmark \
           (jacobi, tomcatv, erlebacher, gauss, figure2, sp_like).")

let show_sets_t =
  Arg.(value & flag & info [ "show-sets" ] ~doc:"Print the communication sets of every event.")

let show_spmd_t =
  Arg.(value & flag & info [ "show-spmd" ] ~doc:"Print the generated SPMD node program.")

let report_t =
  Arg.(value & flag & info [ "report" ] ~doc:"Print the compilation phase-time breakdown.")

let report_json_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "report-json" ] ~docv:"FILE"
        ~doc:
          "Write the compile report as stable dhpf-report/2 JSON to \
           $(docv) ($(b,-) for stdout): phase-time breakdown, event and \
           statement counts, integer-set cache counters and the disk-cache \
           state. The same document is embedded in $(b,serve) compile \
           responses.")

(* ---- persistent disk cache ---- *)

let disk_cache_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "disk-cache" ] ~docv:"DIR"
        ~doc:
          "Persistent analysis-cache directory (also settable via \
           $(b,DHPF_DISK_CACHE)). Memoized integer-set analyses — \
           simplify, satisfiability, implication, gist, subset — are \
           stored content-addressed under $(docv) and shared by every \
           process pointed at the same directory; a warm cache turns \
           recompiles into disk lookups. Corrupt or truncated entries \
           are treated as misses, never errors.")

let disk_cache_mb_t =
  Arg.(
    value
    & opt (some int) None
    & info [ "disk-cache-mb" ] ~docv:"MB"
        ~doc:
          "Size budget for $(b,--disk-cache) in MiB (default 256, floor \
           1; also $(b,DHPF_DISK_CACHE_MB)). When the cache overflows, \
           the oldest entries are evicted down to 3/4 of the budget.")

let apply_disk_cache dir mb =
  (match dir with
  | Some d -> Iset.Diskcache.set_dir (Some d)
  | None -> ());
  match mb with
  | Some m when m < 1 ->
      Fmt.epr "invalid --disk-cache-mb %d: need a positive MiB budget@." m;
      exit exit_parse
  | Some m -> Iset.Diskcache.set_max_bytes (m * 1024 * 1024)
  | None -> ()

let no_opt names doc = Arg.(value & flag & info names ~doc)
let no_split_t = no_opt [ "no-split" ] "Disable loop splitting (Figure 4)."
let no_vect_t = no_opt [ "no-vectorize" ] "Disable message vectorization."
let no_coal_t = no_opt [ "no-coalesce" ] "Disable message coalescing."
let no_inplace_t = no_opt [ "no-inplace" ] "Disable in-place communication recognition."

let opts_of ~no_split ~no_vect ~no_coal ~no_inplace =
  {
    Dhpf.Gen.opt_split = not no_split;
    opt_vectorize = not no_vect;
    opt_coalesce = not no_coal;
    opt_inplace = not no_inplace;
  }

let nprocs_t =
  Arg.(value & opt int 4 & info [ "p"; "nprocs" ] ~docv:"P" ~doc:"Number of simulated processors.")

let jobs_t =
  Arg.(
    value
    & opt (some int) None
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Size of the OCaml domain pool used by the parallel compiler \
           phases and the simulator's lane scheduler (default: \
           $(b,DHPF_DOMAINS), else 1). Clamped to the machine's recommended \
           domain count. Any value produces bit-identical compiler output \
           and simulation results — the pool only changes wall-clock time.")

(* resolve the session domain pool: -j wins over DHPF_DOMAINS; both are
   clamped to the physical core count here and only here (the libraries
   never clamp, so the differential suites can oversubscribe
   deliberately). Returns the resolved count and stamps it into the trace
   timeline when one is being recorded. *)
let apply_jobs jobs =
  (match jobs with
  | Some n when n < 1 ->
      Fmt.epr "invalid --jobs %d: need a positive domain count@." n;
      exit exit_parse
  | Some n -> Par.set_domains (Par.clamp n)
  | None -> Par.set_domains (Par.clamp (Par.domains ())));
  let d = Par.domains () in
  if Obs.enabled () then
    Obs.instant ~cat:"meta" ~args:[ ("domains", Obs.Int d) ] "domain pool";
  d

let param_t =
  Arg.(
    value
    & opt_all (pair ~sep:'=' string int) []
    & info [ "D"; "param" ] ~docv:"NAME=VALUE" ~doc:"Bind a symbolic program parameter.")

(* parsed as a plain string and resolved through Exec.engine_of_string so
   an unknown name exits with the parse-error code (2) and a message that
   lists the valid engines, instead of cmdliner's generic cli-error 124 *)
let engine_t =
  Arg.(
    value & opt string "closure"
    & info [ "engine" ] ~docv:"ENGINE"
        ~doc:
          "SPMD execution engine: $(b,closure) (the default; the program is \
           lowered once to OCaml closures over dense per-processor storage), \
           $(b,interp) (the tree-walking interpreter kept as the \
           differential oracle), or $(b,native) (the program is emitted as \
           OCaml source, compiled out-of-process into a content-addressed \
           cache and dynlinked — see $(b,--native-cache)). All engines \
           produce bit-identical results and identical message statistics.")

let resolve_engine name =
  match Spmdsim.Exec.engine_of_string name with
  | Some e -> e
  | None ->
      Fmt.epr "dhpfc: unknown engine %S; valid engines: %s@." name
        (String.concat ", " Spmdsim.Exec.engine_names);
      exit exit_parse

let native_cache_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "native-cache" ] ~docv:"DIR"
        ~doc:
          "Build-cache directory for $(b,--engine native) kernels (also \
           settable via $(b,DHPF_NATIVE_CACHE)). Defaults to \
           $(b,<tmpdir>/dhpf-native-cache); a warm cache skips the \
           out-of-process compiler entirely.")

(* ---- fault-injection knobs ---- *)

let faults_t =
  Arg.(
    value
    & opt (some int) None
    & info [ "faults" ] ~docv:"SEED"
        ~doc:
          "Enable deterministic fault injection with the given schedule \
           seed: message delay, reordering, duplicate delivery, \
           drop-with-retransmit and straggler clock skew. Results are \
           unchanged; timing and resilience statistics reflect the faults.")

let fault_drop_t =
  Arg.(
    value & opt float 0.15
    & info [ "fault-drop" ] ~docv:"P"
        ~doc:"Per-transmission drop probability under --faults/--diff.")

let fault_dup_t =
  Arg.(
    value & opt float 0.10
    & info [ "fault-dup" ] ~docv:"P"
        ~doc:"Duplicate-delivery probability under --faults/--diff.")

let fault_delay_t =
  Arg.(
    value & opt float 0.30
    & info [ "fault-delay" ] ~docv:"P"
        ~doc:"In-flight delay probability under --faults/--diff.")

let fault_skew_t =
  Arg.(
    value & opt float 1.5
    & info [ "fault-skew" ] ~docv:"F"
        ~doc:
          "Straggler clock-skew bound: each processor computes slower by a \
           factor drawn from [1,F].")

let crash_procs_t =
  Arg.(
    value & opt int 0
    & info [ "crash-procs" ] ~docv:"N"
        ~doc:
          "Enable fail-stop crash injection: up to $(docv) processor \
           crashes over the run, at deterministic points drawn from the \
           fault-schedule seed (--faults, or seed 0). Each crash triggers \
           coordinated recovery: the group restarts from the last \
           checkpoint (see $(b,--checkpoint-every)) or from scratch, and \
           replays. Results stay bit-identical to the fault-free run; \
           detection, restart and lost work are charged to the clocks.")

let crash_prob_t =
  Arg.(
    value & opt float 0.01
    & info [ "crash-prob" ] ~docv:"P"
        ~doc:
          "Per-communication-operation crash probability under \
           $(b,--crash-procs).")

let ckpt_every_t =
  Arg.(
    value & opt int 0
    & info [ "checkpoint-every" ] ~docv:"N"
        ~doc:
          "Write a coordinated checkpoint of the whole group every $(docv) \
           global communication operations (0 = never). Each write charges \
           every processor alpha + bytes*beta (machine checkpoint \
           parameters); crash recovery rolls back to the latest snapshot \
           instead of restarting from scratch.")

let max_events_t =
  Arg.(
    value & opt int 0
    & info [ "max-events" ] ~docv:"N"
        ~doc:
          "Scheduler watchdog (0 = off): abort with a structured runtime \
           error (exit 5) once the global communication-event count \
           exceeds $(docv) — a guard against pathological schedules and \
           livelock.")

let diff_t =
  Arg.(
    value & opt int 0
    & info [ "diff" ] ~docv:"N"
        ~doc:
          "Differential resilience harness: replay the program under N \
           seeded fault schedules and report the first divergence from the \
           serial oracle.")

let diff_engines_t =
  Arg.(
    value & opt int 0
    & info [ "diff-engines" ] ~docv:"N"
        ~doc:
          "Engine-differential harness: run all three engines (closure, \
           interpreter, generated-native kernel) against each other — \
           fault-free plus N seeded fault schedules — and report the first \
           deviation from bit-identical values, clocks and message \
           counters.")

let diff_domains_t =
  Arg.(
    value & opt int 0
    & info [ "diff-domains" ] ~docv:"N"
        ~doc:
          "Domain-differential harness: run the program on a single domain \
           and with processor lanes sharded across an oversubscribed pool \
           (2 and 4 domains) — fault-free plus N seeded fault schedules — \
           and report the first deviation from bit-identical values, \
           per-processor clocks, message counters and per-pair \
           communication cells.")

let diff_crashes_t =
  Arg.(
    value & opt int 0
    & info [ "diff-crashes" ] ~docv:"N"
        ~doc:
          "Crash-differential harness: run both engines under N seeded \
           crash schedules with checkpoint/restart recovery and report the \
           first deviation from the fault-free oracle — bit-identical \
           values and an identical per-pair communication table.")

let spec_of ~seed ~drop ~dup ~delay ~skew ~crash_prob ~crash_procs =
  {
    (Spmdsim.Fault.default ~seed) with
    drop_prob = drop;
    dup_prob = dup;
    delay_prob = delay;
    skew_max = skew;
    crash_prob = (if crash_procs > 0 then crash_prob else 0.0);
    crash_max = crash_procs;
  }

(* malformed schedules are a usage error: reject at parse time, exit 2 *)
let validated sp =
  match Spmdsim.Fault.validate sp with
  | Ok () -> sp
  | Error msg ->
      Fmt.epr "invalid fault specification: %s@." msg;
      exit exit_parse

(* ---- compile ---- *)

let compile_cmd =
  let run src show_sets show_spmd report report_json no_split no_vect no_coal
      no_inplace jobs disk_cache disk_cache_mb trace metrics =
    handle_errors @@ fun () ->
    let opts = opts_of ~no_split ~no_vect ~no_coal ~no_inplace in
    fresh_window ();
    trace_begin trace;
    metrics_begin metrics;
    apply_disk_cache disk_cache disk_cache_mb;
    let domains = apply_jobs jobs in
    let ph = Dhpf.Phase.global in
    let chk =
      Dhpf.Phase.time ph "parse and semantic analysis" (fun () ->
          Hpf.Sema.analyze_source (load src))
    in
    let compiled = Dhpf.Gen.compile ~opts chk in
    trace_finish trace;
    metrics_compiler ();
    metrics_finish metrics;
    if show_sets then
      List.iter
        (fun (e : Dhpf.Gen.event) ->
          Fmt.pr "event %d: %s%s@." e.ev_id e.ev_desc
            (if e.ev_inplace.Dhpf.Inplace.contiguous then " [in-place]"
             else if e.ev_inplace.Dhpf.Inplace.rect_section then " [rect]"
             else "");
          Fmt.pr "  SendCommMap(m) = %a@." Iset.Rel.pp e.ev_maps.Dhpf.Comm.send_map;
          Fmt.pr "  RecvCommMap(m) = %a@." Iset.Rel.pp e.ev_maps.Dhpf.Comm.recv_map;
          match e.ev_active with
          | Some a ->
              Fmt.pr "  busyVPSet        = %a@." Iset.Rel.pp a.Dhpf.Vp.busy;
              Fmt.pr "  activeSendVPSet  = %a@." Iset.Rel.pp a.Dhpf.Vp.active_send;
              Fmt.pr "  activeRecvVPSet  = %a@." Iset.Rel.pp a.Dhpf.Vp.active_recv
          | None -> ())
        compiled.cevents;
    if show_spmd then print_string (Dhpf.Spmd.program_to_string compiled.cprog);
    if report then begin
      let ph = Dhpf.Phase.global in
      Fmt.pr "total compilation time: %.3f s@." (Dhpf.Phase.elapsed ph);
      Fmt.pr "domain pool: %d domain(s)@." domains;
      List.iter
        (fun l -> Fmt.pr "  %-32s %8.3f s@." l (Dhpf.Phase.total ph l))
        (Dhpf.Phase.labels ph);
      Fmt.pr "integer-set engine caches (%s):@."
        (if Iset.Cache.enabled () then "enabled" else "disabled");
      Fmt.pr "%a" Iset.Stats.pp ()
    end;
    (match report_json with
    | None -> ()
    | Some path ->
        let j =
          Serve.Report.compile_report ~version ~src ~domains
            ~phase:Dhpf.Phase.global
            ~events:(List.length compiled.cevents)
            ~statements:(List.length compiled.cprog.Dhpf.Spmd.main)
            ()
        in
        if path = "-" then print_endline (Obs.Json.to_string j)
        else begin
          Obs.write_json path j;
          Fmt.epr "report: %s@." path
        end);
    if not (show_sets || show_spmd || report || report_json <> None) then
      Fmt.pr "compiled: %d communication events, %d statements@."
        (List.length compiled.cevents)
        (List.length compiled.cprog.Dhpf.Spmd.main)
  in
  Cmd.v
    (Cmd.info "compile" ~doc:"Compile a mini-HPF program")
    Term.(
      const run $ src_t $ show_sets_t $ show_spmd_t $ report_t
      $ report_json_t $ no_split_t $ no_vect_t $ no_coal_t $ no_inplace_t
      $ jobs_t $ disk_cache_t $ disk_cache_mb_t $ trace_t $ metrics_t)

(* ---- run ---- *)

let check_comm_t =
  Arg.(
    value & flag
    & info [ "check-comm" ]
        ~doc:
          "Predicted-vs-measured communication check: evaluate the \
           compiler's communication sets at the concrete distribution \
           parameters (the paper's compile-time message counting), run the \
           program, and fail (exit 1) unless every (event, sender, \
           receiver) cell of the simulated communication matrix matches \
           the prediction. Per-pair counters ignore retransmission, so the \
           check also holds under $(b,--faults).")

let comm_slack_t =
  Arg.(
    value & opt float 0.0
    & info [ "comm-slack" ] ~docv:"F"
        ~doc:
          "Relative tolerance for $(b,--check-comm): a cell passes when \
           |measured - predicted| <= F * predicted. Default 0 (exact).")

let run_cmd =
  let run src nprocs params engine native_cache disk_cache disk_cache_mb
      no_split no_vect no_coal no_inplace jobs faults_seed drop dup delay
      skew crash_procs crash_prob ckpt_every max_events diff diff_engines
      diff_domains diff_crashes trace metrics check_comm comm_slack =
    handle_errors @@ fun () ->
    let engine = resolve_engine engine in
    Option.iter (Unix.putenv "DHPF_NATIVE_CACHE") native_cache;
    apply_disk_cache disk_cache disk_cache_mb;
    List.iter
      (fun (name, v) ->
        if v < 0 then begin
          Fmt.epr "invalid fault specification: %s %d is negative@." name v;
          exit exit_parse
        end)
      [
        ("--crash-procs", crash_procs);
        ("--checkpoint-every", ckpt_every);
        ("--max-events", max_events);
      ];
    let opts = opts_of ~no_split ~no_vect ~no_coal ~no_inplace in
    fresh_window ();
    trace_begin trace;
    metrics_begin metrics;
    if check_comm then Obs.Metrics.enable ();
    let domains = apply_jobs jobs in
    let chk =
      Dhpf.Phase.time Dhpf.Phase.global "parse and semantic analysis"
        (fun () -> Hpf.Sema.analyze_source (load src))
    in
    if diff > 0 then begin
      (* differential resilience sweep: serial oracle vs. N fault seeds *)
      let spec_of_seed seed =
        validated
          (spec_of ~seed ~drop ~dup ~delay ~skew ~crash_prob ~crash_procs:0)
      in
      let seeds = List.init diff (fun i -> i + 1) in
      let out =
        Spmdsim.Diffcheck.run ~engine ~nprocs ~params ~opts ~spec_of_seed
          ~seeds chk
      in
      Fmt.pr "%a@." Spmdsim.Diffcheck.pp_outcome out;
      match out with
      | Spmdsim.Diffcheck.Pass _ -> ()
      | _ -> exit exit_runtime
    end
    else if diff_engines > 0 then begin
      (* engine-differential sweep: closure vs. interpreter vs. native *)
      let spec_of_seed seed =
        validated
          (spec_of ~seed ~drop ~dup ~delay ~skew ~crash_prob ~crash_procs:0)
      in
      let seeds = List.init diff_engines (fun i -> i + 1) in
      let out =
        Spmdsim.Diffcheck.engines ~nprocs ~params ~opts ~spec_of_seed ~seeds
          chk
      in
      Fmt.pr "%a@." Spmdsim.Diffcheck.pp_outcome out;
      match out with
      | Spmdsim.Diffcheck.Pass _ -> ()
      | _ -> exit exit_runtime
    end
    else if diff_domains > 0 then begin
      (* domain-differential sweep: sequential scheduler vs. an
         oversubscribed domain pool *)
      let spec_of_seed seed =
        validated
          (spec_of ~seed ~drop ~dup ~delay ~skew ~crash_prob ~crash_procs:0)
      in
      let seeds = List.init diff_domains (fun i -> i + 1) in
      let out =
        Spmdsim.Diffcheck.domains ~engine ~nprocs ~params ~opts ~spec_of_seed
          ~seeds chk
      in
      Fmt.pr "%a@." Spmdsim.Diffcheck.pp_outcome out;
      match out with
      | Spmdsim.Diffcheck.Pass _ -> ()
      | _ -> exit exit_runtime
    end
    else if diff_crashes > 0 then begin
      (* crash-differential sweep: checkpoint/restart recovery on both
         engines vs. the fault-free oracle *)
      let seeds = List.init diff_crashes (fun i -> i + 1) in
      let out =
        match ckpt_every with
        | 0 -> Spmdsim.Diffcheck.crashes ~nprocs ~params ~opts ~seeds chk
        | n ->
            Spmdsim.Diffcheck.crashes ~nprocs ~params ~opts ~ckpt_every:n
              ~seeds chk
      in
      Fmt.pr "%a@." Spmdsim.Diffcheck.pp_outcome out;
      match out with
      | Spmdsim.Diffcheck.Pass _ -> ()
      | _ -> exit exit_runtime
    end
    else begin
      let compiled = Dhpf.Gen.compile ~opts chk in
      let serial = Spmdsim.Serial.run ~params chk in
      let faults =
        match faults_seed with
        | Some seed ->
            Some
              (validated
                 (spec_of ~seed ~drop ~dup ~delay ~skew ~crash_prob
                    ~crash_procs))
        | None when crash_procs > 0 ->
            (* crash injection without message faults: a pure-crash spec *)
            Some
              (validated
                 {
                   Spmdsim.Fault.none with
                   seed = 0;
                   crash_prob;
                   crash_max = crash_procs;
                 })
        | None -> None
      in
      let sim, stats, report =
        if crash_procs > 0 || ckpt_every > 0 then begin
          let rep =
            Spmdsim.Checkpoint.run ~engine ?faults ~ckpt_every ~max_events
              ~nprocs ~params compiled.cprog
          in
          (rep.rp_sim, rep.rp_stats, Some rep)
        end
        else begin
          let sim =
            Spmdsim.Exec.make ~engine ?faults ~nprocs ~params compiled.cprog
          in
          if max_events > 0 then
            (Spmdsim.Exec.transport sim).tr_max_events <- max_events;
          (sim, Spmdsim.Exec.run sim, None)
        end
      in
      Fmt.pr "serial (T1)     : %10.3f ms  (%d flops)@." (serial.r_time *. 1e3)
        serial.r_flops;
      Fmt.pr "spmd on %2d procs: %10.3f ms  (%d msgs, %d KiB)@." (Spmdsim.Exec.nprocs sim)
        (stats.s_time *. 1e3) stats.s_msgs (stats.s_bytes / 1024);
      Fmt.pr "speedup         : %10.2f@." (serial.r_time /. stats.s_time);
      if domains > 1 then Fmt.pr "domain pool     : %10d domains@." domains;
      if Obs.Metrics.enabled () then
        Obs.Metrics.set
          (Obs.Metrics.gauge "sim/domains")
          (float_of_int domains);
      (match faults with
      | None -> ()
      | Some sp ->
          Fmt.pr "fault schedule  : %s@." (Spmdsim.Fault.describe sp);
          Fmt.pr "resilience      : %d retransmits, %d timeouts, %d duplicates \
                  discarded, peak mailbox %d@."
            stats.s_retransmits stats.s_timeouts stats.s_dups_delivered
            stats.s_max_mailbox);
      (match report with
      | None -> ()
      | Some rep ->
          if ckpt_every > 0 then
            Fmt.pr "checkpoints     : %d written (%d KiB), every %d comm ops@."
              stats.s_ckpts
              ((stats.s_ckpt_bytes + 1023) / 1024)
              ckpt_every;
          if stats.s_crashes > 0 then begin
            Fmt.pr
              "crashes         : %d crash(es), %d recoveries in %d attempts, \
               lost work %.3f ms@."
              stats.s_crashes stats.s_recoveries rep.rp_attempts
              (stats.s_lost_work *. 1e3);
            List.iter
              (fun (c : Spmdsim.Checkpoint.crash_record) ->
                Fmt.pr
                  "  crash: processor %d at its op %d (t=%.3f ms) -> %s, \
                   group resumes at %.3f ms@."
                  c.cr_pid c.cr_op (c.cr_clock *. 1e3)
                  (if c.cr_restore_ops > 0 then
                     Printf.sprintf "rollback to op %d" c.cr_restore_ops
                   else "restart from scratch")
                  (c.cr_restart_t *. 1e3))
              rep.rp_crashes
          end);
      if check_comm then begin
        let predicted =
          Spmdsim.Predict.comm ~params ~nprocs:(Spmdsim.Exec.nprocs sim)
            compiled.cprog
        in
        let measured = Spmdsim.Exec.comm_cells sim in
        let pmsgs = List.fold_left (fun a c -> a + c.Spmdsim.Predict.p_msgs) 0 predicted
        and pelems = List.fold_left (fun a c -> a + c.Spmdsim.Predict.p_elems) 0 predicted in
        let mismatches = Spmdsim.Predict.check ~slack:comm_slack predicted measured in
        if mismatches = [] then
          Fmt.pr "comm check      : ok — %d pair cells, %d msgs, %d elems \
                  (predicted = measured)@."
            (List.length predicted) pmsgs pelems
        else begin
          Fmt.epr "comm check FAILED: %d cell(s) diverge@." (List.length mismatches);
          List.iter
            (fun m ->
              Fmt.epr
                "  event %d %d->%d: predicted %d msgs/%d elems, measured %d \
                 msgs/%d elems@."
                m.Spmdsim.Predict.mm_event m.Spmdsim.Predict.mm_src
                m.Spmdsim.Predict.mm_dst m.Spmdsim.Predict.mm_pred_msgs
                m.Spmdsim.Predict.mm_pred_elems m.Spmdsim.Predict.mm_meas_msgs
                m.Spmdsim.Predict.mm_meas_elems)
            mismatches;
          exit 1
        end
      end
    end;
    trace_finish trace;
    metrics_compiler ();
    metrics_finish metrics
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Compile and execute on the simulated machine")
    Term.(
      const run $ src_t $ nprocs_t $ param_t $ engine_t $ native_cache_t
      $ disk_cache_t $ disk_cache_mb_t $ no_split_t $ no_vect_t
      $ no_coal_t $ no_inplace_t $ jobs_t $ faults_t $ fault_drop_t
      $ fault_dup_t $ fault_delay_t $ fault_skew_t $ crash_procs_t
      $ crash_prob_t $ ckpt_every_t $ max_events_t $ diff_t $ diff_engines_t
      $ diff_domains_t $ diff_crashes_t $ trace_t $ metrics_t $ check_comm_t
      $ comm_slack_t)

(* ---- bench (print a built-in source) ---- *)

let bench_cmd =
  let run name =
    match builtin name with
    | Some src -> print_string src
    | None ->
        Fmt.epr "unknown benchmark %s@." name;
        exit 1
  in
  Cmd.v
    (Cmd.info "source" ~doc:"Print a built-in benchmark program")
    Term.(const run $ src_t)

(* ---- omega (set calculator REPL) ---- *)

let omega_cmd =
  let run script =
    handle_errors @@ fun () ->
    match script with
    | Some path ->
        List.iter print_endline (Iset.Calc.eval_script (read_file path))
    | None ->
        Fmt.pr "dhpf omega calculator — A := {[i] : 1 <= i <= n}; sat A; ...@.";
        let env = ref [] in
        (try
           while true do
             Fmt.pr "omega> %!";
             let line = input_line stdin in
             match Iset.Calc.eval_line !env line with
             | env', out ->
                 env := env';
                 if out <> "" then print_endline out
             | exception Iset.Calc.Error msg -> Fmt.pr "error: %s@." msg
             | exception Iset.Parse.Error msg -> Fmt.pr "parse error: %s@." msg
           done
         with End_of_file -> ())
  in
  let script_t =
    Arg.(value & pos 0 (some string) None & info [] ~docv:"SCRIPT" ~doc:"Script file; omitted: interactive.")
  in
  Cmd.v
    (Cmd.info "omega" ~doc:"Interactive integer-set calculator (Omega-calculator style)")
    Term.(const run $ script_t)

(* ---- serve (persistent compilation daemon) ---- *)

let default_socket =
  Filename.concat (Filename.get_temp_dir_name ()) "dhpf-serve.sock"

let socket_t =
  Arg.(
    value & opt string default_socket
    & info [ "socket" ] ~docv:"PATH"
        ~doc:"Unix-domain socket the daemon listens on (one request per \
              connection, dhpf-serve/1 framing).")

let workers_t =
  Arg.(
    value & opt int 0
    & info [ "workers" ] ~docv:"N"
        ~doc:
          "Worker domains serving requests concurrently (default 0 = the \
           session domain pool: $(b,-j)/$(b,DHPF_DOMAINS), else 1).")

let max_queue_t =
  Arg.(
    value & opt int 64
    & info [ "max-queue" ] ~docv:"N"
        ~doc:
          "Admission bound: pending requests queued before new \
           connections are answered with the structured \
           $(b,overloaded) response instead of waiting.")

let quiet_t =
  Arg.(
    value & flag
    & info [ "quiet" ] ~doc:"Suppress the startup/shutdown notes on stderr.")

let log_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "log" ] ~docv:"FILE"
        ~doc:
          "Structured JSONL event log (dhpf-log/1): one JSON object per \
           line — ts, level, request id, event, typed fields — for \
           accept/dispatch/complete/error/overloaded/shutdown and \
           cache-fault events. $(b,-) logs to stderr. Also settable via \
           $(b,DHPF_LOG) (with $(b,DHPF_LOG_LEVEL) = \
           debug|info|warn|error).")

let prom_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "prom" ] ~docv:"FILE"
        ~doc:
          "Prometheus text exposition of the metrics registry, rewritten \
           atomically (at most once a second) as requests complete and at \
           shutdown; point a node-exporter textfile collector at it.")

let flight_dump_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "flight-dump" ] ~docv:"FILE"
        ~doc:
          "Write the flight-recorder bundle (dhpf-flight/1) to $(docv) \
           whenever a worker request fails and at shutdown — so a crash \
           or SIGTERM always leaves a postmortem of the most recent \
           requests and log events.")

let recorder_slots_t =
  Arg.(
    value & opt int 1024
    & info [ "recorder-slots" ] ~docv:"N"
        ~doc:
          "Flight-recorder ring capacity (recent request summaries and \
           log events kept for the $(b,dump) op and $(b,--flight-dump)); \
           0 disables the recorder.")

let serve_man =
  [
    `S Manpage.s_description;
    `P
      "Run a persistent compilation service. Clients connect to the \
       Unix-domain socket, send one length-prefixed JSON request \
       (dhpf-serve/1) and read one response. Both cache layers are \
       shared across requests and — through $(b,--disk-cache) — across \
       server generations: a warm daemon answers repeat compiles out of \
       cache with byte-identical analysis results.";
    `P
      "Response statuses: $(b,ok) (payload depends on the op), \
       $(b,error) (with a $(b,code) of protocol/parse/semantic/\
       unsupported/runtime, mirroring the batch exit codes) and \
       $(b,overloaded) (admission control; retry later). SIGTERM and \
       SIGINT stop admission, drain the queue and exit cleanly.";
    `S Manpage.s_exit_status;
    `P "6 when the socket cannot be bound; the usual codes otherwise.";
  ]

let serve_cmd =
  let run socket workers max_queue disk_cache disk_cache_mb jobs quiet trace
      metrics log prom flight_dump recorder_slots =
    handle_errors @@ fun () ->
    if max_queue < 0 then begin
      Fmt.epr "invalid --max-queue %d: need a non-negative bound@." max_queue;
      exit exit_parse
    end;
    fresh_window ();
    trace_begin trace;
    metrics_begin metrics;
    apply_disk_cache disk_cache disk_cache_mb;
    let domains = apply_jobs jobs in
    let workers = if workers <= 0 then domains else workers in
    let cfg =
      {
        Serve.Server.version;
        socket;
        workers;
        max_queue;
        disk_cache = None (* already applied process-wide above *);
        lookup = builtin;
        quiet;
        log;
        prom;
        flight_dump;
        recorder_slots = max 0 recorder_slots;
      }
    in
    (* install the handlers before launch so a signal in the startup
       window is never lost; the daemon drains its queue and exits *)
    let srv_ref = ref None in
    let stop _ =
      match !srv_ref with
      | Some srv -> Serve.Server.request_stop srv
      | None -> Stdlib.exit 0
    in
    Sys.set_signal Sys.sigterm (Sys.Signal_handle stop);
    Sys.set_signal Sys.sigint (Sys.Signal_handle stop);
    let srv = Serve.Server.launch cfg in
    srv_ref := Some srv;
    Serve.Server.wait srv;
    trace_finish trace;
    metrics_compiler ();
    metrics_finish metrics
  in
  Cmd.v
    (Cmd.info "serve" ~man:serve_man
       ~doc:"Persistent compilation service on a Unix-domain socket")
    Term.(
      const run $ socket_t $ workers_t $ max_queue_t $ disk_cache_t
      $ disk_cache_mb_t $ jobs_t $ quiet_t $ trace_t $ metrics_t $ log_t
      $ prom_t $ flight_dump_t $ recorder_slots_t)

(* ---- bench-serve (cold vs. warm vs. eviction-pressure) ---- *)

let bench_serve_cmd =
  let clients_t =
    Arg.(
      value & opt int 8
      & info [ "clients" ] ~docv:"N"
          ~doc:"Concurrent closed-loop clients (the offered concurrency).")
  in
  let requests_t =
    Arg.(
      value & opt int 4
      & info [ "requests" ] ~docv:"N"
          ~doc:"Requests each client issues back-to-back.")
  in
  let bworkers_t =
    Arg.(
      value & opt int 2
      & info [ "workers" ] ~docv:"N" ~doc:"Worker domains per daemon.")
  in
  let json_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:"Write the results as dhpf-bench-serve/2 JSON to $(docv).")
  in
  let pressure_kb_t =
    Arg.(
      value & opt int 256
      & info [ "pressure-kb" ] ~docv:"KB"
          ~doc:
            "Disk-cache budget (KiB, floor 64) for the eviction-pressure \
             daemon: a third phase replays the warm workload against the \
             same cache squeezed to $(docv) KiB, recording hit-ratio \
             degradation and GC eviction counts. 0 skips the phase.")
  in
  let obs_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "obs" ] ~docv:"DIR"
          ~doc:
            "Route each daemon's observability output into $(docv) \
             ($(i,tag).log.jsonl, $(i,tag).prom, $(i,tag).flight.json) \
             and, under $(b,--smoke), assert it: every log line parses \
             as dhpf-log/1, the Prometheus file has TYPE lines, the \
             stats snapshot is sane and the $(b,dump) op returns a \
             valid flight bundle.")
  in
  let smoke_t =
    Arg.(
      value & flag
      & info [ "smoke" ]
          ~doc:
            "Assert the invariants (every request answered ok, warm \
             phase hits the disk cache, every daemon exits cleanly on \
             SIGTERM, dump ops return parseable flight bundles — plus \
             the $(b,--obs) artifact checks when that is set) and fail \
             with exit 1 otherwise.")
  in
  let run clients requests workers json pressure_kb obs smoke =
    handle_errors @@ fun () ->
    if clients < 1 || requests < 1 then begin
      Fmt.epr "bench-serve: need positive --clients and --requests@.";
      exit exit_parse
    end;
    let base =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "dhpf-bench-serve-%d" (Unix.getpid ()))
    in
    (try Unix.mkdir base 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    (match obs with
    | Some dir -> (
        try Unix.mkdir dir 0o755
        with Unix.Unix_error (Unix.EEXIST, _, _) -> ())
    | None -> ());
    let cache_dir = Filename.concat base "cache" in
    let sock_of tag = Filename.concat base (tag ^ ".sock") in
    let obs_file tag ext =
      Option.map (fun dir -> Filename.concat dir (tag ^ ext)) obs
    in
    (* Fork every daemon before this process spawns any domain: the
       load generator multicores the parent, and forking a runtime with
       live domains is not supported. The warm daemon idles until the
       cold phase has populated the shared disk cache; being a separate
       process, its in-memory tables start empty, so every hit it gets
       is a genuine cross-process disk hit. The pressure daemon gets the
       same cache squeezed to a tiny byte budget, so its stores trigger
       the oldest-first GC underneath its own lookups. *)
    let fork_server ?cache_kb tag =
      let socket = sock_of tag in
      (try Unix.unlink socket with Unix.Unix_error _ -> ());
      match Unix.fork () with
      | 0 ->
          let code =
            try
              (match cache_kb with
              | Some kb -> Iset.Diskcache.set_max_bytes (kb * 1024)
              | None -> ());
              let cfg =
                {
                  Serve.Server.version;
                  socket;
                  workers = max 1 workers;
                  max_queue = 1024;
                  disk_cache = Some cache_dir;
                  lookup = builtin;
                  quiet = true;
                  log = obs_file tag ".log.jsonl";
                  prom = obs_file tag ".prom";
                  flight_dump = obs_file tag ".flight.json";
                  recorder_slots = 1024;
                }
              in
              let srv_ref = ref None in
              let stop _ =
                match !srv_ref with
                | Some srv -> Serve.Server.request_stop srv
                | None -> Unix._exit 0
              in
              Sys.set_signal Sys.sigterm (Sys.Signal_handle stop);
              let srv = Serve.Server.launch cfg in
              srv_ref := Some srv;
              Serve.Server.wait srv;
              0
            with _ -> 1
          in
          Unix._exit code
      | pid -> pid
    in
    let with_pressure = pressure_kb > 0 in
    let pid_cold = fork_server "cold" in
    let pid_warm = fork_server "warm" in
    let pid_pressure =
      if with_pressure then Some (fork_server ~cache_kb:pressure_kb "pressure")
      else None
    in
    (* mixed workload: every built-in at smoke size as inline source,
       with every fourth request a full simulated run *)
    let progs = Array.of_list (Codes.all_small ()) in
    let nprogs = Array.length progs in
    let workload ~client ~seq =
      let name, text = progs.((client + seq) mod nprogs) in
      if (client + seq) mod 4 = 3 then
        Serve.Proto.Run
          {
            label = name;
            source = Some text;
            opts = Dhpf.Gen.default_options;
            nprocs = 4;
            params = [];
            engine = "closure";
          }
      else
        Serve.Proto.Compile
          { label = name; source = Some text; opts = Dhpf.Gen.default_options }
    in
    let run_phase ?prime name socket =
      if not (Serve.Client.wait_ready ~socket ()) then begin
        Fmt.epr "bench-serve: %s daemon did not come up on %s@." name socket;
        exit exit_runtime
      end;
      (match prime with
      | Some req -> (
          try ignore (Serve.Client.request ~socket req)
          with Serve.Client.Connect_error _ | Serve.Proto.Proto_error _ -> ())
      | None -> ());
      let r = Serve.Loadgen.run ~socket ~clients ~requests ~workload in
      let ask req =
        try Some (Serve.Client.request ~socket req)
        with Serve.Client.Connect_error _ | Serve.Proto.Proto_error _ -> None
      in
      (r, ask Serve.Proto.Stats, ask Serve.Proto.Dump)
    in
    let cold, cold_stats, cold_dump = run_phase "cold" (sock_of "cold") in
    let warm, warm_stats, warm_dump = run_phase "warm" (sock_of "warm") in
    let pressure =
      if with_pressure then
        (* the replayed workload would hit 100% and never store, and the
           disk GC only runs on store — one novel compile trips it under
           the squeezed budget, after which the evicted entries turn the
           replay into genuine miss/store/evict churn *)
        let prime =
          Serve.Proto.Compile
            {
              label = "pressure-prime";
              source = Some (Codes.jacobi ~n:20 ~iters:1 ());
              opts = Dhpf.Gen.default_options;
            }
        in
        Some (run_phase ~prime "pressure" (sock_of "pressure"))
      else None
    in
    let shutdown name pid =
      Unix.kill pid Sys.sigterm;
      match Unix.waitpid [] pid with
      | _, Unix.WEXITED 0 -> true
      | _, _ ->
          Fmt.epr "bench-serve: %s daemon did not exit cleanly@." name;
          false
    in
    let clean_cold = shutdown "cold" pid_cold in
    let clean_warm = shutdown "warm" pid_warm in
    let clean_pressure =
      match pid_pressure with
      | Some pid -> shutdown "pressure" pid
      | None -> true
    in
    let clean = clean_cold && clean_warm && clean_pressure in
    let disk_counter stats key =
      match stats with
      | None -> 0
      | Some v -> (
          match Obs.Json.get v "iset" with
          | Some o -> Option.value (Obs.Json.get_int o key) ~default:0
          | None -> 0)
    in
    let hit_ratio stats =
      let l = disk_counter stats "disk lookups" in
      if l = 0 then 0.0
      else float_of_int (disk_counter stats "disk hits") /. float_of_int l
    in
    let rps (r : Serve.Loadgen.result) =
      float_of_int r.lg_ok /. Float.max 1e-9 r.lg_wall_s
    in
    let pct q (r : Serve.Loadgen.result) =
      Serve.Loadgen.percentile q r.lg_latencies
    in
    let line name (r : Serve.Loadgen.result) stats =
      Fmt.pr
        "%-8s %4d ok %3d err %4d overload-retries %8.3f s  %7.1f req/s  \
         p50 %6.1f ms  p99 %6.1f ms  disk %d/%d  evict %d@."
        name r.lg_ok r.lg_error r.lg_overloaded r.lg_wall_s (rps r)
        (pct 0.5 r *. 1e3) (pct 0.99 r *. 1e3)
        (disk_counter stats "disk hits")
        (disk_counter stats "disk lookups")
        (disk_counter stats "disk evictions")
    in
    Fmt.pr "bench-serve: %d clients x %d requests, %d workers per daemon@."
      clients requests workers;
    line "cold" cold cold_stats;
    line "warm" warm warm_stats;
    (match pressure with
    | Some (r, stats, _) -> line "pressure" r stats
    | None -> ());
    if rps cold > 0. then
      Fmt.pr "warm/cold throughput: %.2fx@." (rps warm /. rps cold);
    (match pressure with
    | Some (_, stats, _) when with_pressure ->
        Fmt.pr
          "eviction pressure (%d KiB budget): hit ratio %.1f%% (warm \
           %.1f%%), %d evictions@."
          pressure_kb
          (hit_ratio stats *. 100.)
          (hit_ratio warm_stats *. 100.)
          (disk_counter stats "disk evictions")
    | _ -> ());
    (match json with
    | None -> ()
    | Some path ->
        let op_json (op, lats) =
          ( op,
            Obs.Json.Obj
              [
                ("n", Obs.Json.int (Array.length lats));
                ( "p50_s",
                  Obs.Json.Num (Serve.Loadgen.percentile 0.5 lats) );
                ( "p90_s",
                  Obs.Json.Num (Serve.Loadgen.percentile 0.9 lats) );
                ( "p99_s",
                  Obs.Json.Num (Serve.Loadgen.percentile 0.99 lats) );
              ] )
        in
        let phase_json name (r : Serve.Loadgen.result) stats =
          Obs.Json.Obj
            [
              ("phase", Obs.Json.Str name);
              ("ok", Obs.Json.int r.lg_ok);
              ("error", Obs.Json.int r.lg_error);
              ("overloaded_retries", Obs.Json.int r.lg_overloaded);
              ("wall_s", Obs.Json.Num r.lg_wall_s);
              ("throughput_rps", Obs.Json.Num (rps r));
              ("p50_s", Obs.Json.Num (pct 0.5 r));
              ("p90_s", Obs.Json.Num (pct 0.9 r));
              ("p99_s", Obs.Json.Num (pct 0.99 r));
              ( "queue_p50_s",
                Obs.Json.Num
                  (Serve.Loadgen.percentile 0.5 r.lg_queue_waits) );
              ( "queue_p99_s",
                Obs.Json.Num
                  (Serve.Loadgen.percentile 0.99 r.lg_queue_waits) );
              ( "service_p50_s",
                Obs.Json.Num
                  (Serve.Loadgen.percentile 0.5 r.lg_services) );
              ( "service_p99_s",
                Obs.Json.Num
                  (Serve.Loadgen.percentile 0.99 r.lg_services) );
              ("by_op", Obs.Json.Obj (List.map op_json r.lg_by_op));
              ("disk_hits", Obs.Json.int (disk_counter stats "disk hits"));
              ( "disk_lookups",
                Obs.Json.int (disk_counter stats "disk lookups") );
              ( "disk_evictions",
                Obs.Json.int (disk_counter stats "disk evictions") );
              ("disk_hit_ratio", Obs.Json.Num (hit_ratio stats));
            ]
        in
        let doc =
          Obs.Json.Obj
            [
              ("schema", Obs.Json.Str "dhpf-bench-serve/2");
              ("version", Obs.Json.Str version);
              ("clients", Obs.Json.int clients);
              ("requests_per_client", Obs.Json.int requests);
              ("workers", Obs.Json.int workers);
              ("pressure_kb", Obs.Json.int pressure_kb);
              ( "phases",
                Obs.Json.List
                  ([
                     phase_json "cold" cold cold_stats;
                     phase_json "warm" warm warm_stats;
                   ]
                  @
                  match pressure with
                  | Some (r, stats, _) ->
                      [ phase_json "pressure" r stats ]
                  | None -> []) );
              ("clean_shutdown", Obs.Json.Bool clean);
            ]
        in
        Obs.write_json path doc;
        Fmt.epr "bench-serve: results -> %s@." path);
    if smoke then begin
      let failures = ref [] in
      let check b msg = if not b then failures := msg :: !failures in
      check (cold.lg_error = 0) "cold phase had failing requests";
      check (warm.lg_error = 0) "warm phase had failing requests";
      check
        (disk_counter warm_stats "disk hits" > 0)
        "warm daemon recorded no disk-cache hits";
      check clean "daemons did not shut down cleanly on SIGTERM";
      (* the telemetry section must thread back through the load
         generator: every response carries queue-wait and service time *)
      check
        (Array.length warm.lg_services = warm.lg_ok + warm.lg_error)
        "warm responses were missing telemetry sections";
      (* dump must return a parseable flight bundle under load *)
      let check_dump name dump =
        match Option.bind dump (fun v -> Obs.Json.get v "flight") with
        | Some flight ->
            check
              (Obs.Json.get_str flight "schema" = Some "dhpf-flight/1")
              (name ^ " dump returned a bundle with the wrong schema");
            check
              (match Obs.Json.get_list flight "entries" with
              | Some (_ :: _) -> true
              | _ -> false)
              (name ^ " dump returned an empty flight recorder")
        | None -> check false (name ^ " dump op failed")
      in
      check_dump "cold" cold_dump;
      check_dump "warm" warm_dump;
      (* the squeezed daemon must actually churn: evictions recorded and
         a hit ratio visibly below the warm daemon's *)
      (match pressure with
      | Some (r, stats, dump) ->
          check (r.Serve.Loadgen.lg_error = 0)
            "pressure phase had failing requests";
          check
            (disk_counter stats "disk evictions" > 0)
            "pressure daemon recorded no evictions";
          check
            (hit_ratio stats < hit_ratio warm_stats)
            "pressure hit ratio did not degrade below warm";
          check_dump "pressure" dump
      | None -> ());
      (* stats v2 sanity: rolling-window gauges present and ordered *)
      (let wnum stats k =
         Option.bind stats (fun v ->
             Option.bind (Obs.Json.get v "window") (fun w ->
                 Obs.Json.get_num w k))
       in
       match (wnum warm_stats "service_p50_s", wnum warm_stats "service_p99_s")
       with
      | Some p50, Some p99 ->
          check (p50 >= 0. && p99 >= p50) "warm stats window percentiles not ordered"
      | _ -> check false "warm stats response lacks window gauges");
      check
        (match
           Option.bind warm_stats (fun v ->
               Obs.Json.get_str v "stats_schema")
         with
        | Some "dhpf-stats/2" -> true
        | _ -> false)
        "stats response is not dhpf-stats/2";
      (* observability artifacts, when routed to a directory *)
      (match obs with
      | None -> ()
      | Some _ ->
          List.iter
            (fun tag ->
              (match obs_file tag ".log.jsonl" with
              | Some path when Sys.file_exists path ->
                  let lines =
                    String.split_on_char '\n' (read_file path)
                    |> List.filter (fun l -> String.trim l <> "")
                  in
                  check (lines <> []) (tag ^ " log is empty");
                  List.iter
                    (fun l ->
                      match Obs.Json.of_string l with
                      | v ->
                          check
                            (Obs.Json.get_str v "schema"
                             = Some "dhpf-log/1"
                            && Obs.Json.get_num v "ts" <> None
                            && Obs.Json.get_str v "level" <> None
                            && Obs.Json.get_str v "event" <> None)
                            (tag ^ " log line missing dhpf-log/1 fields")
                      | exception Obs.Json.Error _ ->
                          check false (tag ^ " log line is not valid JSON"))
                    lines
              | _ -> check false (tag ^ " log file missing"));
              (match obs_file tag ".prom" with
              | Some path when Sys.file_exists path ->
                  let body = read_file path in
                  check
                    (String.length body > 0
                    && String.trim body <> ""
                    &&
                    let rec has_type i =
                      match String.index_from_opt body i '#' with
                      | None -> false
                      | Some j ->
                          (String.length body - j > 6
                          && String.sub body j 7 = "# TYPE ")
                          || has_type (j + 1)
                    in
                    has_type 0)
                    (tag ^ " prometheus file has no TYPE lines")
              | _ -> check false (tag ^ " prometheus file missing"));
              match obs_file tag ".flight.json" with
              | Some path when Sys.file_exists path -> (
                  match Obs.Json.of_string (read_file path) with
                  | v ->
                      check
                        (Obs.Json.get_str v "schema"
                        = Some "dhpf-flight/1")
                        (tag ^ " flight dump has the wrong schema")
                  | exception Obs.Json.Error _ ->
                      check false (tag ^ " flight dump is not valid JSON"))
              | _ -> check false (tag ^ " flight dump missing"))
            ([ "cold"; "warm" ] @ if with_pressure then [ "pressure" ] else []));
      match List.rev !failures with
      | [] -> Fmt.pr "bench-serve smoke: ok@."
      | fs ->
          List.iter (fun m -> Fmt.epr "bench-serve smoke FAILED: %s@." m) fs;
          exit 1
    end
  in
  Cmd.v
    (Cmd.info "bench-serve"
       ~doc:
         "Benchmark the serve daemon: cold vs. warm disk cache, plus \
          eviction pressure and telemetry smoke checks")
    Term.(
      const run $ clients_t $ requests_t $ bworkers_t $ json_t
      $ pressure_kb_t $ obs_t $ smoke_t)

(* ---- top (live dashboard over the stats op) ---- *)

let top_cmd =
  let interval_t =
    Arg.(
      value & opt float 1.0
      & info [ "interval" ] ~docv:"S" ~doc:"Seconds between stats polls.")
  in
  let iterations_t =
    Arg.(
      value & opt int 0
      & info [ "iterations" ] ~docv:"N"
          ~doc:"Stop after $(docv) refreshes (0 = run until interrupted).")
  in
  let plain_t =
    Arg.(
      value & flag
      & info [ "plain" ]
          ~doc:
            "No ANSI clear between refreshes: append one snapshot block \
             per poll (for logs and tests).")
  in
  let run socket interval iterations plain =
    handle_errors @@ fun () ->
    let interval = Float.max 0.05 interval in
    let buf = Buffer.create 1024 in
    let render v =
      Buffer.clear buf;
      let s fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
      let num ?(o = v) k = Option.value (Obs.Json.get_num o k) ~default:0. in
      let int_ ?(o = v) k = Option.value (Obs.Json.get_int o k) ~default:0 in
      let str k d = Option.value (Obs.Json.get_str v k) ~default:d in
      s "dhpfc top — %s   version %s   uptime %.1fs\n" socket
        (str "version" "?") (num "uptime_s");
      s "served %d   rejected %d   queue %d   workers %d\n" (int_ "served")
        (int_ "rejected") (int_ "queue_depth") (int_ "workers");
      (match Obs.Json.get v "window" with
      | Some w ->
          s "window %.0fs: %d reqs  %.1f rps  errors %d  overloaded %d\n"
            (num ~o:w "seconds") (int_ ~o:w "samples") (num ~o:w "rps")
            (int_ ~o:w "errors") (int_ ~o:w "overloaded");
          s "  service p50/p95/p99  %6.1f / %6.1f / %6.1f ms\n"
            (num ~o:w "service_p50_s" *. 1e3)
            (num ~o:w "service_p95_s" *. 1e3)
            (num ~o:w "service_p99_s" *. 1e3);
          s "  queue   p50/p95/p99  %6.1f / %6.1f / %6.1f ms\n"
            (num ~o:w "queue_p50_s" *. 1e3)
            (num ~o:w "queue_p95_s" *. 1e3)
            (num ~o:w "queue_p99_s" *. 1e3)
      | None -> ());
      (match Obs.Json.get v "ratios" with
      | Some r ->
          s "ratios: memo %.1f%%   disk %.1f%%\n"
            (num ~o:r "memo_hit" *. 100.)
            (num ~o:r "disk_hit" *. 100.)
      | None -> ());
      (match Obs.Json.get v "diskcache" with
      | Some d -> s "diskcache: %d bytes\n" (int_ ~o:d "bytes")
      | None -> ());
      Buffer.contents buf
    in
    let rec loop i =
      if iterations = 0 || i < iterations then begin
        let body =
          match
            (try Some (Serve.Client.request ~socket Serve.Proto.Stats)
             with
            | Serve.Client.Connect_error msg -> (
                ignore msg;
                None)
            | Serve.Proto.Proto_error _ -> None)
          with
          | Some v -> render v
          | None -> Printf.sprintf "dhpfc top — %s: server unreachable\n" socket
        in
        if plain then print_string body
        else begin
          print_string "\027[2J\027[H";
          print_string body
        end;
        flush stdout;
        if iterations = 0 || i + 1 < iterations then Unix.sleepf interval;
        loop (i + 1)
      end
    in
    loop 0
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Live terminal dashboard over a running serve daemon: RPS, \
          latency percentiles, queue depth and cache hit ratios from \
          repeated stats polls")
    Term.(const run $ socket_t $ interval_t $ iterations_t $ plain_t)

let () =
  Obs.init_env ();
  Obs.Metrics.init_env ();
  Obs.Log.init_env ();
  Iset.Diskcache.init_env ();
  let info =
    Cmd.info "dhpfc" ~version
      ~doc:"dHPF-reproduction data-parallel compiler"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            compile_cmd; run_cmd; bench_cmd; omega_cmd; serve_cmd;
            bench_serve_cmd; top_cmd;
          ]))
