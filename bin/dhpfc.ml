(* dhpfc — command-line driver for the dHPF-reproduction compiler.

   Subcommands:
     compile     parse, analyze and compile a mini-HPF file; print the SPMD
                 node program, communication sets, or a phase-time report
     run         compile and execute on the simulated machine, with a serial
                 run for comparison
     source      print one of the built-in benchmark programs
     serve       persistent compilation daemon on a Unix-domain socket
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
  | Iset.Conj.Too_hard ->
      Fmt.epr
        "unsupported: integer-set query too hard: the Omega test ran out of \
         fuel@.";
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

(* ---- session: domain pool, disk cache, trace and metrics sinks ---- *)

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

let disk_cache_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "disk-cache" ] ~docv:"DIR"
        ~doc:
          "Persistent analysis-cache directory. Memoized integer-set \
           analyses — simplify, satisfiability, implication, gist, subset — \
           are stored content-addressed under $(docv) and shared by every \
           process pointed at the same directory; a warm cache turns \
           recompiles into disk lookups. Corrupt or truncated entries are \
           treated as misses, never errors.")

let disk_cache_mb_t =
  Arg.(
    value
    & opt (some int) None
    & info [ "disk-cache-mb" ] ~docv:"MB"
        ~doc:
          "Size budget for $(b,--disk-cache) in MiB (default 256, floor \
           1). When the cache overflows, the oldest entries are evicted \
           down to 3/4 of the budget.")

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

(* the options every compiling subcommand (compile, run, serve) shares *)
type session = {
  jobs : int option;
  disk_cache : string option;
  disk_cache_mb : int option;
  trace : string option;
  metrics : string option;
}

let session_t =
  let make jobs disk_cache disk_cache_mb trace metrics =
    { jobs; disk_cache; disk_cache_mb; trace; metrics }
  in
  Term.(
    const make $ jobs_t $ disk_cache_t $ disk_cache_mb_t $ trace_t $ metrics_t)

(* [with_session s f] runs [f domains] inside one measurement window and
   writes the sinks afterwards.
   - The window: phase totals and integer-set cache counters are
     process-global and would otherwise leak across compiles in one
     process (cache *contents* survive deliberately).
   - The domain pool: -j wins over DHPF_DOMAINS; both are clamped to the
     physical core count here and only here (the libraries never clamp,
     so the differential suites can oversubscribe deliberately).
   - The sinks: --trace records a Chrome timeline plus a span summary on
     stderr; --metrics writes the registry, whose compiler phase and
     integer-set series are read live from Phase.global and Iset.Stats. *)
let with_session s f =
  let positive flag need = function
    | Some n when n < 1 ->
        Fmt.epr "invalid %s %d: need a positive %s@." flag n need;
        exit exit_parse
    | _ -> ()
  in
  positive "--disk-cache-mb" "MiB budget" s.disk_cache_mb;
  positive "--jobs" "domain count" s.jobs;
  Dhpf.Phase.reset Dhpf.Phase.global;
  Iset.Stats.reset ();
  if s.trace <> None then begin
    Obs.enable ();
    Obs.set_process_name ~pid:0 "dhpf compiler";
    Obs.set_thread_name ~pid:0 ~tid:0 "main"
  end;
  if s.metrics <> None then Obs.Metrics.enable ();
  Option.iter (fun d -> Iset.Diskcache.set_dir (Some d)) s.disk_cache;
  Option.iter
    (fun m -> Iset.Diskcache.set_max_bytes (m * 1024 * 1024))
    s.disk_cache_mb;
  Par.set_domains (Par.clamp (Option.value s.jobs ~default:(Par.domains ())));
  let domains = Par.domains () in
  if Obs.enabled () then
    Obs.instant ~cat:"meta" ~args:[ ("domains", Obs.Int domains) ]
      "domain pool";
  if Obs.Metrics.enabled () then
    Obs.Metrics.set
      (Obs.Metrics.gauge "compiler/domains")
      (float_of_int domains);
  let r = f domains in
  Option.iter
    (fun path ->
      Obs.write path;
      Fmt.epr "%s" (Obs.summary ());
      Fmt.epr "trace: %d events -> %s@." (Obs.events_count ()) path)
    s.trace;
  Option.iter
    (fun path ->
      Obs.Metrics.write path;
      Fmt.epr "metrics: %d series -> %s@."
        (List.length (Obs.Metrics.snapshot ()))
        path)
    s.metrics;
  r

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
      no_inplace session =
    handle_errors @@ fun () ->
    let opts = opts_of ~no_split ~no_vect ~no_coal ~no_inplace in
    with_session session @@ fun domains ->
    let ph = Dhpf.Phase.global in
    let chk =
      Dhpf.Phase.time ph "parse and semantic analysis" (fun () ->
          Hpf.Sema.analyze_source (load src))
    in
    let compiled = Dhpf.Gen.compile ~opts chk in
    if show_sets then Fmt.pr "%a" Dhpf.Gen.pp_sets compiled.cevents;
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
      $ session_t)

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

let run_cmd =
  let run src nprocs params engine native_cache no_split no_vect no_coal
      no_inplace faults_seed drop dup delay skew crash_procs crash_prob
      ckpt_every max_events diff diff_engines diff_domains diff_crashes
      check_comm session =
    handle_errors @@ fun () ->
    let engine = resolve_engine engine in
    Option.iter (Unix.putenv "DHPF_NATIVE_CACHE") native_cache;
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
    let spec_of_seed seed =
      validated
        (spec_of ~seed ~drop ~dup ~delay ~skew ~crash_prob ~crash_procs:0)
    in
    let module D = Spmdsim.Diffcheck in
    (* the differential sweeps, each against its own reference: at most one
       per run, over the fault-free schedule plus N seeded ones *)
    let sweep =
      match
        List.filter
          (fun (_, n, _, _) -> n > 0)
          [
            ( "--diff",
              diff,
              "the serial oracle",
              fun seeds chk ->
                D.run ~engine ~nprocs ~params ~opts ~spec_of_seed ~seeds chk );
            ( "--diff-engines",
              diff_engines,
              "the interpreter",
              fun seeds chk ->
                D.engines ~nprocs ~params ~opts ~spec_of_seed ~seeds chk );
            ( "--diff-domains",
              diff_domains,
              "the 1-domain run",
              fun seeds chk ->
                D.domains ~engine ~nprocs ~params ~opts ~spec_of_seed ~seeds
                  chk );
            (* pure-crash schedules, checkpointing every 8 ops unless set *)
            ( "--diff-crashes",
              diff_crashes,
              "the fault-free closure run",
              fun seeds chk ->
                D.crashes ~nprocs ~params ~opts
                  ?ckpt_every:(if ckpt_every > 0 then Some ckpt_every else None)
                  ~seeds chk );
          ]
      with
      | (a, _, _, _) :: (b, _, _, _) :: _ ->
          Fmt.epr "dhpfc: %s and %s cannot be combined; run one sweep at a time@."
            a b;
          exit exit_parse
      | [ (_, n, reference, check) ] ->
          Some (List.init n (fun i -> i + 1), reference, check)
      | [] -> None
    in
    with_session session @@ fun domains ->
    if check_comm then Obs.Metrics.enable ();
    let chk =
      Dhpf.Phase.time Dhpf.Phase.global "parse and semantic analysis"
        (fun () -> Hpf.Sema.analyze_source (load src))
    in
    (match sweep with
    | Some (seeds, reference, check) ->
        let out = check seeds chk in
        Fmt.pr "%a@." (D.pp_against reference) out;
        (match out with D.Pass _ -> () | _ -> exit exit_runtime)
    | None ->
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
        let mismatches = Spmdsim.Predict.check predicted measured in
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
      end)
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Compile and execute on the simulated machine")
    Term.(
      const run $ src_t $ nprocs_t $ param_t $ engine_t $ native_cache_t
      $ no_split_t $ no_vect_t $ no_coal_t $ no_inplace_t $ faults_t
      $ fault_drop_t $ fault_dup_t $ fault_delay_t $ fault_skew_t
      $ crash_procs_t $ crash_prob_t $ ckpt_every_t $ max_events_t $ diff_t
      $ diff_engines_t $ diff_domains_t $ diff_crashes_t $ check_comm_t
      $ session_t)

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
          "Workers serving requests concurrently, one domain each: the \
           first shares the main domain with the acceptor, so $(docv) \
           workers run on $(docv) domains (default 0 = the session domain \
           pool: $(b,-j)/$(b,DHPF_DOMAINS), else 1).")

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
  let run socket workers max_queue quiet log prom flight_dump recorder_slots
      session =
    handle_errors @@ fun () ->
    if max_queue < 0 then begin
      Fmt.epr "invalid --max-queue %d: need a non-negative bound@." max_queue;
      exit exit_parse
    end;
    with_session session @@ fun domains ->
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
    Serve.Server.wait srv
  in
  Cmd.v
    (Cmd.info "serve" ~man:serve_man
       ~doc:"Persistent compilation service on a Unix-domain socket")
    Term.(
      const run $ socket_t $ workers_t $ max_queue_t $ quiet_t $ log_t
      $ prom_t $ flight_dump_t $ recorder_slots_t $ session_t)

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
  Obs.Log.init_env ();
  let info =
    Cmd.info "dhpfc" ~version
      ~doc:"dHPF-reproduction data-parallel compiler"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            compile_cmd; run_cmd; bench_cmd; omega_cmd; serve_cmd; top_cmd;
          ]))
