(* The serve daemon (see server.mli).

   Threading model: one domain per worker and nothing more. The
   launching domain runs two systhreads: the acceptor, blocked in
   select() on the listening socket plus a self-pipe (so request_stop can
   wake it with a single write), and worker 0. Workers 1..n-1 are plain
   spawned domains. Every worker blocks on a mutex/condition-protected
   FIFO of accepted connections. Admission control lives in the
   acceptor: past [max_queue] queued connections it answers [overloaded]
   itself and closes, so a saturated server keeps giving structured
   answers instead of stacking clients up in the listen backlog.

   Why threads and not domains for the acceptor: every domain, idle or
   not, takes part in every minor collection of the others, so each
   extra domain taxes the worker's allocation-heavy compiles. The
   acceptor spends its life in select() and the caller's main thread in
   [wait]'s select; both release the runtime lock, so sharing the domain
   costs worker 0 nothing. It costs the acceptor: while worker 0 runs
   OCaml code it holds the domain's runtime lock, and the acceptor gets
   it only when worker 0 blocks or the systhread tick (50 ms) preempts
   it. Admissions and [overloaded] answers then wait about one tick
   (measured: 45-50 ms with worker 0 in a CPU-bound loop). With several
   workers, worker 0 therefore leaves queued work to idle workers on the
   other domains (see [worker]), so the wait falls on admissions only
   while worker 0 is computing.

   Telemetry model: every admitted connection is stamped at admission,
   so the worker that dequeues it can split queue-wait from service
   time. Each request gets a trace id (the client's "rid" field, or a
   generated "r-<n>"), which threads through the structured log
   (Obs.Log), the flight recorder (Obs.Recorder) and the telemetry
   section injected into every response. Completed requests also land in
   a small lock-free ring of window samples from which the stats op
   derives rolling-window gauges (RPS, latency percentiles). All of it
   only ever *reads* compiler/simulator state, so responses stay
   byte-identical with telemetry on or off. *)

type config = {
  version : string;
  socket : string;
  workers : int;
  max_queue : int;
  disk_cache : string option;
  lookup : string -> string option;
  quiet : bool;
  log : string option;
  prom : string option;
  flight_dump : string option;
  recorder_slots : int;
}

exception Bind_error of string

(* internal: a [src] label the lookup table doesn't know *)
exception Unknown_source of string

(* one completed (or rejected) request in the rolling stats window *)
type wsample = {
  w_done : float;  (* completion time, unix seconds *)
  w_op : string;
  w_status : string;
  w_queue_s : float;
  w_service_s : float;
}

let window_slots = 512
let window_seconds = 60.0

type state = {
  cfg : config;
  listen : Unix.file_descr;
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  stopping : bool Atomic.t;
  mu : Mutex.t;
  cond : Condition.t;
  mutable idle : int;  (* spawned workers waiting on [cond]; under [mu] *)
  q : (Unix.file_descr * float) Queue.t;  (* (connection, admitted-at) *)
  depth : int Atomic.t;  (* = Queue.length q, readable without the lock *)
  served : int Atomic.t;
  started : float;
  rid_ctr : int Atomic.t;
  rejected : int Atomic.t;
  window : wsample option array;  (* ring, lock-free like Obs.Recorder *)
  wpos : int Atomic.t;
  prom_last : float Atomic.t;
}

type t = {
  st : state;
  threads : Thread.t list;  (* acceptor, worker 0: the launching domain *)
  domains : unit Domain.t list;  (* workers 1 .. n-1 *)
  failed : (exn * Printexc.raw_backtrace) option Atomic.t;
      (* first exception that escaped a thread, re-raised by [wait] *)
  joined : bool Atomic.t;
}

let note st fmt =
  if st.cfg.quiet then Format.ifprintf Format.err_formatter fmt
  else Format.eprintf fmt

(* -- metrics -------------------------------------------------------- *)

let m_request op status =
  Obs.Metrics.incr
    (Obs.Metrics.counter
       ~labels:[ ("op", op); ("status", status) ]
       "serve/requests")

let m_depth st =
  Obs.Metrics.set
    (Obs.Metrics.gauge "serve/queue_depth")
    (float_of_int (Atomic.get st.depth))

let m_latency op seconds =
  Obs.Metrics.observe
    (Obs.Metrics.histogram ~labels:[ ("op", op) ] "serve/latency_s")
    seconds

let m_queue_wait op seconds =
  Obs.Metrics.observe
    (Obs.Metrics.histogram ~labels:[ ("op", op) ] "serve/queue_wait_s")
    seconds

(* -- rolling window -------------------------------------------------- *)

let window_record st ~op ~status ~queue_s ~service_s =
  let i = Atomic.fetch_and_add st.wpos 1 in
  st.window.(i mod window_slots) <-
    Some
      {
        w_done = Unix.gettimeofday ();
        w_op = op;
        w_status = status;
        w_queue_s = queue_s;
        w_service_s = service_s;
      }

(* maybe-rewrite the Prometheus exposition file, at most once a second *)
let prom_tick st =
  match st.cfg.prom with
  | None -> ()
  | Some path ->
      let now = Unix.gettimeofday () in
      let last = Atomic.get st.prom_last in
      if
        now -. last >= 1.0
        && Atomic.compare_and_set st.prom_last last now
      then try Obs.Metrics.write_prometheus path with Sys_error _ -> ()

let flight_flush st =
  match st.cfg.flight_dump with
  | Some path when Obs.Recorder.enabled () -> (
      try Obs.Recorder.write path with Sys_error _ -> ())
  | _ -> ()

(* -- the failure table (server.mli) ---------------------------------- *)

type failure = Parse | Semantic | Unsupported | Runtime | Bind | Protocol

let failure_code = function
  | Parse -> "parse"
  | Semantic -> "semantic"
  | Unsupported -> "unsupported"
  | Runtime -> "runtime"
  | Bind -> "bind"
  | Protocol -> "protocol"

let exit_code = function
  | Parse -> 2
  | Semantic -> 3
  | Unsupported -> 4
  | Runtime -> 5
  | Bind -> 6
  | Protocol -> 7

let classify = function
  | Unknown_source l ->
      ( Parse,
        Printf.sprintf
          "unknown program %S (not a built-in; pass inline \"source\")" l )
  | Sys_error msg ->
      (Parse, Printf.sprintf "error: %s (not a file or built-in benchmark)" msg)
  | Hpf.Parser.Error (msg, line) ->
      (Parse, Printf.sprintf "parse error, line %d: %s" line msg)
  | Hpf.Lexer.Error (msg, line) ->
      (Parse, Printf.sprintf "lexical error, line %d: %s" line msg)
  | Iset.Parse.Error msg -> (Parse, "set-expression parse error: " ^ msg)
  | Iset.Calc.Error msg -> (Parse, "calculator error: " ^ msg)
  | Hpf.Sema.Error msg -> (Semantic, msg)
  | Dhpf.Gen.Unsupported msg
  | Dhpf.Layout.Unsupported msg
  | Iset.Codegen.Unsupported msg ->
      (Unsupported, msg)
  | Spmdsim.Predict.Unpredictable msg ->
      (Unsupported, "communication volume not predictable: " ^ msg)
  | Iset.Conj.Too_hard ->
      ( Unsupported,
        "integer-set query too hard: the Omega test ran out of fuel" )
  | Spmdsim.Exec.Error msg -> (Runtime, "runtime error: " ^ msg)
  | Spmdsim.Serial.Error msg -> (Runtime, "serial interpreter error: " ^ msg)
  | Spmdsim.Exec.Deadlock d ->
      (* the diagnostic's lines, without the last newline *)
      (Runtime, String.trim (Spmdsim.Exec.diagnostic_to_string d))
  | Bind_error msg -> (Bind, "bind error: " ^ msg)
  | Proto.Proto_error msg -> (Protocol, "protocol error: " ^ msg)
  | Client.Connect_error msg -> (Protocol, "connect error: " ^ msg)
  | e -> (Runtime, Printexc.to_string e)

let failure_line kind msg =
  match kind with
  | Semantic -> "semantic error: " ^ msg
  | Unsupported -> "unsupported: " ^ msg
  | Parse | Runtime | Bind | Protocol -> msg

(* -- request handling ----------------------------------------------- *)

let source_text st ~label ~source =
  match source with
  | Some s -> s
  | None -> (
      match st.cfg.lookup label with
      | Some s -> s
      | None -> raise (Unknown_source label))

(* compile with a per-request profiler: Phase.global would interleave
   concurrent requests' timings *)
let do_compile ?params st ~label ~source ~opts =
  let text = source_text st ~label ~source in
  let phase = Dhpf.Phase.create () in
  let chk =
    Dhpf.Phase.time phase "parse and semantic analysis" (fun () ->
        Hpf.Sema.analyze_source ?params text)
  in
  let compiled = Dhpf.Gen.compile ~opts ~phase chk in
  let report =
    Report.compile_report ~version:st.cfg.version ~src:label
      ~domains:(Par.domains ()) ~phase
      ~events:(List.length compiled.Dhpf.Gen.cevents)
      ~statements:(List.length compiled.Dhpf.Gen.cprog.Dhpf.Spmd.main)
      ()
  in
  (chk, compiled, report)

let handle_compile st ~label ~source ~opts =
  let _, compiled, report = do_compile st ~label ~source ~opts in
  (* the compiled node program rides along: it is the artifact a
     compilation service exists to produce, and returning it lets
     clients assert warm answers are byte-identical to cold ones *)
  let spmd =
    Obs.span ~cat:"serve" "serve/print spmd" (fun () ->
        Dhpf.Spmd.program_to_string compiled.Dhpf.Gen.cprog)
  in
  Proto.ok [ ("report", report); ("spmd", Obs.Json.Str spmd) ]

let handle_run st ~label ~source ~opts ~nprocs ~params ~engine =
  match Spmdsim.Exec.engine_of_string engine with
  | None ->
      Proto.error ~code:"parse"
        (Printf.sprintf "unknown engine %S; valid engines: %s" engine
           (String.concat ", " Spmdsim.Exec.engine_names))
  | Some engine ->
      let chk, compiled, report = do_compile ~params st ~label ~source ~opts in
      let serial = Spmdsim.Serial.run chk in
      let sim = Spmdsim.Exec.make ~engine ~nprocs compiled.Dhpf.Gen.cprog in
      let stats = Spmdsim.Exec.run sim in
      Proto.ok
        [
          ("report", report);
          ( "run",
            Obs.Json.Obj
              [
                ("nprocs", Obs.Json.int (Spmdsim.Exec.nprocs sim));
                ("engine", Obs.Json.Str (Spmdsim.Exec.engine_to_string engine));
                ("serial_s", Obs.Json.Num serial.Spmdsim.Serial.r_time);
                ("flops", Obs.Json.int serial.Spmdsim.Serial.r_flops);
                ("spmd_s", Obs.Json.Num stats.Spmdsim.Exec.s_time);
                ("msgs", Obs.Json.int stats.Spmdsim.Exec.s_msgs);
                ("bytes", Obs.Json.int stats.Spmdsim.Exec.s_bytes);
                ( "speedup",
                  Obs.Json.Num
                    (serial.Spmdsim.Serial.r_time
                    /. stats.Spmdsim.Exec.s_time) );
              ] );
        ]

(* -- stats op (dhpf-stats/2) ----------------------------------------- *)

(* the memo hit ratio sums every in-memory memo table *)
let cache_ratios () =
  let memo_l, memo_h =
    List.fold_left
      (fun (l, h) (m : Iset.Stats.memo) ->
        (l + Iset.Stats.count m.lookups, h + Iset.Stats.count m.hits))
      (0, 0) Iset.Stats.memos
  in
  let ratio h l = if l = 0 then 0.0 else float_of_int h /. float_of_int l in
  Obs.Json.Obj
    [
      ("memo_hit", Obs.Json.Num (ratio memo_h memo_l));
      ( "disk_hit",
        Obs.Json.Num
          (ratio
             (Iset.Stats.count Iset.Stats.disk_hits)
             (Iset.Stats.count Iset.Stats.disk_lookups)) );
    ]

let window_stats st =
  let now = Unix.gettimeofday () in
  let live =
    Array.to_list st.window
    |> List.filter_map (fun s ->
           match s with
           | Some w when now -. w.w_done <= window_seconds -> Some w
           | _ -> None)
  in
  let handled, rejected =
    List.partition (fun w -> w.w_status <> "overloaded") live
  in
  let errors =
    List.length (List.filter (fun w -> w.w_status <> "ok") handled)
  in
  let sorted f =
    let a = Array.of_list (List.map f handled) in
    Array.sort compare a;
    a
  in
  let services = sorted (fun w -> w.w_service_s) in
  let queues = sorted (fun w -> w.w_queue_s) in
  (* the rate denominator: a daemon younger than the window has only
     been collecting for its uptime *)
  let horizon = Float.max 0.001 (Float.min window_seconds (now -. st.started)) in
  Obs.Json.Obj
    [
      ("seconds", Obs.Json.Num window_seconds);
      ("samples", Obs.Json.int (List.length handled));
      ("rps", Obs.Json.Num (float_of_int (List.length handled) /. horizon));
      ("service_p50_s", Obs.Json.Num (Loadgen.percentile 0.50 services));
      ("service_p95_s", Obs.Json.Num (Loadgen.percentile 0.95 services));
      ("service_p99_s", Obs.Json.Num (Loadgen.percentile 0.99 services));
      ("queue_p50_s", Obs.Json.Num (Loadgen.percentile 0.50 queues));
      ("queue_p95_s", Obs.Json.Num (Loadgen.percentile 0.95 queues));
      ("queue_p99_s", Obs.Json.Num (Loadgen.percentile 0.99 queues));
      ("errors", Obs.Json.int errors);
      ("overloaded", Obs.Json.int (List.length rejected));
    ]

let handle_stats st =
  let counters =
    List.map (fun (n, v) -> (n, Obs.Json.int v)) (Iset.Stats.report ())
  in
  Proto.ok
    [
      ("stats_schema", Obs.Json.Str "dhpf-stats/2");
      ("version", Obs.Json.Str st.cfg.version);
      ("uptime_s", Obs.Json.Num (Unix.gettimeofday () -. st.started));
      ("queue_depth", Obs.Json.int (Atomic.get st.depth));
      ("workers", Obs.Json.int st.cfg.workers);
      ("served", Obs.Json.int (Atomic.get st.served));
      ("rejected", Obs.Json.int (Atomic.get st.rejected));
      ("window", window_stats st);
      ("ratios", cache_ratios ());
      ("iset", Obs.Json.Obj counters);
      ( "diskcache",
        Obs.Json.Obj
          [
            ("enabled", Obs.Json.Bool (Iset.Diskcache.enabled ()));
            ("bytes", Obs.Json.int (Iset.Diskcache.bytes_used ()));
          ] );
      ("metrics", Obs.Metrics.to_json ());
    ]

let handle_dump () =
  Proto.ok
    [
      ("flight", Obs.Recorder.to_json ());
      ("metrics", Obs.Metrics.to_json ());
    ]

let wake st = try ignore (Unix.write st.wake_w (Bytes.make 1 '!') 0 1) with _ -> ()

let begin_stop st =
  if not (Atomic.exchange st.stopping true) then wake st

let dispatch st = function
  | Proto.Ping ->
      Proto.ok
        [
          ("version", Obs.Json.Str st.cfg.version);
          ("workers", Obs.Json.int st.cfg.workers);
        ]
  | Proto.Stats -> handle_stats st
  | Proto.Dump -> handle_dump ()
  | Proto.Shutdown ->
      begin_stop st;
      Proto.ok [ ("stopping", Obs.Json.Bool true) ]
  | Proto.Compile { label; source; opts } ->
      handle_compile st ~label ~source ~opts
  | Proto.Run { label; source; opts; nprocs; params; engine } ->
      handle_run st ~label ~source ~opts ~nprocs ~params ~engine

(* the per-request counter attribution: the iset engine's counters are
   process-global, so under concurrent workers a delta can include a
   neighbour's activity — exact at workers=1, approximate above. The
   process totals are the iset/<name> series of every metrics export. *)
let iset_delta before =
  let d =
    List.filter_map
      (fun (n, v1) ->
        match List.assoc_opt n before with
        | Some v0 when v1 - v0 <> 0 -> Some (n, Obs.Json.int (v1 - v0))
        | None when v1 <> 0 -> Some (n, Obs.Json.int v1)
        | _ -> None)
      (Iset.Stats.report ())
  in
  if d = [] then [] else [ ("iset", Obs.Json.Obj d) ]

(* every response carries its trace id; the telemetry object rides
   inside the compile report when there is one (dhpf-report/2), at the
   top level otherwise *)
let inject_telemetry r ~rid ~telemetry =
  match r with
  | Obs.Json.Obj fields ->
      let has_report = ref false in
      let fields =
        List.map
          (fun (k, v) ->
            match (k, v) with
            | "report", Obs.Json.Obj rf ->
                has_report := true;
                (k, Obs.Json.Obj (rf @ [ ("telemetry", telemetry) ]))
            | _ -> (k, v))
          fields
      in
      Obs.Json.Obj
        (fields
        @ ("rid", Obs.Json.Str rid)
          :: (if !has_report then [] else [ ("telemetry", telemetry) ]))
  | r -> r

let handle st fd ~admitted =
  let t0 = Unix.gettimeofday () in
  let queue_s = Float.max 0.0 (t0 -. admitted) in
  let op = ref "invalid" in
  let resp =
    match Proto.read_json fd with
    | None -> None (* connected, then closed without sending a request *)
    | exception Proto.Proto_error e ->
        Some (Proto.error ~code:"protocol" e, "", Unix.gettimeofday () -. t0)
    | Some v ->
        let rid =
          match Obs.Json.get_str v "rid" with
          | Some r -> r
          | None ->
              Printf.sprintf "r-%d" (Atomic.fetch_and_add st.rid_ctr 1)
        in
        let r, service_s =
          match Proto.request_of_json v with
          | Error e ->
              (Proto.error ~code:"protocol" e, Unix.gettimeofday () -. t0)
          | Ok req ->
              op := Proto.op_name req;
              if Obs.Log.enabled Obs.Log.Debug then
                Obs.Log.debug ~rid
                  ~fields:(fun () ->
                    [
                      ("op", Obs.Str !op);
                      ("queue_wait_s", Obs.Float queue_s);
                    ])
                  "serve.dispatch";
              let iset0 = Iset.Stats.report () in
              let resp =
                Obs.span ~cat:"serve" ("serve/" ^ !op) (fun () ->
                    try dispatch st req
                    with e ->
                      let kind, msg = classify e in
                      let code = failure_code kind in
                      Obs.Log.error ~rid
                        ~fields:(fun () ->
                          [
                            ("op", Obs.Str !op);
                            ("code", Obs.Str code);
                            ("message", Obs.Str msg);
                          ])
                        "serve.error";
                      (* postmortem: freeze the flight ring at the
                         failure *)
                      flight_flush st;
                      Proto.error ~code msg)
              in
              let service_s = Unix.gettimeofday () -. t0 in
              let telemetry =
                Obs.Json.Obj
                  ([
                     ("rid", Obs.Json.Str rid);
                     ("queue_wait_s", Obs.Json.Num queue_s);
                     ("service_s", Obs.Json.Num service_s);
                   ]
                  @ iset_delta iset0)
              in
              (inject_telemetry resp ~rid ~telemetry, service_s)
        in
        Some (r, rid, service_s)
  in
  (match resp with
  | None -> ()
  | Some (r, rid, service_s) ->
      (* everything a later request can observe (flight ring, stats
         window, metrics, served count) is recorded before the client can
         see this response, with the service time its telemetry reports *)
      let status =
        Option.value (Obs.Json.get_str r "status") ~default:"error"
      in
      let status =
        match Obs.Json.get_str r "code" with
        | Some "protocol" -> "protocol"
        | _ -> status
      in
      m_request !op status;
      m_latency !op service_s;
      m_queue_wait !op queue_s;
      window_record st ~op:!op ~status ~queue_s ~service_s;
      (* the log line is also the request's one flight-ring entry *)
      if Obs.Log.enabled Obs.Log.Info then
        Obs.Log.info ~rid
          ~fields:(fun () ->
            [
              ("op", Obs.Str !op);
              ("status", Obs.Str status);
              ("queue_wait_s", Obs.Float queue_s);
              ("service_s", Obs.Float service_s);
            ])
          "serve.complete";
      Atomic.incr st.served;
      Obs.span ~cat:"serve" "serve/write response" (fun () ->
          try Proto.write_json fd r with _ -> ());
      prom_tick st);
  try Unix.close fd with _ -> ()

(* -- worker pool ---------------------------------------------------- *)

(* Worker 0 shares the launching domain with the acceptor, which can
   admit a connection only while worker 0 gives up the domain's runtime
   lock — when it blocks, or at the latest at the next systhread tick
   (50 ms) while it computes. So worker 0 leaves queued connections to
   idle workers on other domains and takes one only when the queue holds
   more than there are idle spawned workers; the acceptor then waits
   behind a compute only when every worker is busy. *)
let rec worker ~first st =
  Mutex.lock st.mu;
  if first then
    while Queue.length st.q <= st.idle && not (Atomic.get st.stopping) do
      Condition.wait st.cond st.mu
    done
  else begin
    st.idle <- st.idle + 1;
    while Queue.is_empty st.q && not (Atomic.get st.stopping) do
      Condition.wait st.cond st.mu
    done;
    st.idle <- st.idle - 1
  end;
  if Queue.is_empty st.q then Mutex.unlock st.mu
    (* stopping, queue drained: exit *)
  else begin
    let fd, admitted = Queue.pop st.q in
    ignore (Atomic.fetch_and_add st.depth (-1));
    Mutex.unlock st.mu;
    m_depth st;
    handle st fd ~admitted;
    worker ~first st
  end

(* -- acceptor ------------------------------------------------------- *)

let admit st fd =
  if Atomic.get st.depth >= st.cfg.max_queue then begin
    (* structured back-pressure: answer here in the acceptor, never
       blocking a worker on an over-admitted connection *)
    (try Proto.write_json fd Proto.overloaded with _ -> ());
    (try Unix.close fd with _ -> ());
    Atomic.incr st.rejected;
    m_request "admit" "overloaded";
    window_record st ~op:"admit" ~status:"overloaded" ~queue_s:0.0
      ~service_s:0.0;
    if Obs.Log.enabled Obs.Log.Warn then
      Obs.Log.warn
        ~fields:(fun () ->
          [
            ("queue_depth", Obs.Int (Atomic.get st.depth));
            ("max_queue", Obs.Int st.cfg.max_queue);
          ])
        "serve.overloaded"
  end
  else begin
    let admitted = Unix.gettimeofday () in
    Mutex.lock st.mu;
    Queue.push (fd, admitted) st.q;
    ignore (Atomic.fetch_and_add st.depth 1);
    (* every idle worker decides: worker 0 may decline (see [worker]) *)
    Condition.broadcast st.cond;
    Mutex.unlock st.mu;
    m_depth st;
    if Obs.Log.enabled Obs.Log.Debug then
      Obs.Log.debug
        ~fields:(fun () ->
          [ ("queue_depth", Obs.Int (Atomic.get st.depth)) ])
        "serve.admit"
  end

let drain_wake st =
  let b = Bytes.create 32 in
  try ignore (Unix.read st.wake_r b 0 32) with _ -> ()

let rec accept_loop st =
  if not (Atomic.get st.stopping) then begin
    (match Unix.select [ st.listen; st.wake_r ] [] [] (-1.0) with
    | rs, _, _ ->
        if List.mem st.wake_r rs then drain_wake st;
        if (not (Atomic.get st.stopping)) && List.mem st.listen rs then begin
          match Unix.accept st.listen with
          | fd, _ -> admit st fd
          | exception
              Unix.Unix_error
                ( ( Unix.EINTR | Unix.EAGAIN | Unix.EWOULDBLOCK
                  | Unix.ECONNABORTED ),
                  _,
                  _ ) ->
              ()
        end
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
    accept_loop st
  end

let acceptor_main st =
  accept_loop st;
  (try Unix.close st.listen with _ -> ());
  (try Unix.unlink st.cfg.socket with _ -> ());
  (* wake every worker so they notice [stopping] and drain out *)
  Mutex.lock st.mu;
  Condition.broadcast st.cond;
  Mutex.unlock st.mu

(* -- socket claim --------------------------------------------------- *)

let bind_error fmt = Printf.ksprintf (fun s -> raise (Bind_error s)) fmt

(* a socket file may be a live server or the droppings of a crashed one;
   only a connect can tell them apart *)
let claim_socket path =
  (match Unix.stat path with
  | { Unix.st_kind = Unix.S_SOCK; _ } ->
      let probe = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      let live =
        try
          Unix.connect probe (Unix.ADDR_UNIX path);
          true
        with Unix.Unix_error _ -> false
      in
      (try Unix.close probe with _ -> ());
      if live then bind_error "%s: a server is already listening" path;
      (try Unix.unlink path with _ -> ())
  | _ -> bind_error "%s: exists and is not a socket" path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ());
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  try
    Unix.bind fd (Unix.ADDR_UNIX path);
    Unix.listen fd 64;
    fd
  with Unix.Unix_error (e, _, _) ->
    (try Unix.close fd with _ -> ());
    bind_error "%s: %s" path (Unix.error_message e)

(* -- lifecycle ------------------------------------------------------ *)

let launch cfg =
  let cfg = { cfg with workers = max 1 cfg.workers } in
  (* a client that hangs up mid-response must cost the daemon an EPIPE,
     not a fatal SIGPIPE *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  Obs.Metrics.enable ();
  (match cfg.log with Some path -> Obs.Log.set_out (Some path) | None -> ());
  if cfg.recorder_slots > 0 then
    Obs.Recorder.start ~capacity:cfg.recorder_slots ();
  (match cfg.disk_cache with
  | Some dir -> Iset.Diskcache.set_dir (Some dir)
  | None -> ());
  let listen = claim_socket cfg.socket in
  let wake_r, wake_w = Unix.pipe () in
  let st =
    {
      cfg;
      listen;
      wake_r;
      wake_w;
      stopping = Atomic.make false;
      mu = Mutex.create ();
      cond = Condition.create ();
      idle = 0;
      q = Queue.create ();
      depth = Atomic.make 0;
      served = Atomic.make 0;
      started = Unix.gettimeofday ();
      rid_ctr = Atomic.make 0;
      rejected = Atomic.make 0;
      window = Array.make window_slots None;
      wpos = Atomic.make 0;
      prom_last = Atomic.make 0.0;
    }
  in
  note st "serve: listening on %s (%d worker%s, queue %d, disk cache %s)@."
    cfg.socket cfg.workers
    (if cfg.workers = 1 then "" else "s")
    cfg.max_queue
    (match Iset.Diskcache.dir () with
    | Some d when Iset.Diskcache.enabled () -> d
    | _ -> "off");
  if Obs.Log.enabled Obs.Log.Info then
    Obs.Log.info
      ~fields:(fun () ->
        [
          ("socket", Obs.Str cfg.socket);
          ("workers", Obs.Int cfg.workers);
          ("max_queue", Obs.Int cfg.max_queue);
          ("version", Obs.Str cfg.version);
        ])
      "serve.start";
  (* the thread library only prints an exception that ends a thread;
     keep it so [wait] re-raises it, as Domain.join does for the others *)
  let failed = Atomic.make None in
  let thread f =
    Thread.create
      (fun () ->
        try f ()
        with e ->
          let bt = Printexc.get_raw_backtrace () in
          ignore (Atomic.compare_and_set failed None (Some (e, bt))))
      ()
  in
  let threads =
    [
      thread (fun () -> acceptor_main st);
      thread (fun () -> worker ~first:true st);
    ]
  in
  let domains =
    List.init (cfg.workers - 1) (fun _ ->
        Domain.spawn (fun () -> worker ~first:false st))
  in
  { st; threads; domains; failed; joined = Atomic.make false }

let queue_depth t = Atomic.get t.st.depth
let request_stop t = begin_stop t.st

let wait t =
  (* Poll instead of parking straight in a join: OCaml signal handlers
     run on the main domain at safe points, and a thread blocked in a
     join never reaches one — a SIGTERM would be recorded but its
     handler (the caller's request_stop) never run. A select reaches a
     safe point on every return: a signal delivered to this thread ends
     it with EINTR, and [begin_stop]'s byte on the wake pipe ends it
     too, so the timeout only bounds a signal taken by another thread.
     It is long because each wake-up needs the runtime lock worker 0
     holds while it computes, and queues ahead of the acceptor for it. *)
  while not (Atomic.get t.st.stopping) do
    try ignore (Unix.select [ t.st.wake_r ] [] [] 0.25)
    with Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done;
  if not (Atomic.exchange t.joined true) then begin
    List.iter Thread.join t.threads;
    List.iter Domain.join t.domains;
    Option.iter
      (fun (e, bt) -> Printexc.raise_with_backtrace e bt)
      (Atomic.get t.failed);
    (try Unix.close t.st.wake_r with _ -> ());
    (try Unix.close t.st.wake_w with _ -> ());
    if Obs.Log.enabled Obs.Log.Info then
      Obs.Log.info
        ~fields:(fun () ->
          [
            ("served", Obs.Int (Atomic.get t.st.served));
            ("rejected", Obs.Int (Atomic.get t.st.rejected));
          ])
        "serve.shutdown";
    (* the postmortem bundle and a final scrape survive the shutdown *)
    flight_flush t.st;
    (match t.st.cfg.prom with
    | Some path -> (
        try Obs.Metrics.write_prometheus path with Sys_error _ -> ())
    | None -> ());
    (match t.st.cfg.log with Some _ -> Obs.Log.close () | None -> ());
    note t.st "serve: stopped after %d request%s@."
      (Atomic.get t.st.served)
      (if Atomic.get t.st.served = 1 then "" else "s")
  end

let stop t =
  request_stop t;
  wait t
