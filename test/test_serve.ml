(* The serve subsystem end to end: protocol round trips against an
   in-process server, error triage, admission control, shutdown, and the
   property the service exists for — a second server over the same disk
   cache answers byte-identically to the first, out of cache.  The last
   test drives the installed dhpfc binary twice as separate processes
   against a shared --disk-cache directory. *)

open Serve

let counter = ref 0

let fresh_dir () =
  incr counter;
  let d =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "dhpf-serve-test-%d-%d" (Unix.getpid ()) !counter)
  in
  (try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  d

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter
        (fun e -> rm_rf (Filename.concat path e))
        (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let small = Codes.all_small ()
let lookup name = List.assoc_opt name small
let opts = Dhpf.Gen.default_options

let mk_cfg ?(workers = 2) ?(max_queue = 16) ?(lookup = lookup) ?disk_cache
    ?log ?prom ?flight_dump ?(recorder_slots = 0) ~socket () =
  {
    Server.version = "test";
    socket;
    workers;
    max_queue;
    disk_cache;
    lookup;
    quiet = true;
    log;
    prom;
    flight_dump;
    recorder_slots;
  }

(* launch, block until the ping answers, run the body, always stop *)
let with_server ?workers ?max_queue ?lookup ?disk_cache ?log ?prom
    ?flight_dump ?recorder_slots f =
  let dir = fresh_dir () in
  let socket = Filename.concat dir "s.sock" in
  let srv =
    Server.launch
      (mk_cfg ?workers ?max_queue ?lookup ?disk_cache ?log ?prom ?flight_dump
         ?recorder_slots ~socket ())
  in
  Fun.protect
    ~finally:(fun () ->
      Server.stop srv;
      rm_rf dir)
    (fun () ->
      Alcotest.(check bool)
        "server ready" true
        (Client.wait_ready ~socket ());
      f socket)

let status r = Option.value (Obs.Json.get_str r "status") ~default:"?"
let code r = Option.value (Obs.Json.get_str r "code") ~default:"?"

let check_error ~code:expect r =
  Alcotest.(check string) "status" "error" (status r);
  Alcotest.(check string) "code" expect (code r)

(* -- basic round trips ---------------------------------------------- *)

let compile_via socket label =
  let r =
    Client.request ~socket (Proto.Compile { label; source = None; opts })
  in
  Alcotest.(check string) "status" "ok" (status r);
  match Obs.Json.get_str r "spmd" with
  | Some s -> s
  | None -> Alcotest.fail "no spmd text"

let test_ping () =
  with_server @@ fun socket ->
  let r = Client.request ~socket Proto.Ping in
  Alcotest.(check string) "status" "ok" (status r);
  Alcotest.(check string)
    "schema" Proto.schema
    (Option.value (Obs.Json.get_str r "schema") ~default:"?");
  Alcotest.(check string)
    "version" "test"
    (Option.value (Obs.Json.get_str r "version") ~default:"?")

let test_compile_builtin () =
  with_server @@ fun socket ->
  let r =
    Client.request ~socket
      (Proto.Compile { label = "jacobi"; source = None; opts })
  in
  Alcotest.(check string) "status" "ok" (status r);
  let report =
    match Obs.Json.get r "report" with
    | Some rep -> rep
    | None -> Alcotest.fail "compile response has no report"
  in
  Alcotest.(check string)
    "report schema" "dhpf-report/2"
    (Option.value (Obs.Json.get_str report "schema") ~default:"?");
  (match Obs.Json.get_int report "events" with
  | Some n -> Alcotest.(check bool) "events > 0" true (n > 0)
  | None -> Alcotest.fail "report has no events count");
  match Obs.Json.get_str r "spmd" with
  | Some s -> Alcotest.(check bool) "spmd nonempty" true (String.length s > 0)
  | None -> Alcotest.fail "compile response has no spmd text"

let test_compile_inline () =
  with_server @@ fun socket ->
  let r =
    Client.request ~socket
      (Proto.Compile
         {
           label = "inline-figure2";
           source = Some (Codes.figure2 ());
           opts;
         })
  in
  Alcotest.(check string) "status" "ok" (status r);
  let report =
    match Obs.Json.get r "report" with
    | Some rep -> rep
    | None -> Alcotest.fail "no report"
  in
  Alcotest.(check string)
    "labelled src" "inline-figure2"
    (Option.value (Obs.Json.get_str report "src") ~default:"?")

let test_run () =
  with_server @@ fun socket ->
  let r =
    Client.request ~socket
      (Proto.Run
         {
           label = "figure2";
           source = None;
           opts;
           nprocs = 4;
           params = [];
           engine = "closure";
         })
  in
  Alcotest.(check string) "status" "ok" (status r);
  let run =
    match Obs.Json.get r "run" with
    | Some run -> run
    | None -> Alcotest.fail "run response has no run section"
  in
  Alcotest.(check (option int)) "nprocs" (Some 4) (Obs.Json.get_int run "nprocs");
  Alcotest.(check (option string))
    "engine" (Some "closure")
    (Obs.Json.get_str run "engine");
  (match Obs.Json.get_int run "msgs" with
  | Some n -> Alcotest.(check bool) "msgs >= 0" true (n >= 0)
  | None -> Alcotest.fail "no msgs");
  match Obs.Json.get_num run "speedup" with
  | Some s -> Alcotest.(check bool) "speedup finite" true (Float.is_finite s)
  | None -> Alcotest.fail "no speedup"

(* -- error triage ---------------------------------------------------- *)

let test_unknown_source () =
  with_server @@ fun socket ->
  check_error ~code:"parse"
    (Client.request ~socket
       (Proto.Compile { label = "no-such-program"; source = None; opts }))

let test_bad_source_text () =
  with_server @@ fun socket ->
  check_error ~code:"parse"
    (Client.request ~socket
       (Proto.Compile
          { label = "junk"; source = Some "real a(; this is not hpf"; opts }))

let test_bad_engine () =
  with_server @@ fun socket ->
  check_error ~code:"parse"
    (Client.request ~socket
       (Proto.Run
          {
            label = "figure2";
            source = None;
            opts;
            nprocs = 4;
            params = [];
            engine = "quantum";
          }))

(* an Omega query out of fuel is a structured "unsupported", and the
   worker that hit it keeps serving *)
let test_too_hard () =
  let lookup = function
    | "too-hard" -> raise Iset.Conj.Too_hard
    | l -> lookup l
  in
  with_server ~workers:1 ~lookup @@ fun socket ->
  let r =
    Client.request ~socket
      (Proto.Compile { label = "too-hard"; source = None; opts })
  in
  check_error ~code:"unsupported" r;
  Alcotest.(check (option string))
    "message names the Omega fuel"
    (Some "integer-set query too hard: the Omega test ran out of fuel")
    (Obs.Json.get_str r "message");
  (* the next request on the same worker succeeds *)
  ignore (compile_via socket "figure2")

let test_protocol_errors () =
  with_server @@ fun socket ->
  (* a syntactically valid request with an op no constructor produces *)
  check_error ~code:"protocol"
    (Client.request_json ~socket
       (Obs.Json.Obj [ ("op", Obs.Json.Str "frobnicate") ]));
  check_error ~code:"protocol"
    (Client.request_json ~socket (Obs.Json.Obj [ ("note", Obs.Json.Str "no op") ]));
  (* a frame that is not JSON at all, below the client's builders *)
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with _ -> ())
    (fun () ->
      Unix.connect fd (Unix.ADDR_UNIX socket);
      Proto.write_frame fd "{this is not json";
      match Proto.read_json fd with
      | Some r -> check_error ~code:"protocol" r
      | None -> Alcotest.fail "server closed without a protocol error")

(* numeric fields must be integers the JSON printer writes exactly: an
   ill-typed or out-of-range nprocs or parameter value is a protocol
   error, never a silent default or a wrapped int; an absent nprocs is
   still 4 *)
let test_numeric_fields () =
  let run fields =
    Obs.Json.of_string (Printf.sprintf {|{"op":"run","src":"figure2"%s}|} fields)
  in
  List.iter
    (fun fields ->
      match Proto.request_of_json (run fields) with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted %s" fields)
    [ {|,"nprocs":"8"|}; {|,"nprocs":1e19|}; {|,"nprocs":6e18|}; {|,"nprocs":2.5|};
      {|,"nprocs":0|}; {|,"params":[["n",1e19]]|}; {|,"params":[["n",4611686018427387904]]|};
      {|,"params":[["n","3"]]|} ];
  (match Proto.request_of_json (run {|,"params":[["n",-9007199254740992]]|}) with
  | Ok (Proto.Run { nprocs; params; _ }) ->
      Alcotest.(check int) "absent nprocs defaults" 4 nprocs;
      Alcotest.(check (list (pair string int))) "2^53 bound is inclusive"
        [ ("n", -9007199254740992) ] params
  | _ -> Alcotest.fail "valid run request refused");
  with_server @@ fun socket ->
  check_error ~code:"protocol" (Client.request_json ~socket (run {|,"nprocs":"8"|}));
  let r = Client.request_json ~socket (run "") in
  Alcotest.(check string) "status" "ok" (status r);
  Alcotest.(check (option int)) "ran at the default" (Some 4)
    (Option.bind (Obs.Json.get r "run") (fun run -> Obs.Json.get_int run "nprocs"))

(* a maximal frame of '[' is refused by the JSON depth cap at once, and
   the worker that read it keeps serving *)
let test_deep_frame () =
  with_server ~workers:1 @@ fun socket ->
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with _ -> ())
    (fun () ->
      Unix.connect fd (Unix.ADDR_UNIX socket);
      let t0 = Unix.gettimeofday () in
      Proto.write_frame fd (String.make Proto.max_frame '[');
      (match Proto.read_json fd with
      | Some r -> check_error ~code:"protocol" r
      | None -> Alcotest.fail "server closed without a protocol error");
      let dt = Unix.gettimeofday () -. t0 in
      if dt > 1.0 then Alcotest.failf "deep frame answered after %.2f s" dt);
  let r = Client.request ~socket Proto.Ping in
  Alcotest.(check string) "next request served" "ok" (status r)

(* -- whole-frame fuzzing ---------------------------------------------- *)

(* Raw bytes are written to one end of a socketpair, whose sending side is
   then shut down, and the daemon's reading path runs on the other end: [Proto.read_json],
   then [Proto.request_of_json]. Whatever the bytes, the outcome is a
   clean EOF, a [Proto_error], or a request or its [Error]; no other
   exception escapes, and a receive timeout turns a hang into a failure. *)
type frame_outcome = Eof | Bad_frame | Request | Refused

let frame_outcome bytes =
  let w, r = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      Unix.close w;
      Unix.close r)
    (fun () ->
      Unix.setsockopt_float r Unix.SO_RCVTIMEO 5.0;
      let n = String.length bytes in
      if Unix.write_substring w bytes 0 n <> n then Alcotest.fail "short write";
      Unix.shutdown w Unix.SHUTDOWN_SEND;
      match Proto.read_json r with
      | None -> Eof
      | Some j -> (
          match Proto.request_of_json j with Ok _ -> Request | Error _ -> Refused)
      | exception Proto.Proto_error _ -> Bad_frame)

let framed payload =
  let n = String.length payload in
  String.init 4 (fun i -> Char.chr ((n lsr (8 * (3 - i))) land 0xFF)) ^ payload

let request_payloads =
  List.map
    (fun r -> Obs.Json.to_string (Proto.request_to_json r))
    [
      Proto.Ping;
      Proto.Stats;
      Proto.Dump;
      Proto.Shutdown;
      Proto.Compile { label = "figure2"; source = None; opts };
      Proto.Compile
        { label = "<inline>"; source = Some "program t\n  x = \"\\u00e9\"\nend\n"; opts };
      Proto.Run
        {
          label = "jacobi";
          source = None;
          opts;
          nprocs = 8;
          params = [ ("n", 12); ("iters", -3) ];
          engine = "native";
        };
    ]

(* every valid payload reads back as its request *)
let test_valid_frames () =
  List.iter
    (fun p ->
      if frame_outcome (framed p) <> Request then Alcotest.failf "refused %s" p)
    request_payloads

(* bytes shaped like JSON requests, so mutations reach the parser and the
   request decoder rather than stopping at the length header *)
let json_bytes_gen =
  QCheck.Gen.(
    let alphabet = {|{}[]":,-+.0123456789eEtrufalsn\ ucopsr|} in
    string_size ~gen:(oneofl (List.of_seq (String.to_seq alphabet))) (int_range 0 48))

let mutate_gen s =
  QCheck.Gen.(
    if s = "" then return s
    else
      map2
        (fun i c -> String.mapi (fun j x -> if j = i then c else x) s)
        (int_range 0 (String.length s - 1))
        char)

let fuzz_frame_gen =
  QCheck.Gen.(
    oneofl request_payloads >>= fun p ->
    let f = framed p in
    frequency
      [
        (* random bytes, and random bytes behind a matching header *)
        (2, string_size ~gen:char (int_range 0 64));
        (2, map framed (string_size ~gen:char (int_range 0 64)));
        (2, map framed json_bytes_gen);
        (* truncations of a valid frame *)
        (2, map (fun k -> String.sub f 0 k) (int_range 0 (String.length f - 1)));
        (* one-byte mutations: anywhere in the frame, or in the payload
           with the header fixed up *)
        (3, mutate_gen f);
        (3, map framed (mutate_gen p));
      ])

let prop_fuzz_frames =
  QCheck.Test.make ~count:3000 ~name:"fuzzed frames: EOF, Proto_error or a decoded request"
    (QCheck.make ~print:String.escaped fuzz_frame_gen)
    (fun bytes ->
      (* any outcome passes; an escaping exception fails the property *)
      ignore (frame_outcome bytes : frame_outcome);
      true)

(* a truncated frame never decodes: EOF before the header, Proto_error
   after it *)
let test_truncated_frames () =
  List.iter
    (fun p ->
      let f = framed p in
      for k = 0 to String.length f - 1 do
        let want = if k = 0 then Eof else Bad_frame in
        if frame_outcome (String.sub f 0 k) <> want then
          Alcotest.failf "truncation of %s at %d" p k
      done)
    request_payloads

let test_stats () =
  with_server @@ fun socket ->
  ignore
    (Client.request ~socket
       (Proto.Compile { label = "figure2"; source = None; opts }));
  let r = Client.request ~socket Proto.Stats in
  Alcotest.(check string) "status" "ok" (status r);
  (match Obs.Json.get_int r "served" with
  | Some n -> Alcotest.(check bool) "served >= 1" true (n >= 1)
  | None -> Alcotest.fail "no served counter");
  (match Obs.Json.get r "iset" with
  | Some (Obs.Json.Obj kvs) ->
      Alcotest.(check bool)
        "iset counters include disk lookups" true
        (List.mem_assoc "disk lookups" kvs)
  | _ -> Alcotest.fail "no iset counter object");
  match Obs.Json.get r "metrics" with
  | Some (Obs.Json.Obj _) -> ()
  | _ -> Alcotest.fail "no embedded metrics registry"

(* -- admission control and shutdown ---------------------------------- *)

let test_overloaded () =
  (* max_queue 0: every admission decision rejects, so any request —
     including a ping — gets the structured overloaded response.
     with_server's readiness ping would never succeed, so launch by
     hand. *)
  let dir = fresh_dir () in
  let socket = Filename.concat dir "s.sock" in
  let srv = Server.launch (mk_cfg ~max_queue:0 ~socket ()) in
  Fun.protect
    ~finally:(fun () ->
      Server.stop srv;
      rm_rf dir)
    (fun () ->
      let rec attempt n =
        match Client.request ~socket Proto.Ping with
        | r -> r
        | exception (Client.Connect_error _ | Proto.Proto_error _)
          when n > 0 ->
            Unix.sleepf 0.02;
            attempt (n - 1)
      in
      let r = attempt 50 in
      Alcotest.(check string) "status" "overloaded" (status r))

let test_shutdown_op () =
  let dir = fresh_dir () in
  let socket = Filename.concat dir "s.sock" in
  let srv = Server.launch (mk_cfg ~socket ()) in
  Fun.protect
    ~finally:(fun () ->
      Server.stop srv;
      rm_rf dir)
    (fun () ->
      Alcotest.(check bool)
        "server ready" true
        (Client.wait_ready ~socket ());
      let r = Client.request ~socket Proto.Shutdown in
      Alcotest.(check string) "status" "ok" (status r);
      Alcotest.(check (option bool))
        "stopping" (Some true)
        (Obs.Json.get_bool r "stopping");
      Server.wait srv;
      Alcotest.(check bool)
        "socket unlinked" false
        (Sys.file_exists socket);
      match Client.request ~socket Proto.Ping with
      | _ -> Alcotest.fail "server still answering after shutdown"
      | exception Client.Connect_error _ -> ())

let test_socket_conflict () =
  with_server @@ fun socket ->
  (* the socket belongs to a live server: a second launch must refuse *)
  match Server.launch (mk_cfg ~socket ()) with
  | srv ->
      Server.stop srv;
      Alcotest.fail "second server claimed a live socket"
  | exception Server.Bind_error _ -> ()

(* -- domain layout ----------------------------------------------------- *)

let compile_all socket =
  List.map (fun (label, _) -> (label, compile_via socket label)) small

(* a one-worker daemon serves on the domain that launched it: no domain
   is spawned at all. Its answers are the reference a three-worker
   daemon under concurrent clients must reproduce byte for byte. *)
let test_worker_on_launching_domain () =
  let seen = Atomic.make (-1) in
  let lookup l =
    Atomic.set seen (Domain.self () :> int);
    lookup l
  in
  let reference =
    with_server ~workers:1 ~lookup @@ fun socket ->
    let answers = compile_all socket in
    Alcotest.(check int)
      "worker 0 ran on the launching domain"
      (Domain.self () :> int)
      (Atomic.get seen);
    answers
  in
  let clients = 3 in
  let answers = Array.make clients [] in
  with_server ~workers:3 (fun socket ->
      Par.spawn_join clients (fun c -> answers.(c) <- compile_all socket));
  Array.iter
    (List.iter2
       (fun (label, want) (label', got) ->
         Alcotest.(check string) "same program" label label';
         Alcotest.(check string) (label ^ " spmd byte-identical") want got)
       reference)
    answers

(* Holding a worker on request "hold" in a CPU-bound loop, like a long
   compile: no blocking call, so on the launching domain the acceptor
   runs only when the systhread tick (50 ms) preempts the loop. The
   client side of these tests runs on a domain of its own, as a client
   process would, so what is timed is the daemon's delay and not this
   thread's own wait for the runtime lock it shares with worker 0. *)
let admission_bound_s = 1.0

type hold = {
  release : bool Atomic.t;
  held_on : int Atomic.t;  (* domain that took "hold" *)
  served_on : int Atomic.t;  (* domain of the latest lookup *)
}

let holding_lookup () =
  let h =
    {
      release = Atomic.make false;
      held_on = Atomic.make (-1);
      served_on = Atomic.make (-1);
    }
  in
  let lookup l =
    let self = (Domain.self () :> int) in
    Atomic.set h.served_on self;
    match l with
    | "hold" ->
        Atomic.set h.held_on self;
        while not (Atomic.get h.release) do
          ()
        done;
        lookup "figure2"
    | l -> lookup l
  in
  (h, lookup)

let send socket label =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX socket);
  Proto.write_json fd
    (Proto.request_to_json (Proto.Compile { label; source = None; opts }));
  fd

let answer fd =
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      match Proto.read_json fd with Some r -> status r | None -> "closed")

let rec await what p n =
  if not (p ()) then
    if n = 0 then Alcotest.fail ("timed out waiting for " ^ what)
    else begin
      Unix.sleepf 0.01;
      await what p (n - 1)
    end

let timed f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let check_within what waited =
  Alcotest.(check bool)
    (Printf.sprintf "%s within %.1f s (took %.3f s)" what admission_bound_s
       waited)
    true
    (waited < admission_bound_s)

(* back-pressure with the acceptor sharing worker 0's domain: while
   worker 0 computes request A, B queues, C is turned away within the
   bound and without waiting for A (measured here: one tick, about
   50 ms), and releasing A lets both A and B finish *)
let test_backpressure_one_worker () =
  let h, lookup = holding_lookup () in
  let dir = fresh_dir () in
  let socket = Filename.concat dir "s.sock" in
  let srv =
    Server.launch (mk_cfg ~workers:1 ~max_queue:1 ~lookup ~socket ())
  in
  let clients () =
    Alcotest.(check bool) "server ready" true (Client.wait_ready ~socket ());
    let a = send socket "hold" in
    await "A to reach the worker" (fun () -> Atomic.get h.held_on >= 0) 500;
    let b = send socket "figure2" in
    await "B to queue" (fun () -> Server.queue_depth srv = 1) 500;
    let c, waited =
      timed (fun () -> status (Client.request ~socket Proto.Ping))
    in
    Alcotest.(check string) "C overloaded" "overloaded" c;
    check_within "C answered" waited;
    Atomic.set h.release true;
    Alcotest.(check string) "A completes" "ok" (answer a);
    Alcotest.(check string) "B completes" "ok" (answer b);
    Alcotest.(check (option int))
      "rejected exactly C" (Some 1)
      (Obs.Json.get_int (Client.request ~socket Proto.Stats) "rejected")
  in
  Fun.protect
    ~finally:(fun () ->
      (* release the worker even when a check failed, or stop would hang *)
      Atomic.set h.release true;
      Server.stop srv;
      rm_rf dir)
    (fun () ->
      Domain.join (Domain.spawn clients);
      let (), took = timed (fun () -> Server.stop srv) in
      Alcotest.(check bool) "stop returns promptly" true (took < 2.0))

(* with more than one worker, worker 0 leaves work to an idle spawned
   worker, so a compute does not land on the acceptor's domain while
   another domain idles: A runs off the launching domain, and a ping
   sent meanwhile is answered within the bound *)
let test_worker0_defers () =
  let h, lookup = holding_lookup () in
  let launching = (Domain.self () :> int) in
  with_server ~workers:2 ~lookup @@ fun socket ->
  let clients () =
    (* worker 0 serves everything until the spawned worker first waits
       on the queue; once that worker has answered, give it time to
       wait again *)
    let rec until_spawned_serves n =
      ignore (compile_via socket "figure2");
      if Atomic.get h.served_on = launching then
        if n = 0 then Alcotest.fail "the spawned worker never served"
        else begin
          Unix.sleepf 0.02;
          until_spawned_serves (n - 1)
        end
    in
    until_spawned_serves 250;
    Unix.sleepf 0.1;
    let a = send socket "hold" in
    Fun.protect
      ~finally:(fun () -> Atomic.set h.release true)
      (fun () ->
        await "A to reach a worker" (fun () -> Atomic.get h.held_on >= 0) 500;
        let b, waited =
          timed (fun () -> status (Client.request ~socket Proto.Ping))
        in
        Alcotest.(check string) "B served" "ok" b;
        check_within "B answered" waited);
    Alcotest.(check string) "A completes" "ok" (answer a)
  in
  Domain.join (Domain.spawn clients);
  Alcotest.(check bool)
    "A ran off the launching domain" true
    (Atomic.get h.held_on <> launching)

(* -- warm service over a shared disk cache --------------------------- *)

let iset_counter stats key =
  match Obs.Json.get stats "iset" with
  | Some iset -> Option.value (Obs.Json.get_int iset key) ~default:0
  | None -> 0

let disk_hit_ratio stats =
  match
    Option.bind (Obs.Json.get stats "ratios") (fun r ->
        Obs.Json.get_num r "disk_hit")
  with
  | Some d -> d
  | None -> Alcotest.fail "stats response has no disk hit ratio"

let test_warm_second_server () =
  let cache = fresh_dir () in
  let saved_dir = Iset.Diskcache.dir () in
  Fun.protect
    ~finally:(fun () ->
      Iset.Diskcache.set_dir saved_dir;
      rm_rf cache)
    (fun () ->
      (* first server generation populates the disk cache. Worker 0 runs
         on this domain and memoizes into its tables, which earlier tests
         have warmed; a fresh process starts them empty. *)
      Iset.Cache.clear_all ();
      let cold =
        with_server ~disk_cache:cache @@ fun socket ->
        compile_via socket "jacobi"
      in
      (* simulate a process restart: in-memory tables and counters go,
         the disk cache stays *)
      Iset.Cache.clear_all ();
      Iset.Stats.reset ();
      let warm, warm_stats =
        with_server ~disk_cache:cache @@ fun socket ->
        let spmd = compile_via socket "jacobi" in
        (spmd, Client.request ~socket Proto.Stats)
      in
      Alcotest.(check string) "warm spmd byte-identical" cold warm;
      Alcotest.(check bool)
        "warm served from disk" true
        (iset_counter warm_stats "disk hits" > 0);
      (* a third generation over the same cache squeezed to the 64 KiB
         floor: a novel compile's stores trip the disk GC, which evicts
         the oldest entries, so the replayed compile misses where the warm
         generation hit *)
      Iset.Cache.clear_all ();
      Iset.Stats.reset ();
      let saved_max = Iset.Diskcache.max_bytes () in
      Iset.Diskcache.set_max_bytes 1;
      let squeezed, squeezed_stats =
        Fun.protect
          ~finally:(fun () -> Iset.Diskcache.set_max_bytes saved_max)
          (fun () ->
            with_server ~disk_cache:cache @@ fun socket ->
            ignore (compile_via socket "tomcatv");
            let spmd = compile_via socket "jacobi" in
            (spmd, Client.request ~socket Proto.Stats))
      in
      Alcotest.(check string) "squeezed spmd byte-identical" cold squeezed;
      Alcotest.(check bool)
        "squeezed cache evicts" true
        (iset_counter squeezed_stats "disk evictions" > 0);
      Alcotest.(check bool)
        "squeezed hit ratio below warm" true
        (disk_hit_ratio squeezed_stats < disk_hit_ratio warm_stats);
      (* and both match a plain batch compile with every cache off. This
         compiles on the launching domain, which the daemon contract
         allows only while no daemon is serving: both are stopped here. *)
      Iset.Cache.set_enabled false;
      let direct =
        Fun.protect
          ~finally:(fun () -> Iset.Cache.set_enabled true)
          (fun () ->
            let chk =
              Hpf.Sema.analyze_source (List.assoc "jacobi" small)
            in
            let compiled =
              Dhpf.Gen.compile ~opts ~phase:(Dhpf.Phase.create ()) chk
            in
            Dhpf.Spmd.program_to_string compiled.Dhpf.Gen.cprog)
      in
      Alcotest.(check string) "matches uncached batch compile" direct cold)

(* -- cross-process warm compile through the dhpfc binary -------------- *)

(* resolve relative to this executable, not the cwd: dune runs tests
   from the build directory, a bare `./test_serve.exe` may not *)
let dhpfc =
  Filename.concat
    (Filename.dirname Sys.executable_name)
    (Filename.concat ".." (Filename.concat "bin" "dhpfc.exe"))

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let test_cross_process_warm () =
  if not (Sys.file_exists dhpfc) then
    Alcotest.skip ()
  else begin
    let dir = fresh_dir () in
    Fun.protect
      ~finally:(fun () -> rm_rf dir)
      (fun () ->
        let cache = Filename.concat dir "cache" in
        let out n = Filename.concat dir n in
        let run args redirect =
          Sys.command
            (Printf.sprintf "%s %s %s 2>/dev/null" dhpfc args redirect)
        in
        Alcotest.(check int)
          "cold compile exits 0" 0
          (run
             (Printf.sprintf "compile figure2 --show-spmd --disk-cache %s"
                cache)
             ("> " ^ out "cold.txt"));
        Alcotest.(check int)
          "warm compile exits 0" 0
          (run
             (Printf.sprintf
                "compile figure2 --show-spmd --disk-cache %s --report-json %s"
                cache (out "report.json"))
             ("> " ^ out "warm.txt"));
        Alcotest.(check string)
          "warm process output byte-identical"
          (read_file (out "cold.txt"))
          (read_file (out "warm.txt"));
        let report = Obs.Json.of_string (read_file (out "report.json")) in
        let counters =
          match Obs.Json.get report "cache" with
          | Some c -> Option.value (Obs.Json.get c "counters") ~default:Obs.Json.Null
          | None -> Obs.Json.Null
        in
        match Obs.Json.get_int counters "disk hits" with
        | Some hits ->
            Alcotest.(check bool) "cross-process disk hits" true (hits > 0)
        | None -> Alcotest.fail "report has no disk hits counter")
  end

(* -- dhpfc run: one differential sweep per invocation ----------------- *)

(* every pair of --diff* flags is a usage error (exit 2) naming both
   flags, refused before the program is even parsed *)
let test_one_diff_sweep () =
  if not (Sys.file_exists dhpfc) then Alcotest.skip ()
  else begin
    let dir = fresh_dir () in
    Fun.protect
      ~finally:(fun () -> rm_rf dir)
      (fun () ->
        let err = Filename.concat dir "stderr.txt" in
        let flags =
          [ "--diff"; "--diff-engines"; "--diff-domains"; "--diff-crashes" ]
        in
        List.iteri
          (fun i a ->
            List.iteri
              (fun j b ->
                if i < j then begin
                  let rc =
                    Sys.command
                      (Printf.sprintf
                         "%s run figure2 %s 1 %s 1 >/dev/null 2>%s" dhpfc a b
                         err)
                  in
                  Alcotest.(check int) (a ^ " with " ^ b ^ " exits 2") 2 rc;
                  let msg = read_file err in
                  let has needle =
                    let n = String.length needle in
                    let rec go k =
                      k + n <= String.length msg
                      && (String.sub msg k n = needle || go (k + 1))
                    in
                    go 0
                  in
                  Alcotest.(check bool)
                    (Printf.sprintf "message names %s and %s" a b)
                    true
                    (has (a ^ " and " ^ b))
                end)
              flags)
          flags)
  end

(* -- dhpfc compile: one count, every export ------------------------- *)

(* the --metrics file and the dhpf-report/2 document of one compile read
   the same counters and phase totals: every iset/<n> series equals the
   report's cache.counters.<n>, and the compiler/phase_s labels are the
   report's phase list *)
let test_metrics_match_report () =
  if not (Sys.file_exists dhpfc) then Alcotest.skip ()
  else begin
    let dir = fresh_dir () in
    Fun.protect
      ~finally:(fun () -> rm_rf dir)
      (fun () ->
        let m = Filename.concat dir "metrics.json"
        and rp = Filename.concat dir "report.json" in
        Alcotest.(check int)
          "compile exits 0" 0
          (Sys.command
             (Printf.sprintf
                "%s compile jacobi --metrics %s --report-json %s 2>/dev/null"
                dhpfc m rp));
        let module J = Obs.Json in
        let list v k = Option.value (J.get_list v k) ~default:[] in
        let series = list (J.of_string (read_file m)) "metrics" in
        let report = J.of_string (read_file rp) in
        let counters =
          Option.bind (J.get report "cache") (fun c -> J.get c "counters")
          |> Option.value ~default:J.Null
        in
        let isets =
          List.filter_map
            (fun s ->
              match J.get_str s "name" with
              | Some n when String.starts_with ~prefix:"iset/" n ->
                  Some (String.sub n 5 (String.length n - 5), s)
              | _ -> None)
            series
        in
        Alcotest.(check bool) "iset series exported" true (isets <> []);
        List.iter
          (fun (n, s) ->
            Alcotest.(check (option int))
              ("iset/" ^ n)
              (J.get_int counters n)
              (Option.map int_of_float (J.get_num s "value")))
          isets;
        let labels =
          List.filter_map
            (fun s ->
              if J.get_str s "name" = Some "compiler/phase_s" then
                Option.bind (J.get s "labels") (fun l -> J.get_str l "phase")
              else None)
            series
        in
        Alcotest.(check (list string))
          "compiler/phase_s labels = report phases"
          (List.filter_map (fun p -> J.get_str p "phase") (list report "phases"))
          labels)
  end

(* -- the dhpfc serve binary under load ------------------------------- *)

(* concurrent clients, each request one of the small built-ins as inline
   source, every other one a full simulated run *)
let mixed_request ~client ~seq =
  let name, text = List.nth small ((client + seq) mod List.length small) in
  if (client + seq) mod 2 = 1 then
    Proto.Run
      {
        label = name;
        source = Some text;
        opts;
        nprocs = 4;
        params = [];
        engine = "closure";
      }
  else Proto.Compile { label = name; source = Some text; opts }

(* The CLI daemon with every telemetry sink routed to a temp dir. SIGTERM
   goes through dhpfc's own handler, which must drain and exit 0 leaving a
   parseable log, Prometheus file and flight dump behind. *)
let test_cli_daemon () =
  if not (Sys.file_exists dhpfc) then Alcotest.skip ()
  else begin
    let dir = fresh_dir () in
    Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
    let file n = Filename.concat dir n in
    let socket = file "s.sock" and log = file "serve.log.jsonl" in
    let prom = file "serve.prom" and flight = file "flight.json" in
    let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
    let pid =
      Fun.protect
        ~finally:(fun () -> Unix.close null)
        (fun () ->
          Unix.create_process dhpfc
            [|
              dhpfc; "serve"; "--socket"; socket; "--workers"; "2"; "--quiet";
              "--log"; log; "--prom"; prom; "--flight-dump"; flight;
            |]
            null null null)
    in
    let exit_status = ref (Unix.WEXITED (-1)) in
    let answers =
      Fun.protect
        ~finally:(fun () ->
          Unix.kill pid Sys.sigterm;
          exit_status := snd (Unix.waitpid [] pid))
        (fun () ->
          Alcotest.(check bool)
            "daemon ready" true
            (Client.wait_ready ~socket ());
          List.init 4 (fun client ->
              Domain.spawn (fun () ->
                  List.init 3 (fun seq ->
                      Client.request ~socket (mixed_request ~client ~seq))))
          |> List.concat_map Domain.join)
    in
    Alcotest.(check int) "answers" 12 (List.length answers);
    List.iter
      (fun r -> Alcotest.(check string) "status" "ok" (status r))
      answers;
    Alcotest.(check bool)
      "SIGTERM exits 0" true
      (!exit_status = Unix.WEXITED 0);
    let lines =
      String.split_on_char '\n' (read_file log)
      |> List.filter (fun l -> String.trim l <> "")
    in
    Alcotest.(check bool) "log nonempty" true (lines <> []);
    List.iter
      (fun l ->
        let v = Obs.Json.of_string l in
        Alcotest.(check bool)
          "dhpf-log/1 line with ts, level and event" true
          (Obs.Json.get_str v "schema" = Some "dhpf-log/1"
          && Obs.Json.get_num v "ts" <> None
          && Obs.Json.get_str v "level" <> None
          && Obs.Json.get_str v "event" <> None))
      lines;
    Alcotest.(check bool)
      "prometheus file has TYPE lines" true
      (List.exists
         (fun l -> String.starts_with ~prefix:"# TYPE " l)
         (String.split_on_char '\n' (read_file prom)));
    Alcotest.(check (option string))
      "flight dump schema" (Some "dhpf-flight/1")
      (Obs.Json.get_str (Obs.Json.of_string (read_file flight)) "schema")
  end

(* -- telemetry: trace ids, stats v2, flight recorder ------------------ *)

let test_telemetry_section () =
  with_server @@ fun socket ->
  let r =
    Client.request ~rid:"my-trace" ~socket
      (Proto.Compile { label = "jacobi"; source = None; opts })
  in
  Alcotest.(check string) "status" "ok" (status r);
  Alcotest.(check (option string))
    "response echoes rid" (Some "my-trace") (Obs.Json.get_str r "rid");
  let report =
    match Obs.Json.get r "report" with
    | Some rep -> rep
    | None -> Alcotest.fail "no report"
  in
  let tel =
    match Obs.Json.get report "telemetry" with
    | Some t -> t
    | None -> Alcotest.fail "report has no telemetry section"
  in
  Alcotest.(check (option string))
    "telemetry rid" (Some "my-trace") (Obs.Json.get_str tel "rid");
  (match Obs.Json.get_num tel "queue_wait_s" with
  | Some q -> Alcotest.(check bool) "queue_wait_s >= 0" true (q >= 0.)
  | None -> Alcotest.fail "no queue_wait_s");
  (match Obs.Json.get_num tel "service_s" with
  | Some s -> Alcotest.(check bool) "service_s >= 0" true (s >= 0.)
  | None -> Alcotest.fail "no service_s");
  (* a generated rid when the client sends none *)
  let r2 = Client.request ~socket Proto.Ping in
  match Obs.Json.get_str r2 "rid" with
  | Some rid -> Alcotest.(check bool) "generated rid" true (rid <> "")
  | None -> Alcotest.fail "ping response has no rid"

let test_stats_v2 () =
  with_server @@ fun socket ->
  ignore
    (Client.request ~socket
       (Proto.Compile { label = "figure2"; source = None; opts }));
  ignore
    (Client.request ~socket
       (Proto.Compile { label = "figure2"; source = None; opts }));
  let r = Client.request ~socket Proto.Stats in
  Alcotest.(check string) "status" "ok" (status r);
  Alcotest.(check (option string))
    "stats schema" (Some "dhpf-stats/2")
    (Obs.Json.get_str r "stats_schema");
  (match Obs.Json.get_num r "uptime_s" with
  | Some u -> Alcotest.(check bool) "uptime >= 0" true (u >= 0.)
  | None -> Alcotest.fail "no uptime_s");
  let w =
    match Obs.Json.get r "window" with
    | Some w -> w
    | None -> Alcotest.fail "no window gauges"
  in
  (match
     ( Obs.Json.get_num w "service_p50_s",
       Obs.Json.get_num w "service_p95_s",
       Obs.Json.get_num w "service_p99_s" )
   with
  | Some p50, Some p95, Some p99 ->
      Alcotest.(check bool)
        "percentiles ordered" true
        (0. <= p50 && p50 <= p95 && p95 <= p99)
  | _ -> Alcotest.fail "missing service percentiles");
  (match (Obs.Json.get_num w "rps", Obs.Json.get_int w "samples") with
  | Some rps, Some n ->
      Alcotest.(check bool) "rps positive" true (rps > 0.);
      Alcotest.(check bool) "window samples >= 2" true (n >= 2)
  | _ -> Alcotest.fail "missing rps/samples");
  (* the memo ratio is hits over lookups summed over all seven memo
     tables, the relation-level and loop-nest ones included *)
  let sum suffix =
    List.fold_left
      (fun acc t -> acc + iset_counter r (t ^ suffix))
      0
      [ "sat"; "simplify"; "gist"; "implies"; "subset"; "rel"; "codegen" ]
  in
  if Iset.Cache.enabled () then begin
    Alcotest.(check bool)
      "relation memo consulted" true
      (iset_counter r "rel lookups" > 0);
    Alcotest.(check bool)
      "loop-nest memo consulted" true
      (iset_counter r "codegen lookups" > 0)
  end;
  (* the metrics export reads the engine counters where they live, so the
     same response's iset object and metrics series agree *)
  let series name =
    Option.bind (Obs.Json.get r "metrics") (fun m ->
        List.find_opt
          (fun s -> Obs.Json.get_str s "name" = Some name)
          (Option.value (Obs.Json.get_list m "metrics") ~default:[]))
  in
  (match
     Option.bind (series "iset/sat lookups") (fun s ->
         Obs.Json.get_num s "value")
   with
  | Some v ->
      Alcotest.(check (float 0.0))
        "metrics iset/sat lookups = iset sat lookups"
        (float_of_int (iset_counter r "sat lookups"))
        v
  | None -> Alcotest.fail "metrics export has no iset/sat lookups series");
  let lookups = sum " lookups" in
  let expected =
    if lookups = 0 then 0.
    else float_of_int (sum " hits") /. float_of_int lookups
  in
  match Obs.Json.get r "ratios" with
  | Some rt -> (
      match (Obs.Json.get_num rt "memo_hit", Obs.Json.get_num rt "disk_hit") with
      | Some m, Some d ->
          Alcotest.(check bool)
            "ratios in [0,1]" true
            (m >= 0. && m <= 1. && d >= 0. && d <= 1.);
          Alcotest.(check (float 1e-12)) "memo_hit over all tables" expected m
      | _ -> Alcotest.fail "missing hit ratios")
  | None -> Alcotest.fail "no ratios"

let test_dump_op () =
  with_server ~recorder_slots:64 @@ fun socket ->
  ignore
    (Client.request ~rid:"dump-probe" ~socket
       (Proto.Compile { label = "figure2"; source = None; opts }));
  let r = Client.request ~socket Proto.Dump in
  Alcotest.(check string) "status" "ok" (status r);
  let flight =
    match Obs.Json.get r "flight" with
    | Some f -> f
    | None -> Alcotest.fail "dump has no flight bundle"
  in
  Alcotest.(check (option string))
    "flight schema" (Some "dhpf-flight/1")
    (Obs.Json.get_str flight "schema");
  let entries =
    match Obs.Json.get_list flight "entries" with
    | Some es -> es
    | None -> Alcotest.fail "flight bundle has no entries"
  in
  Alcotest.(check bool) "entries nonempty" true (entries <> []);
  Alcotest.(check bool)
    "request summary recorded" true
    (List.exists
       (fun e ->
         Obs.Json.get_str e "kind" = Some "request"
         && Obs.Json.get_str e "rid" = Some "dump-probe")
       entries);
  match Obs.Json.get r "metrics" with
  | Some (Obs.Json.Obj _) -> ()
  | _ -> Alcotest.fail "dump has no metrics snapshot"

let test_dump_on_exception () =
  let dir = fresh_dir () in
  let socket = Filename.concat dir "s.sock" in
  let flight = Filename.concat dir "flight.json" in
  let srv =
    Server.launch (mk_cfg ~recorder_slots:64 ~flight_dump:flight ~socket ())
  in
  Fun.protect
    ~finally:(fun () ->
      Server.stop srv;
      rm_rf dir)
    (fun () ->
      Alcotest.(check bool)
        "server ready" true
        (Client.wait_ready ~socket ());
      check_error ~code:"parse"
        (Client.request ~rid:"boom" ~socket
           (Proto.Compile
              { label = "broken"; source = Some "not hpf at all ("; opts }));
      Alcotest.(check bool)
        "flight dump written on failure" true
        (Sys.file_exists flight);
      let v = Obs.Json.of_string (read_file flight) in
      Alcotest.(check (option string))
        "dump schema" (Some "dhpf-flight/1")
        (Obs.Json.get_str v "schema");
      match Obs.Json.get_list v "entries" with
      | Some entries ->
          Alcotest.(check bool)
            "error event in dump" true
            (List.exists
               (fun e ->
                 Obs.Json.get_str e "event" = Some "serve.error"
                 && Obs.Json.get_str e "rid" = Some "boom")
               entries)
      | None -> Alcotest.fail "dump has no entries")

let test_log_lines () =
  let dir = fresh_dir () in
  let socket = Filename.concat dir "s.sock" in
  let log = Filename.concat dir "serve.log.jsonl" in
  let srv = Server.launch (mk_cfg ~log ~socket ()) in
  Alcotest.(check bool) "server ready" true (Client.wait_ready ~socket ());
  ignore
    (Client.request ~rid:"log-probe" ~socket
       (Proto.Compile { label = "figure2"; source = None; opts }));
  Server.stop srv;
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let lines =
        String.split_on_char '\n' (read_file log)
        |> List.filter (fun l -> String.trim l <> "")
      in
      Alcotest.(check bool) "log nonempty" true (lines <> []);
      let parsed = List.map Obs.Json.of_string lines in
      List.iter
        (fun v ->
          Alcotest.(check (option string))
            "line schema" (Some "dhpf-log/1") (Obs.Json.get_str v "schema");
          Alcotest.(check bool) "line has ts" true (Obs.Json.get_num v "ts" <> None);
          Alcotest.(check bool)
            "line has level" true
            (Obs.Json.get_str v "level" <> None);
          Alcotest.(check bool)
            "line has event" true
            (Obs.Json.get_str v "event" <> None))
        parsed;
      let has event =
        List.exists (fun v -> Obs.Json.get_str v "event" = Some event) parsed
      in
      Alcotest.(check bool) "serve.start logged" true (has "serve.start");
      Alcotest.(check bool) "serve.complete logged" true (has "serve.complete");
      Alcotest.(check bool) "serve.shutdown logged" true (has "serve.shutdown");
      Alcotest.(check bool)
        "rid threaded into log" true
        (List.exists
           (fun v -> Obs.Json.get_str v "rid" = Some "log-probe")
           parsed))

(* the acceptance invariant: telemetry must be inert — the same compile
   answers byte-identically with every sink lit up *)
let test_telemetry_inert () =
  let plain =
    with_server @@ fun socket -> compile_via socket "jacobi"
  in
  let dir = fresh_dir () in
  let socket = Filename.concat dir "s.sock" in
  let srv =
    Server.launch
      (mk_cfg
         ~log:(Filename.concat dir "log.jsonl")
         ~prom:(Filename.concat dir "prom.txt")
         ~flight_dump:(Filename.concat dir "flight.json")
         ~recorder_slots:256 ~socket ())
  in
  let lit =
    Fun.protect
      ~finally:(fun () ->
        Server.stop srv;
        rm_rf dir)
      (fun () ->
        Alcotest.(check bool)
          "server ready" true
          (Client.wait_ready ~socket ());
        compile_via socket "jacobi")
  in
  Alcotest.(check string) "spmd identical with telemetry on" plain lit

let test_flight_wraparound () =
  Obs.Recorder.start ~capacity:16 ();
  Fun.protect
    ~finally:(fun () -> Obs.Recorder.stop ())
    (fun () ->
      for i = 0 to 39 do
        Obs.Recorder.record
          ~fields:[ ("i", Obs.Int i) ]
          (Printf.sprintf "e-%d" i)
      done;
      Alcotest.(check int) "capacity" 16 (Obs.Recorder.capacity ());
      Alcotest.(check int) "recorded" 40 (Obs.Recorder.recorded ());
      let es = Obs.Recorder.entries () in
      Alcotest.(check int) "ring keeps capacity entries" 16 (List.length es);
      Alcotest.(check string)
        "oldest surviving entry" "e-24"
        (List.hd es).Obs.Recorder.fr_event;
      Alcotest.(check string)
        "newest entry" "e-39"
        (List.nth es 15).Obs.Recorder.fr_event;
      let v = Obs.Recorder.to_json () in
      Alcotest.(check (option int)) "dropped" (Some 24) (Obs.Json.get_int v "dropped");
      match Obs.Json.get_list v "entries" with
      | Some entries -> Alcotest.(check int) "json entries" 16 (List.length entries)
      | None -> Alcotest.fail "bundle has no entries")

let () =
  Alcotest.run "serve"
    [
      ( "protocol",
        [
          Alcotest.test_case "ping" `Quick test_ping;
          Alcotest.test_case "compile builtin" `Quick test_compile_builtin;
          Alcotest.test_case "compile inline" `Quick test_compile_inline;
          Alcotest.test_case "run" `Quick test_run;
          Alcotest.test_case "stats" `Quick test_stats;
        ] );
      ( "errors",
        [
          Alcotest.test_case "unknown source" `Quick test_unknown_source;
          Alcotest.test_case "bad source text" `Quick test_bad_source_text;
          Alcotest.test_case "bad engine" `Quick test_bad_engine;
          Alcotest.test_case "protocol errors" `Quick test_protocol_errors;
          Alcotest.test_case "deep frame" `Quick test_deep_frame;
          Alcotest.test_case "numeric fields" `Quick test_numeric_fields;
          Alcotest.test_case "valid frames" `Quick test_valid_frames;
          Alcotest.test_case "truncated frames" `Quick test_truncated_frames;
          QCheck_alcotest.to_alcotest prop_fuzz_frames;
          Alcotest.test_case "omega out of fuel" `Quick test_too_hard;
        ] );
      ( "lifecycle",
        [
          Alcotest.test_case "overloaded" `Quick test_overloaded;
          Alcotest.test_case "shutdown op" `Quick test_shutdown_op;
          Alcotest.test_case "socket conflict" `Quick test_socket_conflict;
          Alcotest.test_case "worker 0 on launching domain" `Quick
            test_worker_on_launching_domain;
          Alcotest.test_case "back-pressure at one worker" `Quick
            test_backpressure_one_worker;
          Alcotest.test_case "worker 0 defers to idle domains" `Quick
            test_worker0_defers;
          Alcotest.test_case "dhpfc serve under load, SIGTERM" `Slow
            test_cli_daemon;
        ] );
      ( "telemetry",
        [
          Alcotest.test_case "telemetry section + rid" `Quick
            test_telemetry_section;
          Alcotest.test_case "stats v2 gauges" `Quick test_stats_v2;
          Alcotest.test_case "dump op" `Quick test_dump_op;
          Alcotest.test_case "dump on exception" `Quick
            test_dump_on_exception;
          Alcotest.test_case "log lines parse" `Quick test_log_lines;
          Alcotest.test_case "telemetry inert" `Quick test_telemetry_inert;
          Alcotest.test_case "flight ring wraparound" `Quick
            test_flight_wraparound;
        ] );
      ( "warm",
        [
          Alcotest.test_case "second server over same cache" `Slow
            test_warm_second_server;
          Alcotest.test_case "cross-process warm compile" `Slow
            test_cross_process_warm;
        ] );
      ( "cli",
        [
          Alcotest.test_case "one --diff* sweep per run" `Quick
            test_one_diff_sweep;
          Alcotest.test_case "metrics match the report" `Quick
            test_metrics_match_report;
        ] );
    ]
