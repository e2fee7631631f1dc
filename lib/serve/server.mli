(** The [dhpfc serve] daemon: a persistent compilation service over a
    Unix-domain socket speaking {!Proto} ([dhpf-serve/1]).

    One process owns the socket. An acceptor admits connections into a
    bounded FIFO queue; past [max_queue] pending requests it replies
    with the structured ["overloaded"] response instead of letting
    clients hang. A fixed set of workers drains the queue; each request
    compiles with a private {!Dhpf.Phase} profiler, so concurrent
    compiles never interleave their phase accounting, while both cache
    layers — the in-memory {!Iset.Cache} tables of each worker's domain
    and the on-disk {!Iset.Diskcache} — outlive the request, which is
    the whole point: the second compile of a program is served out of
    cache.

    Domain layout: one domain per worker, counting the launching one.
    {!launch} starts the acceptor and worker 0 as systhreads on the
    domain that calls it, and workers 1..n-1 as spawned domains, so a
    [workers = 1] daemon runs on a single domain. Idle domains are not
    free in OCaml 5: each one joins every minor collection of the
    others. The price is admission latency: while worker 0 computes it
    holds the launching domain's runtime lock, and the acceptor admits
    a connection or answers ["overloaded"] only when worker 0 blocks or
    the 50 ms systhread tick preempts it, so about one tick later. With
    several workers, worker 0 takes a queued request only when no worker
    on another domain is idle, which keeps it free, and the acceptor
    prompt, until every worker is busy.

    Contract for processes that embed a daemon: the {!Iset.Cache} memo
    tables and the {!Spmdsim.Runtime} lane marker are [Domain.DLS], so
    worker 0 shares the launching domain's tables. They are safe because
    only one thread on a domain mutates them — the acceptor never calls
    into Iset, Dhpf or Spmdsim. The caller must not compile, simulate or
    touch the integer-set caches on the launching domain while the
    daemon is serving a request; doing so while it is idle (or after
    {!wait}) is fine, and other domains are always fine.

    Shutdown is cooperative: {!request_stop} (safe to call from a signal
    handler: one atomic store and one pipe write) stops admission, the
    acceptor unlinks the socket, and the workers finish every request
    already queued before exiting.

    Telemetry: every request carries a trace id ([rid] — the client's,
    or a generated [r-<n>]) threaded through the structured log
    ({!Obs.Log}), the flight recorder ({!Obs.Recorder}) and a
    [telemetry] section injected into the response (inside the
    [dhpf-report/2] compile report when there is one, top-level
    otherwise) with queue-wait and service latency plus per-request
    integer-set counter deltas (exact at one worker, approximate under
    concurrency — the counters are process-global). The [stats] op
    answers [dhpf-stats/2]: lifetime totals plus rolling-window gauges
    (RPS, p50/p95/p99 service and queue-wait latency, errors, overload
    rejections), memo/disk hit ratios and a metrics snapshot; [dump]
    returns the flight-recorder bundle and a metrics snapshot. Each
    snapshot carries the engine's [iset/<name>] series, read from
    {!Iset.Stats} as it answers. All instrumentation
    only reads compiler/simulator state, so responses are byte-identical
    with telemetry on or off. *)

type config = {
  version : string;  (** reported by [ping] and in compile reports *)
  socket : string;  (** Unix-domain socket path *)
  workers : int;
      (** workers (floored at 1); the daemon runs on this many domains,
          the launching one included *)
  max_queue : int;  (** pending requests admitted before [overloaded] *)
  disk_cache : string option;
      (** [Some dir] points {!Iset.Diskcache} there; [None] leaves the
          process-wide setting (environment or CLI flag) alone *)
  lookup : string -> string option;
      (** resolve a request's [src] label to program text (the CLI passes
          its built-in benchmark table); the server never reads
          server-side files *)
  quiet : bool;  (** suppress the startup/shutdown notes on stderr *)
  log : string option;
      (** [Some path] opens the process-wide {!Obs.Log} JSONL sink there
          ([-] for stderr) and the server emits
          [serve.start]/[serve.admit]/[serve.dispatch]/[serve.complete]/
          [serve.error]/[serve.overloaded]/[serve.shutdown] events;
          [None] leaves the sink alone *)
  prom : string option;
      (** [Some path] rewrites a Prometheus text exposition of the
          metrics registry there (atomically, throttled to once a
          second) after requests and at shutdown *)
  flight_dump : string option;
      (** [Some path] writes the flight-recorder bundle there on a
          worker exception and at shutdown (so a SIGTERM leaves a
          postmortem) *)
  recorder_slots : int;
      (** flight-recorder ring capacity; [0] leaves the process-wide
          recorder alone *)
}

exception Bind_error of string
(** The socket could not be claimed: the path is a live server's socket,
    an existing non-socket file, or bind/listen failed. The CLI maps
    this to its own exit code. *)

type t

val launch : config -> t
(** Claim the socket (replacing a stale socket file left by a crashed
    server — liveness is probed with a connect), enable the metrics
    registry, point the disk cache, and start the acceptor and worker 0
    as threads on the calling domain and the other workers as domains.
    @raise Bind_error when the socket cannot be claimed. *)

val queue_depth : t -> int

val request_stop : t -> unit
(** Begin shutdown; returns immediately. Idempotent. *)

val wait : t -> unit
(** Block until the server has fully stopped (acceptor and workers
    joined, socket unlinked). Polls in [select] calls of at most 0.25 s
    that a signal or {!request_stop} ends early, so a signal handler that
    calls {!request_stop} runs while the caller waits here. Re-raises an
    exception that escaped the acceptor or a worker. *)

val stop : t -> unit
(** [request_stop] then [wait]. *)
