(** Structured tracing and metrics for the compiler and the SPMD
    simulator: a zero-dependency event buffer with Chrome trace-event
    export.

    Two timestamp domains share one buffer, distinguished by category:

    - {e real time}: {!span}, {!instant} and {!counter} stamp events with
      wall-clock microseconds relative to the trace epoch (the first
      {!enable}); the compiler pipeline uses these.
    - {e simulated time}: {!complete}, {!instant_at}, {!flow_start} and
      {!flow_end} take explicit timestamps, which the
      SPMD simulator supplies from its virtual clocks. Tracing only ever
      {e reads} those clocks, so a traced run is bit-identical (values,
      clocks, counters) to an untraced one.

    The disabled path is a single [bool] read: guard hot call sites with
    [if Obs.enabled () then ...] and nothing is allocated when tracing is
    off. Lanes in the exported trace are (pid, tid) pairs: the compiler
    reports on pid 0, each simulation instance claims a fresh pid with one
    tid per simulated processor.

    Every export is a {!Json.t} value printed by the one codec, {!Json}:
    the Chrome trace, the flight-recorder dump, each JSONL log line and
    the metrics export. Files are written through {!write_atomic}. *)

module Json = Json
(** The repository's JSON codec (value type, printer, parser). *)

(** {1 Files} *)

val write_atomic : string -> string -> unit
(** [write_atomic path contents] writes [contents] to a temp file unique
    to this process and call, next to [path], then renames it into place:
    a reader never sees a torn file, and of concurrent writers the last
    rename wins whole. The temp file is removed when the write fails.
    Temp names contain [".tmp."].
    @raise Sys_error when the write or the rename fails. *)

val write_json : string -> Json.t -> unit
(** [write_atomic] of the printed value plus a final newline. *)

(** {1 Event model} *)

type arg =
  | Str of string
  | Int of int
  | Float of float
  | Bool of bool  (** typed span/instant argument values *)

type phase =
  | X  (** complete slice: [e_ts] .. [e_ts +. e_dur] *)
  | I  (** instant *)
  | C  (** counter sample; series are in [e_args] as [Float]s *)
  | FlowStart  (** flow arrow origin, keyed by [e_id] *)
  | FlowEnd  (** flow arrow target ([bp:"e"]), keyed by [e_id] *)
  | Meta of string  (** metadata record ("process_name" / "thread_name") *)

type event = {
  e_ph : phase;
  e_name : string;
  e_cat : string;  (** "" means no category *)
  e_pid : int;
  e_tid : int;
  e_ts : float;  (** microseconds (since epoch, or simulated *1e6) *)
  e_dur : float;  (** microseconds; [X] only *)
  e_id : int;  (** flow identifier; flow events only *)
  e_args : (string * arg) list;
}

(** {1 Lifecycle} *)

val enabled : unit -> bool
(** The one-word guard every instrumentation site checks first. *)

val enable : unit -> unit
(** Start recording. The first call fixes the trace epoch (wall clock). *)

val disable : unit -> unit
(** Stop recording; the buffer is kept for export. *)

val reset : unit -> unit
(** Drop all buffered events and flow/lane bookkeeping; a subsequent
    {!enable} starts a fresh epoch. *)

val now_us : unit -> float
(** Wall-clock microseconds since the trace epoch. *)

(** {1 Real-time events (compiler side)} *)

val span : ?cat:string -> ?args:(unit -> (string * arg) list) -> string -> (unit -> 'a) -> 'a
(** [span name f] runs [f] inside a complete event. Spans nest by timestamp
    containment (no explicit parent links). [args] is evaluated once, at
    span close, and only when tracing is on. When tracing is off this is
    exactly [f ()]. *)

val instant : ?cat:string -> ?args:(string * arg) list -> string -> unit
val counter : string -> (string * float) list -> unit

(** {1 Explicit-timestamp events (simulator side; ts/dur in microseconds)} *)

val complete :
  pid:int -> tid:int -> ts:float -> dur:float ->
  ?cat:string -> ?args:(string * arg) list -> string -> unit

val instant_at :
  pid:int -> tid:int -> ts:float -> ?cat:string ->
  ?args:(string * arg) list -> string -> unit

val next_flow_id : unit -> int
(** Fresh identifier linking one {!flow_start} to one {!flow_end}. *)

val flow_start : pid:int -> tid:int -> ts:float -> id:int -> string -> unit
val flow_end : pid:int -> tid:int -> ts:float -> id:int -> string -> unit

val set_process_name : pid:int -> string -> unit
val set_thread_name : pid:int -> tid:int -> string -> unit

(** {1 Export and inspection} *)

val events : unit -> event list
(** Buffered events in emission order. *)

val events_count : unit -> int

val to_chrome_json : unit -> Json.t
(** The buffer as a Chrome trace-event JSON object ({e JSON Object
    Format}: [{"traceEvents": [...], ...}]), loadable in Perfetto and
    chrome://tracing. Timestamps and durations are microseconds rounded
    to three decimals (nanosecond resolution). *)

val write : string -> unit
(** Write {!to_chrome_json} to a file ({!write_json}). *)

val summary : unit -> string
(** Plain-text table aggregating complete events by (category, name):
    count, total and mean duration, sorted by total within category. *)

(** {1 Flight recorder}

    An always-on bounded ring of recent events for postmortems: writers
    claim a slot with one [fetch_and_add] and store the entry with a
    single pointer write, so recording is lock-free, O(1) and safe from
    any domain. When the ring is full the oldest entries are overwritten.
    Disabled (the default) is one atomic load and zero allocation. The
    dump is a best-effort consistent JSON bundle (schema [dhpf-flight/1]);
    a reader racing a writer sees each slot as either the old or the new
    entry, never a torn one. *)

module Recorder : sig
  val schema : string
  (** ["dhpf-flight/1"] *)

  type entry = {
    fr_ts : float;  (** absolute unix seconds *)
    fr_kind : string;  (** ["log"], ["request"], or caller-chosen *)
    fr_level : string;
    fr_rid : string;  (** [""] when the event has no request id *)
    fr_event : string;
    fr_fields : (string * arg) list;
  }

  val enabled : unit -> bool
  val capacity : unit -> int

  val recorded : unit -> int
  (** Total entries recorded since {!start} (may exceed {!capacity}). *)

  val start : ?capacity:int -> unit -> unit
  (** Allocate the ring (default 1024 slots, floor 16) and reset the
      write index. *)

  val stop : unit -> unit
  (** Drop the ring; recording becomes a no-op again. *)

  val record :
    ?ts:float -> ?kind:string -> ?level:string -> ?rid:string ->
    ?fields:(string * arg) list -> string -> unit
  (** [record event] appends one entry ([ts] defaults to now). No-op when
      disabled. *)

  val entries : unit -> entry list
  (** Current ring contents, oldest first (best-effort under concurrent
      writers). *)

  val to_json : unit -> Json.t
  (** The ring as a [dhpf-flight/1] bundle:
      [{"schema":...,"capacity":N,"recorded":M,"dropped":D,
      "entries":[...]}]. *)

  val write : string -> unit
  (** Write {!to_json} to a file ({!write_json}); safe to call from
      several domains or processes at once. *)
end

(** {1 Structured logging}

    Leveled JSONL event logging (schema [dhpf-log/1]): one JSON object
    per line — [{"schema":"dhpf-log/1","ts":<unix>,"level":"info",
    "rid":"r-3","event":"serve.complete","fields":{...}}] — on a
    mutex-guarded channel flushed per line, so concurrent domains never
    interleave records. Every emitted line also tees into the
    {!Recorder} when it is running. The disabled path is two atomic
    loads and allocates nothing: [fields] is a thunk forced only when a
    sink will consume it. *)

module Log : sig
  val schema : string
  (** ["dhpf-log/1"] *)

  type level = Debug | Info | Warn | Error

  val set_out : string option -> unit
  (** [Some path] opens (append, create) the sink; [Some "-"] logs to
      stderr; [None] closes the current sink. *)

  val close : unit -> unit

  val enabled : level -> bool
  (** True when an [emit] at this level would reach the sink or the
      flight recorder — the guard for call sites whose field computation
      is not free. *)

  val emit :
    ?rid:string -> ?fields:(unit -> (string * arg) list) ->
    level -> string -> unit

  val debug :
    ?rid:string -> ?fields:(unit -> (string * arg) list) -> string -> unit

  val info :
    ?rid:string -> ?fields:(unit -> (string * arg) list) -> string -> unit

  val warn :
    ?rid:string -> ?fields:(unit -> (string * arg) list) -> string -> unit

  val error :
    ?rid:string -> ?fields:(unit -> (string * arg) list) -> string -> unit

  val init_env : unit -> unit
  (** [DHPF_LOG=path] opens the sink ([-] for stderr); [DHPF_LOG_LEVEL]
      sets the minimum level written to it (default [info]; the recorder
      tee ignores the threshold). Called once by the CLI driver. *)
end

(** {1 Metrics}

    The aggregate complement to the event timeline: a process-global
    registry of labelled series — monotone counters, last-value gauges and
    log₂-bucketed histograms — with the same design constraints as
    tracing. The disabled path is a single [bool] read per mutation;
    instrumentation only reads simulated state (never advances clocks), so
    a metered simulation run is bit-identical to a bare one; export is a
    {!Json.t} value.

    Handles are interned by (name, sorted labels): creating the same
    series twice returns the same cell, so instrumentation sites can be
    re-entered freely. Series names are namespaced by subsystem with a
    ["sys/"] prefix (e.g. ["sim/comm_msgs"], ["compiler/phase_s"],
    ["iset/cache hits"]) so independent subsystems can never interleave
    into one series by accident. *)

module Metrics : sig
  (** {2 Lifecycle} *)

  val enabled : unit -> bool
  (** The one-word guard; mutation is a no-op when false. *)

  val enable : unit -> unit
  val disable : unit -> unit

  val reset : unit -> unit
  (** Drop every registered series. Existing handles become detached: they
      can still be written through, but no longer appear in snapshots.
      Sources ({!register_source}) stay registered. *)

  (** {2 Series handles} *)

  type counter
  type gauge
  type histogram

  val counter : ?labels:(string * string) list -> string -> counter
  val gauge : ?labels:(string * string) list -> string -> gauge

  val histogram : ?labels:(string * string) list -> string -> histogram
  (** Log₂-bucketed: bucket 0 holds values [<= 0]; bucket [b] in
      [1..62] holds [(2^(b-33), 2^(b-32)]] (so [2^-32 .. 2^30] is covered
      exactly and the tails clamp into the extreme buckets). *)

  val inc : counter -> float -> unit
  val incr : counter -> unit
  val set : gauge -> float -> unit
  val observe : histogram -> float -> unit

  val bucket_of : float -> int
  val bucket_upper : int -> float
  (** Inclusive upper edge of a bucket ([0.] for bucket 0). *)

  (** {2 Snapshots} *)

  type histo = {
    hs_count : int;
    hs_sum : float;
    hs_min : float;  (** 0 when the histogram is empty *)
    hs_max : float;
    hs_buckets : (int * int) list;
        (** nonzero (bucket index, count) pairs, ascending by index *)
  }

  type value = VCounter of float | VGauge of float | VHisto of histo

  type sample = {
    m_name : string;
    m_labels : (string * string) list;  (** sorted by key *)
    m_value : value;
  }

  val register_source : (unit -> sample list) -> unit
  (** Register series that live in their owning subsystem rather than in
      registry cells: the integer-set engine's counters ([iset/<name>]) and
      the global phase profiler's totals ([compiler/phase_s{phase}]). Each
      source is read by every {!snapshot} taken while metrics are enabled
      (a disabled registry exports none of them); its labels must be sorted
      by key and its series distinct from every cell's. *)

  val snapshot : unit -> sample list
  (** Every registered series, then every source's (while enabled), sorted
      by (name, labels) — the stable order used by every export. *)

  val merge : sample list -> sample list -> sample list
  (** Pointwise merge of two snapshots: counters and histogram cells add
      (bucket-wise), gauges take the right operand. All three rules are
      associative — asserted by the property tests — so sweep results can
      be folded in any grouping.
      @raise Invalid_argument when one series name carries two types. *)

  val percentile : float -> histo -> float
  (** [percentile q h] estimates the [q]-quantile from the buckets: the
      upper edge of the bucket holding rank [ceil (q * count)], clamped
      into [[hs_min, hs_max]]. Monotone in [q]; exact at [q >= 1.]; off by
      at most one power of two in between. [0.] on an empty histogram. *)

  (** {2 Export} *)

  val report : unit -> string
  (** Plain-text table of every series (histograms with count/sum/min/
      p50/p90/p99/max). *)

  val to_json : unit -> Json.t
  (** The snapshot as stable machine-readable JSON, schema
      [dhpf-metrics/1]:
      [{"schema":"dhpf-metrics/1","metrics":[{"name":...,"labels":{...},
      "type":"counter"|"gauge"|"histogram",...}]}]. Values are exact
      (the {!Json} number rule). *)

  val samples_to_json : sample list -> Json.t
  (** {!to_json} over an explicit (e.g. merged) snapshot. *)

  val write : string -> unit
  (** Write {!to_json} to a file ({!write_json}). *)

  val to_prometheus : sample list -> string
  (** The snapshot in Prometheus text exposition format: names are
      sanitized to [[a-zA-Z0-9_:]] (["serve/latency_s"] becomes
      [serve_latency_s]), one [# TYPE] line per family, histograms as
      cumulative [_bucket{le="..."}] series (log₂ upper edges plus
      [+Inf]) with [_sum] and [_count]. *)

  val write_prometheus : string -> unit
  (** Write {!to_prometheus} of the current {!snapshot} to a file
      ({!write_atomic}). *)
end
