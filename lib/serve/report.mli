(** The stable machine-readable compile report, schema [dhpf-report/2]:
    the JSON twin of [dhpfc compile --report], emitted by
    [--report-json] and embedded verbatim in serve compile responses.

    Shape:
    [{"schema":"dhpf-report/2","version":...,"src":...,"domains":n,
      "total_s":x,"phases":[{"phase":label,"seconds":x},...],
      "events":n,"statements":n,
      "cache":{"enabled":b,"counters":{name:int,...}},
      "diskcache":{"enabled":b,"dir":...,"max_bytes":n,"bytes":n},
      "telemetry":{...}?}]

    [/2] adds the optional [telemetry] object the daemon injects into
    serve responses (request id, queue-wait and service latency,
    integer-set/disk-cache counter deltas); a CLI [--report-json] never
    carries it, so local reports stay byte-stable run to run.

    Phase rows follow the profiler's label order; cache counters are the
    integer-set engine's global measurement window
    ({!Iset.Stats.report}), which the CLI resets at subcommand entry and
    a server never resets (a serve report shows process-lifetime
    counters — the interesting deltas are per-series in
    [Obs.Metrics]). *)

val schema : string
(** ["dhpf-report/2"]. *)

val compile_report :
  ?telemetry:Obs.Json.t ->
  version:string ->
  src:string ->
  domains:int ->
  phase:Dhpf.Phase.t ->
  events:int ->
  statements:int ->
  unit ->
  Obs.Json.t
