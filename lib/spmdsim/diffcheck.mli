(** Differential harness.

    Every sweep compiles a checked mini-HPF program once, then runs a
    reference and its candidate runs under the same schedules — first
    fault-free, then once per seeded fault schedule — and reports the
    first difference as a structured result naming the seed that exposed
    it. The sweeps differ only in their reference and candidates:

    - {!run}: the serial oracle ({!Serial}) against the SPMD execution,
      element by element within a relative tolerance;
    - {!engines}: the interpreter against the closure and native engines;
    - {!domains}: the 1-domain run against sharded domain pools;
    - {!crashes}: the fault-free closure run against crash-recovered runs.

    Simulation against simulation is exact: the statistics' totals, then
    per-processor clocks (except under crash recovery, which moves clocks
    by design), then the per-pair communication cells, which every run
    tallies, then every element and declared scalar bit for bit.

    A compiler or runtime-protocol bug that only manifests under message
    drop, delay, stragglers or crashes is pinned to a reproducible
    seed. *)

type divergence = {
  dv_seed : int option;  (** [None]: the fault-free run already diverged *)
  dv_array : string;
  dv_index : int list;
  dv_expected : float;  (** the reference's value *)
  dv_got : float;  (** the candidate's value *)
}

type outcome =
  | Pass of { runs : int }  (** every candidate run matched the reference *)
  | Diverged of divergence  (** an element or scalar differs *)
  | Crashed of { seed : int option; error : string }
      (** a run raised (deadlock diagnostics are pretty-printed), or a
          counter, clock or comm cell differs; [error] names the field and
          both values *)

val run :
  ?engine:Exec.engine ->
  ?nprocs:int ->
  ?opts:Dhpf.Gen.options ->
  ?spec_of_seed:(int -> Fault.spec) ->
  seeds:int list ->
  Hpf.Sema.checked ->
  outcome
(** [run ~seeds chk] compiles [chk], validates the fault-free execution
    against the serial oracle, then replays under one fault schedule per
    seed ([spec_of_seed] defaults to {!Fault.default}). [nprocs] defaults
    to 4; [engine] selects the SPMD executor (default [`Closure]). Every
    array element of every run must match the oracle within a relative
    tolerance of 1e-6, since reductions may associate differently; one
    run counts per schedule. *)

val engines :
  ?nprocs:int ->
  ?opts:Dhpf.Gen.options ->
  ?spec_of_seed:(int -> Fault.spec) ->
  seeds:int list ->
  Hpf.Sema.checked ->
  outcome
(** Engine-differential mode: run the tree-walking interpreter, then the
    closure engine and the native engine, on the same program —
    fault-free first, then under one fault schedule per seed, every
    engine seeing the identical schedule — and require both to match the
    interpreter {e exactly}: identical counters, bit-identical
    per-processor clocks, identical per-pair communication cells, and
    bit-identical array elements and scalars. A counter, clock or cell
    mismatch is reported as [Crashed] naming the field and both values; a
    value mismatch as [Diverged] ([dv_expected] is the interpreter's
    value). One run counts per schedule. This is the executable form of
    the engines' equivalence contract (see {!Exec.make}). *)

val domains :
  ?engine:Exec.engine ->
  ?nprocs:int ->
  ?opts:Dhpf.Gen.options ->
  ?domain_counts:int list ->
  ?spec_of_seed:(int -> Fault.spec) ->
  seeds:int list ->
  Hpf.Sema.checked ->
  outcome
(** Domain-differential mode: for each fault schedule (fault-free first,
    then one per seed) run the program once on a single domain and once
    per entry of [domain_counts] (default [\[2; 4\]]) with the
    processors sharded across that many OCaml domains, and require every
    multi-domain run to match the 1-domain one {e exactly}: bit-identical
    array elements, scalars and per-processor clocks, identical counters,
    and an identical per-pair communication table. One run counts per
    domain count and schedule. This is the executable form of the
    scheduler's determinism contract ({!Runtime.sched_run});
    oversubscription is deliberate — domain
    counts above the physical core count must still be bit-identical.
    [engine] defaults to [`Closure]. *)

val crashes :
  ?nprocs:int ->
  ?opts:Dhpf.Gen.options ->
  ?ckpt_every:int ->
  ?spec_of_seed:(int -> Fault.spec) ->
  seeds:int list ->
  Hpf.Sema.checked ->
  outcome
(** Crash-differential mode: run a fault-free closure-engine oracle, then
    for each seed x engine run {!Checkpoint.run} under a pure-crash
    schedule ([spec_of_seed] defaults to [crash_prob = 0.02],
    [crash_max = 3]) with a coordinated checkpoint every [ckpt_every]
    (default 8) communication operations, and require the recovered run to
    match the oracle {e exactly}: bit-identical elements and scalars, and
    an identical per-pair communication table (first transmissions only,
    so crashes and replays must not perturb it — the property behind
    [--check-comm] staying exact under crash injection). Clocks are not
    compared: recovery charges lost work and restart latency to them.
    Two runs count per seed; the reference is not counted. *)

val pp_against : string -> Format.formatter -> outcome -> unit
(** [pp_against reference] prints an outcome; [Pass] names [reference],
    the run every candidate was compared with ("the serial oracle" for
    {!run}, "the interpreter" for {!engines}, "the 1-domain run" for
    {!domains}, "the fault-free closure run" for {!crashes}). *)

val pp_outcome : Format.formatter -> outcome -> unit
(** [pp_against "the reference"]. *)
