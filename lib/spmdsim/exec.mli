(** SPMD execution facade: runs the compiler's {!Dhpf.Spmd} programs on a
    simulated distributed-memory machine through one of three engines.

    [`Closure] (the default, {!Compile}) and [`Native] ({!Native}) run
    the one lowering of the program ({!Imp.lower}: integer names resolved
    to array slots, global parameters folded to constants) over dense
    per-processor [float array] blocks. The closure engine turns it into
    OCaml closures, so per-iteration cost is a closure call instead of an
    AST match with hashtable lookups; the native engine emits it as OCaml
    source, compiled out-of-process and dynlinked, so the inner loops run
    as straight-line machine code. [`Interp] is the original tree-walking
    interpreter, kept as the differential oracle.

    All engines share {!Runtime}'s transport and scheduler and charge
    clock time in the same order: runs are bit-identical in element values
    and identical in the communication tally and its totals (the
    engine-differential property in the test suite asserts this, including
    under fault injection).

    Each processor runs as an effect-handler fiber with its own virtual
    clock; sends are buffered (non-blocking), receives block until the
    matching message exists. Receive completion time is
    [max(local clock + recv overhead, arrival)] with
    [arrival = sender clock at send + alpha + bytes*beta] — a LogGP-style
    model. Scalar and array reductions are synchronizing collectives priced
    as binary trees.

    Ownership is recomputed from the layout descriptors, so a [Local]
    access to a non-owned element, or a read of never-communicated
    non-local data, raises {!Error} — executing compiled code under the
    simulator doubles as a compiler correctness check.

    What a run yields — {!stats}, the {!comm_cell} table, {!Error},
    {!Crash}, {!Deadlock} and its {!diagnostic} — is declared once, in
    {!Outcome}; this module and {!Runtime} include it, so their types and
    exceptions are one. *)

include module type of struct
  include Outcome
end

type engine = [ `Closure | `Interp | `Native ]

val engine_names : string list
(** Valid engine selector strings, in display order:
    ["closure"; "interp"; "native"]. *)

val engine_of_string : string -> engine option
val engine_to_string : engine -> string

type sim

val make :
  ?engine:engine ->
  ?machine:Machine.t ->
  ?faults:Fault.spec ->
  ?domains:int ->
  nprocs:int ->
  ?params:(string * int) list ->
  Dhpf.Spmd.program ->
  sim
(** Instantiate the machine: evaluate startup parameter bindings (with
    [number_of_processors() = nprocs]), size the processor grid, compute
    each processor's [m$k] / [vm$k] coordinates, and allocate storage.
    [params] binds the program's [`FromEnv] parameters and raises
    {!Error} on any other name. [engine] selects the
    executor (default [`Closure]; [`Interp] is the oracle; [`Native]
    emits, compiles and dynlinks a standalone OCaml kernel — see
    {!Native} for the build cache and its environment knobs).

    [faults] injects a deterministic adversarial transport (see {!Fault}):
    message delay, bounded drop-with-retransmit (priced by the
    {!Machine.t} timeout/retry/backoff fields) and per-processor
    straggler clock skew. Delivery matches per-channel sequence numbers,
    so computed values are identical to the fault-free run — only timing
    and retransmission statistics change.

    [domains] (default [Par.domains ()], i.e. [DHPF_DOMAINS] or 1) shards
    the processors across that many OCaml domains ({!Runtime.sched_run});
    any count produces bit-identical values, clocks, tallies and stall
    diagnoses. *)

val nprocs : sim -> int
(** Actual processor count (the product of the grid extents). *)

val run : sim -> stats
(** Execute the program on every processor to completion. Each sim is
    single-use: running it a second time would start from stale clocks,
    sequence numbers and array contents, so a second call raises {!Error}.
    @raise Deadlock when no processor can make progress.
    @raise Error on an illegal access, unbound name, or re-run. *)

val get_elem : sim -> string -> int list -> float
(** Element value after execution, read from its owning processor. *)

val get_scalar : sim -> string -> float
(** Replicated scalar value (processor 0's copy). *)

(** {1 Communication metrics} *)

val comm_cells : sim -> comm_cell list
(** Measured point-to-point communication table after {!run}, sorted by
    (event, src, dst) — one row per pair that carried traffic, read from
    the transport's one tally, which every run keeps. Per-pair counts
    never re-increment on retransmission, so the table is invariant under
    fault injection; joined against {!Predict.comm} by
    [dhpfc run --check-comm]. *)

(** {1 Crash / checkpoint support}

    These expose the engine-independent hooks the {!Checkpoint} controller
    is built on; plain runs never need them. *)

val transport : sim -> Runtime.transport
(** The sim's shared transport, for installing crash control, checkpoint
    triggers, or the [--max-events] watchdog bound. *)

val capture : sim -> Runtime.image
(** Deep value snapshot of the simulation: per-processor clocks, live
    bindings, all resident array elements, staged pack buffers, and the
    transport state (sequence counters, in-flight messages, totals).
    Keys are sorted, so within one engine two captures of the same
    deterministic execution point are structurally equal — the property
    the capture-determinism and rollback-verification checks rely on.
    (The two engines represent residency differently, so images are only
    compared within an engine, never across engines.) *)

val clocks : sim -> float array
(** Per-processor virtual clocks (a fresh array). *)

val set_clocks : sim -> float -> unit
(** Set every processor's clock to one value — the restart barrier after a
    recovery. Values never depend on clocks (delivery is sequence-matched),
    so a uniform shift cannot change results. *)

val charge : sim -> float -> unit
(** Add a cost to every processor's clock — the coordinated checkpoint
    write, paid per processor without synchronizing them. *)
