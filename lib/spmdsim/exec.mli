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
    and identical in message/byte/retransmit counters (the
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
    simulator doubles as a compiler correctness check. *)

exception Error of string

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
    [params] binds symbolic program parameters. [engine] selects the
    executor (default [`Closure]; [`Interp] is the oracle; [`Native]
    emits, compiles and dynlinks a standalone OCaml kernel — see
    {!Native} for the build cache and its environment knobs).

    [faults] injects a deterministic adversarial transport (see {!Fault}):
    message delay, in-flight reordering, duplicate delivery, bounded
    drop-with-retransmit (priced by the {!Machine.t} timeout/retry/backoff
    fields) and per-processor straggler clock skew. Delivery matches
    per-channel sequence numbers, so computed values are identical to the
    fault-free run — only timing, retransmission and duplicate statistics
    change.

    [domains] (default [Par.domains ()], i.e. [DHPF_DOMAINS] or 1) shards
    the processor lanes across an OCaml domain pool
    ({!Runtime.sched_run_par}); any count produces bit-identical values,
    clocks and counters. *)

val nprocs : sim -> int
(** Actual processor count (the product of the grid extents). *)

val phys_of_vp : sim -> int list -> int
(** Linear physical processor id owning a virtual-processor coordinate
    tuple (identity for concrete distributions; block-start / template-cell
    decoding for the symbolic VP modes of §4). *)

type stats = Runtime.stats = {
  s_time : float;  (** simulated execution time: max processor clock *)
  s_msgs : int;
  s_bytes : int;
  s_elems : int;  (** total elements communicated *)
  s_proc_times : float array;
  s_retransmits : int;  (** dropped transmissions re-sent after a timeout *)
  s_timeouts : int;  (** retransmission timers fired *)
  s_dups_delivered : int;  (** duplicate copies detected and discarded *)
  s_max_mailbox : int;  (** peak in-flight depth of any one channel *)
  s_crashes : int;  (** fail-stop crashes suffered (checkpoint runs only) *)
  s_recoveries : int;  (** successful restarts from a snapshot or scratch *)
  s_ckpts : int;  (** coordinated checkpoints taken on the final attempt *)
  s_ckpt_bytes : int;  (** encoded size of those checkpoints *)
  s_lost_work : float;
      (** simulated seconds of work discarded by rollbacks, summed over
          processors and recoveries *)
}

(** {1 Deadlock diagnostics}

    When the scheduler can make no progress, {!run} raises {!Deadlock} with
    a structured diagnosis instead of a flat string: every stuck processor
    with its simulated clock and what it waits on (event id, source VP and
    physical pid, next expected sequence number, undeliverable channel
    depth), the extracted wait-for cycle when one exists, and the channels
    still holding undelivered messages. *)

type wait_reason = Runtime.wait_reason =
  | WaitRecv of {
      wr_event : int;
      wr_src_vp : int list;
      wr_src_pid : int;
      wr_expected_seq : int;
      wr_queued : int;
    }
  | WaitReduce
  | WaitReduceArr of string

type proc_wait = Runtime.proc_wait = {
  w_pid : int;
  w_clock : float;
  w_reason : wait_reason;
}

type diagnostic = Runtime.diagnostic = {
  dg_waiting : proc_wait list;
  dg_cycle : int list;
  dg_undelivered : (int * int list * int list * int) list;
  dg_max_mailbox : int;
}

exception Deadlock of diagnostic

val pp_diagnostic : Format.formatter -> diagnostic -> unit
val diagnostic_to_string : diagnostic -> string

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

type comm_cell = Runtime.comm_cell = {
  cm_event : int;  (** communication event id *)
  cm_src : int;  (** sending physical processor *)
  cm_dst : int;  (** [cm_src = cm_dst]: local copy between co-located VPs *)
  cm_msgs : int;
  cm_elems : int;
  cm_bytes : int;  (** [cm_elems * elem_bytes] *)
}

val comm_cells : sim -> comm_cell list
(** Measured point-to-point communication table after {!run}, sorted by
    (event, src, dst) — one row per pair that carried traffic. Requires
    [Obs.Metrics] to have been enabled when the sim was built (empty
    otherwise). Per-pair counts never re-increment on retransmission or
    duplicate delivery, so the table is invariant under fault injection;
    joined against {!Predict.comm} by [dhpfc run --check-comm]. *)

(** {1 Crash / checkpoint support}

    These expose the engine-independent hooks the {!Checkpoint} controller
    is built on; plain runs never need them. *)

exception Crash of { cp_pid : int; cp_op : int; cp_clock : float }
(** A scheduled fail-stop crash fired (same exception as {!Runtime.Crash}).
    Under plain {!run} — no recovery controller installed — it propagates
    here. *)

val transport : sim -> Runtime.transport
(** The sim's shared transport, for installing crash control, checkpoint
    triggers, or the [--max-events] watchdog bound. *)

val capture : sim -> Runtime.image
(** Deep value snapshot of the simulation: per-processor clocks, live
    bindings, all resident array elements, staged pack buffers, and the
    transport state (sequence counters, in-flight messages, counters).
    Keys are sorted, so within one engine two captures of the same
    deterministic execution point are structurally equal — the property
    the snapshot round-trip and rollback-verification checks rely on.
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
