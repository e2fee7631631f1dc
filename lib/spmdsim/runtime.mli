(** Shared runtime substrate for the three SPMD execution engines: the
    tree-walking interpreter ({!Exec} with [`Interp]), the
    closure-compiling engine ({!Compile}, the default [`Closure]) and the
    native engine ({!Native}).

    The transport (packed payloads, per-channel sequence numbers, fault
    plans, the one communication tally) and the one scheduler (message
    delivery, one collective mechanism for scalar and element-wise
    all-reduces, deadlock diagnosis) live here and are used verbatim by
    all three engines, so the engine-differential guarantee — identical
    tallies, identical delivery order — is structural rather than
    re-implemented per engine. What a run yields — {!stats}, the
    {!comm_cell} table, {!Error}, {!Crash}, {!Deadlock} and its
    {!diagnostic} — is declared once, in {!Outcome}, and included here
    and in {!Exec}. *)

open Dhpf

include module type of struct
  include Outcome
end

val errf : ('a, Format.formatter, unit, 'b) format4 -> 'a
(** Raise {!Error} with a formatted message. *)

(** {1 Startup} *)

type setup = {
  su_genv : (string, int) Hashtbl.t;  (** global parameter values *)
  su_extents : int array;  (** processor grid extents *)
  su_total : int;  (** total processors: product of extents *)
  su_coords : int array array;  (** per-pid grid coordinates (m$k) *)
  su_vm0 : (int * int) list array;
      (** per-pid startup VP coordinates: (proc-dim index, vm$k value);
          template-cell VPs are bound by generated loops instead *)
  su_skew : float array;  (** per-processor straggler multiplier (>= 1) *)
}

val setup :
  ?faults:Fault.spec ->
  nprocs:int ->
  params:(string * int) list ->
  Spmd.program ->
  setup
(** Evaluate startup parameter bindings (with
    [number_of_processors() = nprocs]), size the processor grid and compute
    each processor's coordinates and clock skew. [params] binds the
    program's [`FromEnv] parameters; any other name raises {!Error}. *)

val eval_genv : (string, int) Hashtbl.t -> Spmd.expr -> int
(** Evaluate an expression over global parameters only. *)

(** {1 Ownership and VP mapping} *)

val owner_coord :
  eval:(Spmd.expr -> int) -> Spmd.dim_layout -> int array -> int option
(** Physical owner coordinate of an element along one processor dimension,
    or [None] when the element is replicated along it. *)

val owner_pid :
  eval:(Spmd.expr -> int) ->
  Spmd.array_layout option ->
  extents:int array ->
  int list ->
  int
(** Linear physical pid owning an element: replicated dimensions resolve to
    coordinate 0, and an array without a layout lives on pid 0. *)

val phys_of_vp :
  eval:(Spmd.expr -> int) -> Spmd.program -> extents:int array -> int list -> int
(** Linear physical pid owning a virtual-processor coordinate tuple. *)

(** {1 Array metadata} *)

type ameta = {
  am_name : string;
  am_bounds : (int * int) array;
  am_ext : int array;
  am_strides : int array;  (** column-major strides (dim 0 fastest) *)
  am_base : int;
}

val ameta : eval:(Spmd.expr -> int) -> Spmd.array_decl -> ameta

val encode : ameta -> int list -> int
(** Global linear index, bounds-checked ([Error] outside the declaration). *)

(** {1 Packed payloads} *)

type payload = {
  pl_arr : string;  (** destination array; [""] for an empty message *)
  pl_idx : int array;  (** global linear element indices *)
  pl_val : float array;
}

val empty_payload : payload

type packbuf

val packbuf_create : unit -> packbuf
(** An empty buffer with room for 16 elements that doubles as it fills.
    Capacity never affects behaviour, because a flush truncates to the
    packed length. *)

val packbuf_push : packbuf -> arr:string -> int -> float -> unit
val packbuf_flush : packbuf -> payload

val packbuf_peek : packbuf -> payload
(** Read the staged elements without resetting the buffer — checkpoint
    capture treats staged-but-unsent data as part of processor state. *)

(** {1 Fail-stop crash control} *)

type crashctl
(** Crash schedule control block: the probability spec and/or explicit
    (pid, op) plan, the remaining crash budget, and the set of crashes
    already consumed. Shared across recovery attempts so a deterministic
    replay does not re-fire a crash it already suffered. *)

val crashctl_make :
  ?plan:(int * int) list -> ?spec:Fault.spec -> max:int -> unit -> crashctl
(** [plan] lists explicit (pid, op) crash points (tests); [spec] supplies
    the hash-driven schedule ({!Fault.crash}); [max] bounds total crashes. *)

(** {1 Transport} *)

type key = { k_event : int; k_src : int list; k_dst : int list }

type msg = {
  m_seq : int;
  m_arrival : float;
  m_payload : payload;
  m_contig : bool;
  m_flow : int;
      (** trace flow id linking the send slice to the recv slice that
          consumes the message; 0 when untraced and for a local copy, and
          in a checkpoint image *)
}

type trace
(** Per-simulation tracing state: a fresh Chrome pid and per-processor
    last-slice times for compute-gap rendering. Allocated by
    {!transport_make} iff [Obs.enabled ()]; tracing reads the virtual
    clocks but never advances them, so traced and untraced runs are
    bit-identical. *)

type sync
(** The transport lock, wake-up condition and commit epoch of a
    multi-domain run. *)

type transport = {
  tr_machine : Machine.t;
  tr_faults : Fault.spec option;
  tr_mail : (key * int, msg) Hashtbl.t;
      (** in-flight messages by (channel, sequence number) *)
  tr_send_seq : (key, int) Hashtbl.t array;
      (** per sending processor: next sequence number of each channel *)
  tr_recv_seq : (key, int) Hashtbl.t array;
      (** per receiving processor: next expected sequence number *)
  tr_cells : (int * int * int, int ref * int ref) Hashtbl.t;
      (** the one communication tally, always kept: (event, src, dst) ->
          (msgs, elems) of first transmissions, the diagonal being local
          copies. With [tr_retrans] and the collective totals it is the
          source of every message total ({!stats_of}, the [sim/] series,
          the image totals) *)
  tr_retrans : int array;  (** retransmissions by sending processor *)
  mutable tr_coll_msgs : int;  (** tree messages of element-wise collectives *)
  mutable tr_coll_bytes : int;
  tr_send_t : float array;
      (** per processor: seconds inside sends, packing included. With the
          three fields below it is the run's time split, kept on every run
          (it only reads the clocks and payload sizes) and published by
          {!stats_of} while [Obs.Metrics] is on *)
  tr_recv_t : float array;
      (** per processor: seconds blocked and unpacking in receives *)
  tr_coll_t : float array;  (** per processor: seconds inside collectives *)
  tr_recv_elems : int array;  (** per processor: halo elements received *)
  tr_trace : trace option;
  tr_pid_ops : int array;
      (** per-processor communication-operation index (sends, receive
          completions, collective completions, in execution order) — the
          coordinate crash schedules are keyed on *)
  mutable tr_gops : int;  (** total operations across all processors *)
  mutable tr_crash : crashctl option;
      (** installed by the {!Checkpoint} controller; a firing crash raises
          {!Crash} from inside the scheduler *)
  mutable tr_ckpt_every : int;
      (** coordinated-checkpoint interval in global operations; 0 = off *)
  mutable tr_on_ckpt : int -> unit;
      (** checkpoint trigger, called with the global op count whenever it
          crosses a multiple of [tr_ckpt_every] *)
  mutable tr_max_events : int;
      (** scheduler watchdog: raise {!Error} once the global op count
          exceeds this bound; 0 = off *)
  mutable tr_sync : sync option;
      (** set by {!sched_run} while it runs on more than one domain: every
          shared transport write is made under its lock *)
}

val transport_make :
  machine:Machine.t -> faults:Fault.spec option -> nprocs:int -> transport

val comm_cells : transport -> comm_cell list
(** Measured point-to-point communication table, sorted by (event, src,
    dst); one row per pair that carried traffic. Per-pair counts never
    re-increment on retransmission, so the table is invariant under fault
    injection. *)

val trace_recv :
  transport -> tid:int -> t0:float -> t1:float -> key -> msg -> unit
(** Account a completed receive ([t0] = clock at block, [t1] = clock
    after arrival sync and unpack charges, both in simulated seconds): adds
    the wait and the elements to the receiver's time split and, when
    traced, emits the recv slice and closes the matching send's flow
    arrow. Every engine calls it on every receive. *)

val send :
  transport ->
  tick:(float -> unit) ->
  get_clock:(unit -> float) ->
  pid:int ->
  dst_pid:int ->
  event:int ->
  src_vp:int list ->
  dst_vp:int list ->
  inplace:bool ->
  rect:bool ->
  payload ->
  unit
(** Complete a send: contiguity decision (§3.3), packing/send CPU charges
    via [tick], fault plan application (drops priced as retransmissions,
    delay), enqueue and tally, under the transport lock of a multi-domain
    run. Every engine calls this, so tally and timing semantics cannot
    diverge. A send is one
    communication operation: it ends by advancing the operation indices,
    feeding the watchdog, evaluating the crash schedule (possibly raising
    {!Crash}) and firing the checkpoint trigger on interval boundaries, as
    the scheduler does for every receive and collective. *)

val trace_instant :
  transport ->
  tid:int ->
  ts:float ->
  ?cat:string ->
  ?args:(string * Obs.arg) list ->
  string ->
  unit
(** Emit an instant marker on processor [tid]'s lane at simulated time
    [ts]; no-op when untraced. Category defaults to ["fault"]. *)

(** {1 Checkpoint images}

    A deep, engine-independent value snapshot of a simulation: all live
    bindings and resident array elements per processor, plus the transport
    state (channel sequence counters, in-flight messages, totals). Keys
    are sorted so two captures of identical state are structurally equal
    regardless of hash-table iteration order. *)

type proc_image = {
  pi_clock : float;
  pi_ints : (string * int) array;  (** live integer bindings, sorted *)
  pi_floats : (string * float) array;  (** live scalar bindings, sorted *)
  pi_elems : (string * (int * float) array) array;
      (** per array (sorted by name): every resident element as (global
          linear index, value), sorted — dense owned blocks, halo side
          tables and sparse reduction storage alike *)
  pi_staged : (int * payload) array;
      (** per event id: elements packed but not yet sent *)
}

type totals = {
  t_msgs : int;  (** network messages, collective tree messages included *)
  t_bytes : int;
  t_elems : int;  (** elements sent point to point over the network *)
  t_retransmits : int;
}
(** The transport's message totals, each a sum of the tally: the
    off-diagonal cells plus the collective totals, or the per-sender
    retransmits. *)

type image = {
  im_ops : int;  (** global op count at capture *)
  im_procs : proc_image array;
  im_chans : (key * int * int) array;
      (** per channel: (key, next send seq, next recv seq), sorted *)
  im_inflight : (key * msg array) array;  (** undelivered messages *)
  im_totals : totals;  (** the transport totals at capture *)
}

val capture : transport -> proc_image array -> image
(** The image of a simulation whose processors' images are given: adds
    the global op count, the sorted per-channel sequence counters, each
    channel's in-flight messages sorted by sequence number (flow ids
    zeroed), and the transport totals. Every engine's capture ends here. *)

(** {1 Effects} *)

(** A collective as one processor enters it: an all-reduce of its scalar
    operand, or an element-wise all-reduce of the partial values it holds
    of the named array. *)
type coll =
  | Scalar of Spmd.reduce_op * float
  | Elementwise of string * Spmd.reduce_op

(** The two blocking operations of a processor fiber. A collective resumes
    with the combined scalar, or [0.0] for an element-wise collective,
    whose result is written into every processor's array. *)
type _ Effect.t +=
  | ERecv : key -> msg Effect.t
  | ECollective : coll -> float Effect.t

(** {1 Statistics} *)

val stats_of : transport -> proc_times:float array -> stats
(** The run's statistics: the clocks, and the transport totals summed
    from the tally. While [Obs.Metrics] is on it also publishes the
    tally and the time split as [sim/]-prefixed series. *)

(** {1 Scheduler} *)

type hooks = {
  h_nprocs : int;
  h_tr : transport;
  h_clock : int -> float;
  h_set_clock : int -> float -> unit;
  h_body : int -> unit;
  h_reduce_arr : string -> Spmd.reduce_op -> int;
      (** element-wise combine of every processor's partial values, result
          written back everywhere; returns the element count (for pricing) *)
  h_phys_of_vp : int list -> int;
}

val reduce_tables : Spmd.reduce_op -> ('k, float) Hashtbl.t array -> int
(** An [h_reduce_arr] over per-processor tables of present elements:
    combine each element's values in pid order, write the result to every
    table, return the element count. *)

val sched_run : ?domains:int -> hooks -> unit
(** Drive every processor fiber to completion: deliver sequence-matched
    messages, execute collectives, and raise {!Deadlock} with a structured
    diagnosis when no progress is possible. A collective ({!ECollective})
    fires only when every processor is blocked in one of the same kind,
    with processor 0's operator (and array name); it completes at the
    latest processor clock plus a P-way all-reduce of its element count
    (1 for a scalar), and an element-wise one also adds its tree messages
    to the tally. A finished processor, one blocked on a receive, or a
    kind mismatch leaves it unfired, which ends in {!Deadlock}.

    Processors are sharded across [domains] OCaml domains (default 1);
    each domain sweeps its own in pid order, commits to the transport
    directly, and fires a collective at the end of a sweep once every
    processor is blocked in it. At one domain the order is fixed: start
    every processor in pid order, then sweep deliveries in pid order, and
    fire a collective once a sweep leaves every processor blocked in it,
    resuming its participants in pid order. A crash schedule, a checkpoint trigger
    or a watchdog bound reads that global operation order, so those runs
    take one domain, as does a single processor. Every domain count gives
    bit-identical values, clocks, comm cells, totals, metrics and stall
    diagnoses: values and clocks are processor-local, the rest are sums,
    and a stalled run has one final state. A trace holds the same slices,
    instants and flow pairs at every count; at more than one domain their
    order in the file and the flow-id numbers may differ. *)
