(** Shared runtime substrate for the two SPMD execution engines: the
    tree-walking interpreter ({!Exec} with [`Interp]) and the
    closure-compiling engine ({!Compile}, the default [`Closure]).

    The transport (packed payloads, per-channel sequence numbers, fault
    plans, message/byte/retransmit counters) and the scheduler (message
    delivery, scalar and array collectives, deadlock diagnosis) live here
    and are used verbatim by both engines, so the engine-differential
    guarantee — identical counters, identical delivery order — is
    structural rather than re-implemented twice. *)

open Dhpf

exception Error of string

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
    each processor's coordinates and clock skew. *)

val eval_genv : (string, int) Hashtbl.t -> Spmd.expr -> int
(** Evaluate an expression over global parameters only. *)

(** {1 Ownership and VP mapping} *)

val owner_coord :
  eval:(Spmd.expr -> int) -> Spmd.dim_layout -> int array -> int option
(** Physical owner coordinate of an element along one processor dimension,
    or [None] when the element is replicated along it. *)

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

val packbuf_create : ?cap:int -> unit -> packbuf
(** [?cap] preallocates capacity for that many elements (floored at 16), so
    engines that know a channel's message cardinality up front — the native
    engine sizes per-(event, processor) buffers from [Predict]'s comm-set
    counts — never pay the doubling reallocations during packing. *)

val packbuf_push : packbuf -> arr:string -> int -> float -> unit
val packbuf_flush : packbuf -> payload

val packbuf_peek : packbuf -> payload
(** Read the staged elements without resetting the buffer — checkpoint
    capture treats staged-but-unsent data as part of processor state. *)

(** {1 Fail-stop crash control} *)

exception Crash of { cp_pid : int; cp_op : int; cp_clock : float }
(** A scheduled fail-stop crash fired: processor [cp_pid] died at its
    [cp_op]-th communication operation, local clock [cp_clock]. Recovered
    by {!Checkpoint.run}; under plain [Exec.run] it propagates to the
    caller. *)

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
}

type counters = {
  mutable n_msgs : int;
  mutable n_bytes : int;
  mutable n_elems : int;
  mutable n_retransmits : int;
  mutable n_timeouts : int;
  mutable n_dups : int;
  mutable n_max_mbox : int;
}

type trace
(** Per-simulation tracing state: a fresh Chrome pid, the (channel, seq) ->
    flow-id map linking sends to receives, and per-processor last-slice
    times for compute-gap rendering. Allocated by {!transport_make} iff
    [Obs.enabled ()]; tracing reads the virtual clocks but never advances
    them, so traced and untraced runs are bit-identical. *)

type simmetrics
(** Per-simulation metrics accumulators: the dense P×P communication
    matrix, the per-(event, src, dst) cell table, per-processor
    send/recv-wait/collective time, halo occupancy and the fault
    breakdown. Allocated by {!transport_make} iff [Obs.Metrics.enabled
    ()]; like tracing it only reads the virtual clocks and payload sizes,
    so a metered run is bit-identical (values, clocks, counters) to a bare
    one. Folded into the [Obs.Metrics] registry by {!stats_of} under
    [sim/]-prefixed series names. *)

type transport = {
  tr_machine : Machine.t;
  tr_faults : Fault.spec option;
  tr_mailbox : (key, msg list ref) Hashtbl.t;
  tr_send_seq : (key, int) Hashtbl.t;
  tr_recv_seq : (key, int) Hashtbl.t;
  tr_c : counters;
  tr_trace : trace option;
  tr_metrics : simmetrics option;
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
}

val transport_make :
  machine:Machine.t -> faults:Fault.spec option -> nprocs:int -> transport

type comm_cell = {
  cm_event : int;  (** communication event id *)
  cm_src : int;  (** sending physical processor *)
  cm_dst : int;  (** [cm_src = cm_dst]: local copy between co-located VPs *)
  cm_msgs : int;
  cm_elems : int;
  cm_bytes : int;  (** [cm_elems * elem_bytes] *)
}

val comm_cells : transport -> comm_cell list
(** Measured point-to-point communication table, sorted by (event, src,
    dst); one row per pair that carried traffic. Empty unless
    [Obs.Metrics] was enabled when the transport was built. Per-pair
    counts never re-increment on retransmission or duplicate delivery, so
    the table is invariant under fault injection. *)

val trace_recv :
  transport -> tid:int -> t0:float -> t1:float -> key -> msg -> unit
(** Trace a completed receive ([t0] = clock at block, [t1] = clock after
    arrival sync and unpack charges, both in simulated seconds): emits the
    recv slice and closes the matching send's flow arrow. No-op when the
    transport is untraced — both engines call it unconditionally. *)

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
    delay, duplication, reordering) and enqueue. Both engines call this, so
    counter and timing semantics cannot diverge. A send is one
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
    state (channel sequence counters, in-flight messages, counters). Keys
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

type image = {
  im_ops : int;  (** global op count at capture *)
  im_procs : proc_image array;
  im_chans : (key * int * int) array;
      (** per channel: (key, next send seq, next recv seq), sorted *)
  im_inflight : (key * msg array) array;  (** undelivered messages *)
  im_counters : counters;  (** copy of the transport counters *)
}

val capture_transport :
  transport -> (key * int * int) array * (key * msg array) array * counters
(** Transport half of an image: sorted per-channel sequence counters,
    sorted in-flight queues, and a copy of the counters. *)

(** {1 Effects} *)

type _ Effect.t +=
  | ERecv : key -> msg Effect.t
  | EReduce : (Spmd.reduce_op * float) -> float Effect.t
  | EReduceArr : (string * Spmd.reduce_op) -> unit Effect.t

(** {1 Statistics} *)

type stats = {
  s_time : float;
  s_msgs : int;
  s_bytes : int;
  s_elems : int;
  s_proc_times : float array;
  s_retransmits : int;
  s_timeouts : int;
  s_dups_delivered : int;
  s_max_mailbox : int;
  s_crashes : int;  (** fail-stop crashes suffered (checkpoint runs only) *)
  s_recoveries : int;  (** successful restarts from a snapshot or scratch *)
  s_ckpts : int;  (** coordinated checkpoints taken on the final attempt *)
  s_ckpt_bytes : int;  (** encoded size of those checkpoints *)
  s_lost_work : float;
      (** simulated seconds of work discarded by rollbacks, summed over
          processors and recoveries *)
}

val stats_of : transport -> proc_times:float array -> stats

(** {1 Deadlock diagnostics} *)

type wait_reason =
  | WaitRecv of {
      wr_event : int;
      wr_src_vp : int list;
      wr_src_pid : int;
      wr_expected_seq : int;
      wr_queued : int;
    }
  | WaitReduce
  | WaitReduceArr of string

type proc_wait = { w_pid : int; w_clock : float; w_reason : wait_reason }

type diagnostic = {
  dg_waiting : proc_wait list;
  dg_cycle : int list;
  dg_undelivered : (int * int list * int list * int) list;
  dg_max_mailbox : int;
}

exception Deadlock of diagnostic

val pp_diagnostic : Format.formatter -> diagnostic -> unit
val diagnostic_to_string : diagnostic -> string

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

val sched_run_par : ?domains:int -> hooks -> unit
(** Drive every processor fiber to completion: deliver sequence-matched
    messages, execute collectives, and raise {!Deadlock} with a structured
    diagnosis when no progress is possible. Processor lanes are sharded
    across [domains] OCaml domains, bit-identically to the sequential
    scheduler in element values, clocks, transport counters, metrics and
    traces: lanes advance in parallel between communication points
    against a (channel, sequence)-keyed concurrent mailbox while logging
    every transport mutation, and a sequential replay pass then commits
    those mutations — mailbox evolution, duplicate discards, operation
    points, trace slices — in exactly the sequential interleaving.
    [domains <= 1], a single processor, or an installed crash schedule /
    checkpoint trigger / watchdog bound falls back to the sequential
    scheduler unchanged, with the identical diagnosis on deadlock. *)
