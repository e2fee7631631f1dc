(** Coordinated checkpoint/restart recovery for fail-stop processor
    crashes (DESIGN.md §12).

    Every [ckpt_every] global communication operations the controller
    captures a deep image of the whole group ({!Exec.capture}) — clocks,
    live bindings, every resident array element, staged pack buffers,
    per-channel sequence counters and in-flight messages — prices the
    write on every processor's clock
    ([Machine.ckpt_alpha + bytes * Machine.ckpt_beta]) and keeps the
    latest image as the rollback source. The snapshot is taken inside the
    scheduler between operations at a deterministic global count, so it is
    a consistent cut of the unique deterministic execution; in-flight
    messages are part of the image, so no quiescence is needed.

    When a crash fires ({!Runtime.Crash}), recovery is re-execution-based
    — effect-handler fibers cannot be serialized — so a fresh simulation
    replays deterministically from the start (consumed crashes never
    re-fire, message faults and checkpoint charges re-derive identically).
    At the rollback boundary the controller verifies the replayed state is
    bit-identical to the stored snapshot ({!image_equal}) and applies the
    restart barrier: every clock is set to

    [T_r = max clock at crash + detect_timeout + restart_latency + read cost].

    Values never depend on clocks (delivery is sequence-matched), so
    element results stay bit-identical to the fault-free run on both
    engines and the first-transmission-only comm matrix is fault-invariant
    — only clocks absorb the lost work and recovery latency. *)

(** {1 Snapshot images} *)

val image_equal : Runtime.image -> Runtime.image -> bool
(** Structural equality with floats compared by their IEEE-754 bits (NaN
    equals itself, [0.] differs from [-0.]) — "the replay reproduced the
    exact state", which [Stdlib.(=)] on floats does not express. It
    compares the two images' [Marshal] bytes (no sharing), so every field
    of the image takes part. *)

val encoded_size : Runtime.image -> int
(** The image's size in bytes, as a flat serialization would store it: a
    9-byte tag, 8 bytes per integer and float, strings and arrays behind
    an 8-byte length. It prices the checkpoint write and read-back. *)

(** {1 Recovery controller} *)

type snapshot = {
  sn_ops : int;  (** global op count of the boundary *)
  sn_img : Runtime.image;
  sn_bytes : int;  (** encoded size — the read-back cost driver *)
}

type crash_record = {
  cr_pid : int;
  cr_op : int;  (** the crashed processor's communication-op index *)
  cr_clock : float;  (** its clock when it died *)
  cr_restore_ops : int;  (** rollback boundary (0 = restart from scratch) *)
  cr_restart_t : float;  (** T_r: when the group resumes *)
  cr_lost_work : float;  (** discarded simulated seconds, summed over procs *)
}

type report = {
  rp_sim : Exec.sim;
      (** the completed final-attempt simulation — read results and
          {!Exec.comm_cells} from it *)
  rp_stats : Runtime.stats;
      (** final-attempt stats with [s_crashes] / [s_ckpts] /
          [s_ckpt_bytes] / [s_lost_work] filled in; every crash counted is
          one recovery *)
  rp_crashes : crash_record list;  (** chronological *)
  rp_attempts : int;  (** executions launched, including the first *)
}

val run :
  ?engine:Exec.engine ->
  ?machine:Machine.t ->
  ?faults:Fault.spec ->
  ?plan:(int * int) list ->
  ?ckpt_every:int ->
  ?max_events:int ->
  nprocs:int ->
  Dhpf.Spmd.program ->
  report
(** Run [prog] under crash injection with checkpoint/restart recovery.

    [plan] lists explicit (pid, op) crash points (tests); [faults]
    supplies the hash-driven schedule when its [crash_prob] is positive,
    bounded by its [crash_max], plus the usual message faults. The total
    crash budget is [crash_max + length plan], so attempts are bounded.
    [ckpt_every = 0] (default) disables snapshots: every recovery restarts
    from scratch. [max_events] forwards the scheduler watchdog bound.

    Metrics (when enabled): [sim/crashes] (each one recovery),
    [sim/ckpt_count], [sim/ckpt_bytes], [sim/lost_work_s]. Tracing: a
    ["crash"] instant on the dying attempt and a ["restore"] instant at
    [T_r] on each replay. Note the per-simulation metrics of aborted
    attempts are never folded into the registry (only the completed
    attempt reaches [stats_of]), but live wire-level histograms do
    accumulate across attempts — they record wire truth, retransmitted
    work included. *)
