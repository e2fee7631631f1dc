(** Deterministic, seed-driven fault schedules for the SPMD simulator.

    A {!spec} describes an adversarial transport and machine: messages may
    be delayed or dropped (and retransmitted after a timeout, priced by
    the {!Machine.t} retry fields), and each processor computes under a
    fixed straggler clock-skew multiplier. There is no reordering or
    duplicate fault: receivers match per-channel sequence numbers, never
    queue position, so the order of in-flight messages is unobservable,
    and a second copy would only ever be discarded.
    Every decision is a pure hash of the seed and the message's
    stable identity (event id, sender, receiver, per-channel sequence
    number) — not of a mutable PRNG stream — so a schedule is reproducible
    from its seed regardless of scheduler interleaving, and two runs with
    the same seed make byte-identical decisions. *)

type spec = {
  seed : int;
  drop_prob : float;  (** probability a transmission attempt is dropped *)
  max_retries : int;  (** bound on consecutive drops of one message *)
  delay_prob : float;  (** probability a message is delayed in flight *)
  delay_factor : float;
      (** maximum extra in-flight latency, as a multiple of the message's
          wire time *)
  skew_max : float;
      (** straggler model: each processor's compute-time multiplier is
          drawn from [1, skew_max]; 1.0 disables skew *)
  crash_prob : float;
      (** fail-stop model: probability a processor crashes at each of its
          communication operations (sends, receive completions, collective
          completions). Recovering from a crash requires the coordinated
          checkpoint/restart controller ({!Checkpoint.run}); under plain
          [Exec.run] a scheduled crash surfaces as [Runtime.Crash]. *)
  crash_max : int;  (** bound on total crashes across the whole run *)
}

val none : spec
(** All probabilities zero, no skew: the idealized machine. *)

val default : seed:int -> spec
(** A moderately hostile schedule (drops, delays and stragglers all
    enabled, crashes off) keyed to [seed]. *)

val validate : spec -> (unit, string) result
(** Reject malformed schedules before they produce nonsense plans:
    probabilities outside [0,1], negative seed/retries/crash budget,
    [skew_max < 1.0], or a positive drop probability with a zero retry
    bound (which would lose messages forever). The CLI calls this at parse
    time and maps [Error] to exit code 2. *)

type msg_plan = {
  mp_drops : int;  (** transmissions dropped before the one that arrives *)
  mp_delay : float;  (** extra wire-time multiplier in [0, delay_factor) *)
}

val no_faults : msg_plan

val plan : spec -> event:int -> src:int -> dst:int -> seq:int -> msg_plan
(** The faults scheduled for one message, identified by its communication
    event, physical sender and receiver pids, and per-channel sequence
    number. Pure: same spec and identity always give the same plan. *)

val skew : spec -> pid:int -> float
(** Clock-skew multiplier (>= 1.0) for one processor. *)

val crash : spec -> pid:int -> op:int -> bool
(** Fail-stop crash decision for processor [pid] at its [op]-th
    communication operation. Pure, like {!plan}: a deterministic replay
    re-derives the identical schedule, and the recovery controller's
    consumed-crash set is what prevents an already-fired crash from firing
    again before the restore point. *)

val describe : spec -> string
(** One-line human-readable summary of the schedule parameters. *)
