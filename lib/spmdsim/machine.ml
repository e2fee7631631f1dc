(** Cost model for the simulated message-passing machine.

    The defaults are loosely calibrated to a mid-1990s MPP of the IBM SP-2
    class (the paper's testbed): ~100 Mflop/s nodes, tens of microseconds of
    message latency, tens of MB/s of bandwidth. The absolute numbers do not
    matter for the reproduction — only the computation/communication ratios
    that shape Figure 7 — and they are fixed once here, not tuned per
    benchmark (see EXPERIMENTS.md). *)

type t = {
  flop_time : float;  (** seconds per floating-point operation *)
  check_time : float;  (** ownership check on a Checked reference *)
  guard_time : float;  (** evaluating a generated guard *)
  loop_time : float;  (** per-iteration loop overhead *)
  pack_time : float;  (** per element packed into a message buffer *)
  unpack_time : float;  (** per element unpacked on receipt *)
  alpha : float;  (** message start-up latency (seconds) *)
  beta : float;  (** per-byte transfer time (seconds) *)
  send_overhead : float;  (** CPU time consumed by a send *)
  recv_overhead : float;  (** CPU time consumed by a receive *)
  elem_bytes : int;  (** bytes per array element on the wire *)
  timeout : float;
      (** retransmission timer: how long a sender waits before concluding a
          transmission was dropped (fault injection only) *)
  retry_overhead : float;  (** CPU time consumed by one retransmission *)
  backoff : float;
      (** exponential backoff: the k-th consecutive retransmission of one
          message waits [timeout * backoff^k] *)
  ckpt_alpha : float;
      (** fixed per-processor cost of writing (or reading back) one
          coordinated checkpoint, independent of its size *)
  ckpt_beta : float;  (** per-byte checkpoint write/read time (seconds) *)
  detect_timeout : float;
      (** how long the group takes to conclude a silent processor has
          crashed (fail-stop detection latency) *)
  restart_latency : float;
      (** process restart cost: respawn, rejoin the group, reopen channels
          — charged once per recovery before the checkpoint is read back *)
}

let sp2 =
  {
    flop_time = 10e-9;
    check_time = 15e-9;
    guard_time = 5e-9;
    loop_time = 5e-9;
    pack_time = 40e-9;
    unpack_time = 40e-9;
    alpha = 40e-6;
    beta = 30e-9;
    send_overhead = 5e-6;
    recv_overhead = 5e-6;
    elem_bytes = 8;
    timeout = 500e-6;
    retry_overhead = 5e-6;
    backoff = 2.0;
    (* checkpoint/restart: a local-disk write at ~10 MB/s effective
       bandwidth with a 2 ms setup, millisecond-scale failure detection and
       restart — all large against the per-message costs above, so lost
       work and recovery latency are visible in the simulated clocks *)
    ckpt_alpha = 2e-3;
    ckpt_beta = 100e-9;
    detect_timeout = 5e-3;
    restart_latency = 20e-3;
  }

let default = sp2

(** Cost of an n-element message on the wire. *)
let msg_time t n = t.alpha +. (float_of_int (n * t.elem_bytes) *. t.beta)

(** Tree depth of a P-way collective: ⌈log₂ P⌉, 0 for one processor. *)
let stages p =
  if p <= 1 then 0 else int_of_float (ceil (log (float_of_int p) /. log 2.0))

(** Cost of a P-way all-reduce of an n-element payload (binary-tree up and
    down). *)
let allreduce_cost t p n = 2.0 *. float_of_int (stages p) *. msg_time t n

(** Total sender-side wait for [k] consecutive dropped transmissions of one
    message: the timeout fires after each drop, with exponential backoff. *)
let retransmit_wait t k =
  let w = ref 0.0 in
  for i = 0 to k - 1 do
    w := !w +. (t.timeout *. (t.backoff ** float_of_int i))
  done;
  !w
