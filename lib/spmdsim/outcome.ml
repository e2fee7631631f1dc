(* What a simulation run yields, declared once: its statistics, its
   measured per-pair communication table, and the exceptions that end it
   early (a runtime error, a scheduled crash, a stall with its structured
   diagnosis). {!Runtime} and {!Exec} include this module, so
   [Runtime.stats] and [Exec.stats] are one type and [Runtime.Deadlock]
   and [Exec.Deadlock] one exception. *)

exception Error of string
(** An illegal access, an unbound name, a failed kernel build, a re-run
    sim, a watchdog bound exceeded: the run cannot go on. *)

exception Crash of { cp_pid : int; cp_op : int; cp_clock : float }
(** A scheduled fail-stop crash fired: processor [cp_pid] died at its
    [cp_op]-th communication operation, local clock [cp_clock]. Recovered
    by {!Checkpoint.run}; under plain [Exec.run] it propagates to the
    caller. *)

(** {1 Communication metrics} *)

type comm_cell = {
  cm_event : int;  (** communication event id *)
  cm_src : int;  (** sending physical processor *)
  cm_dst : int;  (** [cm_src = cm_dst]: local copy between co-located VPs *)
  cm_msgs : int;
  cm_elems : int;
  cm_bytes : int;  (** [cm_elems * elem_bytes] *)
}

(** {1 Statistics} *)

type stats = {
  s_time : float;  (** simulated execution time: max processor clock *)
  s_msgs : int;  (** network messages, collective tree messages included *)
  s_bytes : int;
  s_elems : int;  (** elements sent point to point over the network *)
  s_proc_times : float array;  (** each processor's final clock *)
  s_retransmits : int;
      (** dropped transmissions, each re-sent after its retransmission
          timer fired *)
  s_crashes : int;
      (** fail-stop crashes suffered, each recovered (checkpoint runs only) *)
  s_ckpts : int;  (** coordinated checkpoints taken on the final attempt *)
  s_ckpt_bytes : int;  (** encoded size of those checkpoints *)
  s_lost_work : float;
      (** simulated seconds of work discarded by rollbacks, summed over
          processors and recoveries *)
}

(** {1 Deadlock diagnostics}

    When the scheduler can make no progress, a run raises {!Deadlock} with
    a structured diagnosis instead of a flat string: every stuck processor
    with its simulated clock and what it waits on (event id, source VP and
    physical pid, next expected sequence number), the extracted wait-for
    cycle when one exists, and the channels still holding undelivered
    messages. *)

type wait_reason =
  | WaitRecv of {
      wr_event : int;
      wr_src_vp : int list;
      wr_src_pid : int;  (** physical processor the wait is on *)
      wr_expected_seq : int;
    }
  | WaitReduce  (** blocked in a replicated-scalar collective *)
  | WaitReduceArr of string  (** blocked in an array-reduction collective *)

type proc_wait = { w_pid : int; w_clock : float; w_reason : wait_reason }

type diagnostic = {
  dg_waiting : proc_wait list;  (** every stuck processor, by pid *)
  dg_cycle : int list;
      (** pids forming a wait-for cycle (first element repeats conceptually);
          [] when the stall is not cyclic (e.g. a missing send) *)
  dg_undelivered : (int * int list * int list * int) list;
      (** (event, src vp, dst vp, queued count) for nonempty channels *)
}

exception Deadlock of diagnostic

let pp_vp fmt vp =
  Fmt.pf fmt "(%s)" (String.concat "," (List.map string_of_int vp))

let pp_diagnostic fmt (d : diagnostic) =
  Fmt.pf fmt "deadlock: %d processor(s) stuck@." (List.length d.dg_waiting);
  List.iter
    (fun w ->
      match w.w_reason with
      | WaitRecv r ->
          Fmt.pf fmt
            "  proc %d [t=%.3e]: recv event %d from vp%a (pid %d), expecting \
             seq %d@."
            w.w_pid w.w_clock r.wr_event pp_vp r.wr_src_vp r.wr_src_pid
            r.wr_expected_seq
      | WaitReduce ->
          Fmt.pf fmt "  proc %d [t=%.3e]: blocked in scalar reduction@."
            w.w_pid w.w_clock
      | WaitReduceArr a ->
          Fmt.pf fmt "  proc %d [t=%.3e]: blocked in array reduction of %s@."
            w.w_pid w.w_clock a)
    d.dg_waiting;
  (match d.dg_cycle with
  | [] -> Fmt.pf fmt "  no wait-for cycle: a send is missing entirely@."
  | c ->
      Fmt.pf fmt "  wait-for cycle: %s -> %s@."
        (String.concat " -> " (List.map string_of_int c))
        (string_of_int (List.hd c)));
  List.iter
    (fun (ev, src, dst, n) ->
      Fmt.pf fmt "  undelivered: event %d vp%a -> vp%a, %d message(s)@." ev
        pp_vp src pp_vp dst n)
    d.dg_undelivered

let diagnostic_to_string d = Fmt.str "%a" pp_diagnostic d
