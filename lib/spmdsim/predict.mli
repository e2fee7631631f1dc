(** Static communication-volume prediction — the paper's Figure-3
    communication sets evaluated at concrete distribution parameters.

    The compiler synthesizes its partner and packing loops from the
    integer-set equations ({!Iset.Codegen.gen} over [SendCommMap] and its
    flattened full map), so the generated SPMD program is a closed form of
    those sets. {!comm} walks just the communication skeleton of the
    program — the [For]/[If] nests that transitively contain a [Pack],
    [Send] or [Recv] — under the same startup environment the simulator
    uses ({!Runtime.setup}), and tabulates per (event, sender, receiver)
    exactly how many messages and elements every processor will send.
    No clocks, storage or transport are involved, so prediction is cheap
    and exact: in a fault-free run the simulator's measured table
    ({!Exec.comm_cells}) must equal it bit for bit, and since per-pair
    counters never re-increment on retransmission, the equality holds
    under fault injection too. [dhpfc run --check-comm] enforces this
    continuously. *)

exception Unpredictable of string
(** Raised when communication depends on runtime data (a [FIf] branch
    containing comm — never emitted by this compiler) or on an unbound
    parameter. *)

type cell = {
  p_event : int;  (** communication event id *)
  p_src : int;  (** sending physical processor *)
  p_dst : int;  (** [p_src = p_dst]: local copy between co-located VPs *)
  p_msgs : int;
  p_elems : int;
}

val comm : nprocs:int -> Dhpf.Spmd.program -> cell list
(** Predicted point-to-point communication table, sorted by (event, src,
    dst); one row per pair the program sends to (empty messages still
    count one [p_msgs]). [nprocs] as in {!Exec.make}.
    @raise Unpredictable on data-dependent communication.
    @raise Runtime.Error on startup binding failures. *)

type mismatch = {
  mm_event : int;
  mm_src : int;
  mm_dst : int;
  mm_pred_msgs : int;
  mm_meas_msgs : int;
  mm_pred_elems : int;
  mm_meas_elems : int;
}

val check : cell list -> Runtime.comm_cell list -> mismatch list
(** Full outer join of predicted vs. measured rows: those whose message
    or element counts differ. Empty result means the prediction held
    exactly. *)
