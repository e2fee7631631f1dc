(** The closure engine — the default engine behind {!Exec.make} — and the
    per-processor state both SPMD back ends run over.

    There is one lowering, {!Imp.lower}: it resolves every name of the
    program to a slot, store id or constant and attaches the machine
    costs. This module turns the resulting kernel into OCaml closures over
    a compact per-processor state record, so the per-iteration cost is a
    closure call instead of an AST match with hashtable lookups; the
    native engine ({!Native}) prints the same kernel instead ({!Emit}).
    Each processor's owned section of a distributed array is a dense
    [float array] block addressed through per-dimension ownership tables
    (exact for block, cyclic and block-cyclic layouts under any
    alignment), with a side hashtable only for received non-local values;
    arrays that are array-reduction targets keep the sparse
    representation so collective semantics match the interpreter exactly.

    The transport and scheduler are shared with the interpreter via
    {!Runtime}, and clock charges follow the interpreter's order, so runs
    are bit-identical in element values, clocks and counters — the
    interpreter remains the differential oracle ({!Diffcheck.engines}).

    The per-processor representation ([store], [rt]) and the sim record
    ([csim]) are exposed concretely: the native engine takes this
    module's setup, storage, transport and result plumbing verbatim
    ({!prepare}) and only supplies its own [c_main], so everything outside
    the kernel body is structurally identical across the two engines. *)

(** {1 Per-processor storage} *)

type store = {
  st_am : Runtime.ameta;
  st_owned : bool;
      (** false: a FixedCoord layout dimension excludes this processor from
          holding any owned block *)
  st_dmaps : int array array;
      (** per data dimension: (x - lo_d) -> local index, or -1 if this
          processor does not own that coordinate *)
  st_lstride : int array;  (** per data dimension: stride into [st_data] *)
  st_data : float array;  (** dense owned block; [[||]] if sparse or unowned *)
  st_side : (int, float) Hashtbl.t;
      (** non-local values (received halos), keyed by global linear index;
          for sparse (reduction-target) arrays, all values live here *)
}

val st_sparse : store -> bool
(** The array keeps the sparse (side-table only) representation. *)

val owns_enc : store -> int -> bool
(** Ownership test by decoded coordinates (sparse-array slow path). *)

(** {1 Per-processor runtime state} *)

type clock = { mutable now : float }
(** A processor's virtual clock. A float-only record is stored flat, so a
    charge updates it in place instead of boxing a new float. *)

type rt = {
  r_pid : int;
  r_int : int array;  (** integer slots: loop vars, [m$k], [vm$k] *)
  r_fval : float array;  (** replicated-scalar slots *)
  r_fvalid : bool array;
      (** mirrors the interpreter's fenv membership: a slot is readable as a
          scalar only after initialization (declared) or first assignment *)
  r_stores : store array;  (** indexed by array id *)
  r_packbufs : Runtime.packbuf array;  (** indexed by event id *)
  r_clock : clock;
  r_skew : float;
  r_scratch : int array;  (** index scratch for arrays of rank > 3 *)
  r_freg : float array;
      (** the closure engine's float register file: the float-expression
          node at depth [d] writes register [d] (sized by
          {!Imp.kernel.k_fregs}) *)
  mutable r_enc : int;
      (** global linear index of the closure engine's last address
          computation *)
}

val tick : rt -> float -> unit
(** Charge [dt] (scaled by the processor's skew) to the local clock. *)

type cstmt = rt -> unit

(** {1 Runtime paths shared with emitted kernels}

    Generated kernels inline the hot sequences but call back here for
    communication, reductions, dense misses and failures, so effects, halo
    lookups, sparse-array defaults and error messages are one piece of code
    for both back ends. *)

val bad_step : rt -> string -> 'a
(** The non-positive loop step error for the named loop variable. *)

val unbound_int : rt -> string -> 'a
val unknown_sub : rt -> string -> 'a
val bounds_fail : Runtime.ameta -> int -> int -> 'a

val load_miss : rt -> int -> aname:string -> int -> float
(** [load_miss rt aid ~aname enc]: value of a load whose dense slot was -1 —
    the received-halo side table, the sparse-owned zero default, or the
    non-local access error (tagged with the access mode's [aname]). *)

val pack_miss : rt -> int -> int -> float
(** Same lookup for [Pack] sites, with the packing-specific error. *)

val local_store_fail : rt -> int -> int -> 'a
(** The [Local]-store-to-non-owned-element error. *)

type link = {
  l_tr : Runtime.transport;
  l_phys : int list -> int;  (** VP coordinates -> physical pid *)
  l_arrays : (string, int) Hashtbl.t;  (** array name -> store id *)
  l_vm_slots : int array;  (** slot of [vm$k] per processor dimension *)
}
(** What a kernel needs of its sim beyond the per-processor state. *)

val send :
  link -> rt -> event:int -> inplace:bool -> rect:bool -> int list -> unit
(** Flush the event's pack buffer to the VP with the given coordinates. *)

val recv :
  link -> rt -> event:int -> recv_o:float -> unpack:float -> int list -> unit
(** Block on the event's message from the given VP, charge the receive
    and unpack costs, and store the payload. *)

val reduce_arr_effect : string -> Dhpf.Spmd.reduce_op -> unit
val reduce_scalar : rt -> int -> Dhpf.Spmd.reduce_op -> unit

(** {1 The compiled simulation} *)

type csim = {
  c_prog : Dhpf.Spmd.program;
  c_su : Runtime.setup;
  c_tr : Runtime.transport;
  c_rts : rt array;
  c_main : cstmt;
  c_kernel : Imp.kernel;  (** the program's one lowering *)
  c_arrays : (string, int) Hashtbl.t;  (** array name -> store id *)
  c_ameta : Runtime.ameta array;  (** by store id *)
  c_layouts : Dhpf.Spmd.array_layout option array;
  c_domains : int;
  mutable c_ran : bool;
}

val prepare :
  ?machine:Machine.t ->
  ?faults:Fault.spec ->
  ?domains:int ->
  nprocs:int ->
  ?params:(string * int) list ->
  Dhpf.Spmd.program ->
  csim
(** Lower the program ({!Imp.lower}, once) and build per-processor dense
    storage sized by the kernel, leaving [c_main] for a back end to
    install (it raises {!Runtime.Error} until then). Parameters are as in
    {!make}. *)

val link : csim -> link

val make :
  ?machine:Machine.t ->
  ?faults:Fault.spec ->
  ?domains:int ->
  nprocs:int ->
  ?params:(string * int) list ->
  Dhpf.Spmd.program ->
  csim
(** {!prepare}, then install the kernel's closures as [c_main].
    Parameters are as in {!Exec.make}; [domains] defaults to
    [Par.domains ()]. *)

val nprocs : csim -> int

val run : csim -> Runtime.stats
(** Execute to completion.
    @raise Runtime.Deadlock when no processor can make progress.
    @raise Runtime.Error on an illegal access, unbound name, or when the
    sim was already run (each sim is single-use). *)

val get_elem : csim -> string -> int list -> float
val get_scalar : csim -> string -> float

(** {1 Checkpoint support} *)

val transport : csim -> Runtime.transport
(** The sim's transport, for installing crash control / checkpoint hooks. *)

val capture : csim -> Runtime.image
(** Deep value snapshot of the simulation: per-processor clocks, live
    bindings, all resident array elements (dense blocks enumerated in
    global-index order plus halo side tables), staged pack buffers, and
    the transport state. Within one engine, two captures of the same
    deterministic execution point are structurally equal. *)

val clocks : csim -> float array
(** Per-processor virtual clocks (a fresh array). *)

val set_clocks : csim -> float -> unit
(** Set every processor's clock — the restart barrier after a recovery. *)

val charge : csim -> float -> unit
(** Add a cost to every processor's clock — the coordinated checkpoint
    write, paid per processor without synchronizing them. *)
