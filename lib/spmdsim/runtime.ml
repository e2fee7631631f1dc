(* Shared runtime substrate for the two SPMD execution engines (the
   tree-walking interpreter in {!Exec} and the closure-compiled engine in
   {!Compile}): startup parameter binding, array metadata, the packed
   message transport with per-channel sequence matching and fault
   injection, the effect-based scheduler with its collectives, and the
   structured deadlock diagnostics.

   Keeping the transport and scheduler here — used verbatim by both
   engines — is what makes the engine-differential guarantee structural:
   message counters, retransmit accounting and delivery order cannot
   diverge between engines, because there is only one implementation. *)

open Dhpf

exception Error of string

let errf fmt = Fmt.kstr (fun s -> raise (Error s)) fmt

(* ------------------------------------------------------------------ *)
(* Startup: parameter binding, processor grid, per-proc coordinates     *)
(* ------------------------------------------------------------------ *)

type setup = {
  su_genv : (string, int) Hashtbl.t;  (** global parameter values *)
  su_extents : int array;  (** processor grid extents *)
  su_total : int;  (** total processors: product of extents *)
  su_coords : int array array;  (** per-pid grid coordinates (m$k) *)
  su_vm0 : (int * int) list array;
      (** per-pid initial VP coordinates: (proc-dim index, vm$k value) for
          the modes bound at startup; template-cell VPs are loop-bound *)
  su_skew : float array;  (** per-processor straggler multiplier (>= 1) *)
}

let eval_genv genv e =
  Iset.Codegen.eval_expr
    (fun s ->
      match Hashtbl.find_opt genv s with
      | Some v -> v
      | None -> errf "unbound parameter %s" s)
    e

let setup ?faults ~nprocs ~params (prog : Spmd.program) : setup =
  let genv = Hashtbl.create 32 in
  Hashtbl.replace genv "number_of_processors" nprocs;
  List.iter (fun (n, v) -> Hashtbl.replace genv n v) params;
  let bind s =
    match Hashtbl.find_opt genv s with
    | Some v -> v
    | None -> errf "unbound parameter %s (needed at startup)" s
  in
  List.iter
    (fun (pb : Spmd.param_binding) ->
      match pb.pb_value with
      | `Given k -> Hashtbl.replace genv pb.pb_name k
      | `FromEnv ->
          if not (Hashtbl.mem genv pb.pb_name) then
            errf "symbolic parameter %s must be supplied" pb.pb_name
      | `Expr e -> Hashtbl.replace genv pb.pb_name (Hpf.Sema.eval_iexpr ~bind e))
    prog.params;
  let ev e = eval_genv genv e in
  let extents = Array.of_list (List.map ev prog.proc_extents) in
  Array.iteri
    (fun k e ->
      if e < 1 then
        errf "processor grid dimension %d has extent %d with %d processors"
          (k + 1) e nprocs)
    extents;
  let total = Array.fold_left ( * ) 1 extents in
  if total < 1 then errf "empty processor grid";
  let coords =
    Array.init total (fun pid ->
        (* column-major linearization: first dimension varies fastest *)
        let c = Array.make (Array.length extents) 0 in
        let rem = ref pid in
        Array.iteri
          (fun k e ->
            c.(k) <- !rem mod e;
            rem := !rem / e)
          extents;
        c)
  in
  let vm0 =
    Array.init total (fun pid ->
        List.concat
          (List.mapi
             (fun k (pd : Spmd.proc_dim_rt) ->
               match pd.pd_mode with
               | Spmd.VpIsPhys -> [ (k, coords.(pid).(k)) ]
               | Spmd.VpBlockOnePer ->
                   let b = ev (Option.get pd.pd_bsize) in
                   let tlo = ev pd.pd_tlo in
                   [ (k, (b * coords.(pid).(k)) + tlo) ]
               | Spmd.VpTemplateCell -> [] (* bound by generated VP loops *))
             prog.proc_dims))
  in
  let skew =
    Array.init total (fun pid ->
        match faults with None -> 1.0 | Some sp -> Fault.skew sp ~pid)
  in
  { su_genv = genv; su_extents = extents; su_total = total;
    su_coords = coords; su_vm0 = vm0; su_skew = skew }

(* ------------------------------------------------------------------ *)
(* Array metadata: bounds, strides, linear encoding                     *)
(* ------------------------------------------------------------------ *)

type ameta = {
  am_name : string;
  am_bounds : (int * int) array;  (** per-dim [lo, hi] *)
  am_ext : int array;  (** per-dim extent *)
  am_strides : int array;  (** column-major strides (dim 0 fastest) *)
  am_base : int;  (** sum of lo_d * stride_d, subtracted by the encoding *)
}

let ameta ~eval (ad : Spmd.array_decl) : ameta =
  let bounds =
    Array.of_list (List.map (fun (lo, hi) -> (eval lo, eval hi)) ad.ad_bounds)
  in
  let n = Array.length bounds in
  let ext = Array.map (fun (lo, hi) -> hi - lo + 1) bounds in
  let strides = Array.make n 1 in
  for i = 1 to n - 1 do
    strides.(i) <- strides.(i - 1) * ext.(i - 1)
  done;
  let base = ref 0 in
  Array.iteri (fun i (lo, _) -> base := !base + (lo * strides.(i))) bounds;
  { am_name = ad.ad_name; am_bounds = bounds; am_ext = ext; am_strides = strides;
    am_base = !base }

(** Global linear index of [idx], bounds-checked. *)
let encode (m : ameta) (idx : int list) : int =
  let off = ref (-m.am_base) in
  List.iteri
    (fun i x ->
      let lo, hi = m.am_bounds.(i) in
      if x < lo || x > hi then
        errf "array %s: index %d outside [%d,%d] (dim %d)" m.am_name x lo hi
          (i + 1);
      off := !off + (x * m.am_strides.(i)))
    idx;
  !off

(* ------------------------------------------------------------------ *)
(* Ownership and VP mapping (shared formulas; engines differ only in     *)
(* whether they evaluate them per access or tabulate them at setup)      *)
(* ------------------------------------------------------------------ *)

(* physical owner coordinate along one processor dimension, or None if the
   element is replicated along it *)
let owner_coord ~eval (dl : Spmd.dim_layout) (idx : int array) : int option =
  let t =
    match dl.Spmd.source with
    | Spmd.AnyCoord -> None
    | Spmd.FixedCoord e -> Some (eval e)
    | Spmd.FromData { data_dim; coef; off } ->
        Some ((coef * idx.(data_dim)) + eval off)
  in
  match t with
  | None -> None
  | Some t -> (
      let tlo = eval dl.Spmd.tlo in
      let p = eval dl.Spmd.pextent in
      match dl.Spmd.fmt with
      | Spmd.RBlock { bsize } ->
          let b = eval bsize in
          Some (Iset.Lin.fdiv (t - tlo) b)
      | Spmd.RCyclic -> Some (Iset.Lin.pmod (t - tlo) p)
      | Spmd.RBlockCyclic k -> Some (Iset.Lin.pmod (Iset.Lin.fdiv (t - tlo) k) p))

(* VP coordinates -> linear physical pid *)
let phys_of_vp ~eval (prog : Spmd.program) ~extents (vp : int list) : int =
  let pid = ref 0 and stride = ref 1 in
  List.iteri
    (fun k v ->
      let pd = List.nth prog.Spmd.proc_dims k in
      let c =
        match pd.Spmd.pd_mode with
        | Spmd.VpIsPhys -> v
        | Spmd.VpBlockOnePer ->
            let b = eval (Option.get pd.Spmd.pd_bsize) in
            Iset.Lin.fdiv (v - eval pd.Spmd.pd_tlo) b
        | Spmd.VpTemplateCell ->
            Iset.Lin.pmod (v - eval pd.Spmd.pd_tlo) (eval pd.Spmd.pd_extent)
      in
      pid := !pid + (c * !stride);
      stride := !stride * extents.(k))
    vp;
  !pid

(* ------------------------------------------------------------------ *)
(* Packed message payloads and buffers                                  *)
(* ------------------------------------------------------------------ *)

type payload = {
  pl_arr : string;  (** destination array; "" for an empty message *)
  pl_idx : int array;  (** global linear (encoded) element indices *)
  pl_val : float array;
}
(** Flat packed payload: parallel (index, value) arrays for one array, the
    wire format of both engines (the interpreter's former
    [(string * int * float) list] representation allocated three words of
    boxing per element and forced a per-element string compare on unpack). *)

let empty_payload = { pl_arr = ""; pl_idx = [||]; pl_val = [||] }

type packbuf = {
  mutable pb_arr : string;
  mutable pb_idx : int array;
  mutable pb_val : float array;
  mutable pb_len : int;
}
(** Growable send-side staging buffer, reused across messages of one
    (processor, event) channel so steady-state packing does not allocate. *)

let packbuf_create ?(cap = 16) () =
  let cap = max cap 16 in
  { pb_arr = ""; pb_idx = Array.make cap 0; pb_val = Array.make cap 0.0; pb_len = 0 }

let packbuf_push (b : packbuf) ~arr enc v =
  if b.pb_len = 0 then b.pb_arr <- arr
  else if b.pb_arr <> arr then
    errf "message buffer mixes arrays %s and %s in one event" b.pb_arr arr;
  let cap = Array.length b.pb_idx in
  if b.pb_len = cap then begin
    let idx' = Array.make (2 * cap) 0 and val' = Array.make (2 * cap) 0.0 in
    Array.blit b.pb_idx 0 idx' 0 cap;
    Array.blit b.pb_val 0 val' 0 cap;
    b.pb_idx <- idx';
    b.pb_val <- val'
  end;
  b.pb_idx.(b.pb_len) <- enc;
  b.pb_val.(b.pb_len) <- v;
  b.pb_len <- b.pb_len + 1

(** Read the staged elements without resetting the buffer (checkpoint
    capture: staged-but-unsent data is part of a processor's state). *)
let packbuf_peek (b : packbuf) : payload =
  if b.pb_len = 0 then empty_payload
  else
    { pl_arr = b.pb_arr;
      pl_idx = Array.sub b.pb_idx 0 b.pb_len;
      pl_val = Array.sub b.pb_val 0 b.pb_len }

(** Snapshot the staged elements as an immutable payload and reset. *)
let packbuf_flush (b : packbuf) : payload =
  if b.pb_len = 0 then empty_payload
  else begin
    let pl =
      { pl_arr = b.pb_arr;
        pl_idx = Array.sub b.pb_idx 0 b.pb_len;
        pl_val = Array.sub b.pb_val 0 b.pb_len }
    in
    b.pb_len <- 0;
    pl
  end

(* ------------------------------------------------------------------ *)
(* Fail-stop crash control                                              *)
(* ------------------------------------------------------------------ *)

exception Crash of { cp_pid : int; cp_op : int; cp_clock : float }

type crashctl = {
  cc_spec : Fault.spec option;
      (* probability-driven schedule: a crash fires at (pid, op) when
         [Fault.crash] says so — a pure hash, so a deterministic replay
         re-derives the same schedule *)
  cc_plan : (int * int) list;
      (* explicit (pid, op) crash points, for tests that need a crash at a
         known place (e.g. inside a collective) *)
  mutable cc_budget : int;
  cc_fired : (int * int, unit) Hashtbl.t;
      (* crashes already consumed: the control block is shared across
         recovery attempts, so a replay re-reaching a (pid, op) that
         crashed before does NOT crash again — without this the pure hash
         would fire forever at the same point *)
}

let crashctl_make ?(plan = []) ?spec ~max () =
  { cc_spec = spec; cc_plan = plan; cc_budget = max;
    cc_fired = Hashtbl.create 4 }

(* ------------------------------------------------------------------ *)
(* Transport: channels, sequence numbers, fault plans, counters         *)
(* ------------------------------------------------------------------ *)

type key = { k_event : int; k_src : int list; k_dst : int list }

type msg = {
  m_seq : int;
      (* per-channel sequence number: delivery matches the receiver's next
         expected seq, so in-flight reordering, duplicates and retransmitted
         drops cannot change which message a Recv consumes *)
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

type trace = {
  tw_pid : int;
      (** Chrome process id of this simulation instance (pid 0 is the
          compiler's lane; each traced simulation claims a fresh pid) *)
  tw_flow : (key * int, int) Hashtbl.t;
      (** (channel, seq) -> flow id, linking a send slice to the recv slice
          that consumes that sequence number *)
  tw_last : (int, float) Hashtbl.t;
      (** per-processor end time of the last traced slice, in simulated
          seconds; the gap up to the next slice is rendered as compute *)
}

type comm_cell = {
  cm_event : int;  (** communication event id, or [-1] for a collective *)
  cm_src : int;
  cm_dst : int;  (** [cm_src = cm_dst]: local copy between co-located VPs *)
  cm_msgs : int;
  cm_elems : int;
  cm_bytes : int;
}

type simmetrics = {
  sm_nprocs : int;
  sm_mx_msgs : int array;  (** P*P dense matrices, indexed [src*P + dst] *)
  sm_mx_elems : int array;
  sm_cells : (int * int * int, int ref * int ref) Hashtbl.t;
      (** (event, src, dst) -> (msgs, elems); diagonal = local copies *)
  sm_send_t : float array;  (** per-proc seconds inside sends (incl. packing) *)
  sm_recv_t : float array;  (** per-proc seconds blocked + unpacking in recvs *)
  sm_coll_t : float array;  (** per-proc seconds inside collectives *)
  sm_recv_elems : int array;  (** per-proc halo elements received *)
  sm_retrans : int array;  (** retransmissions by sending processor *)
  sm_msg_bytes : Obs.Metrics.histogram;  (** wire size of network messages *)
  mutable sm_coll_msgs : int;  (** messages attributed to collectives *)
  mutable sm_coll_bytes : int;
  mutable sm_local_msgs : int;  (** co-located VP copies (never on the wire) *)
  mutable sm_local_elems : int;
}

type transport = {
  tr_machine : Machine.t;
  tr_faults : Fault.spec option;
  tr_mailbox : (key, msg list ref) Hashtbl.t;
      (** in-flight messages per channel, in transport (possibly reordered)
          order; delivery matches sequence numbers, not list position *)
  tr_send_seq : (key, int) Hashtbl.t;
  tr_recv_seq : (key, int) Hashtbl.t;
  tr_c : counters;
  tr_trace : trace option;
      (** present iff tracing was enabled when the transport was built;
          tracing only reads the virtual clocks, never advances them, so a
          traced run is bit-identical to an untraced one *)
  tr_metrics : simmetrics option;
      (** present iff [Obs.Metrics] was enabled at build time; like
          tracing, metrics recording only reads clocks and payload sizes,
          so a metered run is bit-identical to a bare one *)
  tr_pid_ops : int array;
      (** per-processor communication-operation index: sends, receive
          completions and collective completions, in execution order — the
          coordinate crash schedules are keyed on *)
  mutable tr_gops : int;  (** total operations across all processors *)
  mutable tr_crash : crashctl option;  (** installed by {!Checkpoint.run} *)
  mutable tr_ckpt_every : int;  (** checkpoint interval in ops; 0 = off *)
  mutable tr_on_ckpt : int -> unit;
      (** checkpoint trigger, called with the global op count whenever it
          crosses a multiple of [tr_ckpt_every] *)
  mutable tr_max_events : int;
      (** scheduler watchdog: raise {!Error} once the global op count
          exceeds this bound; 0 = off *)
}

(* simulated seconds -> trace microseconds *)
let us t = t *. 1e6

let trace_ctr = Atomic.make 0

let transport_make ~machine ~faults ~nprocs =
  {
    tr_machine = machine;
    tr_faults = faults;
    tr_mailbox = Hashtbl.create 64;
    tr_send_seq = Hashtbl.create 64;
    tr_recv_seq = Hashtbl.create 64;
    tr_c =
      { n_msgs = 0; n_bytes = 0; n_elems = 0; n_retransmits = 0;
        n_timeouts = 0; n_dups = 0; n_max_mbox = 0 };
    tr_trace =
      (if Obs.enabled () then
         Some
           { tw_pid = Atomic.fetch_and_add trace_ctr 1 + 1;
             tw_flow = Hashtbl.create 64;
             tw_last = Hashtbl.create 16 }
       else None);
    tr_metrics =
      (if Obs.Metrics.enabled () then
         Some
           {
             sm_nprocs = nprocs;
             sm_mx_msgs = Array.make (nprocs * nprocs) 0;
             sm_mx_elems = Array.make (nprocs * nprocs) 0;
             sm_cells = Hashtbl.create 64;
             sm_send_t = Array.make nprocs 0.0;
             sm_recv_t = Array.make nprocs 0.0;
             sm_coll_t = Array.make nprocs 0.0;
             sm_recv_elems = Array.make nprocs 0;
             sm_retrans = Array.make nprocs 0;
             sm_msg_bytes = Obs.Metrics.histogram "sim/msg_bytes";
             sm_coll_msgs = 0;
             sm_coll_bytes = 0;
             sm_local_msgs = 0;
             sm_local_elems = 0;
           }
       else None);
    tr_pid_ops = Array.make nprocs 0;
    tr_gops = 0;
    tr_crash = None;
    tr_ckpt_every = 0;
    tr_on_ckpt = (fun _ -> ());
    tr_max_events = 0;
  }

let metrics_cell sm ~event ~src ~dst =
  match Hashtbl.find_opt sm.sm_cells (event, src, dst) with
  | Some c -> c
  | None ->
      let c = (ref 0, ref 0) in
      Hashtbl.add sm.sm_cells (event, src, dst) c;
      c

(* the idle-to-busy gap on a lane, rendered as a compute slice: the
   processors only accumulate clock time in compute statements and in the
   traced transport operations, so whatever lies between two traced slices
   is computation *)
let trace_gap tw ~tid t0 =
  let last = Option.value (Hashtbl.find_opt tw.tw_last tid) ~default:0.0 in
  if t0 -. last > 1e-12 then
    Obs.complete ~pid:tw.tw_pid ~tid ~ts:(us last) ~dur:(us (t0 -. last))
      ~cat:"compute" "compute"

let trace_slice tw ~tid ~t0 ~t1 ~cat ?args name =
  trace_gap tw ~tid t0;
  Obs.complete ~pid:tw.tw_pid ~tid ~ts:(us t0) ~dur:(us (t1 -. t0)) ~cat
    ?args name;
  Hashtbl.replace tw.tw_last tid t1

(** Emit an instant marker on a processor's lane ([ts] in simulated
    seconds); no-op when untraced. The recovery controller uses this for
    crash / restore events. *)
let trace_instant tr ~tid ~ts ?(cat = "fault") ?args name =
  match tr.tr_trace with
  | Some tw -> Obs.instant_at ~pid:tw.tw_pid ~tid ~ts:(us ts) ~cat ?args name
  | None -> ()

(* One communication operation completed on [pid]: bump the per-processor
   and global operation indices, feed the scheduler watchdog, evaluate the
   crash schedule, and fire the checkpoint trigger on interval boundaries.
   Both engines route every send, receive completion and collective
   completion through here (via {!send} and the scheduler), so operation
   indices — and with them crash points and checkpoint boundaries — are
   identical across engines and across deterministic replays. *)
let op_point tr ~pid ~clock =
  tr.tr_pid_ops.(pid) <- tr.tr_pid_ops.(pid) + 1;
  tr.tr_gops <- tr.tr_gops + 1;
  if tr.tr_max_events > 0 && tr.tr_gops > tr.tr_max_events then
    errf
      "scheduler watchdog: %d communication events exceed the --max-events \
       budget of %d (processor %d at its operation %d, t=%.3e) — \
       pathological schedule or livelock"
      tr.tr_gops tr.tr_max_events pid tr.tr_pid_ops.(pid) clock;
  let op = tr.tr_pid_ops.(pid) in
  (match tr.tr_crash with
  | Some cc when cc.cc_budget > 0 && not (Hashtbl.mem cc.cc_fired (pid, op)) ->
      let fires =
        List.mem (pid, op) cc.cc_plan
        ||
        match cc.cc_spec with
        | Some sp -> Fault.crash sp ~pid ~op
        | None -> false
      in
      if fires then begin
        cc.cc_budget <- cc.cc_budget - 1;
        Hashtbl.replace cc.cc_fired (pid, op) ();
        trace_instant tr ~tid:pid ~ts:clock
          ~args:[ ("op", Obs.Int op) ]
          "crash";
        raise (Crash { cp_pid = pid; cp_op = op; cp_clock = clock })
      end
  | _ -> ());
  if tr.tr_ckpt_every > 0 && tr.tr_gops mod tr.tr_ckpt_every = 0 then
    tr.tr_on_ckpt tr.tr_gops

(* ------------------------------------------------------------------ *)
(* Parallel lanes: deferred transport mutations                         *)
(* ------------------------------------------------------------------ *)

(* The parallel scheduler ({!sched_run_par}) runs processor fibers on a
   domain pool and keeps the run bit-identical to {!sched_run} with a
   two-pass split: pass 1 executes the engine bodies in parallel but logs
   every transport mutation as a deferred operation per lane (processor),
   delivering messages through a (channel, seq)-keyed concurrent mailbox;
   pass 2 replays the logs through the sequential scheduler, committing
   counters, mailbox evolution, traces, metrics and operation points in
   exactly the sequential interleaving. Pass 1 is sound because message
   delivery is sequence-matched (never availability-ordered), every
   channel has a single sending processor, and all clock arithmetic is a
   deterministic function of per-lane execution — so values, clocks and
   the logged operations are independent of domain interleaving. *)

exception Cancelled
(* unwinds lanes parked forever when the parallel pass detects a stall;
   the replay pass then reproduces the sequential {!Deadlock} diagnosis *)

type lane_op =
  | OSend of (unit -> unit)  (* captured transport commit *)
  | ORecv of { rk : key; rseq : int; rt0 : float; rt1 : float }
  | OReduce of { zop : Spmd.reduce_op; zmine : float; zt0 : float }
  | OReduceArr of { aname : string; aop : Spmd.reduce_op; at0 : float }
  | OPendRecv of { pk : key; pt0 : float }  (* parked at stall time *)

type lane = {
  l_pid : int;
  mutable l_log : lane_op list;  (* reversed; replay walks List.rev *)
  l_sseq : (key, int) Hashtbl.t;
      (* lane-local send sequence numbers: every channel has exactly one
         sending processor, so these match [tr_send_seq] of a sequential
         run without touching shared state *)
  l_rseq : (key, int) Hashtbl.t;  (* lane-local receive cursors *)
  l_post : key -> msg -> unit;  (* publish an original to the pass-1 mail *)
}

(* set for the duration of every lane start/resume in pass 1; [send] and
   [trace_recv] check it to defer their transport mutations *)
let lane_key : lane option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

(** Complete a send: decide contiguity (§3.3 compile-time proof or runtime
    check), charge packing / send CPU, apply the deterministic fault plan
    (drops with retransmit pricing, delay, duplication, reordering), and
    enqueue on the channel. [tick] charges CPU time to the sending
    processor; [get_clock] reads its clock after those charges.

    Under a parallel lane the clock charges and fault plan are computed
    immediately (they are lane-local), the message is published to the
    parallel mailbox, and every transport mutation is captured in an
    {!OSend} commit replayed by pass 2. *)
let send tr ~tick ~get_clock ~pid ~dst_pid ~event ~src_vp ~dst_vp ~inplace
    ~rect (pl : payload) : unit =
  let m = tr.tr_machine in
  let n = Array.length pl.pl_idx in
  (* clock before any charge: start of the traced/metered send window *)
  let tt0 =
    if tr.tr_trace = None && tr.tr_metrics = None then 0.0 else get_clock ()
  in
  (* §3.3: transfers proved contiguous at compile time go in place; a
     rectangular section that was not proved is tested at run time (a
     handful of predicate evaluations — far cheaper than packing) and
     goes in place when the test succeeds *)
  let contig =
    if inplace then true
    else if rect && n > 1 then begin
      tick (8.0 *. m.Machine.check_time);
      let ok = ref true in
      for i = 1 to n - 1 do
        if pl.pl_idx.(i) <> pl.pl_idx.(i - 1) + 1 then ok := false
      done;
      !ok
    end
    else false
  in
  if not contig then tick (float_of_int n *. m.Machine.pack_time);
  (* a message between two VPs of the same physical processor (cyclic
     distributions) is a local copy, not a network transfer *)
  let local = dst_pid = pid in
  if local then tick (float_of_int n *. m.Machine.pack_time)
  else tick m.Machine.send_overhead;
  let lane = Domain.DLS.get lane_key in
  let k = { k_event = event; k_src = src_vp; k_dst = dst_vp } in
  let seq =
    match lane with
    | None -> Option.value (Hashtbl.find_opt tr.tr_send_seq k) ~default:0
    | Some l ->
        let s = Option.value (Hashtbl.find_opt l.l_sseq k) ~default:0 in
        Hashtbl.replace l.l_sseq k (s + 1);
        s
  in
  let plan =
    match tr.tr_faults with
    | Some sp when not local -> Fault.plan sp ~event ~src:pid ~dst:dst_pid ~seq
    | _ -> Fault.no_faults
  in
  (* dropped transmissions: the sender's retransmission timer fires (with
     exponential backoff) and the message is re-sent, costing CPU and
     delaying the arrival — the payload that finally arrives is the same,
     so results are unaffected *)
  if plan.Fault.mp_drops > 0 then
    tick (float_of_int plan.Fault.mp_drops *. m.Machine.retry_overhead);
  (* every later clock read in the sequential path sees this same value:
     no charge is issued past this point *)
  let tfin = get_clock () in
  let wire = Machine.msg_time m n in
  let arrival =
    if local then tfin
    else
      tfin +. wire
      +. Machine.retransmit_wait m plan.Fault.mp_drops
      +. (plan.Fault.mp_delay *. wire)
  in
  let msg = { m_seq = seq; m_arrival = arrival; m_payload = pl; m_contig = contig } in
  let commit () =
    if not local then begin
      tr.tr_c.n_msgs <- tr.tr_c.n_msgs + 1;
      tr.tr_c.n_bytes <- tr.tr_c.n_bytes + (n * m.Machine.elem_bytes);
      tr.tr_c.n_elems <- tr.tr_c.n_elems + n
    end;
    Hashtbl.replace tr.tr_send_seq k (seq + 1);
    if plan.Fault.mp_drops > 0 then begin
      tr.tr_c.n_timeouts <- tr.tr_c.n_timeouts + plan.Fault.mp_drops;
      tr.tr_c.n_retransmits <- tr.tr_c.n_retransmits + plan.Fault.mp_drops
    end;
    let q =
      match Hashtbl.find_opt tr.tr_mailbox k with
      | Some q -> q
      | None ->
          let q = ref [] in
          Hashtbl.replace tr.tr_mailbox k q;
          q
    in
    (* transport order: a reordered message jumps ahead of traffic already
       in flight on its channel; delivery still matches sequence numbers *)
    if plan.Fault.mp_reorder then q := msg :: !q else q := !q @ [ msg ];
    if plan.Fault.mp_dup then
      q := !q @ [ { msg with m_arrival = arrival +. wire } ];
    let depth = List.length !q in
    if depth > tr.tr_c.n_max_mbox then tr.tr_c.n_max_mbox <- depth;
    (match tr.tr_metrics with
    | None -> ()
    | Some sm ->
        (* reads only: the clock delta charged above and the payload size *)
        sm.sm_send_t.(pid) <- sm.sm_send_t.(pid) +. (tfin -. tt0);
        let msgs, elems = metrics_cell sm ~event ~src:pid ~dst:dst_pid in
        Stdlib.incr msgs;
        elems := !elems + n;
        let cell = (pid * sm.sm_nprocs) + dst_pid in
        sm.sm_mx_msgs.(cell) <- sm.sm_mx_msgs.(cell) + 1;
        sm.sm_mx_elems.(cell) <- sm.sm_mx_elems.(cell) + n;
        sm.sm_retrans.(pid) <- sm.sm_retrans.(pid) + plan.Fault.mp_drops;
        if local then begin
          sm.sm_local_msgs <- sm.sm_local_msgs + 1;
          sm.sm_local_elems <- sm.sm_local_elems + n
        end
        else
          Obs.Metrics.observe sm.sm_msg_bytes
            (float_of_int (n * m.Machine.elem_bytes)));
    (match tr.tr_trace with
    | None -> ()
    | Some tw ->
        trace_slice tw ~tid:pid ~t0:tt0 ~t1:tfin ~cat:"comm"
          ~args:
            [ ("dst_pid", Obs.Int dst_pid);
              ("seq", Obs.Int seq);
              ("elems", Obs.Int n);
              ("bytes", Obs.Int (n * m.Machine.elem_bytes));
              ("contig", Obs.Bool contig);
              ("local", Obs.Bool local);
              ("drops", Obs.Int plan.Fault.mp_drops) ]
          (Printf.sprintf "send e%d" event);
        (* flow arrows only for network messages, so the number of flow
           starts equals the transport's point-to-point message counter;
           local copies have a slice but no arrow *)
        if not local then begin
          let fid = Obs.next_flow_id () in
          Hashtbl.replace tw.tw_flow (k, seq) fid;
          Obs.flow_start ~pid:tw.tw_pid ~tid:pid ~ts:(us tt0) ~id:fid "msg"
        end);
    op_point tr ~pid ~clock:tfin
  in
  match lane with
  | None -> commit ()
  | Some l ->
      (* the original (never the duplicate, never reordered — delivery is
         keyed by sequence number) becomes visible to the receiving lane;
         all bookkeeping waits for the replay pass *)
      l.l_post k msg;
      l.l_log <- OSend commit :: l.l_log

(** Trace a completed receive: [t0] is the receiver's clock when it
    blocked, [t1] its clock after arrival synchronization and unpack
    charges. Emits the recv slice (blocking wait included) and closes the
    send's flow arrow. Both engines call this from their [Recv]
    implementations; a no-op when the transport is untraced. *)
let trace_recv tr ~tid ~t0 ~t1 (k : key) (msg : msg) : unit =
  match Domain.DLS.get lane_key with
  | Some l ->
      (* parallel lane: record the receive (park and completion clocks) so
         the replay pass re-performs it and emits the metrics and trace
         side effects in the sequential interleaving *)
      l.l_log <- ORecv { rk = k; rseq = msg.m_seq; rt0 = t0; rt1 = t1 } :: l.l_log
  | None -> (
  (match tr.tr_metrics with
  | None -> ()
  | Some sm ->
      sm.sm_recv_t.(tid) <- sm.sm_recv_t.(tid) +. (t1 -. t0);
      sm.sm_recv_elems.(tid) <-
        sm.sm_recv_elems.(tid) + Array.length msg.m_payload.pl_idx);
  match tr.tr_trace with
  | None -> ()
  | Some tw -> (
      let n = Array.length msg.m_payload.pl_idx in
      trace_slice tw ~tid ~t0 ~t1 ~cat:"comm"
        ~args:
          [ ("seq", Obs.Int msg.m_seq);
            ("elems", Obs.Int n);
            ("contig", Obs.Bool msg.m_contig) ]
        (Printf.sprintf "recv e%d" k.k_event);
      match Hashtbl.find_opt tw.tw_flow (k, msg.m_seq) with
      | Some fid ->
          Hashtbl.remove tw.tw_flow (k, msg.m_seq);
          Obs.flow_end ~pid:tw.tw_pid ~tid ~ts:(us t1) ~id:fid "msg"
      | None -> ()))

(* ------------------------------------------------------------------ *)
(* Checkpoint images                                                    *)
(* ------------------------------------------------------------------ *)

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

let counters_copy (c : counters) : counters =
  { n_msgs = c.n_msgs; n_bytes = c.n_bytes; n_elems = c.n_elems;
    n_retransmits = c.n_retransmits; n_timeouts = c.n_timeouts;
    n_dups = c.n_dups; n_max_mbox = c.n_max_mbox }

(** Transport half of a checkpoint image: per-channel sequence counters,
    in-flight messages, and a copy of the counters. Engine-independent —
    both engines' [capture] build on this. *)
let capture_transport tr =
  let chans = Hashtbl.create 64 in
  Hashtbl.iter
    (fun k s ->
      let r = Option.value (Hashtbl.find_opt tr.tr_recv_seq k) ~default:0 in
      Hashtbl.replace chans k (s, r))
    tr.tr_send_seq;
  Hashtbl.iter
    (fun k r -> if not (Hashtbl.mem chans k) then Hashtbl.replace chans k (0, r))
    tr.tr_recv_seq;
  let im_chans =
    Hashtbl.fold (fun k (s, r) acc -> (k, s, r) :: acc) chans []
    |> List.sort compare |> Array.of_list
  in
  let im_inflight =
    Hashtbl.fold
      (fun k q acc -> if !q = [] then acc else (k, Array.of_list !q) :: acc)
      tr.tr_mailbox []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
    |> Array.of_list
  in
  (im_chans, im_inflight, counters_copy tr.tr_c)

type _ Effect.t +=
  | ERecv : key -> msg Effect.t
  | EReduce : (Spmd.reduce_op * float) -> float Effect.t
  | EReduceArr : (string * Spmd.reduce_op) -> unit Effect.t

(* ------------------------------------------------------------------ *)
(* Statistics                                                           *)
(* ------------------------------------------------------------------ *)

type stats = {
  s_time : float;  (** simulated execution time: max processor clock *)
  s_msgs : int;
  s_bytes : int;
  s_elems : int;
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

(* ------------------------------------------------------------------ *)
(* Deadlock diagnostics                                                 *)
(* ------------------------------------------------------------------ *)

type wait_reason =
  | WaitRecv of {
      wr_event : int;
      wr_src_vp : int list;
      wr_src_pid : int;  (** physical processor the wait is on *)
      wr_expected_seq : int;
      wr_queued : int;  (** undeliverable messages sitting on the channel *)
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
  dg_max_mailbox : int;
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
             seq %d, %d undeliverable queued@."
            w.w_pid w.w_clock r.wr_event pp_vp r.wr_src_vp r.wr_src_pid
            r.wr_expected_seq r.wr_queued
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
    d.dg_undelivered;
  if d.dg_max_mailbox > 0 then
    Fmt.pf fmt "  peak mailbox depth: %d@." d.dg_max_mailbox

let diagnostic_to_string d = Fmt.str "%a" pp_diagnostic d

(* shortest-path-free cycle finding: DFS over the wait-for edges; small
   graphs, recursion depth bounded by nprocs *)
let find_cycle (succ : int -> int list) (nodes : int list) : int list =
  let state = Hashtbl.create 16 in
  (* 0 = on stack, 1 = done *)
  let cycle = ref [] in
  let rec dfs path n =
    match Hashtbl.find_opt state n with
    | Some _ -> ()
    | None ->
        Hashtbl.replace state n 0;
        List.iter
          (fun s ->
            if !cycle = [] then
              match Hashtbl.find_opt state s with
              | Some 0 ->
                  (* found: unwind the path back to s *)
                  let rec take = function
                    | [] -> []
                    | x :: rest -> if x = s then [ x ] else x :: take rest
                  in
                  cycle := List.rev (take (n :: path))
              | Some _ -> ()
              | None -> dfs (n :: path) s)
          (succ n);
        Hashtbl.replace state n 1
  in
  List.iter (fun n -> if !cycle = [] then dfs [] n) nodes;
  !cycle

(* ------------------------------------------------------------------ *)
(* Scheduler                                                            *)
(* ------------------------------------------------------------------ *)

type hooks = {
  h_nprocs : int;
  h_tr : transport;
  h_clock : int -> float;  (** read processor clock *)
  h_set_clock : int -> float -> unit;
  h_body : int -> unit;  (** run processor [p]'s node program to completion *)
  h_reduce_arr : string -> Spmd.reduce_op -> int;
      (** combine every processor's partial values of the named array
          element-wise and write the result back everywhere; returns the
          number of distinct elements combined (for pricing) *)
  h_phys_of_vp : int list -> int;
}

type waiting =
  | WRun  (** not yet started *)
  | WRecv of key * (msg, unit) Effect.Deep.continuation
  | WReduce of Spmd.reduce_op * float * (float, unit) Effect.Deep.continuation
  | WReduceArr of string * Spmd.reduce_op * (unit, unit) Effect.Deep.continuation
  | WDone

let sched_run (h : hooks) : unit =
  let tr = h.h_tr in
  let machine = tr.tr_machine in
  let nprocs = h.h_nprocs in
  let status = Array.make nprocs WRun in
  let start p =
    let open Effect.Deep in
    match_with
      (fun () -> h.h_body p)
      ()
      {
        retc = (fun () -> status.(p) <- WDone);
        exnc = (fun e -> raise e);
        effc =
          (fun (type c) (eff : c Effect.t) ->
            match eff with
            | ERecv k ->
                Some
                  (fun (cont : (c, unit) continuation) ->
                    status.(p) <- WRecv (k, cont))
            | EReduce (op, v) ->
                Some
                  (fun (cont : (c, unit) continuation) ->
                    status.(p) <- WReduce (op, v, cont))
            | EReduceArr (name, op) ->
                Some
                  (fun (cont : (c, unit) continuation) ->
                    status.(p) <- WReduceArr (name, op, cont))
            | _ -> None);
      }
  in
  for p = 0 to nprocs - 1 do
    start p
  done;
  let is_done = function WDone -> true | _ -> false in
  let all_done () = Array.for_all is_done status in
  let max_clock () =
    let t = ref 0.0 in
    for p = 0 to nprocs - 1 do
      t := Float.max !t (h.h_clock p)
    done;
    !t
  in
  let progressed = ref true in
  while (not (all_done ())) && !progressed do
    progressed := false;
    (* deliver available messages: the transport may hold duplicates and
       reordered traffic, so delivery matches the next expected sequence
       number per channel — stale (already-delivered) copies are discarded
       and counted, out-of-order messages wait in flight *)
    for p = 0 to nprocs - 1 do
      match status.(p) with
      | WRecv (k, cont) -> (
          match Hashtbl.find_opt tr.tr_mailbox k with
          | Some q when !q <> [] -> (
              let expected =
                Option.value (Hashtbl.find_opt tr.tr_recv_seq k) ~default:0
              in
              let stale, live =
                List.partition (fun m -> m.m_seq < expected) !q
              in
              if stale <> [] then begin
                tr.tr_c.n_dups <- tr.tr_c.n_dups + List.length stale;
                (match tr.tr_trace with
                | Some tw ->
                    Obs.instant_at ~pid:tw.tw_pid ~tid:p
                      ~ts:(us (h.h_clock p)) ~cat:"fault"
                      ~args:[ ("count", Obs.Int (List.length stale)) ]
                      "dup discarded"
                | None -> ());
                q := live
              end;
              let rec take acc = function
                | [] -> None
                | m :: rest ->
                    if m.m_seq = expected then Some (m, List.rev_append acc rest)
                    else take (m :: acc) rest
              in
              match take [] live with
              | Some (msg, rest) ->
                  q := rest;
                  Hashtbl.replace tr.tr_recv_seq k (expected + 1);
                  progressed := true;
                  status.(p) <- WDone;
                  (* placeholder; handler overwrites on next block *)
                  op_point tr ~pid:p ~clock:(h.h_clock p);
                  Effect.Deep.continue cont msg
              | None -> ())
          | _ -> ())
      | _ -> ()
    done;
    (* collectives *)
    if not !progressed then begin
      let at_arr_reduce =
        Array.for_all (function WReduceArr _ -> true | _ -> false) status
        && Array.length status > 0
      in
      if at_arr_reduce then begin
        let name, op, _ =
          match status.(0) with
          | WReduceArr (n, o, c) -> (n, o, c)
          | _ -> assert false
        in
        let nelems = h.h_reduce_arr name op in
        let stages =
          if nprocs <= 1 then 0
          else int_of_float (ceil (log (float_of_int nprocs) /. log 2.0))
        in
        let cost = 2.0 *. float_of_int stages *. Machine.msg_time machine nelems in
        let t_done = max_clock () +. cost in
        tr.tr_c.n_msgs <- tr.tr_c.n_msgs + (2 * stages * nprocs);
        tr.tr_c.n_bytes <-
          tr.tr_c.n_bytes + (2 * stages * nelems * machine.Machine.elem_bytes);
        (match tr.tr_metrics with
        | None -> ()
        | Some sm ->
            sm.sm_coll_msgs <- sm.sm_coll_msgs + (2 * stages * nprocs);
            sm.sm_coll_bytes <-
              sm.sm_coll_bytes
              + (2 * stages * nelems * machine.Machine.elem_bytes);
            for p = 0 to nprocs - 1 do
              sm.sm_coll_t.(p) <- sm.sm_coll_t.(p) +. (t_done -. h.h_clock p)
            done);
        (match tr.tr_trace with
        | Some tw ->
            for p = 0 to nprocs - 1 do
              trace_slice tw ~tid:p ~t0:(h.h_clock p) ~t1:t_done ~cat:"coll"
                ~args:[ ("elems", Obs.Int nelems); ("stages", Obs.Int stages) ]
                (Printf.sprintf "allreduce_arr %s" name)
            done
        | None -> ());
        let conts =
          Array.mapi
            (fun pidx st ->
              match st with WReduceArr (_, _, c) -> Some (pidx, c) | _ -> None)
            status
        in
        Array.iter
          (function
            | Some (pidx, cont) ->
                h.h_set_clock pidx t_done;
                status.(pidx) <- WDone;
                progressed := true;
                op_point tr ~pid:pidx ~clock:t_done;
                Effect.Deep.continue cont ()
            | None -> ())
          conts
      end;
      let at_reduce =
        Array.for_all
          (function WReduce _ -> true | WDone -> false | _ -> false)
          status
        && Array.exists (function WReduce _ -> true | _ -> false) status
      in
      if at_reduce then begin
        let vals =
          Array.to_list status
          |> List.filter_map (function
               | WReduce (op, v, _) -> Some (op, v)
               | _ -> None)
        in
        let op = fst (List.hd vals) in
        let combined =
          List.fold_left
            (fun acc (_, v) ->
              match op with
              | Spmd.RSum -> acc +. v
              | Spmd.RMax -> Float.max acc v
              | Spmd.RMin -> Float.min acc v)
            (match op with
            | Spmd.RSum -> 0.0
            | Spmd.RMax -> Float.neg_infinity
            | Spmd.RMin -> Float.infinity)
            vals
        in
        let t_done = max_clock () +. Machine.allreduce_time machine nprocs in
        (match tr.tr_metrics with
        | None -> ()
        | Some sm ->
            Array.iteri
              (fun p s ->
                match s with
                | WReduce _ ->
                    sm.sm_coll_t.(p) <-
                      sm.sm_coll_t.(p) +. (t_done -. h.h_clock p)
                | _ -> ())
              status);
        (match tr.tr_trace with
        | Some tw ->
            let opname =
              match op with
              | Spmd.RSum -> "sum"
              | Spmd.RMax -> "max"
              | Spmd.RMin -> "min"
            in
            Array.iteri
              (fun p s ->
                match s with
                | WReduce _ ->
                    trace_slice tw ~tid:p ~t0:(h.h_clock p) ~t1:t_done
                      ~cat:"coll"
                      (Printf.sprintf "allreduce %s" opname)
                | _ -> ())
              status
        | None -> ());
        let conts =
          Array.mapi
            (fun p s -> match s with WReduce (_, _, c) -> Some (p, c) | _ -> None)
            status
        in
        Array.iter
          (function
            | Some (p, cont) ->
                h.h_set_clock p t_done;
                status.(p) <- WDone;
                progressed := true;
                op_point tr ~pid:p ~clock:t_done;
                Effect.Deep.continue cont combined
            | None -> ())
          conts
      end
    end
  done;
  if not (all_done ()) then begin
    (* structured diagnosis: who waits on whom, with event ids, sequence
       numbers, simulated clocks and channel depths; extract a wait-for
       cycle when one exists *)
    let waiting =
      Array.to_list status
      |> List.mapi (fun p s ->
             let w reason =
               Some { w_pid = p; w_clock = h.h_clock p; w_reason = reason }
             in
             match s with
             | WRecv (k, _) ->
                 let queued =
                   match Hashtbl.find_opt tr.tr_mailbox k with
                   | Some q -> List.length !q
                   | None -> 0
                 in
                 w
                   (WaitRecv
                      {
                        wr_event = k.k_event;
                        wr_src_vp = k.k_src;
                        wr_src_pid = h.h_phys_of_vp k.k_src;
                        wr_expected_seq =
                          Option.value
                            (Hashtbl.find_opt tr.tr_recv_seq k)
                            ~default:0;
                        wr_queued = queued;
                      })
             | WReduce _ -> w WaitReduce
             | WReduceArr (name, _, _) -> w (WaitReduceArr name)
             | WRun | WDone -> None)
      |> List.filter_map Fun.id
    in
    let stuck = List.map (fun w -> w.w_pid) waiting in
    let succ p =
      match List.find_opt (fun w -> w.w_pid = p) waiting with
      | Some { w_reason = WaitRecv r; _ } ->
          if List.mem r.wr_src_pid stuck then [ r.wr_src_pid ] else []
      | Some { w_reason = WaitReduce | WaitReduceArr _; _ } ->
          (* a collective waits on every processor that has not reached it *)
          List.filter
            (fun p' ->
              p' <> p
              &&
              match List.find_opt (fun w -> w.w_pid = p') waiting with
              | Some { w_reason = WaitRecv _; _ } -> true
              | _ -> false)
            stuck
      | _ -> []
    in
    let undelivered =
      Hashtbl.fold
        (fun k q acc ->
          if !q = [] then acc
          else (k.k_event, k.k_src, k.k_dst, List.length !q) :: acc)
        tr.tr_mailbox []
      |> List.sort compare
    in
    raise
      (Deadlock
         {
           dg_waiting = waiting;
           dg_cycle = find_cycle succ stuck;
           dg_undelivered = undelivered;
           dg_max_mailbox = tr.tr_c.n_max_mbox;
         })
  end

(* ------------------------------------------------------------------ *)
(* Parallel scheduler: lanes across a domain pool + sequential replay   *)
(* ------------------------------------------------------------------ *)

(* a collective rendezvous: at most one is open at any time (a lane
   cannot pass a collective before every lane reaches it), so a single
   current-slot reference suffices; lanes keep their own reference, which
   stays valid after the slot fires and a new one opens *)
type coll_slot = {
  mutable sl_sc : (int * Spmd.reduce_op * float) list;  (* scalar arrivals *)
  mutable sl_ar : (int * string * Spmd.reduce_op) list;  (* array arrivals *)
  mutable sl_fired : bool;
  mutable sl_scalar : float;  (* combined value, scalar collectives *)
  mutable sl_tdone : float;
}

type lane_state =
  | LStart
  | LRecv of key * (msg, unit) Effect.Deep.continuation
  | LReduce of coll_slot * (float, unit) Effect.Deep.continuation
  | LReduceArr of coll_slot * (unit, unit) Effect.Deep.continuation
  | LDone

let sched_run_par ?(domains = 1) (h : hooks) : unit =
  let tr = h.h_tr in
  let nprocs = h.h_nprocs in
  if
    domains <= 1 || nprocs <= 1
    || tr.tr_crash <> None
    || tr.tr_ckpt_every > 0
    || tr.tr_max_events > 0
  then
    (* exactly today's code path: single domain, or a crash/checkpoint/
       watchdog run, whose mid-run transport captures and op-indexed crash
       schedules are inherently sequential *)
    sched_run h
  else begin
    let machine = tr.tr_machine in
    let nd = min domains nprocs in
    let mu = Mutex.create () in
    let cond = Condition.create () in
    (* progress epoch: bumped on every publication that can unblock another
       domain (message post, collective firing); idlers re-sweep when it
       moves and park on [cond] while it does not *)
    let seqno = ref 0 in
    let mail : (key * int, msg) Hashtbl.t = Hashtbl.create 256 in
    let coll : coll_slot option ref = ref None in
    let arr_nelems : int Queue.t = Queue.create () in
    let n_done = ref 0 in
    let n_idle = ref 0 in
    let n_exited = ref 0 in
    (* per-domain idle stamp: -1 active, -2 exited, else the epoch it went
       to sleep at — a stall is declared only when every domain is asleep
       at the *current* epoch, so a firing that has not yet been collected
       by its sleeping owner can never be mistaken for a deadlock *)
    let idle_seen = Array.make nd (-1) in
    let abort = ref false in
    let error : (int * exn * Printexc.raw_backtrace) option ref = ref None in
    let init_clocks = Array.init nprocs h.h_clock in
    let lanes =
      Array.init nprocs (fun p ->
          {
            l_pid = p;
            l_log = [];
            l_sseq = Hashtbl.create 16;
            l_rseq = Hashtbl.create 16;
            l_post =
              (fun k m ->
                Mutex.protect mu (fun () ->
                    Hashtbl.replace mail (k, m.m_seq) m;
                    incr seqno;
                    Condition.broadcast cond));
          })
    in
    let record_error p e bt =
      Mutex.protect mu (fun () ->
          (match !error with
          | Some (p0, _, _) when p0 <= p -> ()
          | _ -> error := Some (p, e, bt));
          abort := true;
          incr seqno;
          Condition.broadcast cond)
    in
    (* fire the open collective if complete; caller holds [mu]. Mirrors the
       sequential conditions exactly: a scalar collective needs all lanes
       in it (one terminated lane blocks it forever, as in [sched_run]);
       an array collective likewise needs every lane. *)
    let try_fire (s : coll_slot) =
      if not s.sl_fired then begin
        let max_clock () =
          let t = ref 0.0 in
          for p = 0 to nprocs - 1 do
            t := Float.max !t (h.h_clock p)
          done;
          !t
        in
        if List.length s.sl_ar = nprocs then begin
          let _, name, op =
            List.find (fun (p, _, _) -> p = 0) s.sl_ar
          in
          let nelems = h.h_reduce_arr name op in
          Queue.push nelems arr_nelems;
          let stages =
            if nprocs <= 1 then 0
            else int_of_float (ceil (log (float_of_int nprocs) /. log 2.0))
          in
          s.sl_tdone <-
            max_clock ()
            +. (2.0 *. float_of_int stages *. Machine.msg_time machine nelems);
          s.sl_fired <- true;
          incr seqno;
          Condition.broadcast cond
        end
        else if List.length s.sl_sc = nprocs then begin
          let vals =
            List.sort (fun (a, _, _) (b, _, _) -> compare a b) s.sl_sc
          in
          let op = match vals with (_, op, _) :: _ -> op | [] -> assert false in
          s.sl_scalar <-
            List.fold_left
              (fun acc (_, _, v) ->
                match op with
                | Spmd.RSum -> acc +. v
                | Spmd.RMax -> Float.max acc v
                | Spmd.RMin -> Float.min acc v)
              (match op with
              | Spmd.RSum -> 0.0
              | Spmd.RMax -> Float.neg_infinity
              | Spmd.RMin -> Float.infinity)
              vals;
          s.sl_tdone <- max_clock () +. Machine.allreduce_time machine nprocs;
          s.sl_fired <- true;
          incr seqno;
          Condition.broadcast cond
        end
      end
    in
    (* register an arrival at the current collective; caller holds [mu] *)
    let arrive p (kind : [ `Sc of Spmd.reduce_op * float | `Ar of string * Spmd.reduce_op ])
        : coll_slot =
      let s =
        match !coll with
        | Some s when not s.sl_fired -> s
        | _ ->
            let s =
              { sl_sc = []; sl_ar = []; sl_fired = false; sl_scalar = 0.0;
                sl_tdone = 0.0 }
            in
            coll := Some s;
            s
      in
      (match kind with
      | `Sc (op, v) -> s.sl_sc <- (p, op, v) :: s.sl_sc
      | `Ar (name, op) -> s.sl_ar <- (p, name, op) :: s.sl_ar);
      try_fire s;
      s
    in
    let domain_loop d =
      let my =
        Array.of_list
          (List.filter
             (fun p -> p mod nd = d)
             (List.init nprocs (fun p -> p)))
      in
      let st = Array.map (fun _ -> LStart) my in
      let set_state i v = st.(i) <- v in
      (* run a lane step (start, resume or cancel) with its DLS marker
         installed; lane exceptions abort the whole run — Cancelled is the
         abort unwind itself and stays silent *)
      let lane_step p f =
        Domain.DLS.set lane_key (Some lanes.(p));
        Fun.protect ~finally:(fun () -> Domain.DLS.set lane_key None) f
      in
      let start i p =
        let open Effect.Deep in
        match_with
          (fun () -> h.h_body p)
          ()
          {
            retc =
              (fun () ->
                set_state i LDone;
                Mutex.protect mu (fun () -> incr n_done));
            exnc = (fun e -> raise e);
            effc =
              (fun (type c) (eff : c Effect.t) ->
                match eff with
                | ERecv k ->
                    Some
                      (fun (cont : (c, unit) continuation) ->
                        set_state i (LRecv (k, cont)))
                | EReduce (op, v) ->
                    Some
                      (fun (cont : (c, unit) continuation) ->
                        let s =
                          Mutex.protect mu (fun () ->
                              lanes.(p).l_log <-
                                OReduce
                                  { zop = op; zmine = v; zt0 = h.h_clock p }
                                :: lanes.(p).l_log;
                              arrive p (`Sc (op, v)))
                        in
                        set_state i (LReduce (s, cont)))
                | EReduceArr (name, op) ->
                    Some
                      (fun (cont : (c, unit) continuation) ->
                        let s =
                          Mutex.protect mu (fun () ->
                              lanes.(p).l_log <-
                                OReduceArr
                                  { aname = name; aop = op; at0 = h.h_clock p }
                                :: lanes.(p).l_log;
                              arrive p (`Ar (name, op)))
                        in
                        set_state i (LReduceArr (s, cont)))
                | _ -> None);
          }
      in
      let all_done () = Array.for_all (function LDone -> true | _ -> false) st in
      (try
         while (not (all_done ())) && not !abort do
           (* the epoch is read before the sweep: a publication landing
              mid-sweep moves it, so the no-progress re-check under the
              lock cannot miss a message the sweep was too early to see *)
           let seen = Mutex.protect mu (fun () -> !seqno) in
           let progressed = ref false in
           Array.iteri
             (fun i p ->
               if not !abort then
                 match st.(i) with
                 | LStart ->
                     progressed := true;
                     lane_step p (fun () -> start i p)
                 | LRecv (k, cont) -> (
                     let expected =
                       Option.value
                         (Hashtbl.find_opt lanes.(p).l_rseq k)
                         ~default:0
                     in
                     let m =
                       Mutex.protect mu (fun () ->
                           match Hashtbl.find_opt mail (k, expected) with
                           | Some m ->
                               Hashtbl.remove mail (k, expected);
                               Some m
                           | None -> None)
                     in
                     match m with
                     | Some m ->
                         Hashtbl.replace lanes.(p).l_rseq k (expected + 1);
                         progressed := true;
                         set_state i LDone;
                         (* placeholder; handler overwrites on next block *)
                         lane_step p (fun () -> Effect.Deep.continue cont m)
                     | None -> ())
                 | LReduce (s, cont) ->
                     if s.sl_fired then begin
                       progressed := true;
                       h.h_set_clock p s.sl_tdone;
                       set_state i LDone;
                       lane_step p (fun () ->
                           Effect.Deep.continue cont s.sl_scalar)
                     end
                 | LReduceArr (s, cont) ->
                     if s.sl_fired then begin
                       progressed := true;
                       h.h_set_clock p s.sl_tdone;
                       set_state i LDone;
                       lane_step p (fun () -> Effect.Deep.continue cont ())
                     end
                 | LDone -> ())
             my;
           if (not !progressed) && not (all_done ()) then
             Mutex.protect mu (fun () ->
                 (* an epoch moved since the sweep started means it may
                    have missed a publication: re-sweep instead of sleeping *)
                 if !seqno = seen && not !abort then begin
                   idle_seen.(d) <- seen;
                   incr n_idle;
                   if
                     !n_idle + !n_exited = nd
                     && !n_done < nprocs
                     && Array.for_all (fun s -> s = seen || s = -2) idle_seen
                   then begin
                     (* every domain is asleep at the current epoch and
                        lanes remain blocked: a genuine stall *)
                     abort := true;
                     Condition.broadcast cond
                   end
                   else
                     while !seqno = seen && not !abort do
                       Condition.wait cond mu
                     done;
                   decr n_idle;
                   idle_seen.(d) <- -1
                 end)
         done
       with e ->
         let bt = Printexc.get_raw_backtrace () in
         (match e with
         | Cancelled -> ()
         | _ -> record_error d e bt));
      (* tear down: park clocks of still-blocked lanes go on the log so the
         replay reproduces the sequential deadlock diagnosis (collective
         parks were logged on arrival), then unwind their fibers *)
      if !abort then
        Array.iteri
          (fun i p ->
            let cancel cont =
              try lane_step p (fun () -> Effect.Deep.discontinue cont Cancelled)
              with
              | Cancelled -> ()
              | e ->
                  let bt = Printexc.get_raw_backtrace () in
                  record_error p e bt
            in
            match st.(i) with
            | LRecv (k, cont) ->
                lanes.(p).l_log <-
                  OPendRecv { pk = k; pt0 = h.h_clock p } :: lanes.(p).l_log;
                set_state i LDone;
                cancel cont
            | LReduce (_, cont) ->
                set_state i LDone;
                cancel cont
            | LReduceArr (_, cont) ->
                set_state i LDone;
                cancel cont
            | LStart | LDone -> ())
          my;
      Mutex.protect mu (fun () ->
          idle_seen.(d) <- -2;
          incr n_exited;
          if
            !n_idle + !n_exited = nd
            && !n_done < nprocs
            && Array.for_all (fun s -> s = !seqno || s = -2) idle_seen
          then begin
            abort := true;
            Condition.broadcast cond
          end)
    in
    (try Par.spawn_join nd domain_loop
     with e ->
       let bt = Printexc.get_raw_backtrace () in
       record_error nprocs e bt);
    (match !error with
    | Some (_, e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> ());
    let stalled = !abort in
    (* pass 2: replay the lane logs through the sequential scheduler so
       every transport mutation — counters, mailbox evolution (duplicates,
       reordering, stale discards), sequence cursors, op points, metrics
       and traces — happens in exactly the sequential interleaving, against
       shadow clocks restored from the logged park/completion times *)
    let shadow = Array.copy init_clocks in
    let walk p =
      List.iter
        (function
          | OSend commit -> commit ()
          | ORecv { rk; rseq; rt0; rt1 } ->
              shadow.(p) <- rt0;
              let m = Effect.perform (ERecv rk) in
              if m.m_seq <> rseq then
                errf
                  "parallel replay divergence: proc %d event %d delivered \
                   seq %d, lane consumed seq %d"
                  p rk.k_event m.m_seq rseq;
              shadow.(p) <- rt1;
              trace_recv tr ~tid:p ~t0:rt0 ~t1:rt1 rk m
          | OReduce { zop; zmine; zt0 } ->
              shadow.(p) <- zt0;
              ignore (Effect.perform (EReduce (zop, zmine)) : float)
          | OReduceArr { aname; aop; at0 } ->
              shadow.(p) <- at0;
              Effect.perform (EReduceArr (aname, aop))
          | OPendRecv { pk; pt0 } ->
              shadow.(p) <- pt0;
              ignore (Effect.perform (ERecv pk) : msg);
              errf "parallel replay divergence: stalled receive completed")
        (List.rev lanes.(p).l_log)
    in
    let rh =
      {
        h with
        h_clock = (fun p -> shadow.(p));
        h_set_clock = (fun p t -> shadow.(p) <- t);
        h_body = walk;
        h_reduce_arr =
          (fun _ _ ->
            (* pass 1 already combined, in global collective order *)
            Queue.pop arr_nelems);
      }
    in
    if stalled then begin
      sched_run rh;
      (* the replay of a stalled run must stall too (raising Deadlock) *)
      errf "parallel replay divergence: replay completed but lanes stalled"
    end
    else
      match sched_run rh with
      | () -> ()
      | exception Deadlock _ ->
          errf "parallel replay divergence: replay stalled on a completed run"
  end

(** Sorted per-pair point-to-point table, one row per (event, src, dst)
    that carried traffic; the diagonal rows are co-located VP copies.
    Empty unless [Obs.Metrics] was enabled when the transport was built.
    Per-pair counts never re-increment on retransmission or duplication,
    so the measured matrix is invariant under fault injection — exactly
    the property [--check-comm] relies on. *)
let comm_cells tr : comm_cell list =
  match tr.tr_metrics with
  | None -> []
  | Some sm ->
      Hashtbl.fold
        (fun (event, src, dst) (msgs, elems) acc ->
          { cm_event = event; cm_src = src; cm_dst = dst; cm_msgs = !msgs;
            cm_elems = !elems;
            cm_bytes = !elems * tr.tr_machine.Machine.elem_bytes }
          :: acc)
        sm.sm_cells []
      |> List.sort compare

(* fold the per-run accumulators into the global metrics registry: the
   communication matrix, per-processor time split, halo occupancy, fault
   breakdown and the derived load-balance figures of merit *)
let metrics_publish tr sm ~proc_times =
  let module M = Obs.Metrics in
  let p = sm.sm_nprocs in
  let label_pair src dst =
    [ ("src", string_of_int src); ("dst", string_of_int dst) ]
  in
  for src = 0 to p - 1 do
    for dst = 0 to p - 1 do
      let c = (src * p) + dst in
      if sm.sm_mx_msgs.(c) > 0 then begin
        let labels = label_pair src dst in
        M.inc (M.counter ~labels "sim/comm_msgs")
          (float_of_int sm.sm_mx_msgs.(c));
        M.inc (M.counter ~labels "sim/comm_elems")
          (float_of_int sm.sm_mx_elems.(c));
        M.inc (M.counter ~labels "sim/comm_bytes")
          (float_of_int
             (sm.sm_mx_elems.(c) * tr.tr_machine.Machine.elem_bytes))
      end
    done
  done;
  let halo = M.histogram "sim/halo_elems_per_proc" in
  let compute_sum = ref 0.0 and compute_max = ref 0.0 and comm_sum = ref 0.0 in
  Array.iteri
    (fun i total ->
      let comm = sm.sm_send_t.(i) +. sm.sm_recv_t.(i) +. sm.sm_coll_t.(i) in
      let compute = Float.max 0.0 (total -. comm) in
      compute_sum := !compute_sum +. compute;
      comm_sum := !comm_sum +. comm;
      if compute > !compute_max then compute_max := compute;
      let labels = [ ("proc", string_of_int i) ] in
      M.set (M.gauge ~labels "sim/proc_total_s") total;
      M.set (M.gauge ~labels "sim/proc_compute_s") compute;
      M.set (M.gauge ~labels "sim/proc_send_s") sm.sm_send_t.(i);
      M.set (M.gauge ~labels "sim/proc_recv_wait_s") sm.sm_recv_t.(i);
      M.set (M.gauge ~labels "sim/proc_coll_s") sm.sm_coll_t.(i);
      if sm.sm_retrans.(i) > 0 then
        M.inc
          (M.counter ~labels:[ ("src", string_of_int i) ] "sim/retransmits_by_src")
          (float_of_int sm.sm_retrans.(i));
      M.observe halo (float_of_int sm.sm_recv_elems.(i)))
    proc_times;
  let inc_tot name v = M.inc (M.counter name) (float_of_int v) in
  inc_tot "sim/msgs_total" tr.tr_c.n_msgs;
  inc_tot "sim/bytes_total" tr.tr_c.n_bytes;
  inc_tot "sim/elems_total" tr.tr_c.n_elems;
  inc_tot "sim/coll_msgs" sm.sm_coll_msgs;
  inc_tot "sim/coll_bytes" sm.sm_coll_bytes;
  inc_tot "sim/local_copies" sm.sm_local_msgs;
  inc_tot "sim/local_copy_elems" sm.sm_local_elems;
  inc_tot "sim/retransmits" tr.tr_c.n_retransmits;
  inc_tot "sim/timeouts" tr.tr_c.n_timeouts;
  inc_tot "sim/dups_discarded" tr.tr_c.n_dups;
  M.set (M.gauge "sim/max_mailbox") (float_of_int tr.tr_c.n_max_mbox);
  let mean = !compute_sum /. float_of_int (max 1 p) in
  M.set (M.gauge "sim/compute_max_s") !compute_max;
  M.set (M.gauge "sim/compute_mean_s") mean;
  if mean > 0.0 then M.set (M.gauge "sim/load_imbalance") (!compute_max /. mean);
  if !compute_sum > 0.0 then
    M.set (M.gauge "sim/comm_to_compute") (!comm_sum /. !compute_sum)

(** Assemble the final statistics from the transport counters and the
    per-processor clocks. For a traced run this is also the end of the
    timeline: name the lanes and fill each processor's tail (last traced
    slice to its final clock) as compute. For a metered run this is where
    the accumulators fold into the [Obs.Metrics] registry. *)
let stats_of tr ~proc_times : stats =
  (match tr.tr_trace with
  | Some tw ->
      Obs.set_process_name ~pid:tw.tw_pid
        (Printf.sprintf "spmd simulation %d" tw.tw_pid);
      Array.iteri
        (fun p t ->
          Obs.set_thread_name ~pid:tw.tw_pid ~tid:p (Printf.sprintf "proc %d" p);
          trace_gap tw ~tid:p t;
          Hashtbl.replace tw.tw_last p t)
        proc_times
  | None -> ());
  (match tr.tr_metrics with
  | Some sm -> metrics_publish tr sm ~proc_times
  | None -> ());
  {
    s_time = Array.fold_left Float.max 0.0 proc_times;
    s_msgs = tr.tr_c.n_msgs;
    s_bytes = tr.tr_c.n_bytes;
    s_elems = tr.tr_c.n_elems;
    s_proc_times = proc_times;
    s_retransmits = tr.tr_c.n_retransmits;
    s_timeouts = tr.tr_c.n_timeouts;
    s_dups_delivered = tr.tr_c.n_dups;
    s_max_mailbox = tr.tr_c.n_max_mbox;
    (* crash/recovery accounting lives in the {!Checkpoint} controller,
       which patches these after assembling the final attempt's stats *)
    s_crashes = 0;
    s_recoveries = 0;
    s_ckpts = 0;
    s_ckpt_bytes = 0;
    s_lost_work = 0.0;
  }
