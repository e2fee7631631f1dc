(* Shared runtime substrate for the three SPMD execution engines (the
   tree-walking interpreter in {!Exec}, and the closure-compiled and
   native engines, the two back ends of {!Compile}'s lowering): startup
   parameter binding, array metadata, the packed message transport with
   per-channel sequence matching and fault injection, the effect-based
   scheduler with its one collective mechanism, and the structured
   deadlock diagnostics.

   Keeping the transport and scheduler here — used verbatim by all three
   engines — is what makes the engine-differential guarantee structural:
   the communication tally, retransmit accounting and delivery order
   cannot diverge between engines, because there is only one
   implementation. What a run yields (statistics, comm cells, the
   exceptions and the stall diagnosis) is declared in {!Outcome} and
   included here; every run keeps its tally and its time split, and
   {!stats_of} publishes both while [Obs.Metrics] is on. *)

open Dhpf
include Outcome

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
  (* a supplied value binds only a parameter the compiler left symbolic *)
  List.iter
    (fun (n, v) ->
      if not (List.mem { Spmd.pb_name = n; pb_value = `FromEnv } prog.params)
      then errf "parameter %s is not a symbolic parameter of the program" n;
      if Hashtbl.mem genv n then errf "parameter %s supplied twice" n;
      Hashtbl.replace genv n v)
    params;
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

(* the linear pid of an element's owner (replicated dims resolve to
   coordinate 0; an undistributed array lives on pid 0) *)
let owner_pid ~eval (layout : Spmd.array_layout option) ~extents
    (idx : int list) : int =
  match layout with
  | None -> 0
  | Some la ->
      let idxa = Array.of_list idx in
      let pid = ref 0 and stride = ref 1 in
      List.iteri
        (fun k dl ->
          let c = Option.value (owner_coord ~eval dl idxa) ~default:0 in
          pid := !pid + (c * !stride);
          stride := !stride * extents.(k))
        la.Spmd.la_dims;
      !pid

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
    wire format of all three engines (the interpreter's former
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

let packbuf_create () =
  { pb_arr = ""; pb_idx = Array.make 16 0; pb_val = Array.make 16 0.0; pb_len = 0 }

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
(* Transport: channels, sequence numbers, fault plans, the tally        *)
(* ------------------------------------------------------------------ *)

type key = { k_event : int; k_src : int list; k_dst : int list }

type msg = {
  m_seq : int;
      (* per-channel sequence number: delivery matches the receiver's next
         expected seq, so retransmitted drops cannot change which message a
         Recv consumes, and queue position is unobservable *)
  m_arrival : float;
  m_payload : payload;
  m_contig : bool;
  m_flow : int;
      (* trace flow id linking the send slice to the recv slice that
         consumes the message; 0 when untraced and for a local copy *)
}

type trace = {
  tw_pid : int;
      (** Chrome process id of this simulation instance (pid 0 is the
          compiler's lane; each traced simulation claims a fresh pid) *)
  tw_last : float array;
      (** per-processor end time of the last traced slice, in simulated
          seconds; the gap up to the next slice is rendered as compute.
          Entry [p] is written by processor [p]'s own operations, and by a
          collective's firing while every processor is parked in it *)
}

(* Present while a run shards its processors across several domains: one
   mutex guards every shared transport write (the mailbox, the tally, the
   send and collective time split, the global operation count), and the
   epoch and condition wake domains that sleep for want of a message or a
   firing. *)
type sync = {
  sy_mu : Mutex.t;
  sy_wake : Condition.t;
  mutable sy_epoch : int;
      (* bumped by every commit that can unblock another domain's
         processor: a message, a collective firing *)
}

type transport = {
  tr_machine : Machine.t;
  tr_faults : Fault.spec option;
  tr_mail : (key * int, msg) Hashtbl.t;
      (** in-flight messages by (channel, sequence number) *)
  tr_send_seq : (key, int) Hashtbl.t array;
      (** per sending processor: the next sequence number of each of its
          channels (a channel has one sending and one receiving processor) *)
  tr_recv_seq : (key, int) Hashtbl.t array;
      (** per receiving processor: the next expected sequence number *)
  tr_cells : (int * int * int, int ref * int ref) Hashtbl.t;
      (** (event, src, dst) -> (msgs, elems), first transmissions only;
          the diagonal is local copies. With [tr_retrans] and the
          collective totals, the transport's one tally: every message
          total is a sum of it *)
  tr_retrans : int array;  (** retransmissions by sending processor *)
  mutable tr_coll_msgs : int;  (** tree messages of element-wise collectives *)
  mutable tr_coll_bytes : int;
  (* each processor's time split, kept on every run (it only reads the
     clocks and payload sizes) and published by {!stats_of} while
     [Obs.Metrics] is on *)
  tr_send_t : float array;  (** per-proc seconds inside sends (incl. packing) *)
  tr_recv_t : float array;  (** per-proc seconds blocked + unpacking in recvs *)
  tr_coll_t : float array;  (** per-proc seconds inside collectives *)
  tr_recv_elems : int array;  (** per-proc halo elements received *)
  tr_trace : trace option;
      (** present iff tracing was enabled when the transport was built;
          tracing only reads the virtual clocks, never advances them, so a
          traced run is bit-identical to an untraced one *)
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
  mutable tr_sync : sync option;  (** set by {!sched_run} for its run *)
}

(* simulated seconds -> trace microseconds *)
let us t = t *. 1e6

let trace_ctr = Atomic.make 0

let transport_make ~machine ~faults ~nprocs =
  {
    tr_machine = machine;
    tr_faults = faults;
    tr_mail = Hashtbl.create 64;
    tr_send_seq = Array.init nprocs (fun _ -> Hashtbl.create 16);
    tr_recv_seq = Array.init nprocs (fun _ -> Hashtbl.create 16);
    tr_cells = Hashtbl.create 64;
    tr_retrans = Array.make nprocs 0;
    tr_coll_msgs = 0;
    tr_coll_bytes = 0;
    tr_send_t = Array.make nprocs 0.0;
    tr_recv_t = Array.make nprocs 0.0;
    tr_coll_t = Array.make nprocs 0.0;
    tr_recv_elems = Array.make nprocs 0;
    tr_trace =
      (if Obs.enabled () then
         Some
           { tw_pid = Atomic.fetch_and_add trace_ctr 1 + 1;
             tw_last = Array.make nprocs 0.0 }
       else None);
    tr_pid_ops = Array.make nprocs 0;
    tr_gops = 0;
    tr_crash = None;
    tr_ckpt_every = 0;
    tr_on_ckpt = (fun _ -> ());
    tr_max_events = 0;
    tr_sync = None;
  }

(* The transport lock of a multi-domain run; no-ops at one domain. No
   locked region raises: the operation point's crash schedule, watchdog
   and checkpoint trigger, the only raisers, run at one domain only. *)
let lock tr =
  match tr.tr_sync with Some s -> Mutex.lock s.sy_mu | None -> ()

let unlock tr =
  match tr.tr_sync with Some s -> Mutex.unlock s.sy_mu | None -> ()

(* a commit that can unblock another domain's processor; the caller holds
   the lock *)
let publish tr =
  match tr.tr_sync with
  | Some s ->
      s.sy_epoch <- s.sy_epoch + 1;
      Condition.broadcast s.sy_wake
  | None -> ()

let cell tr ~event ~src ~dst =
  match Hashtbl.find_opt tr.tr_cells (event, src, dst) with
  | Some c -> c
  | None ->
      let c = (ref 0, ref 0) in
      Hashtbl.add tr.tr_cells (event, src, dst) c;
      c

(* the idle-to-busy gap on a lane, rendered as a compute slice: the
   processors only accumulate clock time in compute statements and in the
   traced transport operations, so whatever lies between two traced slices
   is computation *)
let trace_gap tw ~tid t0 =
  let last = tw.tw_last.(tid) in
  if t0 -. last > 1e-12 then
    Obs.complete ~pid:tw.tw_pid ~tid ~ts:(us last) ~dur:(us (t0 -. last))
      ~cat:"compute" "compute"

let trace_slice tw ~tid ~t0 ~t1 ~cat ?args name =
  trace_gap tw ~tid t0;
  Obs.complete ~pid:tw.tw_pid ~tid ~ts:(us t0) ~dur:(us (t1 -. t0)) ~cat
    ?args name;
  tw.tw_last.(tid) <- t1

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
   All three engines route every send, receive completion and collective
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

(** Complete a send: decide contiguity (§3.3 compile-time proof or runtime
    check), charge packing / send CPU, apply the deterministic fault plan
    (drops with retransmit pricing, delay), enqueue on the channel and
    tally it. [tick] charges CPU time to the sending
    processor; [get_clock] reads its clock after those charges. The clock
    charges, the sequence number and the fault plan are the sender's own;
    the commit to the shared mailbox, the tally and metrics is made under
    the transport lock of a multi-domain run. *)
let send tr ~tick ~get_clock ~pid ~dst_pid ~event ~src_vp ~dst_vp ~inplace
    ~rect (pl : payload) : unit =
  let m = tr.tr_machine in
  let n = Array.length pl.pl_idx in
  (* clock before any charge: start of the send window *)
  let tt0 = get_clock () in
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
  let k = { k_event = event; k_src = src_vp; k_dst = dst_vp } in
  let seqs = tr.tr_send_seq.(pid) in
  let seq = Option.value (Hashtbl.find_opt seqs k) ~default:0 in
  Hashtbl.replace seqs k (seq + 1);
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
  (* no charge is issued past this point *)
  let tfin = get_clock () in
  let wire = Machine.msg_time m n in
  let arrival =
    if local then tfin
    else
      tfin +. wire
      +. Machine.retransmit_wait m plan.Fault.mp_drops
      +. (plan.Fault.mp_delay *. wire)
  in
  (* flow arrows only for network messages, so the number of flow starts
     equals the off-diagonal message cells' sum; local copies have a slice
     but no arrow *)
  let flow =
    if Option.is_some tr.tr_trace && not local then Obs.next_flow_id () else 0
  in
  let msg =
    { m_seq = seq; m_arrival = arrival; m_payload = pl; m_contig = contig;
      m_flow = flow }
  in
  lock tr;
  Hashtbl.replace tr.tr_mail (k, seq) msg;
  let msgs, elems = cell tr ~event ~src:pid ~dst:dst_pid in
  Stdlib.incr msgs;
  elems := !elems + n;
  tr.tr_retrans.(pid) <- tr.tr_retrans.(pid) + plan.Fault.mp_drops;
  tr.tr_send_t.(pid) <- tr.tr_send_t.(pid) +. (tfin -. tt0);
  (* the registry exports every cell it holds, metered or not: only a
     metered run may create this one *)
  if (not local) && Obs.Metrics.enabled () then
    Obs.Metrics.observe
      (Obs.Metrics.histogram "sim/msg_bytes")
      (float_of_int (n * m.Machine.elem_bytes));
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
      if flow > 0 then
        Obs.flow_start ~pid:tw.tw_pid ~tid:pid ~ts:(us tt0) ~id:flow "msg");
  op_point tr ~pid ~clock:tfin;
  publish tr;
  unlock tr

(** Account a completed receive: [t0] is the receiver's clock when it
    blocked, [t1] its clock after arrival synchronization and unpack
    charges. Adds the wait and the elements to the receiver's time split
    and, when traced, emits the recv slice (blocking wait included) and
    closes the send's flow arrow. All three engines call this from their
    [Recv] implementations. It writes only the receiver's own slots. *)
let trace_recv tr ~tid ~t0 ~t1 (k : key) (msg : msg) : unit =
  tr.tr_recv_t.(tid) <- tr.tr_recv_t.(tid) +. (t1 -. t0);
  tr.tr_recv_elems.(tid) <-
    tr.tr_recv_elems.(tid) + Array.length msg.m_payload.pl_idx;
  match tr.tr_trace with
  | None -> ()
  | Some tw ->
      let n = Array.length msg.m_payload.pl_idx in
      trace_slice tw ~tid ~t0 ~t1 ~cat:"comm"
        ~args:
          [ ("seq", Obs.Int msg.m_seq);
            ("elems", Obs.Int n);
            ("contig", Obs.Bool msg.m_contig) ]
        (Printf.sprintf "recv e%d" k.k_event);
      if msg.m_flow > 0 then
        Obs.flow_end ~pid:tw.tw_pid ~tid ~ts:(us t1) ~id:msg.m_flow "msg"

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

type totals = {
  t_msgs : int;  (** network messages, collective tree messages included *)
  t_bytes : int;
  t_elems : int;  (** elements sent point to point over the network *)
  t_retransmits : int;
}

(* every transport total, summed from the tally: the off-diagonal cells
   are the network messages, the diagonal the local copies, which never
   go on the wire *)
let totals tr : totals =
  let msgs = ref tr.tr_coll_msgs and elems = ref 0 in
  Hashtbl.iter
    (fun (_, src, dst) (m, e) ->
      if src <> dst then begin
        msgs := !msgs + !m;
        elems := !elems + !e
      end)
    tr.tr_cells;
  { t_msgs = !msgs;
    t_bytes = (!elems * tr.tr_machine.Machine.elem_bytes) + tr.tr_coll_bytes;
    t_elems = !elems;
    t_retransmits = Array.fold_left ( + ) 0 tr.tr_retrans }

type image = {
  im_ops : int;  (** global op count at capture *)
  im_procs : proc_image array;
  im_chans : (key * int * int) array;
      (** per channel: (key, next send seq, next recv seq), sorted *)
  im_inflight : (key * msg array) array;  (** undelivered messages *)
  im_totals : totals;  (** the transport totals at capture *)
}

(** A checkpoint image: the engine's per-processor images, plus the
    transport's per-channel sequence counters, in-flight messages and
    totals. Every engine's [capture] ends here. *)
let capture tr (procs : proc_image array) : image =
  let chans = Hashtbl.create 64 in
  let note k f =
    let sr = Option.value (Hashtbl.find_opt chans k) ~default:(0, 0) in
    Hashtbl.replace chans k (f sr)
  in
  Array.iter
    (Hashtbl.iter (fun k s -> note k (fun (_, r) -> (s, r))))
    tr.tr_send_seq;
  Array.iter
    (Hashtbl.iter (fun k r -> note k (fun (s, _) -> (s, r))))
    tr.tr_recv_seq;
  let im_chans =
    Hashtbl.fold (fun k (s, r) acc -> (k, s, r) :: acc) chans []
    |> List.sort compare |> Array.of_list
  in
  (* each channel's queue in delivery order, by sequence number; a flow id
     is trace bookkeeping, not simulation state *)
  let queues = Hashtbl.create 16 in
  Hashtbl.iter
    (fun (k, seq) m ->
      let q = Option.value (Hashtbl.find_opt queues k) ~default:[] in
      Hashtbl.replace queues k ((seq, { m with m_flow = 0 }) :: q))
    tr.tr_mail;
  let im_inflight =
    Hashtbl.fold
      (fun k q acc ->
        let q = List.sort (fun (a, _) (b, _) -> compare a b) q in
        (k, Array.of_list (List.map snd q)) :: acc)
      queues []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
    |> Array.of_list
  in
  { im_ops = tr.tr_gops; im_procs = procs; im_chans; im_inflight;
    im_totals = totals tr }

(* ------------------------------------------------------------------ *)
(* Deadlock diagnosis                                                   *)
(* ------------------------------------------------------------------ *)

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

(* A collective operation, as one processor enters it: an all-reduce of
   its scalar operand, or an element-wise all-reduce of the partial values
   it holds of the named array. *)
type coll =
  | Scalar of Spmd.reduce_op * float
  | Elementwise of string * Spmd.reduce_op

(* the two blocking operations of a processor fiber; a collective resumes
   with the combined scalar, or 0.0 for an element-wise collective, whose
   result is written into every processor's array *)
type _ Effect.t +=
  | ERecv : key -> msg Effect.t
  | ECollective : coll -> float Effect.t

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

type fired = {
  f_coll : coll;  (* processor 0's: the operator and array name in force *)
  f_value : float;  (* what every processor resumes with *)
  f_nelems : int;  (* elements combined: 1 for a scalar *)
  f_tdone : float;  (* completion time, on every processor's clock *)
}

(* a collective rendezvous: at most one is open at any time (a processor
   cannot pass a collective before every processor reaches it), and a
   parked processor keeps its own reference, which stays valid after the
   slot fires and a new one opens *)
type coll_slot = {
  sl_at : coll option array;  (* arrivals, by pid *)
  sl_fired : fired option Atomic.t;
      (* set once, by the domain that fires it, after the combined arrays
         are written back: a processor that reads it reads those too *)
}

(* A processor fiber as the scheduler sees it. *)
type fiber =
  | FReady  (** not yet started *)
  | FRecv of key * (msg, unit) Effect.Deep.continuation
  | FColl of coll_slot * (float, unit) Effect.Deep.continuation
  | FDone

let is_done = function FDone -> true | _ -> false

(* Run processor [p]'s node program as a fiber: each blocking effect parks
   it through [park] with its continuation ([block] registers the
   collective it entered and returns the slot it waits on), and returning
   parks it [FDone]. *)
let start (h : hooks) p ~park ~block =
  let open Effect.Deep in
  match_with h.h_body p
    {
      retc = (fun () -> park FDone);
      exnc = raise;
      effc =
        (fun (type c) (eff : c Effect.t) ->
          match eff with
          | ERecv k ->
              Some
                (fun (cont : (c, unit) continuation) -> park (FRecv (k, cont)))
          | ECollective c ->
              Some
                (fun (cont : (c, unit) continuation) ->
                  park (FColl (block c, cont)))
          | _ -> None);
    }

let combine op a v =
  match op with
  | Spmd.RSum -> a +. v
  | Spmd.RMax -> Float.max a v
  | Spmd.RMin -> Float.min a v

(* The firing rule. [at.(p)] is the collective processor [p] is blocked
   in, [None] if it has not entered it. A collective fires only when every
   processor is blocked in one of the same kind; the operator, and an
   array collective's name, are processor 0's. A scalar all-reduce folds
   the operands in pid order from the operator's identity; an element-wise
   one combines through [h_reduce_arr]. Either starts at the latest
   processor clock and costs a P-way all-reduce of its element count. *)
let fire (h : hooks) (at : coll option array) : fired option =
  let same_kind a b =
    match (a, b) with
    | Some (Scalar _), Some (Scalar _)
    | Some (Elementwise _), Some (Elementwise _) -> true
    | _ -> false
  in
  if not (Array.for_all (same_kind at.(0)) at) then None
  else begin
    let c = Option.get at.(0) in
    let value, nelems =
      match c with
      | Scalar (op, _) ->
          let identity =
            match op with
            | Spmd.RSum -> 0.0
            | Spmd.RMax -> Float.neg_infinity
            | Spmd.RMin -> Float.infinity
          in
          let fold a = function
            | Some (Scalar (_, v)) -> combine op a v
            | _ -> a
          in
          (Array.fold_left fold identity at, 1)
      | Elementwise (name, op) -> (0.0, h.h_reduce_arr name op)
    in
    let t = ref 0.0 in
    for p = 0 to h.h_nprocs - 1 do
      t := Float.max !t (h.h_clock p)
    done;
    Some
      { f_coll = c; f_value = value; f_nelems = nelems;
        f_tdone =
          !t +. Machine.allreduce_cost h.h_tr.tr_machine h.h_nprocs nelems }
  end

(* Commit a fired collective to the transport: an element-wise collective
   adds its 2·stages·P tree messages to the tally, a scalar one adds
   none; every processor's wait up to completion is added to its
   collective time and traced. *)
let account tr (h : hooks) (f : fired) =
  let nprocs = h.h_nprocs in
  let stages = Machine.stages nprocs in
  let msgs, bytes =
    match f.f_coll with
    | Scalar _ -> (0, 0)
    | Elementwise _ ->
        ( 2 * stages * nprocs,
          2 * stages * f.f_nelems * tr.tr_machine.Machine.elem_bytes )
  in
  tr.tr_coll_msgs <- tr.tr_coll_msgs + msgs;
  tr.tr_coll_bytes <- tr.tr_coll_bytes + bytes;
  for p = 0 to nprocs - 1 do
    tr.tr_coll_t.(p) <- tr.tr_coll_t.(p) +. (f.f_tdone -. h.h_clock p)
  done;
  match tr.tr_trace with
  | None -> ()
  | Some tw ->
      let name, args =
        match f.f_coll with
        | Scalar (op, _) -> ("allreduce " ^ Spmd.reduce_op_name op, None)
        | Elementwise (a, _) ->
            ( "allreduce_arr " ^ a,
              Some
                [ ("elems", Obs.Int f.f_nelems); ("stages", Obs.Int stages) ] )
      in
      for p = 0 to nprocs - 1 do
        trace_slice tw ~tid:p ~t0:(h.h_clock p) ~t1:f.f_tdone ~cat:"coll" ?args
          name
      done

let reduce_tables op tables =
  let keys = Hashtbl.create 256 in
  Array.iter
    (fun tbl -> Hashtbl.iter (fun k _ -> Hashtbl.replace keys k ()) tbl)
    tables;
  let combined = Hashtbl.create (Hashtbl.length keys) in
  Hashtbl.iter
    (fun k () ->
      let acc = ref None in
      Array.iter
        (fun tbl ->
          match (Hashtbl.find_opt tbl k, !acc) with
          | None, _ -> ()
          | Some v, None -> acc := Some v
          | Some v, Some a -> acc := Some (combine op a v))
        tables;
      match !acc with Some v -> Hashtbl.replace combined k v | None -> ())
    keys;
  Array.iter
    (fun tbl -> Hashtbl.iter (fun k v -> Hashtbl.replace tbl k v) combined)
    tables;
  Hashtbl.length combined

(* One visit of processor [pid], blocked on channel [k]: take the message
   carrying the next expected sequence number if it is there. *)
let deliver tr ~pid ~clock (k : key) : msg option =
  let seqs = tr.tr_recv_seq.(pid) in
  let expected = Option.value (Hashtbl.find_opt seqs k) ~default:0 in
  lock tr;
  let m = Hashtbl.find_opt tr.tr_mail (k, expected) in
  (match m with
  | Some _ ->
      Hashtbl.remove tr.tr_mail (k, expected);
      Hashtbl.replace seqs k (expected + 1);
      op_point tr ~pid ~clock
  | None -> ());
  unlock tr;
  m

(* Structured stall diagnosis: who waits on whom, with event ids,
   sequence numbers, simulated clocks and channel depths; a wait-for cycle
   when one exists. *)
let diagnose tr (h : hooks) (status : fiber array) : diagnostic =
  (* in-flight messages per channel *)
  let counts = Hashtbl.create 16 in
  Hashtbl.iter
    (fun (k, _) _ ->
      Hashtbl.replace counts k
        (1 + Option.value (Hashtbl.find_opt counts k) ~default:0))
    tr.tr_mail;
  let waiting =
    Array.to_list status
    |> List.mapi (fun p s ->
           let w reason =
             Some { w_pid = p; w_clock = h.h_clock p; w_reason = reason }
           in
           match s with
           | FRecv (k, _) ->
               w
                 (WaitRecv
                    {
                      wr_event = k.k_event;
                      wr_src_vp = k.k_src;
                      wr_src_pid = h.h_phys_of_vp k.k_src;
                      wr_expected_seq =
                        Option.value
                          (Hashtbl.find_opt tr.tr_recv_seq.(p) k)
                          ~default:0;
                    })
           | FColl (s, _) -> (
               match s.sl_at.(p) with
               | Some (Scalar _) -> w WaitReduce
               | Some (Elementwise (name, _)) -> w (WaitReduceArr name)
               | None -> None)
           | FReady | FDone -> None)
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
  {
    dg_waiting = waiting;
    dg_cycle = find_cycle succ stuck;
    dg_undelivered =
      Hashtbl.fold
        (fun k n acc -> (k.k_event, k.k_src, k.k_dst, n) :: acc)
        counts []
      |> List.sort compare;
  }

(* The one scheduler. Processors are sharded over [domains] domains,
   processor [p] on domain [p mod domains]; each domain sweeps its own
   processors in pid order. The first sweep starts each one, running it
   until it blocks or returns. Later sweeps resume a processor blocked on
   a receive whose next message is queued, and every participant of a
   fired collective, setting its clock to the completion time. A
   collective fires at the end of a domain's sweep once every processor
   has entered it, so its participants resume in the next sweeps. A
   domain whose sweep resumes and fires nothing sleeps until another
   domain commits a message or a firing. When every domain sleeps at
   once, the run has stalled: it ends in {!Deadlock}.

   At one domain this is a fixed sequential order — start in pid order,
   then sweep deliveries in pid order, fire a collective once a sweep
   leaves every processor blocked in it, resume its participants in pid
   order — which fixes the global operation order that crash schedules,
   checkpoints and the watchdog are keyed on, so those runs take one
   domain. At any count, values and clocks are processor-local (delivery
   is sequence-matched, and a collective fires only once every processor
   has parked in it), the tally, time split and histograms are sums, and a
   stalled run has one final state: the results are bit-identical
   at every domain count. Only the order of trace events in the file and
   their flow-id numbers may differ. *)
let sched_run ?(domains = 1) (h : hooks) : unit =
  let tr = h.h_tr in
  let nprocs = h.h_nprocs in
  let nd =
    if tr.tr_crash <> None || tr.tr_ckpt_every > 0 || tr.tr_max_events > 0
    then 1
    else max 1 (min domains nprocs)
  in
  let sync =
    { sy_mu = Mutex.create (); sy_wake = Condition.create (); sy_epoch = 0 }
  in
  tr.tr_sync <- (if nd > 1 then Some sync else None);
  let status = Array.make nprocs FReady in
  let coll : coll_slot option ref = ref None in
  let n_done = ref 0 and n_idle = ref 0 and n_exited = ref 0 in
  (* per-domain idle stamp: -1 active, -2 exited, else the epoch it went
     idle at — a stall is declared only when every domain is idle at the
     current epoch, so a commit its sleeping owner has not yet collected
     is never mistaken for one *)
  let idle_seen = Array.make nd (-1) in
  let halted = Atomic.make false in
  let error : (int * exn * Printexc.raw_backtrace) option ref = ref None in
  (* the caller holds the lock *)
  let halt () =
    Atomic.set halted true;
    Condition.broadcast sync.sy_wake
  in
  let stalled () =
    !n_idle + !n_exited = nd
    && !n_done < nprocs
    && Array.for_all (fun s -> s = sync.sy_epoch || s = -2) idle_seen
  in
  let park p f =
    status.(p) <- f;
    if is_done f then begin
      lock tr;
      incr n_done;
      unlock tr
    end
  in
  (* fire the open collective if every processor has entered it *)
  let fire_open () =
    lock tr;
    match
      match !coll with
      | Some s when Option.is_none (Atomic.get s.sl_fired) -> (
          match fire h s.sl_at with
          | Some f ->
              account tr h f;
              Atomic.set s.sl_fired (Some f);
              publish tr;
              true
          | None -> false)
      | _ -> false
    with
    | fired ->
        unlock tr;
        fired
    | exception e ->
        unlock tr;
        raise e
  in
  let block p c =
    lock tr;
    let s =
      match !coll with
      | Some s when Option.is_none (Atomic.get s.sl_fired) -> s
      | _ ->
          let s =
            { sl_at = Array.make nprocs None; sl_fired = Atomic.make None }
          in
          coll := Some s;
          s
    in
    s.sl_at.(p) <- Some c;
    unlock tr;
    s
  in
  (* resume processor [p] if it can progress; [status.(p)] holds [FDone]
     while it runs, until it parks again *)
  let visit p =
    match status.(p) with
    | FReady ->
        start h p ~park:(park p) ~block:(block p);
        true
    | FRecv (k, cont) -> (
        match deliver tr ~pid:p ~clock:(h.h_clock p) k with
        | Some m ->
            status.(p) <- FDone;
            Effect.Deep.continue cont m;
            true
        | None -> false)
    | FColl (s, cont) -> (
        match Atomic.get s.sl_fired with
        | Some f ->
            h.h_set_clock p f.f_tdone;
            status.(p) <- FDone;
            lock tr;
            op_point tr ~pid:p ~clock:f.f_tdone;
            unlock tr;
            Effect.Deep.continue cont f.f_value;
            true
        | None -> false)
    | FDone -> false
  in
  let domain_loop d =
    let mine =
      Array.of_list
        (List.filter (fun p -> p mod nd = d) (List.init nprocs Fun.id))
    in
    let all_done () = Array.for_all (fun p -> is_done status.(p)) mine in
    (try
       while (not (all_done ())) && not (Atomic.get halted) do
         (* the epoch is read before the sweep: a commit landing mid-sweep
            moves it, so the idle re-check below cannot miss a message the
            sweep was too early to see *)
         lock tr;
         let seen = sync.sy_epoch in
         unlock tr;
         let progressed = ref false in
         Array.iter
           (fun p ->
             if (not (Atomic.get halted)) && visit p then progressed := true)
           mine;
         let fired = fire_open () in
         if (not !progressed) && (not fired) && not (all_done ()) then begin
           lock tr;
           if sync.sy_epoch = seen && not (Atomic.get halted) then begin
             idle_seen.(d) <- seen;
             incr n_idle;
             if stalled () then halt ()
             else
               while sync.sy_epoch = seen && not (Atomic.get halted) do
                 Condition.wait sync.sy_wake sync.sy_mu
               done;
             decr n_idle;
             idle_seen.(d) <- -1
           end;
           unlock tr
         end
       done
     with e ->
       let bt = Printexc.get_raw_backtrace () in
       lock tr;
       (match !error with
       | Some (d0, _, _) when d0 <= d -> ()
       | _ -> error := Some (d, e, bt));
       halt ();
       unlock tr);
    lock tr;
    idle_seen.(d) <- -2;
    incr n_exited;
    if stalled () then halt ();
    unlock tr
  in
  Par.spawn_join nd domain_loop;
  tr.tr_sync <- None;
  (match !error with
  | Some (_, e, bt) -> Printexc.raise_with_backtrace e bt
  | None -> ());
  if Atomic.get halted then raise (Deadlock (diagnose tr h status))

(** Sorted per-pair point-to-point table, one row per (event, src, dst)
    that carried traffic; the diagonal rows are co-located VP copies.
    Per-pair counts never re-increment on retransmission, so the measured
    matrix is invariant under fault injection — exactly the property
    [--check-comm] relies on. *)
let comm_cells tr : comm_cell list =
  Hashtbl.fold
    (fun (event, src, dst) (msgs, elems) acc ->
      { cm_event = event; cm_src = src; cm_dst = dst; cm_msgs = !msgs;
        cm_elems = !elems;
        cm_bytes = !elems * tr.tr_machine.Machine.elem_bytes }
      :: acc)
    tr.tr_cells []
  |> List.sort compare

(* fold the per-run accumulators into the global metrics registry: the
   communication matrix, per-processor time split, halo occupancy, fault
   breakdown and the derived load-balance figures of merit *)
let metrics_publish tr tot ~proc_times =
  let module M = Obs.Metrics in
  let p = Array.length proc_times in
  let label_pair src dst =
    [ ("src", string_of_int src); ("dst", string_of_int dst) ]
  in
  (* the P*P matrix sums the per-event cells; its diagonal is the
     co-located VP copies, which never go on the wire *)
  let mx_msgs = Array.make (p * p) 0 and mx_elems = Array.make (p * p) 0 in
  Hashtbl.iter
    (fun (_, src, dst) (msgs, elems) ->
      let c = (src * p) + dst in
      mx_msgs.(c) <- mx_msgs.(c) + !msgs;
      mx_elems.(c) <- mx_elems.(c) + !elems)
    tr.tr_cells;
  let local_msgs = ref 0 and local_elems = ref 0 in
  for src = 0 to p - 1 do
    for dst = 0 to p - 1 do
      let c = (src * p) + dst in
      if src = dst then begin
        local_msgs := !local_msgs + mx_msgs.(c);
        local_elems := !local_elems + mx_elems.(c)
      end;
      if mx_msgs.(c) > 0 then begin
        let labels = label_pair src dst in
        M.inc (M.counter ~labels "sim/comm_msgs") (float_of_int mx_msgs.(c));
        M.inc (M.counter ~labels "sim/comm_elems") (float_of_int mx_elems.(c));
        M.inc (M.counter ~labels "sim/comm_bytes")
          (float_of_int (mx_elems.(c) * tr.tr_machine.Machine.elem_bytes))
      end
    done
  done;
  let halo = M.histogram "sim/halo_elems_per_proc" in
  (* {!send} fills this one; a run without network messages still
     exports it, empty *)
  ignore (M.histogram "sim/msg_bytes" : M.histogram);
  let compute_sum = ref 0.0 and compute_max = ref 0.0 and comm_sum = ref 0.0 in
  Array.iteri
    (fun i total ->
      let comm = tr.tr_send_t.(i) +. tr.tr_recv_t.(i) +. tr.tr_coll_t.(i) in
      let compute = Float.max 0.0 (total -. comm) in
      compute_sum := !compute_sum +. compute;
      comm_sum := !comm_sum +. comm;
      if compute > !compute_max then compute_max := compute;
      let labels = [ ("proc", string_of_int i) ] in
      M.set (M.gauge ~labels "sim/proc_total_s") total;
      M.set (M.gauge ~labels "sim/proc_compute_s") compute;
      M.set (M.gauge ~labels "sim/proc_send_s") tr.tr_send_t.(i);
      M.set (M.gauge ~labels "sim/proc_recv_wait_s") tr.tr_recv_t.(i);
      M.set (M.gauge ~labels "sim/proc_coll_s") tr.tr_coll_t.(i);
      if tr.tr_retrans.(i) > 0 then
        M.inc
          (M.counter ~labels:[ ("src", string_of_int i) ] "sim/retransmits_by_src")
          (float_of_int tr.tr_retrans.(i));
      M.observe halo (float_of_int tr.tr_recv_elems.(i)))
    proc_times;
  let inc_tot name v = M.inc (M.counter name) (float_of_int v) in
  inc_tot "sim/msgs_total" tot.t_msgs;
  inc_tot "sim/bytes_total" tot.t_bytes;
  inc_tot "sim/elems_total" tot.t_elems;
  inc_tot "sim/coll_msgs" tr.tr_coll_msgs;
  inc_tot "sim/coll_bytes" tr.tr_coll_bytes;
  inc_tot "sim/local_copies" !local_msgs;
  inc_tot "sim/local_copy_elems" !local_elems;
  inc_tot "sim/retransmits" tot.t_retransmits;
  let mean = !compute_sum /. float_of_int (max 1 p) in
  M.set (M.gauge "sim/compute_max_s") !compute_max;
  M.set (M.gauge "sim/compute_mean_s") mean;
  if mean > 0.0 then M.set (M.gauge "sim/load_imbalance") (!compute_max /. mean);
  if !compute_sum > 0.0 then
    M.set (M.gauge "sim/comm_to_compute") (!comm_sum /. !compute_sum)

(** Assemble the final statistics from the transport tally and the
    per-processor clocks. For a traced run this is also the end of the
    timeline: name the lanes and fill each processor's tail (last traced
    slice to its final clock) as compute. While [Obs.Metrics] is on, the
    tally and the time split fold into its registry here. *)
let stats_of tr ~proc_times : stats =
  (match tr.tr_trace with
  | Some tw ->
      Obs.set_process_name ~pid:tw.tw_pid
        (Printf.sprintf "spmd simulation %d" tw.tw_pid);
      Array.iteri
        (fun p t ->
          Obs.set_thread_name ~pid:tw.tw_pid ~tid:p (Printf.sprintf "proc %d" p);
          trace_gap tw ~tid:p t;
          tw.tw_last.(p) <- t)
        proc_times
  | None -> ());
  let tot = totals tr in
  if Obs.Metrics.enabled () then metrics_publish tr tot ~proc_times;
  {
    s_time = Array.fold_left Float.max 0.0 proc_times;
    s_msgs = tot.t_msgs;
    s_bytes = tot.t_bytes;
    s_elems = tot.t_elems;
    s_proc_times = proc_times;
    s_retransmits = tot.t_retransmits;
    (* crash/recovery accounting lives in the {!Checkpoint} controller,
       which patches these after assembling the final attempt's stats *)
    s_crashes = 0;
    s_ckpts = 0;
    s_ckpt_bytes = 0;
    s_lost_work = 0.0;
  }
