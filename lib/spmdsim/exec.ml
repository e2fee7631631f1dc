(** SPMD execution facade: runs the compiler's {!Dhpf.Spmd} programs on a
    simulated distributed-memory machine, through one of three engines.

    [`Closure] (the default) and [`Native] are the two back ends of one
    lowering ({!Imp.lower}): {!Compile} turns the lowered kernel into OCaml
    closures over slot-resolved state and dense per-processor array blocks,
    and {!Native} prints it as OCaml source ({!Emit}) and dynlinks the
    compiled result. [`Interp], this module's tree-walking interpreter, is
    kept as the differential oracle: all three engines share {!Runtime}'s
    transport and scheduler and charge clock time in the same order, so
    they produce bit-identical element values and identical
    message/byte/retransmit counters (asserted by the engine-differential
    property tests).

    Each processor runs as an effect-handler fiber with its own virtual
    clock; sends are buffered (non-blocking), receives block until the
    matching message exists, and the scheduler advances whichever processor
    can make progress. Receive completion time is
    [max(local clock + recv overhead, message arrival)] with arrival =
    sender clock at send + alpha + bytes*beta — a LogGP-style model.

    In the interpreter, storage is one table per (processor, array) holding
    both owned elements and received non-local values; ownership is
    recomputed from the layout descriptors, so a [Local] access to a
    non-owned element or a [Checked] read of never-communicated data raises
    — executing compiled code under the simulator doubles as a correctness
    check of the compiler. *)

open Dhpf

exception Error = Runtime.Error

let errf fmt = Runtime.errf fmt

(* ------------------------------------------------------------------ *)
(* Interpreter state                                                    *)
(* ------------------------------------------------------------------ *)

type meta = {
  ma : Runtime.ameta;
  mt_layout : Spmd.array_layout option;
  mt_tables : (int, float) Hashtbl.t array;  (** per-pid element tables *)
}
(* metadata and storage resolve through ONE hashtable lookup per access
   (they used to be two parallel tables, looked up separately per element) *)

type pstate = {
  pid : int;
  coords : int array;
  ienv : (string, int) Hashtbl.t;
  fenv : (string, float) Hashtbl.t;
  mutable clock : float;
}

type isim = {
  prog : Spmd.program;
  i_domains : int;
  machine : Machine.t;
  skew : float array;  (** per-processor compute-time multiplier (>= 1) *)
  genv : (string, int) Hashtbl.t;  (** global parameter values *)
  extents : int array;
  inprocs : int;
  procs : pstate array;
  meta : (string, meta) Hashtbl.t;
  tr : Runtime.transport;
  outbufs : (int, Runtime.packbuf) Hashtbl.t array;
      (** per pid: event -> elements packed so far (per-processor so
          parallel lanes never contend on one table) *)
  inplace_events : (int, unit) Hashtbl.t;
  rect_events : (int, unit) Hashtbl.t;
  mutable iran : bool;
}

(* ------------------------------------------------------------------ *)
(* Startup                                                             *)
(* ------------------------------------------------------------------ *)

let eval_global sim e = Runtime.eval_genv sim.genv e

let make_interp ?(machine = Machine.default) ?faults
    ?(domains = Par.domains ()) ~nprocs ?(params = []) (prog : Spmd.program) :
    isim =
  let su = Runtime.setup ?faults ~nprocs ~params prog in
  let geval = Runtime.eval_genv su.Runtime.su_genv in
  let meta = Hashtbl.create 16 in
  List.iter
    (fun (ad : Spmd.array_decl) ->
      Hashtbl.replace meta ad.ad_name
        {
          ma = Runtime.ameta ~eval:geval ad;
          mt_layout = ad.ad_layout;
          mt_tables = Array.init su.Runtime.su_total (fun _ -> Hashtbl.create 64);
        })
    prog.arrays;
  let procs =
    Array.init su.Runtime.su_total (fun pid ->
        let coords = su.Runtime.su_coords.(pid) in
        let ienv = Hashtbl.create 16 in
        Array.iteri
          (fun k c -> Hashtbl.replace ienv (Printf.sprintf "m$%d" (k + 1)) c)
          coords;
        List.iter
          (fun (k, v) ->
            Hashtbl.replace ienv (Printf.sprintf "vm$%d" (k + 1)) v)
          su.Runtime.su_vm0.(pid);
        { pid; coords; ienv; fenv = Hashtbl.create 16; clock = 0.0 })
  in
  let sim =
    {
      prog;
      i_domains = domains;
      machine;
      skew = su.Runtime.su_skew;
      genv = su.Runtime.su_genv;
      extents = su.Runtime.su_extents;
      inprocs = su.Runtime.su_total;
      procs;
      meta;
      tr = Runtime.transport_make ~machine ~faults ~nprocs:su.Runtime.su_total;
      outbufs = Array.init su.Runtime.su_total (fun _ -> Hashtbl.create 16);
      inplace_events = Hashtbl.create 8;
      rect_events = Hashtbl.create 8;
      iran = false;
    }
  in
  List.iter
    (fun (e : Spmd.event_info) ->
      if e.ev_inplace then Hashtbl.replace sim.inplace_events e.Spmd.ev_id ();
      if e.ev_rect then Hashtbl.replace sim.rect_events e.Spmd.ev_id ())
    prog.events;
  (* replicated scalars start at zero *)
  Array.iter
    (fun p -> List.iter (fun s -> Hashtbl.replace p.fenv s 0.0) prog.scalars)
    sim.procs;
  sim

(* ------------------------------------------------------------------ *)
(* Ownership and addressing                                            *)
(* ------------------------------------------------------------------ *)

let meta_of sim name =
  match Hashtbl.find_opt sim.meta name with
  | Some m -> m
  | None -> errf "unknown array %s" name

let owns sim (p : pstate) (mt : meta) (idx : int list) : bool =
  match mt.mt_layout with
  | None -> true (* replicated array: every processor has a copy *)
  | Some la ->
      let idxa = Array.of_list idx in
      List.for_all2
        (fun dl c ->
          match Runtime.owner_coord ~eval:(eval_global sim) dl idxa with
          | None -> true
          | Some o -> o = c)
        la.Spmd.la_dims
        (Array.to_list p.coords)

(* the linear pid of the owner (replicated dims resolve to coordinate 0) *)
let owner_pid sim (mt : meta) (idx : int list) : int =
  match mt.mt_layout with
  | None -> 0
  | Some la ->
      let idxa = Array.of_list idx in
      let coords =
        List.map
          (fun dl ->
            match Runtime.owner_coord ~eval:(eval_global sim) dl idxa with
            | None -> 0
            | Some o -> o)
          la.Spmd.la_dims
      in
      let pid = ref 0 and stride = ref 1 in
      List.iteri
        (fun k c ->
          pid := !pid + (c * !stride);
          stride := !stride * sim.extents.(k))
        coords;
      !pid

(* VP coordinates -> linear physical pid *)
let phys_of_vp_i sim (vp : int list) : int =
  Runtime.phys_of_vp ~eval:(eval_global sim) sim.prog ~extents:sim.extents vp

(* ------------------------------------------------------------------ *)
(* Per-processor interpreter                                           *)
(* ------------------------------------------------------------------ *)

let lookup_int sim p s =
  match Hashtbl.find_opt p.ienv s with
  | Some v -> v
  | None -> (
      match Hashtbl.find_opt sim.genv s with
      | Some v -> v
      | None -> errf "proc %d: unbound integer name %s" p.pid s)

let eval_expr sim p e = Iset.Codegen.eval_expr (lookup_int sim p) e
let eval_cond sim p c = Iset.Codegen.eval_cond (lookup_int sim p) c

(* advance a processor's clock by local work, scaled by its straggler
   multiplier (1.0 on the idealized machine) *)
let tick sim p dt = p.clock <- p.clock +. (dt *. sim.skew.(p.pid))

let load sim p (mt : meta) idx (access : Spmd.access) : float =
  let enc = Runtime.encode mt.ma idx in
  (match access with
  | Spmd.Checked -> tick sim p sim.machine.Machine.check_time
  | _ -> ());
  match Hashtbl.find_opt mt.mt_tables.(p.pid) enc with
  | Some v -> v
  | None ->
      if owns sim p mt idx then 0.0
      else
        errf "proc %d: %s access to non-local %s(%s) with no received value"
          p.pid (Imp.access_name access) mt.ma.Runtime.am_name
          (String.concat "," (List.map string_of_int idx))

let store_elem sim p (mt : meta) idx value (access : Spmd.access) : unit =
  let enc = Runtime.encode mt.ma idx in
  (match access with
  | Spmd.Checked -> tick sim p sim.machine.Machine.check_time
  | Spmd.Local ->
      if not (owns sim p mt idx) then
        errf "proc %d: Local store to non-owned %s(%s)" p.pid
          mt.ma.Runtime.am_name
          (String.concat "," (List.map string_of_int idx))
  | _ -> ());
  Hashtbl.replace mt.mt_tables.(p.pid) enc value

let rec eval_fexpr sim p (e : Spmd.fexpr) : float =
  match e with
  | Spmd.FConst x -> x
  | Spmd.FOfInt ie -> float_of_int (eval_expr sim p ie)
  | Spmd.FScalar s -> (
      match Hashtbl.find_opt p.fenv s with
      | Some v -> v
      | None -> float_of_int (lookup_int sim p s))
  | Spmd.FLoad { arr; idx; access } ->
      tick sim p sim.machine.Machine.flop_time;
      load sim p (meta_of sim arr) (List.map (eval_expr sim p) idx) access
  | Spmd.FNeg a -> -.eval_fexpr sim p a
  | Spmd.FBin (op, a, b) ->
      let x = eval_fexpr sim p a in
      let y = eval_fexpr sim p b in
      tick sim p sim.machine.Machine.flop_time;
      (match op with
      | Hpf.Ast.Add -> x +. y
      | Hpf.Ast.Sub -> x -. y
      | Hpf.Ast.Mul -> x *. y
      | Hpf.Ast.Div -> x /. y)
  | Spmd.FIntrin (f, args) ->
      tick sim p sim.machine.Machine.flop_time;
      Serial.intrinsic f (List.map (eval_fexpr sim p) args)

let rec eval_fcond sim p (c : Spmd.fcond) : bool =
  match c with
  | Spmd.FCmp (a, op, b) ->
      let x = eval_fexpr sim p a in
      let y = eval_fexpr sim p b in
      (match op with
      | Hpf.Ast.Lt -> x < y
      | Hpf.Ast.Le -> x <= y
      | Hpf.Ast.Gt -> x > y
      | Hpf.Ast.Ge -> x >= y
      | Hpf.Ast.Eq -> x = y
      | Hpf.Ast.Ne -> x <> y)
  | Spmd.FAnd (a, b) -> eval_fcond sim p a && eval_fcond sim p b
  | Spmd.FOr (a, b) -> eval_fcond sim p a || eval_fcond sim p b
  | Spmd.FNot a -> not (eval_fcond sim p a)

let my_vp sim p : int list =
  List.mapi
    (fun k _ -> lookup_int sim p (Printf.sprintf "vm$%d" (k + 1)))
    sim.prog.proc_dims

let rec exec_stmt sim p (s : Spmd.stmt) : unit =
  let m = sim.machine in
  match s with
  | Spmd.Comment _ -> ()
  | Spmd.For { var; lo; hi; step; body } ->
      let l = eval_expr sim p lo and h = eval_expr sim p hi in
      let st = eval_expr sim p step in
      if st <= 0 then errf "proc %d: non-positive loop step for %s" p.pid var;
      let i = ref l in
      while !i <= h do
        Hashtbl.replace p.ienv var !i;
        tick sim p m.Machine.loop_time;
        List.iter (exec_stmt sim p) body;
        i := !i + st
      done;
      Hashtbl.remove p.ienv var
  | Spmd.If (c, body) ->
      tick sim p m.Machine.guard_time;
      if eval_cond sim p c then List.iter (exec_stmt sim p) body
  | Spmd.FIf (c, t, e) ->
      tick sim p m.Machine.guard_time;
      if eval_fcond sim p c then List.iter (exec_stmt sim p) t
      else List.iter (exec_stmt sim p) e
  | Spmd.SetScalar (name, v) ->
      let x = eval_fexpr sim p v in
      tick sim p m.Machine.flop_time;
      Hashtbl.replace p.fenv name x
  | Spmd.Store { arr; idx; value; access } ->
      let x = eval_fexpr sim p value in
      tick sim p m.Machine.flop_time;
      store_elem sim p (meta_of sim arr) (List.map (eval_expr sim p) idx) x
        access
  | Spmd.Pack { event; arr; idx } ->
      let mt = meta_of sim arr in
      let idx = List.map (eval_expr sim p) idx in
      let enc = Runtime.encode mt.ma idx in
      let v =
        match Hashtbl.find_opt mt.mt_tables.(p.pid) enc with
        | Some v -> v
        | None ->
            if owns sim p mt idx then 0.0
            else
              errf "proc %d: packing non-resident element %s(%s)" p.pid arr
                (String.concat "," (List.map string_of_int idx))
      in
      (* buffer-copy cost is decided at Send time: proved-contiguous and
         runtime-contiguous transfers go in place *)
      let buf =
        match Hashtbl.find_opt sim.outbufs.(p.pid) event with
        | Some b -> b
        | None ->
            let b = Runtime.packbuf_create () in
            Hashtbl.replace sim.outbufs.(p.pid) event b;
            b
      in
      Runtime.packbuf_push buf ~arr enc v
  | Spmd.Send { event; dest } ->
      let dest_vp = List.map (eval_expr sim p) dest in
      let pl =
        match Hashtbl.find_opt sim.outbufs.(p.pid) event with
        | Some b -> Runtime.packbuf_flush b
        | None -> Runtime.empty_payload
      in
      Runtime.send sim.tr
        ~tick:(fun dt -> tick sim p dt)
        ~get_clock:(fun () -> p.clock)
        ~pid:p.pid
        ~dst_pid:(phys_of_vp_i sim dest_vp)
        ~event ~src_vp:(my_vp sim p) ~dst_vp:dest_vp
        ~inplace:(Hashtbl.mem sim.inplace_events event)
        ~rect:(Hashtbl.mem sim.rect_events event)
        pl
  | Spmd.Recv { event; src } ->
      let src_vp = List.map (eval_expr sim p) src in
      let k =
        { Runtime.k_event = event; k_src = src_vp; k_dst = my_vp sim p }
      in
      let t0 = p.clock in
      let msg = Effect.perform (Runtime.ERecv k) in
      tick sim p m.Machine.recv_overhead;
      p.clock <- Float.max p.clock msg.Runtime.m_arrival;
      let pl = msg.Runtime.m_payload in
      let n = Array.length pl.Runtime.pl_idx in
      if not msg.Runtime.m_contig then
        tick sim p (float_of_int n *. m.Machine.unpack_time);
      if n > 0 then begin
        (* resolve the destination table once per message, not per element *)
        let tbl = (meta_of sim pl.Runtime.pl_arr).mt_tables.(p.pid) in
        for i = 0 to n - 1 do
          Hashtbl.replace tbl pl.Runtime.pl_idx.(i) pl.Runtime.pl_val.(i)
        done
      end;
      Runtime.trace_recv sim.tr ~tid:p.pid ~t0 ~t1:p.clock k msg
  | Spmd.Reduce { scalar; op } ->
      if Hashtbl.mem sim.meta scalar then
        (* array reduction: every processor holds partial values; the
           collective combines them element-wise *)
        Effect.perform (Runtime.EReduceArr (scalar, op))
      else begin
        let mine =
          match Hashtbl.find_opt p.fenv scalar with Some v -> v | None -> 0.0
        in
        let combined = Effect.perform (Runtime.EReduce (op, mine)) in
        Hashtbl.replace p.fenv scalar combined
      end
  | Spmd.Call f -> (
      (* a later definition of a name shadows an earlier one, as in the
         lowering ({!Imp.lower}) *)
      let last acc (name, body) = if name = f then Some body else acc in
      match List.fold_left last None sim.prog.subs with
      | Some body -> List.iter (exec_stmt sim p) body
      | None -> errf "proc %d: unknown subroutine %s" p.pid f)

(* ------------------------------------------------------------------ *)
(* Interpreter collectives and scheduling                              *)
(* ------------------------------------------------------------------ *)

(* element-wise combination of every processor's partial values *)
let reduce_arr_interp sim name (op : Spmd.reduce_op) : int =
  let tables = (meta_of sim name).mt_tables in
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
          match Hashtbl.find_opt tbl k with
          | None -> ()
          | Some v ->
              acc :=
                Some
                  (match (!acc, op) with
                  | None, _ -> v
                  | Some a, Spmd.RSum -> a +. v
                  | Some a, Spmd.RMax -> Float.max a v
                  | Some a, Spmd.RMin -> Float.min a v))
        tables;
      match !acc with Some v -> Hashtbl.replace combined k v | None -> ())
    keys;
  Array.iter
    (fun tbl -> Hashtbl.iter (fun k v -> Hashtbl.replace tbl k v) combined)
    tables;
  Hashtbl.length combined

let run_interp (sim : isim) : Runtime.stats =
  if sim.iran then
    errf "simulation already executed: Exec.run consumed this sim (build a fresh one with Exec.make)";
  sim.iran <- true;
  Runtime.sched_run_par ~domains:sim.i_domains
    {
      Runtime.h_nprocs = sim.inprocs;
      h_tr = sim.tr;
      h_clock = (fun p -> sim.procs.(p).clock);
      h_set_clock = (fun p t -> sim.procs.(p).clock <- t);
      h_body =
        (fun p -> List.iter (exec_stmt sim sim.procs.(p)) sim.prog.main);
      h_reduce_arr = reduce_arr_interp sim;
      h_phys_of_vp = phys_of_vp_i sim;
    };
  Runtime.stats_of sim.tr
    ~proc_times:(Array.map (fun p -> p.clock) sim.procs)

(* ------------------------------------------------------------------ *)
(* Interpreter result inspection                                       *)
(* ------------------------------------------------------------------ *)

let get_elem_interp sim name idx =
  let mt = meta_of sim name in
  let pid = owner_pid sim mt idx in
  let enc = Runtime.encode mt.ma idx in
  match Hashtbl.find_opt mt.mt_tables.(pid) enc with
  | Some v -> v
  | None -> 0.0

let get_scalar_interp sim name =
  match Hashtbl.find_opt sim.procs.(0).fenv name with
  | Some v -> v
  | None -> errf "unknown scalar %s" name

(* ------------------------------------------------------------------ *)
(* Interpreter checkpoint capture                                      *)
(* ------------------------------------------------------------------ *)

let sorted_bindings tbl =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort compare |> Array.of_list

let capture_interp (sim : isim) : Runtime.image =
  let arrays =
    Hashtbl.fold (fun name _ acc -> name :: acc) sim.meta []
    |> List.sort compare
  in
  let procs =
    Array.map
      (fun (p : pstate) ->
        let elems =
          List.map
            (fun name ->
              (name, sorted_bindings (meta_of sim name).mt_tables.(p.pid)))
            arrays
          |> Array.of_list
        in
        let staged =
          Hashtbl.fold
            (fun event buf acc ->
              match Runtime.packbuf_peek buf with
              | pl when Array.length pl.Runtime.pl_idx > 0 -> (event, pl) :: acc
              | _ -> acc)
            sim.outbufs.(p.pid) []
          |> List.sort (fun (a, _) (b, _) -> compare a b)
          |> Array.of_list
        in
        {
          Runtime.pi_clock = p.clock;
          pi_ints = sorted_bindings p.ienv;
          pi_floats = sorted_bindings p.fenv;
          pi_elems = elems;
          pi_staged = staged;
        })
      sim.procs
  in
  let chans, inflight, ctrs = Runtime.capture_transport sim.tr in
  {
    Runtime.im_ops = sim.tr.Runtime.tr_gops;
    im_procs = procs;
    im_chans = chans;
    im_inflight = inflight;
    im_counters = ctrs;
  }

(* ------------------------------------------------------------------ *)
(* Public facade                                                       *)
(* ------------------------------------------------------------------ *)

type engine = [ `Closure | `Interp | `Native ]

let engine_names = [ "closure"; "interp"; "native" ]

let engine_of_string = function
  | "closure" -> Some `Closure
  | "interp" -> Some `Interp
  | "native" -> Some `Native
  | _ -> None

let engine_to_string = function
  | `Closure -> "closure"
  | `Interp -> "interp"
  | `Native -> "native"

(* The native engine returns a Compile.csim with the generated kernel
   swapped in as its main, so its whole dispatch surface is Compile's. *)
type sim = SClosure of Compile.csim | SInterp of isim | SNative of Compile.csim

let make ?(engine = `Closure) ?machine ?faults ?domains ~nprocs ?params
    (prog : Spmd.program) : sim =
  match engine with
  | `Closure ->
      SClosure (Compile.make ?machine ?faults ?domains ~nprocs ?params prog)
  | `Interp -> SInterp (make_interp ?machine ?faults ?domains ~nprocs ?params prog)
  | `Native -> SNative (Native.make ?machine ?faults ?domains ~nprocs ?params prog)

let nprocs = function
  | SClosure cs | SNative cs -> Compile.nprocs cs
  | SInterp s -> s.inprocs

let phys_of_vp = function
  | SClosure cs | SNative cs -> Compile.phys_of_vp cs
  | SInterp s -> phys_of_vp_i s

type stats = Runtime.stats = {
  s_time : float;
  s_msgs : int;
  s_bytes : int;
  s_elems : int;
  s_proc_times : float array;
  s_retransmits : int;
  s_timeouts : int;
  s_dups_delivered : int;
  s_max_mailbox : int;
  s_crashes : int;
  s_recoveries : int;
  s_ckpts : int;
  s_ckpt_bytes : int;
  s_lost_work : float;
}

type wait_reason = Runtime.wait_reason =
  | WaitRecv of {
      wr_event : int;
      wr_src_vp : int list;
      wr_src_pid : int;
      wr_expected_seq : int;
      wr_queued : int;
    }
  | WaitReduce
  | WaitReduceArr of string

type proc_wait = Runtime.proc_wait = {
  w_pid : int;
  w_clock : float;
  w_reason : wait_reason;
}

type diagnostic = Runtime.diagnostic = {
  dg_waiting : proc_wait list;
  dg_cycle : int list;
  dg_undelivered : (int * int list * int list * int) list;
  dg_max_mailbox : int;
}

exception Deadlock = Runtime.Deadlock

let pp_diagnostic = Runtime.pp_diagnostic
let diagnostic_to_string = Runtime.diagnostic_to_string

let run = function
  | SClosure cs | SNative cs -> Compile.run cs
  | SInterp s -> run_interp s

type comm_cell = Runtime.comm_cell = {
  cm_event : int;
  cm_src : int;
  cm_dst : int;
  cm_msgs : int;
  cm_elems : int;
  cm_bytes : int;
}

let comm_cells = function
  | SClosure cs | SNative cs -> Compile.comm_cells cs
  | SInterp s -> Runtime.comm_cells s.tr

let get_elem = function
  | SClosure cs | SNative cs -> Compile.get_elem cs
  | SInterp s -> get_elem_interp s

let get_scalar = function
  | SClosure cs | SNative cs -> Compile.get_scalar cs
  | SInterp s -> get_scalar_interp s

exception Crash = Runtime.Crash

let transport = function
  | SClosure cs | SNative cs -> Compile.transport cs
  | SInterp s -> s.tr

let capture = function
  | SClosure cs | SNative cs -> Compile.capture cs
  | SInterp s -> capture_interp s

let clocks = function
  | SClosure cs | SNative cs -> Compile.clocks cs
  | SInterp s -> Array.map (fun (p : pstate) -> p.clock) s.procs

let set_clocks sim t =
  match sim with
  | SClosure cs | SNative cs -> Compile.set_clocks cs t
  | SInterp s -> Array.iter (fun (p : pstate) -> p.clock <- t) s.procs

let charge sim dt =
  match sim with
  | SClosure cs | SNative cs -> Compile.charge cs dt
  | SInterp s -> Array.iter (fun (p : pstate) -> p.clock <- p.clock +. dt) s.procs
