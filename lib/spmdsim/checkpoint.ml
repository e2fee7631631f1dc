(* Coordinated checkpoint/restart for the SPMD simulator.

   The protocol is the classic coordinated scheme made trivial by
   determinism: every [Runtime.tr_ckpt_every] global communication
   operations, the controller captures a deep image of the whole group —
   per-processor clocks, live bindings, every resident array element
   (dense owned blocks, halo side tables, sparse reduction storage),
   staged pack buffers, per-channel sequence counters and in-flight
   messages — and prices the write on every processor's clock.

   Consistency argument: a snapshot is taken inside the scheduler at a
   deterministic global operation count, between operations, so it is a
   cut of the unique deterministic execution — no processor is mid-send,
   no message is half-delivered, and the same cut is reproduced by any
   replay. Quiescence is not required: in-flight messages are part of the
   image.

   Recovery is re-execution-based. OCaml effect continuations (the
   processor fibers) cannot be serialized, so "restore from snapshot"
   runs a fresh simulation from the start and replays deterministically
   up to the rollback point — message faults, crash draws and checkpoint
   charges all re-derive identically (pure hashes + shared consumed-crash
   set), so the replayed state at the rollback boundary is bit-identical
   to the stored snapshot. The controller verifies exactly that
   ({!image_equal}, floats compared by bits) before applying the restart
   barrier: every clock is set to the recovery time

     T_r = max clock at crash + detection timeout + restart latency
           + checkpoint read-back cost (alpha + bytes * beta)

   Element values never depend on clocks (delivery is sequence-matched),
   so the barrier cannot change results: values stay bit-identical to the
   fault-free run and the first-transmission-only comm matrix stays
   fault-invariant. Only clocks — lost work, detection, restart, reads —
   move, which is the point.

   Earlier recoveries are replayed too: each attempt re-applies every
   previously-applied restart barrier at its operation count, so clock
   evolution (and with it message arrival times and later snapshots) is
   identical across attempts — what makes rollback verification exact
   even after multiple crashes. *)

let errf = Runtime.errf

(* ------------------------------------------------------------------ *)
(* Bit-exact image equality                                             *)
(* ------------------------------------------------------------------ *)

(* one structural comparison of the marshalled bytes: floats marshal as
   their 8 IEEE-754 bytes, so NaN equals itself and 0.0 <> -0.0 — the
   right notion for "deterministic replay reproduced the exact state" —
   and a field added to the image is compared without further code. The
   image holds only records, arrays, lists, strings and numbers, so
   [No_sharing] makes the bytes a function of its structure alone. *)
let image_equal (a : Runtime.image) (b : Runtime.image) =
  String.equal
    (Marshal.to_string a [ Marshal.No_sharing ])
    (Marshal.to_string b [ Marshal.No_sharing ])

(* ------------------------------------------------------------------ *)
(* Snapshot size                                                        *)
(* ------------------------------------------------------------------ *)

(* The byte count that prices a checkpoint write (times
   [Machine.ckpt_beta]) and its read-back: a 9-byte tag, then every
   integer and float as 8 bytes, strings and arrays each behind an 8-byte
   length (see DESIGN.md §12). Computed from the image; nothing is
   serialized. *)

let str_size s = 8 + String.length s
let arr_size f a = Array.fold_left (fun n x -> n + f x) 8 a
let ilist_size l = 8 + (8 * List.length l)

let key_size (k : Runtime.key) =
  8 + ilist_size k.Runtime.k_src + ilist_size k.Runtime.k_dst

let payload_size (pl : Runtime.payload) =
  str_size pl.Runtime.pl_arr
  + (8 + (8 * Array.length pl.Runtime.pl_idx))
  + (8 + (8 * Array.length pl.Runtime.pl_val))

(* sequence number, arrival time, payload, contiguity flag *)
let msg_size (m : Runtime.msg) = 24 + payload_size m.Runtime.m_payload

let proc_size (p : Runtime.proc_image) =
  8
  + arr_size (fun (n, _) -> str_size n + 8) p.Runtime.pi_ints
  + arr_size (fun (n, _) -> str_size n + 8) p.Runtime.pi_floats
  + arr_size
      (fun (n, es) -> str_size n + 8 + (16 * Array.length es))
      p.Runtime.pi_elems
  + arr_size (fun (_, pl) -> 8 + payload_size pl) p.Runtime.pi_staged

let encoded_size (im : Runtime.image) =
  9 + 8
  + arr_size proc_size im.Runtime.im_procs
  + arr_size (fun (k, _, _) -> key_size k + 16) im.Runtime.im_chans
  + arr_size (fun (k, ms) -> key_size k + arr_size msg_size ms)
      im.Runtime.im_inflight
  (* the four transport totals *)
  + (4 * 8)

(* ------------------------------------------------------------------ *)
(* Recovery controller                                                  *)
(* ------------------------------------------------------------------ *)

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

(* a restart barrier applied at a boundary in every later replay, so clock
   evolution is identical across attempts *)
type barrier = {
  b_ops : int;
  b_t : float;  (* T_r of the recovery that created it *)
  b_pid : int;  (* the processor whose crash caused it (trace label) *)
  b_snap : snapshot option;  (* None: restart-from-scratch (ops 0) *)
}

type report = {
  rp_sim : Exec.sim;  (** the completed (final-attempt) simulation *)
  rp_stats : Runtime.stats;  (** with crash/checkpoint fields filled in *)
  rp_crashes : crash_record list;  (** chronological *)
  rp_attempts : int;  (** executions launched, including the first *)
}

let run ?engine ?(machine = Machine.default) ?faults ?(plan = [])
    ?(ckpt_every = 0) ?(max_events = 0) ~nprocs prog : report =
  let budget =
    List.length plan
    + (match faults with
      | Some sp when sp.Fault.crash_prob > 0.0 -> sp.Fault.crash_max
      | _ -> 0)
  in
  (* shared across attempts: consumed crashes never re-fire during replay *)
  let cc = Runtime.crashctl_make ~plan ?spec:faults ~max:budget () in
  let barriers : barrier list ref = ref [] in
  let crashes = ref [] in
  let attempts = ref 0 in
  let rec attempt () =
    incr attempts;
    let sim = Exec.make ?engine ~machine ?faults ~nprocs prog in
    let tr = Exec.transport sim in
    tr.Runtime.tr_crash <- Some cc;
    tr.Runtime.tr_ckpt_every <- ckpt_every;
    tr.Runtime.tr_max_events <- max_events;
    (* pending restart barriers, ascending ops; re-applied during replay *)
    let pending = ref (List.rev !barriers) in
    (* rollback source for the NEXT crash, and the per-proc clock baseline
       lost work is measured against *)
    let cur_snap : snapshot option ref = ref None in
    let baseline = ref (Array.make (Exec.nprocs sim) 0.0) in
    let n_writes = ref 0 and n_wbytes = ref 0 in
    let apply_barrier b =
      Exec.set_clocks sim b.b_t;
      Runtime.trace_instant tr ~tid:b.b_pid ~ts:b.b_t
        ~args:[ ("ops", Obs.Int b.b_ops) ]
        "restore";
      (match b.b_snap with
      | Some s ->
          (* the restore point becomes the rollback source: its on-disk
             image is b_snap's, its live state is the post-barrier capture *)
          cur_snap :=
            Some
              { sn_ops = b.b_ops; sn_img = Exec.capture sim;
                sn_bytes = s.sn_bytes }
      | None -> cur_snap := None);
      baseline := Array.map (fun _ -> b.b_t) !baseline
    in
    (* restart-from-scratch barriers apply before any operation runs *)
    let rec apply_start () =
      match !pending with
      | b :: rest when b.b_ops = 0 ->
          pending := rest;
          apply_barrier b;
          apply_start ()
      | _ -> ()
    in
    apply_start ();
    tr.Runtime.tr_on_ckpt <-
      (fun gops ->
        (* replaying past an earlier recovery: verify the replayed state is
           bit-identical to what was checkpointed, then re-apply the
           restart barrier — no write happened here in the original run *)
        let is_barrier = ref false in
        let img = ref None in
        let capture () =
          match !img with
          | Some i -> i
          | None ->
              let i = Exec.capture sim in
              img := Some i;
              i
        in
        let rec apply_here () =
          match !pending with
          | b :: rest when b.b_ops = gops ->
              is_barrier := true;
              pending := rest;
              (match b.b_snap with
              | Some s ->
                  if not (image_equal (capture ()) s.sn_img) then
                    errf
                      "checkpoint recovery: replayed state at op %d diverges \
                       from the stored snapshot (determinism violated)"
                      gops
              | None -> ());
              apply_barrier b;
              img := None;
              apply_here ()
          | _ -> ()
        in
        apply_here ();
        if not !is_barrier then begin
          (* coordinated write: capture first (the image carries pre-write
             clocks, which is what a replay re-derives), then charge every
             processor for the write *)
          let i = capture () in
          let bytes = encoded_size i in
          let cost =
            machine.Machine.ckpt_alpha
            +. (float_of_int bytes *. machine.Machine.ckpt_beta)
          in
          (* each processor pays the write on its own clock — the write is
             coordinated (same cut) but not a barrier *)
          Exec.charge sim cost;
          incr n_writes;
          n_wbytes := !n_wbytes + bytes;
          cur_snap := Some { sn_ops = gops; sn_img = i; sn_bytes = bytes };
          baseline := Exec.clocks sim
        end);
    match Exec.run sim with
    | stats -> (sim, stats, !n_writes, !n_wbytes)
    | exception Runtime.Crash { cp_pid; cp_op; cp_clock } ->
        let clocks = Exec.clocks sim in
        let t_max = Array.fold_left Float.max 0.0 clocks in
        let read_cost, restore_ops, snap =
          match !cur_snap with
          | Some s ->
              ( machine.Machine.ckpt_alpha
                +. (float_of_int s.sn_bytes *. machine.Machine.ckpt_beta),
                s.sn_ops,
                Some s )
          | None -> (0.0, 0, None)
        in
        let t_r =
          t_max +. machine.Machine.detect_timeout
          +. machine.Machine.restart_latency +. read_cost
        in
        let lost =
          let base = !baseline in
          let acc = ref 0.0 in
          Array.iteri
            (fun p t -> acc := !acc +. Float.max 0.0 (t -. base.(p)))
            clocks;
          !acc
        in
        crashes :=
          { cr_pid = cp_pid; cr_op = cp_op; cr_clock = cp_clock;
            cr_restore_ops = restore_ops; cr_restart_t = t_r;
            cr_lost_work = lost }
          :: !crashes;
        barriers :=
          { b_ops = restore_ops; b_t = t_r; b_pid = cp_pid; b_snap = snap }
          :: !barriers;
        attempt ()
  in
  let sim, raw, n_writes, n_wbytes = attempt () in
  let crashes = List.rev !crashes in
  let n_crashes = List.length crashes in
  let lost = List.fold_left (fun a c -> a +. c.cr_lost_work) 0.0 crashes in
  if Obs.Metrics.enabled () then begin
    let module M = Obs.Metrics in
    let inc n v = M.inc (M.counter n) v in
    inc "sim/crashes" (float_of_int n_crashes);
    inc "sim/ckpt_count" (float_of_int n_writes);
    inc "sim/ckpt_bytes" (float_of_int n_wbytes);
    inc "sim/lost_work_s" lost
  end;
  {
    rp_sim = sim;
    rp_stats =
      {
        raw with
        Runtime.s_crashes = n_crashes;
        s_ckpts = n_writes;
        s_ckpt_bytes = n_wbytes;
        s_lost_work = lost;
      };
    rp_crashes = crashes;
    rp_attempts = !attempts;
  }
