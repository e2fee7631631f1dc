(* Differential harness: each sweep runs a reference and its candidates
   under the same schedules and reports the first difference. See
   diffcheck.mli. *)

type divergence = {
  dv_seed : int option;
  dv_array : string;
  dv_index : int list;
  dv_expected : float;
  dv_got : float;
}

type outcome =
  | Pass of { runs : int }
  | Diverged of divergence
  | Crashed of { seed : int option; error : string }

(* a value difference; the driver fills in [dv_seed] *)
exception Found of divergence

(* a counter, clock or comm-cell difference, reported as [Crashed] *)
exception Differs of string

let differs fmt = Printf.ksprintf (fun s -> raise (Differs s)) fmt

(* relative tolerance, same as the end-to-end suite: floating summation
   order in reductions is deterministic but may differ from the serial
   interpreter's association *)
let close want got = abs_float (want -. got) <= 1e-6 *. (abs_float want +. 1.0)

(* Simulation against simulation the contract is exact: the engines, the
   domain counts and crash recovery share the transport and charge clock
   time in the same order, so values, clocks and counters must agree bit
   for bit. *)
let bit_equal a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* ------------------------------------------------------------------ *)
(* Shared pieces: prepare, the schedule driver, the comparator         *)
(* ------------------------------------------------------------------ *)

type prepared = {
  cprog : Dhpf.Spmd.program;
  nprocs : int;
  bounds : (string * (int * int) list) list;
      (** array extents, evaluated over the startup parameter environment *)
}

let prepare ?opts ~nprocs chk =
  let cprog = (Dhpf.Gen.compile ?opts chk).Dhpf.Gen.cprog in
  let geval =
    Runtime.eval_genv (Runtime.setup ~nprocs ~params:[] cprog).Runtime.su_genv
  in
  let bounds =
    List.map
      (fun (ad : Dhpf.Spmd.array_decl) ->
        ( ad.Dhpf.Spmd.ad_name,
          List.map (fun (lo, hi) -> (geval lo, geval hi)) ad.ad_bounds ))
      cprog.Dhpf.Spmd.arrays
  in
  { cprog; nprocs; bounds }

(* The fault-free schedule first, then one per seed. [one faults] checks
   one schedule and returns how many runs it compared. *)
let sweep ~spec_of_seed ~seeds one =
  let rec go runs = function
    | [] -> Pass { runs }
    | seed :: rest -> (
        match one (Option.map spec_of_seed seed) with
        | n -> go (runs + n) rest
        | exception Found d -> Diverged { d with dv_seed = seed }
        | exception Differs error -> Crashed { seed; error }
        | exception Exec.Deadlock d ->
            Crashed { seed; error = Exec.diagnostic_to_string d }
        | exception Exec.Error error -> Crashed { seed; error })
  in
  go 0 (None :: List.map Option.some seeds)

let check ~eq name idx want got =
  if not (eq want got) then
    raise
      (Found
         {
           dv_seed = None;
           dv_array = name;
           dv_index = idx;
           dv_expected = want;
           dv_got = got;
         })

(* The element walker: every element of every array, in declaration and
   index order, [want] against [got] under [eq]. *)
let walk ~eq p want got =
  List.iter
    (fun (aname, dims) ->
      let rec go idx = function
        | [] ->
            let idx = List.rev idx in
            check ~eq aname idx (want aname idx) (got aname idx)
        | (lo, hi) :: rest ->
            for x = lo to hi do
              go (x :: idx) rest
            done
      in
      go [] dims)
    p.bounds

type run = { label : string; sim : Exec.sim; stats : Exec.stats }

let exec ?faults ?domains p engine label =
  let sim = Exec.make ~engine ?faults ?domains ~nprocs:p.nprocs p.cprog in
  { label; sim; stats = Exec.run sim }

(* every Runtime.stats field as a (name, a, b) triple *)
let stat_fields (a : Exec.stats) (b : Exec.stats) =
  let i = float_of_int in
  [
    ("time", a.Exec.s_time, b.Exec.s_time);
    ("msgs", i a.s_msgs, i b.s_msgs);
    ("bytes", i a.s_bytes, i b.s_bytes);
    ("elems", i a.s_elems, i b.s_elems);
    ("retransmits", i a.s_retransmits, i b.s_retransmits);
    ("crashes", i a.s_crashes, i b.s_crashes);
    ("ckpts", i a.s_ckpts, i b.s_ckpts);
    ("ckpt_bytes", i a.s_ckpt_bytes, i b.s_ckpt_bytes);
    ("lost_work", a.s_lost_work, b.s_lost_work);
  ]

(* the tail of [identical]: per-pair communication cells, then every
   element and scalar bit for bit ([dv_expected] is [r]'s value) *)
let same_cells_and_values ~kind p r c =
  if Exec.comm_cells r.sim <> Exec.comm_cells c.sim then
    differs "%s comm-cell mismatch: %s vs %s" kind r.label c.label;
  walk ~eq:bit_equal p (Exec.get_elem r.sim) (Exec.get_elem c.sim);
  List.iter
    (fun name ->
      (* a scalar the program declares but never assigns is absent from
         both runs' environments *)
      match (Exec.get_scalar r.sim name, Exec.get_scalar c.sim name) with
      | want, got -> check ~eq:bit_equal name [] want got
      | exception Exec.Error _ -> ())
    p.cprog.Dhpf.Spmd.scalars

(* Bit-identity of [c] to [r]: stats fields, then per-processor clocks,
   then comm cells, then values. The first mismatch raises. *)
let identical ~kind p r c =
  List.iter
    (fun (field, a, b) ->
      if not (bit_equal a b) then
        differs "%s counter mismatch: %s %s=%.17g %s=%.17g" kind field r.label
          a c.label b)
    (stat_fields r.stats c.stats);
  Array.iteri
    (fun proc a ->
      let b = c.stats.Exec.s_proc_times.(proc) in
      if not (bit_equal a b) then
        differs "%s clock mismatch: proc %d %s=%.17g %s=%.17g" kind proc
          r.label a c.label b)
    r.stats.Exec.s_proc_times;
  same_cells_and_values ~kind p r c

let default_spec seed = Fault.default ~seed

(* ------------------------------------------------------------------ *)
(* The sweeps                                                          *)
(* ------------------------------------------------------------------ *)

let run ?(engine = `Closure) ?(nprocs = 4) ?opts ?(spec_of_seed = default_spec)
    ~seeds (chk : Hpf.Sema.checked) : outcome =
  let p = prepare ?opts ~nprocs chk in
  let sref = Serial.run chk in
  sweep ~spec_of_seed ~seeds (fun faults ->
      let c = exec ?faults p engine "spmd" in
      walk ~eq:close p (Serial.get_elem sref) (Exec.get_elem c.sim);
      1)

let engines ?(nprocs = 4) ?opts ?(spec_of_seed = default_spec) ~seeds
    (chk : Hpf.Sema.checked) : outcome =
  let p = prepare ?opts ~nprocs chk in
  sweep ~spec_of_seed ~seeds (fun faults ->
      let r = exec ?faults p `Interp "interp" in
      List.iter
        (fun engine ->
          identical ~kind:"engine" p r
            (exec ?faults p engine (Exec.engine_to_string engine)))
        [ `Closure; `Native ];
      1)

let domains ?(engine = `Closure) ?(nprocs = 4) ?opts ?(domain_counts = [ 2; 4 ])
    ?(spec_of_seed = default_spec) ~seeds (chk : Hpf.Sema.checked) : outcome =
  let p = prepare ?opts ~nprocs chk in
  sweep ~spec_of_seed ~seeds (fun faults ->
      let r = exec ?faults ~domains:1 p engine "1-domain" in
      List.iter
        (fun d ->
          identical ~kind:"domain" p r
            (exec ?faults ~domains:d p engine (Printf.sprintf "%d-domain" d)))
        domain_counts;
      List.length domain_counts)

let crashes ?(nprocs = 4) ?opts ?(ckpt_every = 8)
    ?(spec_of_seed =
      fun seed -> { Fault.none with seed; crash_prob = 0.02; crash_max = 3 })
    ~seeds (chk : Hpf.Sema.checked) : outcome =
  let p = prepare ?opts ~nprocs chk in
  (* the reference is the fault-free schedule's run; recovery moves clocks
     by design, so only cells and values are compared *)
  let r = lazy (exec p `Closure "fault-free closure") in
  sweep ~spec_of_seed ~seeds (function
      | None ->
          ignore (Lazy.force r);
          0
      | Some faults ->
          List.iter
            (fun engine ->
              let rep =
                Checkpoint.run ~engine ~faults ~ckpt_every ~nprocs p.cprog
              in
              same_cells_and_values ~kind:"crash" p (Lazy.force r)
                {
                  label =
                    Printf.sprintf "%s engine, %d crash(es)"
                      (Exec.engine_to_string engine)
                      rep.Checkpoint.rp_stats.Runtime.s_crashes;
                  sim = rep.Checkpoint.rp_sim;
                  stats = rep.Checkpoint.rp_stats;
                })
            [ `Interp; `Closure ];
          2)

let pp_against reference fmt = function
  | Pass { runs } ->
      Fmt.pf fmt "diffcheck: %d run(s) matched %s" runs reference
  | Diverged d ->
      Fmt.pf fmt "diffcheck: DIVERGENCE %s(%s): expected %.9g, got %.9g (%s)"
        d.dv_array
        (String.concat "," (List.map string_of_int d.dv_index))
        d.dv_expected d.dv_got
        (match d.dv_seed with
        | None -> "fault-free run"
        | Some s -> Printf.sprintf "fault seed %d" s)
  | Crashed { seed; error } ->
      Fmt.pf fmt "diffcheck: CRASH under %s:@.%s"
        (match seed with
        | None -> "fault-free run"
        | Some s -> Printf.sprintf "fault seed %d" s)
        error

let pp_outcome = pp_against "the reference"
