(** Wall-clock phase accounting, used to regenerate the paper's Table 1
    (breakdown of dHPF compilation time). Phases may nest; a phase's time is
    attributed to its own label and, implicitly, to every enclosing label
    (the paper's table shows nested refinements the same way).

    Safe to share across domains: the totals table is mutex-protected and
    the nesting stack is domain-local, so the parallel compiler phases can
    attribute time to one profiler concurrently — each domain's spans nest
    independently, and a label's total is the sum over domains. *)

type t = {
  totals : (string, float) Hashtbl.t;
  mu : Mutex.t;
  stack : (string * float) list ref Domain.DLS.key;
      (** per-domain nesting stack: re-entrancy and outermost-ness are
          properties of one domain's call chain *)
  mutable t0 : float;
}

let create () =
  {
    totals = Hashtbl.create 32;
    mu = Mutex.create ();
    stack = Domain.DLS.new_key (fun () -> ref []);
    t0 = Unix.gettimeofday ();
  }

let reset t =
  Mutex.protect t.mu (fun () -> Hashtbl.reset t.totals);
  Domain.DLS.get t.stack := [];
  t.t0 <- Unix.gettimeofday ()

let add t label dt =
  Mutex.protect t.mu (fun () ->
      let cur = try Hashtbl.find t.totals label with Not_found -> 0.0 in
      Hashtbl.replace t.totals label (cur +. dt))

(** Time [f], attributing the elapsed time to [label]. Re-entrant: nested
    timings of the same label are not double counted (and re-entry emits no
    trace span either, matching the accounting). Outermost phases attach a
    snapshot of the integer-set cache counters to their span, so a Chrome
    trace of a compile carries the cache behaviour of each top-level pass.
    Spans carry the domain id as their trace [tid], so parallel compiles
    render one track per domain. *)
let time t label f =
  let stack = Domain.DLS.get t.stack in
  if List.exists (fun (l, _) -> l = label) !stack then f ()
  else begin
    let start = Unix.gettimeofday () in
    let outermost = !stack = [] in
    stack := (label, start) :: !stack;
    let traced = Obs.enabled () in
    let ts = if traced then Obs.now_us () else 0.0 in
    Fun.protect
      ~finally:(fun () ->
        stack := List.tl !stack;
        add t label (Unix.gettimeofday () -. start);
        if traced then begin
          let dur = Obs.now_us () -. ts in
          let args =
            if outermost then
              List.map (fun (n, v) -> (n, Obs.Int v)) (Iset.Stats.report ())
            else []
          in
          Obs.complete ~pid:0
            ~tid:(Domain.self () :> int)
            ~ts ~dur ~cat:"phase" ~args label;
          (* counter series are keyed by name alone in the Chrome trace, so
             the name carries a subsystem prefix: a samely-named series
             emitted by another subsystem (e.g. the simulator) would
             otherwise interleave into this track *)
          if outermost then
            Obs.counter "iset/cache hits"
              (List.map
                 (fun (n, _, hits) ->
                   (n, float_of_int (Iset.Stats.count hits)))
                 Iset.Stats.memos)
        end)
      f
  end

let total t label =
  Mutex.protect t.mu (fun () ->
      try Hashtbl.find t.totals label with Not_found -> 0.0)

let elapsed t = Unix.gettimeofday () -. t.t0

let labels t =
  Mutex.protect t.mu (fun () ->
      Hashtbl.fold (fun l _ acc -> l :: acc) t.totals [])
  |> List.sort compare

(** The global profiler used by the compiler driver. *)
let global = create ()
