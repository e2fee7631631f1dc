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
  stack : string list ref Domain.DLS.key;
      (** per-domain stack of open labels: re-entrancy and outermost-ness
          are properties of one domain's call chain *)
  mutable t0 : float;
}

let create () =
  {
    totals = Hashtbl.create 32;
    mu = Mutex.create ();
    stack = Domain.DLS.new_key (fun () -> ref []);
    t0 = Obs.clock ();
  }

let reset t =
  Mutex.protect t.mu (fun () -> Hashtbl.reset t.totals);
  Domain.DLS.get t.stack := [];
  t.t0 <- Obs.clock ()

let add t label dt =
  Mutex.protect t.mu (fun () ->
      let cur = try Hashtbl.find t.totals label with Not_found -> 0.0 in
      Hashtbl.replace t.totals label (cur +. dt))

let stats_args () =
  List.map (fun (n, v) -> (n, Obs.Int v)) (Iset.Stats.report ())

(** Time [f] as an {!Obs.span} of category ["phase"], adding the span's
    duration to [label]'s total: the totals and the trace are one
    measurement. Re-entrant: nested timings of the same label are not
    double counted and emit no span. Outermost phases attach a snapshot of
    the integer-set cache counters to their span, so a Chrome trace of a
    compile carries the cache behaviour of each top-level pass. *)
let time t label f =
  let stack = Domain.DLS.get t.stack in
  if List.mem label !stack then f ()
  else begin
    let outermost = !stack = [] in
    stack := label :: !stack;
    Obs.span ~cat:"phase"
      ?args:(if outermost then Some stats_args else None)
      ~on_end:(fun dt ->
        stack := List.tl !stack;
        add t label dt;
        (* counter series are keyed by name alone in the Chrome trace, so
           the name carries a subsystem prefix: a samely-named series
           emitted by another subsystem (e.g. the simulator) would
           otherwise interleave into this track *)
        if outermost && Obs.enabled () then
          Obs.counter "iset/cache hits"
            (List.map
               (fun (m : Iset.Stats.memo) ->
                 (m.name, float_of_int (Iset.Stats.count m.hits)))
               Iset.Stats.memos))
      label f
  end

let total t label =
  Mutex.protect t.mu (fun () ->
      try Hashtbl.find t.totals label with Not_found -> 0.0)

let elapsed t = Obs.clock () -. t.t0

let labels t =
  Mutex.protect t.mu (fun () ->
      Hashtbl.fold (fun l _ acc -> l :: acc) t.totals [])
  |> List.sort compare

(** The global profiler used by the compiler driver. Its totals are an
    {!Obs.Metrics} source: one [compiler/phase_s{phase}] gauge per label. *)
let global = create ()

let () =
  Obs.Metrics.register_source (fun () ->
      List.map
        (fun l ->
          {
            Obs.Metrics.m_name = "compiler/phase_s";
            m_labels = [ ("phase", l) ];
            m_value = Obs.Metrics.VGauge (total global l);
          })
        (labels global))
