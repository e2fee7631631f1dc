(** Counters for the hash-consing / memoization layer.

    Counters are monotone within a measurement window; {!reset} starts a new
    window (cache contents are untouched — hits after a reset still count).
    Gauges report live state (interned-node counts, cache sizes) and are
    registered by the owning table at creation time.

    Counts live in [Atomic.t] cells so bumps from parallel compiler phases
    never race or lose increments; a counter read is a plain atomic load, so
    totals observed after a join are exact. *)

type counter = { c_name : string; c_count : int Atomic.t }

let registry_mu = Mutex.create ()
let counters : counter list ref = ref []

let counter name =
  let c = { c_name = name; c_count = Atomic.make 0 } in
  Mutex.protect registry_mu (fun () -> counters := c :: !counters);
  c

let bump c = ignore (Atomic.fetch_and_add c.c_count 1 : int)

let gauges : (string * (unit -> int)) list ref = ref []

let register_gauge name f =
  Mutex.protect registry_mu (fun () -> gauges := (name, f) :: !gauges)

(* every in-memory memo table: its name and its lookup and hit counters,
   registered by [memo] in reporting order. [memos] is the one list the
   trace counter, the serve hit ratio and Table 1's cache rows derive
   from. *)
type memo = { name : string; lookups : counter; hits : counter }

let memo_list = ref []

let memo name =
  let lookups = counter (name ^ " lookups") in
  let m = { name; lookups; hits = counter (name ^ " hits") } in
  memo_list := m :: !memo_list;
  m

(* -- the counters of the iset engine, in reporting order -- *)

let sat = memo "sat"
let simplify = memo "simplify"
let fme_exact = counter "omega exact eliminations"
let dark_shadows = counter "omega dark shadows"
let splinters = counter "omega splinters"
let rel = memo "rel"
let codegen = memo "codegen"
let evictions = counter "cache evictions"
let disk_lookups = counter "disk lookups"
let disk_hits = counter "disk hits"
let disk_stores = counter "disk stores"
let disk_evictions = counter "disk evictions"
let memos = List.rev !memo_list

let reset () = List.iter (fun c -> Atomic.set c.c_count 0) !counters

let report () =
  List.rev_map (fun c -> (c.c_name, Atomic.get c.c_count)) !counters
  @ List.rev_map (fun (n, f) -> (n, f ())) !gauges

let count c = Atomic.get c.c_count
let name c = c.c_name

(* the metrics registry reads the counts here, where they live: counters
   as [iset/<name>] counters, gauges as [iset/<name>] gauges *)
let () =
  let module M = Obs.Metrics in
  let series n v = { M.m_name = "iset/" ^ n; m_labels = []; m_value = v } in
  M.register_source (fun () ->
      List.map
        (fun c -> series c.c_name (M.VCounter (float_of_int (count c))))
        !counters
      @ List.map
          (fun (n, f) -> series n (M.VGauge (float_of_int (f ()))))
          !gauges)

let pp fmt () =
  List.iter (fun (n, v) -> Fmt.pf fmt "  %-28s %10d@." n v) (report ())
