(* Structured tracing substrate. Design constraints, in order:
   (1) the disabled path is one boolean read — the simulator's send/recv
       hot paths check [enabled ()] and allocate nothing when it is false;
   (2) tracing never writes simulated state — simulator events carry
       explicit timestamps read from the virtual clocks, so traced and
       untraced runs are bit-identical;
   (3) no dependencies beyond [unix] (for the wall clock): every export
       is built as a [Json.t] and printed by the in-tree codec. *)

module Json = Json

type arg = Str of string | Int of int | Float of float | Bool of bool

type phase = X | I | C | FlowStart | FlowEnd | Meta of string

type event = {
  e_ph : phase;
  e_name : string;
  e_cat : string;
  e_pid : int;
  e_tid : int;
  e_ts : float;
  e_dur : float;
  e_id : int;
  e_args : (string * arg) list;
}

(* growable buffer: a reversed list is fine for the event volumes the
   compiler and simulator produce (tens of thousands), and keeps the
   disabled path free of array bookkeeping. The enabled flag and flow-id
   counter are atomics and the buffer is mutex-protected so parallel
   compiler phases can emit events concurrently; the disabled path is
   still one atomic load and takes no lock. *)
let on = Atomic.make false
let buf_mu = Mutex.create ()
let buf : event list ref = ref []
let n = ref 0
let epoch = ref 0.0
let flow_ctr = Atomic.make 0

let enabled () = Atomic.get on

let enable () =
  if not (Atomic.get on) then begin
    Atomic.set on true;
    if !epoch = 0.0 then epoch := Unix.gettimeofday ()
  end

let disable () = Atomic.set on false

let reset () =
  Mutex.protect buf_mu (fun () ->
      buf := [];
      n := 0);
  Atomic.set flow_ctr 0;
  epoch := (if Atomic.get on then Unix.gettimeofday () else 0.0)

let now_us () = (Unix.gettimeofday () -. !epoch) *. 1e6

let push e =
  Mutex.protect buf_mu (fun () ->
      buf := e :: !buf;
      incr n)

let ev ?(cat = "") ?(args = []) ~ph ~pid ~tid ~ts ?(dur = 0.0) ?(id = 0) name =
  push
    { e_ph = ph; e_name = name; e_cat = cat; e_pid = pid; e_tid = tid;
      e_ts = ts; e_dur = dur; e_id = id; e_args = args }

(* ------------------------------------------------------------------ *)
(* Real-time events (compiler side): pid 0, tid 0                      *)
(* ------------------------------------------------------------------ *)

let span ?cat ?args name f =
  if not (Atomic.get on) then f ()
  else begin
    let t0 = now_us () in
    Fun.protect
      ~finally:(fun () ->
        let t1 = now_us () in
        let args = match args with None -> [] | Some g -> g () in
        ev ?cat ~args ~ph:X ~pid:0 ~tid:0 ~ts:t0 ~dur:(t1 -. t0) name)
      f
  end

let instant ?cat ?args name =
  if Atomic.get on then ev ?cat ?args ~ph:I ~pid:0 ~tid:0 ~ts:(now_us ()) name

let counter name series =
  if Atomic.get on then
    ev ~ph:C ~pid:0 ~tid:0 ~ts:(now_us ())
      ~args:(List.map (fun (s, v) -> (s, Float v)) series)
      name

(* ------------------------------------------------------------------ *)
(* Explicit-timestamp events (simulator side)                          *)
(* ------------------------------------------------------------------ *)

let complete ~pid ~tid ~ts ~dur ?cat ?args name =
  if Atomic.get on then ev ?cat ?args ~ph:X ~pid ~tid ~ts ~dur name

let instant_at ~pid ~tid ~ts ?cat ?args name =
  if Atomic.get on then ev ?cat ?args ~ph:I ~pid ~tid ~ts name

let next_flow_id () = Atomic.fetch_and_add flow_ctr 1 + 1

let flow_start ~pid ~tid ~ts ~id name =
  if Atomic.get on then ev ~cat:"flow" ~ph:FlowStart ~pid ~tid ~ts ~id name

let flow_end ~pid ~tid ~ts ~id name =
  if Atomic.get on then ev ~cat:"flow" ~ph:FlowEnd ~pid ~tid ~ts ~id name

let set_process_name ~pid name =
  if Atomic.get on then
    ev ~ph:(Meta "process_name") ~pid ~tid:0 ~ts:0.0
      ~args:[ ("name", Str name) ] "process_name"

let set_thread_name ~pid ~tid name =
  if Atomic.get on then
    ev ~ph:(Meta "thread_name") ~pid ~tid ~ts:0.0
      ~args:[ ("name", Str name) ] "thread_name"

(* ------------------------------------------------------------------ *)
(* Export                                                              *)
(* ------------------------------------------------------------------ *)

let events () = Mutex.protect buf_mu (fun () -> List.rev !buf)
let events_count () = Mutex.protect buf_mu (fun () -> !n)

(* the one conversion from typed arguments to JSON *)
let json_of_arg = function
  | Str s -> Json.Str s
  | Int i -> Json.int i
  | Float v -> Json.Num v
  | Bool v -> Json.Bool v

let args_json args = Json.Obj (List.map (fun (k, v) -> (k, json_of_arg v)) args)

(* trace timestamps are microseconds; rounding to three decimals keeps
   their nanosecond resolution without a second number format *)
let us x = Json.Num (Float.round (x *. 1e3) /. 1e3)

let event_json e =
  let ph =
    match e.e_ph with
    | X -> "X"
    | I -> "i"
    | C -> "C"
    | FlowStart -> "s"
    | FlowEnd -> "f"
    | Meta _ -> "M"
  in
  Json.Obj
    ([ ("ph", Json.Str ph);
       ("name", Json.Str (match e.e_ph with Meta m -> m | _ -> e.e_name)) ]
    @ (if e.e_cat <> "" then [ ("cat", Json.Str e.e_cat) ] else [])
    @ [ ("pid", Json.int e.e_pid); ("tid", Json.int e.e_tid); ("ts", us e.e_ts) ]
    @ (match e.e_ph with
      | X -> [ ("dur", us e.e_dur) ]
      | I -> [ ("s", Json.Str "t") ]
      | FlowStart -> [ ("id", Json.int e.e_id) ]
      | FlowEnd -> [ ("id", Json.int e.e_id); ("bp", Json.Str "e") ]
      | C | Meta _ -> [])
    @ if e.e_args <> [] then [ ("args", args_json e.e_args) ] else [])

let to_chrome_json () =
  Json.Obj
    [
      ("displayTimeUnit", Json.Str "ms");
      ( "otherData",
        Json.Obj
          [
            ("generator", Json.Str "dhpf obs");
            ("trace_epoch_unix_s", Json.Str (Printf.sprintf "%.6f" !epoch));
          ] );
      ("traceEvents", Json.List (List.map event_json (events ())));
    ]

(* unique temp name per process and call, so concurrent writers of one
   path never share a temp file; the last rename wins whole *)
let tmp_seq = Atomic.make 0

let write_atomic path contents =
  let tmp =
    Printf.sprintf "%s.tmp.%d.%d" path (Unix.getpid ())
      (Atomic.fetch_and_add tmp_seq 1)
  in
  let oc = open_out_bin tmp in
  try
    output_string oc contents;
    close_out oc;
    Sys.rename tmp path
  with e ->
    close_out_noerr oc;
    (try Sys.remove tmp with Sys_error _ -> ());
    raise e

let write_json path v = write_atomic path (Json.to_string v ^ "\n")
let write path = write_json path (to_chrome_json ())

let summary () =
  (* aggregate complete events per (cat, name) *)
  let tbl : (string * string, int ref * float ref) Hashtbl.t =
    Hashtbl.create 64
  in
  List.iter
    (fun e ->
      if e.e_ph = X then begin
        let key = (e.e_cat, e.e_name) in
        let cnt, tot =
          match Hashtbl.find_opt tbl key with
          | Some p -> p
          | None ->
              let p = (ref 0, ref 0.0) in
              Hashtbl.add tbl key p;
              p
        in
        incr cnt;
        tot := !tot +. e.e_dur
      end)
    (events ());
  let rows =
    Hashtbl.fold (fun (c, nm) (cnt, tot) acc -> (c, nm, !cnt, !tot) :: acc) tbl []
    |> List.sort (fun (c1, _, _, t1) (c2, _, _, t2) ->
           match compare c1 c2 with 0 -> compare t2 t1 | o -> o)
  in
  let b = Buffer.create 1024 in
  Buffer.add_string b
    (Printf.sprintf "%-12s %-36s %10s %14s %12s\n" "category" "span" "count"
       "total (ms)" "mean (us)");
  List.iter
    (fun (c, nm, cnt, tot) ->
      Buffer.add_string b
        (Printf.sprintf "%-12s %-36s %10d %14.3f %12.2f\n"
           (if c = "" then "-" else c)
           nm cnt (tot /. 1e3)
           (tot /. float_of_int cnt)))
    rows;
  Buffer.contents b

(* a log line or flight entry: [head] fields, then the optional request
   id, the event name and the optional caller fields *)
let record_json head ~rid ~event ~fields =
  Json.Obj
    (head
    @ (match rid with Some r -> [ ("rid", Json.Str r) ] | None -> [])
    @ (("event", Json.Str event)
      :: (if fields <> [] then [ ("fields", args_json fields) ] else [])))

(* ------------------------------------------------------------------ *)
(* Flight recorder: an always-on bounded ring of recent events          *)
(* ------------------------------------------------------------------ *)

module Recorder = struct
  (* A fixed array of [entry option] slots plus one atomic write index:
     writers claim a slot with fetch_and_add and overwrite it with a
     single pointer store, so recording is lock-free and O(1) and the
     ring self-bounds by overwriting the oldest entries. Readers (the
     dump path) may observe a slot mid-overwrite as either the old or
     the new entry — never a torn one — which is the right contract for
     a postmortem buffer. Disabled (the default) is an empty array: one
     atomic load, nothing allocated. *)

  let schema = "dhpf-flight/1"

  type entry = {
    fr_ts : float;  (* absolute unix seconds *)
    fr_kind : string;  (* "log" | "request" | caller-chosen *)
    fr_level : string;
    fr_rid : string;  (* "" when the event has no request id *)
    fr_event : string;
    fr_fields : (string * arg) list;
  }

  let slots : entry option array Atomic.t = Atomic.make [||]
  let widx = Atomic.make 0

  let enabled () = Array.length (Atomic.get slots) > 0
  let capacity () = Array.length (Atomic.get slots)
  let recorded () = Atomic.get widx

  let start ?(capacity = 1024) () =
    Atomic.set widx 0;
    Atomic.set slots (Array.make (max 16 capacity) None)

  let stop () = Atomic.set slots [||]

  let record ?ts ?(kind = "log") ?(level = "info") ?(rid = "")
      ?(fields = []) event =
    let a = Atomic.get slots in
    let n = Array.length a in
    if n > 0 then begin
      let e =
        {
          fr_ts = (match ts with Some t -> t | None -> Unix.gettimeofday ());
          fr_kind = kind;
          fr_level = level;
          fr_rid = rid;
          fr_event = event;
          fr_fields = fields;
        }
      in
      let i = Atomic.fetch_and_add widx 1 in
      a.(i mod n) <- Some e
    end

  let entries () =
    let a = Atomic.get slots in
    let n = Array.length a in
    if n = 0 then []
    else begin
      let w = Atomic.get widx in
      let lo = if w > n then w - n else 0 in
      List.filter_map (fun k -> a.((lo + k) mod n)) (List.init (w - lo) Fun.id)
    end

  let entry_json e =
    record_json
      [ ("ts", Json.Num e.fr_ts); ("kind", Json.Str e.fr_kind);
        ("level", Json.Str e.fr_level) ]
      ~rid:(if e.fr_rid = "" then None else Some e.fr_rid)
      ~event:e.fr_event ~fields:e.fr_fields

  let to_json () =
    let es = entries () in
    let total = recorded () in
    Json.Obj
      [
        ("schema", Json.Str schema);
        ("capacity", Json.int (capacity ()));
        ("recorded", Json.int total);
        ("dropped", Json.int (max 0 (total - capacity ())));
        ("entries", Json.List (List.map entry_json es));
      ]

  let write path = write_json path (to_json ())
end

(* ------------------------------------------------------------------ *)
(* Structured leveled JSONL logging (dhpf-log/1)                        *)
(* ------------------------------------------------------------------ *)

module Log = struct
  (* One JSON object per line on a mutex-guarded channel, flushed per
     line so `tail -f` and crash postmortems see complete records. The
     disabled path is two atomic loads and allocates nothing: [fields]
     is a thunk forced only when a sink (the channel or the flight
     recorder, which tees every line) will consume it. *)

  let schema = "dhpf-log/1"

  type level = Debug | Info | Warn | Error

  let rank = function Debug -> 0 | Info -> 1 | Warn -> 2 | Error -> 3

  let level_to_string = function
    | Debug -> "debug"
    | Info -> "info"
    | Warn -> "warn"
    | Error -> "error"

  let level_of_string = function
    | "debug" -> Some Debug
    | "info" -> Some Info
    | "warn" -> Some Warn
    | "error" -> Some Error
    | _ -> None

  let log_mu = Mutex.create ()

  (* (channel, we_own_it): "-" maps to stderr, which is never closed *)
  let out : (out_channel * bool) option ref = ref None
  let sink = Atomic.make false
  let threshold = Atomic.make (rank Info)

  let set_level l = Atomic.set threshold (rank l)

  let close_locked () =
    match !out with
    | Some (oc, owned) ->
        (try flush oc with Sys_error _ -> ());
        if owned then (try close_out oc with Sys_error _ -> ());
        out := None
    | None -> ()

  let set_out path =
    Mutex.protect log_mu (fun () ->
        close_locked ();
        match path with
        | None -> Atomic.set sink false
        | Some "-" ->
            out := Some (Stdlib.stderr, false);
            Atomic.set sink true
        | Some p ->
            out := Some (open_out_gen [ Open_append; Open_creat ] 0o644 p, true);
            Atomic.set sink true)

  let close () = set_out None

  let enabled lvl =
    (Atomic.get sink && rank lvl >= Atomic.get threshold)
    || Recorder.enabled ()

  let line ~ts ~lvl ~rid ~fields event =
    Json.to_string
      (record_json
         [ ("schema", Json.Str schema); ("ts", Json.Num ts);
           ("level", Json.Str (level_to_string lvl)) ]
         ~rid ~event ~fields)

  let emit ?rid ?(fields = fun () -> []) lvl event =
    let to_sink = Atomic.get sink && rank lvl >= Atomic.get threshold in
    let to_rec = Recorder.enabled () in
    if to_sink || to_rec then begin
      let ts = Unix.gettimeofday () in
      let fs = fields () in
      if to_rec then
        Recorder.record ~ts ~kind:"log" ~level:(level_to_string lvl)
          ~rid:(Option.value rid ~default:"") ~fields:fs event;
      if to_sink then begin
        let s = line ~ts ~lvl ~rid ~fields:fs event in
        Mutex.protect log_mu (fun () ->
            match !out with
            | Some (oc, _) -> (
                try
                  output_string oc s;
                  output_char oc '\n';
                  flush oc
                with Sys_error _ -> ())
            | None -> ())
      end
    end

  let debug ?rid ?fields event = emit ?rid ?fields Debug event
  let info ?rid ?fields event = emit ?rid ?fields Info event
  let warn ?rid ?fields event = emit ?rid ?fields Warn event
  let error ?rid ?fields event = emit ?rid ?fields Error event

  let init_env () =
    (match Sys.getenv_opt "DHPF_LOG_LEVEL" with
    | Some s -> ( match level_of_string s with Some l -> set_level l | None -> ())
    | None -> ());
    match Sys.getenv_opt "DHPF_LOG" with
    | Some path when path <> "" -> set_out (Some path)
    | _ -> ()
end

(* ------------------------------------------------------------------ *)
(* Metrics: the aggregate complement to the event timeline              *)
(* ------------------------------------------------------------------ *)

module Metrics = struct
  (* Same design constraints as tracing: the disabled path is one boolean
     read (mutation sites check [enabled ()] and touch nothing when off),
     instrumentation only ever *reads* simulated state, and export is a
     [Json.t] value. Unlike trace events, metrics are
     pre-aggregated: a series is (name, sorted labels) -> one counter,
     gauge or log2-bucketed histogram cell, so cost is O(series), not
     O(events). *)

  let m_on = Atomic.make false
  let enabled () = Atomic.get m_on
  let enable () = Atomic.set m_on true
  let disable () = Atomic.set m_on false

  (* -------------------- histogram cells -------------------- *)

  (* Log2 buckets: bucket 0 holds values <= 0; bucket b (1..62) holds
     (2^(b-33), 2^(b-32)], so the range 2^-32 .. 2^30 — virtual seconds on
     one side, byte counts on the other — is covered exactly, with the two
     extreme buckets absorbing the clamped tails. *)
  let n_buckets = 63

  let bucket_of v =
    if v <= 0.0 then 0
    else
      let _, e = Float.frexp v in
      (* v in (2^(e-1), 2^e] up to the half-open convention of frexp *)
      let b = e + 32 in
      if b < 1 then 1 else if b > n_buckets - 1 then n_buckets - 1 else b

  let bucket_upper b = if b <= 0 then 0.0 else Float.ldexp 1.0 (b - 32)

  (* histogram cells carry several fields that must move together, so they
     are guarded by a per-cell mutex rather than made individually atomic *)
  type hcell = {
    h_mu : Mutex.t;
    mutable h_count : int;
    mutable h_sum : float;
    mutable h_min : float;
    mutable h_max : float;
    h_buckets : int array;
  }

  let hcell () =
    { h_mu = Mutex.create (); h_count = 0; h_sum = 0.0;
      h_min = Float.infinity; h_max = Float.neg_infinity;
      h_buckets = Array.make n_buckets 0 }

  (* -------------------- registry -------------------- *)

  (* counters and gauges are single [float Atomic.t] cells: increments use
     a CAS loop, so concurrent bumps from different domains never lose
     counts and a post-join snapshot is exact *)
  type cell =
    | KCounter of float Atomic.t
    | KGauge of float Atomic.t
    | KHisto of hcell

  type counter = float Atomic.t
  type gauge = float Atomic.t
  type histogram = hcell

  let reg_mu = Mutex.create ()

  let registry : (string * (string * string) list, cell) Hashtbl.t =
    Hashtbl.create 64

  let reset () = Mutex.protect reg_mu (fun () -> Hashtbl.reset registry)

  let norm_labels labels = List.sort compare labels

  let intern name labels mk =
    let labels = norm_labels labels in
    let key = (name, labels) in
    Mutex.protect reg_mu @@ fun () ->
    match Hashtbl.find_opt registry key with
    | Some c -> c
    | None ->
        let c = mk () in
        Hashtbl.add registry key c;
        c

  let counter ?(labels = []) name : counter =
    match intern name labels (fun () -> KCounter (Atomic.make 0.0)) with
    | KCounter r -> r
    | _ -> invalid_arg ("metric " ^ name ^ " already registered with another type")

  let gauge ?(labels = []) name : gauge =
    match intern name labels (fun () -> KGauge (Atomic.make 0.0)) with
    | KGauge r -> r
    | _ -> invalid_arg ("metric " ^ name ^ " already registered with another type")

  let histogram ?(labels = []) name : histogram =
    match intern name labels (fun () -> KHisto (hcell ())) with
    | KHisto h -> h
    | _ -> invalid_arg ("metric " ^ name ^ " already registered with another type")

  (* mutation: one atomic load when disabled; increments are lock-free
     CAS loops so no concurrent bump is ever lost *)
  let rec atomic_add (r : float Atomic.t) v =
    let cur = Atomic.get r in
    if not (Atomic.compare_and_set r cur (cur +. v)) then atomic_add r v

  let inc (c : counter) v = if Atomic.get m_on then atomic_add c v
  let incr (c : counter) = if Atomic.get m_on then atomic_add c 1.0
  let set (g : gauge) v = if Atomic.get m_on then Atomic.set g v

  let observe (h : histogram) v =
    if Atomic.get m_on then
      Mutex.protect h.h_mu (fun () ->
          h.h_count <- h.h_count + 1;
          h.h_sum <- h.h_sum +. v;
          if v < h.h_min then h.h_min <- v;
          if v > h.h_max then h.h_max <- v;
          let b = bucket_of v in
          h.h_buckets.(b) <- h.h_buckets.(b) + 1)

  (* -------------------- snapshots -------------------- *)

  type histo = {
    hs_count : int;
    hs_sum : float;
    hs_min : float;  (** 0 when the histogram is empty *)
    hs_max : float;
    hs_buckets : (int * int) list;
        (** nonzero (bucket index, count) pairs, ascending by index *)
  }

  type value = VCounter of float | VGauge of float | VHisto of histo

  type sample = {
    m_name : string;
    m_labels : (string * string) list;  (** sorted by key *)
    m_value : value;
  }

  let histo_of (h : hcell) : histo =
    Mutex.protect h.h_mu @@ fun () ->
    let buckets = ref [] in
    for b = n_buckets - 1 downto 0 do
      if h.h_buckets.(b) > 0 then buckets := (b, h.h_buckets.(b)) :: !buckets
    done;
    {
      hs_count = h.h_count;
      hs_sum = h.h_sum;
      hs_min = (if h.h_count = 0 then 0.0 else h.h_min);
      hs_max = (if h.h_count = 0 then 0.0 else h.h_max);
      hs_buckets = !buckets;
    }

  let sample_order a b =
    match compare a.m_name b.m_name with
    | 0 -> compare a.m_labels b.m_labels
    | o -> o

  (* series whose counts live in their owning subsystem (the integer-set
     engine's counters, the phase profiler's totals): read at snapshot
     time, so no copy step can go stale and [reset] cannot detach them *)
  let sources : (unit -> sample list) list ref = ref []

  let register_source f =
    Mutex.protect reg_mu (fun () -> sources := f :: !sources)

  let snapshot () : sample list =
    (* copy the cell and source lists under the registry lock, then read
       each outside it (histogram reads take their own per-cell lock) *)
    let cells, srcs =
      Mutex.protect reg_mu (fun () ->
          (Hashtbl.fold (fun k c acc -> (k, c) :: acc) registry [], !sources))
    in
    List.map
      (fun ((name, labels), cell) ->
        let v =
          match cell with
          | KCounter r -> VCounter (Atomic.get r)
          | KGauge r -> VGauge (Atomic.get r)
          | KHisto h -> VHisto (histo_of h)
        in
        { m_name = name; m_labels = labels; m_value = v })
      cells
    @ (if Atomic.get m_on then List.concat_map (fun f -> f ()) srcs else [])
    |> List.sort sample_order

  (* merge two snapshots (e.g. from per-run registries of a sweep):
     counters and histogram cells add, gauges take the right operand —
     all three rules are associative, which the property tests assert *)
  let merge_histo a b =
    let rec add xs ys =
      match (xs, ys) with
      | [], r | r, [] -> r
      | (bx, cx) :: tx, (by, cy) :: ty ->
          if bx < by then (bx, cx) :: add tx ys
          else if by < bx then (by, cy) :: add xs ty
          else (bx, cx + cy) :: add tx ty
    in
    if a.hs_count = 0 then b
    else if b.hs_count = 0 then a
    else
      {
        hs_count = a.hs_count + b.hs_count;
        hs_sum = a.hs_sum +. b.hs_sum;
        hs_min = Float.min a.hs_min b.hs_min;
        hs_max = Float.max a.hs_max b.hs_max;
        hs_buckets = add a.hs_buckets b.hs_buckets;
      }

  let merge (a : sample list) (b : sample list) : sample list =
    let rec go xs ys =
      match (xs, ys) with
      | [], r | r, [] -> r
      | x :: tx, y :: ty -> (
          match sample_order x y with
          | c when c < 0 -> x :: go tx ys
          | c when c > 0 -> y :: go xs ty
          | _ ->
              let v =
                match (x.m_value, y.m_value) with
                | VCounter u, VCounter v -> VCounter (u +. v)
                | VGauge _, VGauge v -> VGauge v
                | VHisto u, VHisto v -> VHisto (merge_histo u v)
                | _ ->
                    invalid_arg
                      ("metric " ^ x.m_name ^ ": merging mismatched types")
              in
              { x with m_value = v } :: go tx ty)
    in
    go (List.sort sample_order a) (List.sort sample_order b)

  (* percentile estimate from the bucket histogram: the value at rank
     ceil(q*count) is somewhere in its bucket; report the bucket's upper
     edge clamped into [min, max], so the estimate is never below the true
     minimum, never above the true maximum, and off by at most one
     power of two in between *)
  let percentile q (h : histo) : float =
    if h.hs_count = 0 then 0.0
    else if q <= 0.0 then h.hs_min
    else if q >= 1.0 then h.hs_max
    else begin
      let rank =
        let r = int_of_float (ceil (q *. float_of_int h.hs_count)) in
        if r < 1 then 1 else if r > h.hs_count then h.hs_count else r
      in
      let rec find cum = function
        | [] -> h.hs_max
        | (b, c) :: rest ->
            if cum + c >= rank then bucket_upper b else find (cum + c) rest
      in
      let est = find 0 h.hs_buckets in
      Float.min h.hs_max (Float.max h.hs_min est)
    end

  (* -------------------- reporting -------------------- *)

  let label_string labels =
    match labels with
    | [] -> ""
    | _ ->
        "{"
        ^ String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) labels)
        ^ "}"

  let report () =
    let b = Buffer.create 1024 in
    Buffer.add_string b
      (Printf.sprintf "%-52s %-10s %s\n" "metric" "type" "value");
    List.iter
      (fun s ->
        let name = s.m_name ^ label_string s.m_labels in
        match s.m_value with
        | VCounter v ->
            Buffer.add_string b
              (Printf.sprintf "%-52s %-10s %.6g\n" name "counter" v)
        | VGauge v ->
            Buffer.add_string b
              (Printf.sprintf "%-52s %-10s %.6g\n" name "gauge" v)
        | VHisto h ->
            Buffer.add_string b
              (Printf.sprintf
                 "%-52s %-10s count=%d sum=%.6g min=%.6g p50=%.6g p90=%.6g \
                  p99=%.6g max=%.6g\n"
                 name "histogram" h.hs_count h.hs_sum h.hs_min
                 (percentile 0.50 h) (percentile 0.90 h) (percentile 0.99 h)
                 h.hs_max))
      (snapshot ());
    Buffer.contents b

  (* machine-readable export: schema dhpf-metrics/1, stable ordering *)
  let sample_json s =
    let value =
      match s.m_value with
      | VCounter v -> [ ("type", Json.Str "counter"); ("value", Json.Num v) ]
      | VGauge v -> [ ("type", Json.Str "gauge"); ("value", Json.Num v) ]
      | VHisto h ->
          [
            ("type", Json.Str "histogram");
            ("count", Json.int h.hs_count);
            ("sum", Json.Num h.hs_sum);
            ("min", Json.Num h.hs_min);
            ("max", Json.Num h.hs_max);
            ("p50", Json.Num (percentile 0.50 h));
            ("p90", Json.Num (percentile 0.90 h));
            ("p99", Json.Num (percentile 0.99 h));
            ( "buckets",
              Json.List
                (List.map
                   (fun (bk, c) -> Json.List [ Json.int bk; Json.int c ])
                   h.hs_buckets) );
          ]
    in
    let labels =
      if s.m_labels = [] then []
      else
        [ ("labels", Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) s.m_labels)) ]
    in
    Json.Obj ((("name", Json.Str s.m_name) :: labels) @ value)

  let samples_to_json samples =
    Json.Obj
      [
        ("schema", Json.Str "dhpf-metrics/1");
        ("metrics", Json.List (List.map sample_json samples));
      ]

  let to_json () = samples_to_json (snapshot ())
  let write path = write_json path (to_json ())

  (* ---------------- Prometheus text exposition ---------------- *)

  let prom_ident name =
    let b = Bytes.of_string name in
    Bytes.iteri
      (fun i c ->
        match c with
        | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> ()
        | _ -> Bytes.set b i '_')
      b;
    let s = Bytes.to_string b in
    if s = "" then "_"
    else match s.[0] with '0' .. '9' -> "_" ^ s | _ -> s

  let prom_label_value v =
    let b = Buffer.create (String.length v + 2) in
    String.iter
      (fun c ->
        match c with
        | '\\' -> Buffer.add_string b "\\\\"
        | '"' -> Buffer.add_string b "\\\""
        | '\n' -> Buffer.add_string b "\\n"
        | c -> Buffer.add_char b c)
      v;
    Buffer.contents b

  let prom_num v =
    if Float.is_nan v then "NaN"
    else if v = Float.infinity then "+Inf"
    else if v = Float.neg_infinity then "-Inf"
    else Json.to_string (Json.Num v)

  (* labels (plus an optional trailing le="...") in exposition syntax *)
  let prom_labels ?le labels =
    let parts =
      List.map
        (fun (k, v) ->
          Printf.sprintf "%s=\"%s\"" (prom_ident k) (prom_label_value v))
        labels
      @ match le with None -> [] | Some e -> [ Printf.sprintf "le=\"%s\"" e ]
    in
    match parts with [] -> "" | _ -> "{" ^ String.concat "," parts ^ "}"

  let to_prometheus samples =
    let b = Buffer.create 4096 in
    let last_family = ref "" in
    List.iter
      (fun s ->
        let name = prom_ident s.m_name in
        let typ =
          match s.m_value with
          | VCounter _ -> "counter"
          | VGauge _ -> "gauge"
          | VHisto _ -> "histogram"
        in
        if name <> !last_family then begin
          last_family := name;
          Buffer.add_string b (Printf.sprintf "# TYPE %s %s\n" name typ)
        end;
        match s.m_value with
        | VCounter v | VGauge v ->
            Buffer.add_string b
              (Printf.sprintf "%s%s %s\n" name (prom_labels s.m_labels)
                 (prom_num v))
        | VHisto h ->
            let cum = ref 0 in
            List.iter
              (fun (bk, c) ->
                cum := !cum + c;
                Buffer.add_string b
                  (Printf.sprintf "%s_bucket%s %d\n" name
                     (prom_labels
                        ~le:(prom_num (bucket_upper bk))
                        s.m_labels)
                     !cum))
              h.hs_buckets;
            Buffer.add_string b
              (Printf.sprintf "%s_bucket%s %d\n" name
                 (prom_labels ~le:"+Inf" s.m_labels)
                 h.hs_count);
            Buffer.add_string b
              (Printf.sprintf "%s_sum%s %s\n" name (prom_labels s.m_labels)
                 (prom_num h.hs_sum));
            Buffer.add_string b
              (Printf.sprintf "%s_count%s %d\n" name (prom_labels s.m_labels)
                 h.hs_count))
      samples;
    Buffer.contents b

  let write_prometheus path = write_atomic path (to_prometheus (snapshot ()))
end
