(** Global configuration for the memoization layer: a single on/off switch
    (runtime-togglable, [DHPF_ISET_CACHE=off] in the environment disables it
    at startup), a shared capacity bound, and a registry of clear hooks so
    every memo/intern table can be flushed together.

    Eviction policy is clear-on-full: when a table reaches the capacity it is
    emptied wholesale. Interned ids are {e never} reused across clears (the
    id counters are monotone), so memo entries keyed by ids from a previous
    epoch simply become unreachable — no invalidation protocol is needed.

    Domain safety: the switch and capacity are [Atomic.t]; {!Memo} tables
    are domain-local ([Domain.DLS]), so lookups and insertions never take a
    lock and never race. A worker domain starts with empty memo tables and
    drops them at join — only cross-domain cache reuse is lost, never
    correctness, because every memoized function is pure and keyed by
    interned ids that are never reused. *)

let enabled_ref =
  Atomic.make
    (match Sys.getenv_opt "DHPF_ISET_CACHE" with
    | Some ("0" | "off" | "false" | "no") -> false
    | _ -> true)

let capacity_ref = Atomic.make 65536
let hooks_mu = Mutex.create ()
let clear_hooks : (unit -> unit) list ref = ref []

let register_clear f =
  Mutex.protect hooks_mu (fun () -> clear_hooks := f :: !clear_hooks)

let clear_all () =
  List.iter (fun f -> f ()) (Mutex.protect hooks_mu (fun () -> !clear_hooks))

let enabled () = Atomic.get enabled_ref

let set_enabled b =
  Atomic.set enabled_ref b;
  clear_all ()

let capacity () = Atomic.get capacity_ref

let set_capacity n =
  Atomic.set capacity_ref (max 4 n);
  clear_all ()

module Id_key = struct
  type t = int

  let equal = Int.equal
  let hash x = x
end

module Ids_key = struct
  type t = int array

  let equal (a : t) b =
    let n = Array.length a in
    n = Array.length b
    &&
    let rec go i = i = n || (Int.equal a.(i) b.(i) && go (i + 1)) in
    go 0

  let hash (a : t) = Array.fold_left (fun h x -> (h * 31) + x) 0 a land max_int
end

(* A bounded memo table, declared once: its {!Stats.memo} (name and
   counters), its computation, its capacity share and, for a disk-backed
   table, its disk codec. Creation registers a clear hook and a size gauge.
   The table is domain-local: each domain memoizes into its own storage,
   so no synchronization is needed on the hot path. Clear hooks and the
   size gauge act on the calling domain's table — in practice the main
   domain's, the only long-lived one. *)
module Memo (K : Hashtbl.HashedType) = struct
  module T = Hashtbl.Make (K)

  type ('x, 'v) t = {
    tbl : 'v T.t Domain.DLS.key;
    stats : Stats.memo;
    compute : 'x -> 'v;
    disk : ('x, 'v) Diskcache.codec option;
    share : int;
  }

  let create ?(share = 1) ?disk (stats : Stats.memo) compute =
    let tbl = Domain.DLS.new_key (fun () -> T.create 256) in
    register_clear (fun () -> T.reset (Domain.DLS.get tbl));
    Stats.register_gauge (stats.name ^ " cache size") (fun () ->
        T.length (Domain.DLS.get tbl));
    { tbl; stats; compute; disk; share }

  (* Tracing policy: a slice covers exactly the work of one miss — the
     memoized hit path stays span-free, so traces show where set-operation
     time is really spent. Each slice snapshots its table's counters. *)
  let computed m x =
    if Obs.enabled () then
      Obs.span ~cat:"iset"
        ~args:(fun () ->
          [ ("lookups", Obs.Int (Stats.count m.stats.lookups));
            ("hits", Obs.Int (Stats.count m.stats.hits)) ])
        m.stats.name
        (fun () -> m.compute x)
    else m.compute x

  let find_or_add m k x =
    if not (enabled ()) then m.compute x
    else begin
      Stats.bump m.stats.lookups;
      let tbl = Domain.DLS.get m.tbl in
      match T.find tbl k with
      | v ->
          Stats.bump m.stats.hits;
          v
      | exception Not_found ->
          let v =
            match m.disk with
            | None -> computed m x
            | Some c -> Diskcache.memo ~kind:m.stats.name c (computed m) x
          in
          if T.length tbl >= max 1 (capacity () / m.share) then begin
            T.reset tbl;
            Stats.bump Stats.evictions
          end;
          T.replace tbl k v;
          v
    end
end

module Id = Memo (Id_key)
module Ids = Memo (Ids_key)
