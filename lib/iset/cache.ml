(** Global configuration for the memoization layer — a single on/off
    switch (runtime-togglable, [DHPF_ISET_CACHE=off] in the environment
    disables it at startup), a shared capacity bound and a registry of
    clear hooks — and the one table design under every intern and memo
    table of the engine.

    The table is chained, split into 16 lock stripes, and shared by every
    domain. A key's hash is mixed once; the low [stripe_bits] bits of the
    mix pick the stripe and the bits above them the bucket inside it, so
    every stripe spreads its keys over all its buckets. Each entry keeps
    those bucket bits, which a chain walk compares before calling
    [K.equal] and a resize reuses.

    Eviction is clear-on-full per stripe: a stripe holding
    [max 1 (capacity () / share / 16)] entries is emptied before its next
    insert. Interned ids are {e never} reused across clears (the id
    counters are monotone), so memo entries keyed by ids from a previous
    epoch simply become unreachable — no invalidation protocol is needed.

    Lock-free lookups: [find] walks the key's bucket chain without the
    stripe lock; [add] takes the lock, walks the chain again and inserts
    only if the key is still absent, so a stripe never holds two entries
    for one key. This is sound under OCaml 5's memory model for three
    reasons. A racy read of a mutable field or array slot returns some
    value once written there, never one made up; and the fields of a
    block are initialized before any other domain can see the block, so
    a [Cons] found is whole. The chains are immutable [Cons] records, and
    a stripe's [buckets] array is read once, its own length giving the
    slot, so a walk sees one consistent snapshot of one array. And every
    write a walk can race with leaves that snapshot sound:
    - an insert conses a new head onto a bucket; a walk that read the old
      head misses the entry and takes the locked path, which finds it;
    - a resize fills a new array with new [Cons] records and then
      publishes it, never touching the old array or its chains, so a walk
      over either array finds what it held, and one that sees a slot of
      the new array before its fill is visible misses and locks;
    - a clear runs its table's [on_clear], then installs an empty array;
      a walk over the old one may return an entry the clear dropped. A
      memo entry so returned is still the answer for its key; an intern
      table raises the stripe's watermark in [on_clear], so an id so
      returned is no longer trusted (see {!Intern}).

    Every memoized function is pure and keyed by ids that are never
    reused, so sharing its table across domains changes no answer, only
    which domain computes it. *)

let enabled_ref =
  Atomic.make
    (match Sys.getenv_opt "DHPF_ISET_CACHE" with
    | Some ("0" | "off" | "false" | "no") -> false
    | _ -> true)

let capacity_ref = Atomic.make 65536
let hooks_mu = Mutex.create ()
let clear_hooks : (unit -> unit) list ref = ref []

(* every published table's [occupancy] row *)
let tables : (unit -> string * int * int array) list ref = ref []

let register_clear f =
  Mutex.protect hooks_mu (fun () -> clear_hooks := f :: !clear_hooks)

let clear_all () =
  List.iter (fun f -> f ()) (Mutex.protect hooks_mu (fun () -> !clear_hooks))

let occupancy () =
  List.rev_map (fun f -> f ()) (Mutex.protect hooks_mu (fun () -> !tables))

let enabled () = Atomic.get enabled_ref

let set_enabled b =
  Atomic.set enabled_ref b;
  clear_all ()

let capacity () = Atomic.get capacity_ref

let set_capacity n =
  Atomic.set capacity_ref (max 4 n);
  clear_all ()

let stripe_bits = 4
let n_stripes = 1 lsl stripe_bits
let initial_buckets = 64
let stripe_bound ~share = max 1 (capacity () / share / n_stripes)

(* murmur3's 64-bit finalizer, constants cut to OCaml's 63-bit ints:
   every output bit depends on every input bit *)
let mix h =
  let h = (h lxor (h lsr 33)) * 0x3f51afd7ed558ccd in
  let h = (h lxor (h lsr 33)) * 0x04ceb9fe1a85ec53 in
  h lxor (h lsr 33)

module Table (K : Hashtbl.HashedType) = struct
  type 'v chain =
    | Nil
    | Cons of { bits : int; key : K.t; value : 'v; next : 'v chain }

  type 'v stripe = {
    mu : Mutex.t;
    mutable buckets : 'v chain array; (* length is a power of two *)
    mutable count : int;
  }

  type 'v t = {
    stripes : 'v stripe array;
    share : int;
    on_clear : int -> unit; (* under the stripe's lock, before the entries go *)
  }

  let clear t i s =
    t.on_clear i;
    s.buckets <- Array.make initial_buckets Nil;
    s.count <- 0

  let create ~share ~on_clear =
    let new_stripe _ =
      {
        mu = Mutex.create ();
        buckets = Array.make initial_buckets Nil;
        count = 0;
      }
    in
    let t = { stripes = Array.init n_stripes new_stripe; share; on_clear } in
    register_clear (fun () ->
        Array.iteri
          (fun i s -> Mutex.protect s.mu (fun () -> clear t i s))
          t.stripes);
    t

  (* the size gauge [name], read from the stripes' counts; [occupancy]
     counts the chains' entries instead, so that it checks the counts *)
  let publish t name =
    Stats.register_gauge name (fun () ->
        Array.fold_left (fun n s -> n + s.count) 0 t.stripes);
    let rec length n = function Nil -> n | Cons e -> length (n + 1) e.next in
    let row () =
      ( name,
        stripe_bound ~share:t.share,
        Array.map (fun s -> Array.fold_left length 0 s.buckets) t.stripes )
    in
    Mutex.protect hooks_mu (fun () -> tables := row :: !tables)

  let slot buckets bits = bits land (Array.length buckets - 1)

  (* the new array is filled before it is published, so a lock-free walk
     sees either array whole, or a slot not yet visible, and misses *)
  let grow s =
    let old = s.buckets in
    let buckets = Array.make (2 * Array.length old) Nil in
    let rec move = function
      | Nil -> ()
      | Cons e ->
          let i = slot buckets e.bits in
          buckets.(i) <- Cons { e with next = buckets.(i) };
          move e.next
    in
    Array.iter move old;
    s.buckets <- buckets

  let rec walk bits k = function
    | Nil -> Nil
    | Cons e as c ->
        if e.bits = bits && K.equal e.key k then c else walk bits k e.next

  (* the entry for [k] in stripe [s], or [Nil]; takes no lock *)
  let lookup s bits k =
    let buckets = s.buckets in
    walk bits k buckets.(slot buckets bits)

  (* [h] is the mixed hash of [k] *)
  let find t h k =
    lookup t.stripes.(h land (n_stripes - 1)) (h lsr stripe_bits) k

  (* Under the stripe's lock: the entry held for [k] if there is one, else
     [make ()] inserted, after clearing the stripe if it is full. *)
  let add t h k make =
    let i = h land (n_stripes - 1) in
    let s = t.stripes.(i) in
    let bits = h lsr stripe_bits in
    Mutex.protect s.mu @@ fun () ->
    match lookup s bits k with
    | Cons e -> (e.key, e.value)
    | Nil ->
        if s.count >= stripe_bound ~share:t.share then begin
          clear t i s;
          Stats.bump Stats.evictions
        end
        else if s.count >= 2 * Array.length s.buckets then grow s;
        let key, value = make () in
        let buckets = s.buckets in
        let j = slot buckets bits in
        buckets.(j) <- Cons { bits; key; value; next = buckets.(j) };
        s.count <- s.count + 1;
        (key, value)
end

(* An intern table: the value is the representative's id. A stripe's
   watermark is the first id issued after its latest clear; it rises
   before the entries go, so no check made after they are gone trusts
   their ids. *)
module Intern (H : Hashtbl.HashedType) () = struct
  module T = Table (H)

  let next_id = Atomic.make 0
  let watermarks = Array.init n_stripes (fun _ -> Atomic.make 0)

  let tbl =
    T.create ~share:1 ~on_clear:(fun i ->
        Atomic.set watermarks.(i) (Atomic.get next_id))

  let register_gauge name = T.publish tbl name

  let trusted ~hash id =
    id >= Atomic.get watermarks.(mix hash land (n_stripes - 1))

  let intern_with x canon =
    let h = mix (H.hash x) in
    match T.find tbl h x with
    | T.Cons e -> (e.key, e.value)
    | T.Nil ->
        T.add tbl h x (fun () -> (canon x, Atomic.fetch_and_add next_id 1))

  let intern x = intern_with x Fun.id
  let id x = snd (intern x)
end

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
   table, its disk codec. Creation registers a clear hook and a size
   gauge. *)
module Memo (K : Hashtbl.HashedType) = struct
  module T = Table (K)

  type ('x, 'v) t = {
    tbl : 'v T.t;
    stats : Stats.memo;
    compute : 'x -> 'v;
    disk : ('x, 'v) Diskcache.codec option;
  }

  let create ?(share = 1) ?disk (stats : Stats.memo) compute =
    let tbl = T.create ~share ~on_clear:ignore in
    T.publish tbl (stats.name ^ " cache size");
    { tbl; stats; compute; disk }

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
      let h = mix (K.hash k) in
      match T.find m.tbl h k with
      | T.Cons e ->
          Stats.bump m.stats.hits;
          e.value
      | T.Nil ->
          let v =
            match m.disk with
            | None -> computed m x
            | Some c -> Diskcache.memo ~kind:m.stats.name c (computed m) x
          in
          snd (T.add m.tbl h k (fun () -> (k, v)))
    end
end

module Id = Memo (Id_key)
module Ids = Memo (Ids_key)
