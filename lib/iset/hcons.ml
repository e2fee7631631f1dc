(** Hash-consing (interning) tables.

    [intern] maps a value to a canonical physically-shared representative
    plus a stable small integer id. Ids are monotone and never reused, even
    across clear-on-full evictions: after a clear, re-interned values get
    fresh ids, so memo tables keyed by ids need no invalidation — entries
    holding retired ids can never be matched again.

    Domain safety: the table is sharded into lock-striped stripes keyed by
    the value's hash, and the id counter is a global [Atomic.t], so the
    monotone never-reused invariant holds under concurrent interning from
    parallel compiler phases. Two structurally-equal values always land on
    the same stripe (equal values hash equal), so canonical representatives
    stay unique. Clear-on-full applies per stripe with a per-stripe share of
    {!Cache.capacity}, preserving the global bound whenever the capacity is
    at least the stripe count (each stripe must hold at least one entry).

    Cost: [H.hash] runs once per intern and is mixed; the low
    [stripe_bits] bits of the mix pick the stripe and the bits above them
    pick the bucket inside it, so every stripe spreads its keys over all
    its buckets. Each entry keeps those bucket bits, which a chain walk
    compares before calling [H.equal] and a resize reuses.

    Cached ids: a caller may keep a representative's id and hash beside
    it and skip [intern] while {!trusted} holds for them. Each stripe has
    a watermark; a clear raises it to the next id to be issued, so an id
    issued before its stripe's latest clear is no longer trusted: its
    entry may be gone, and re-interning would issue a fresh id. A
    clear-on-full raises only its own stripe's watermark, so ids held in
    the other stripes stay trusted; a wholesale clear raises them all.
    One watermark per stripe is enough because ids are monotone. *)

module Make (H : Hashtbl.HashedType) () = struct
  let stripe_bits = 4
  let n_stripes = 1 lsl stripe_bits
  let initial_buckets = 64

  type chain =
    | Nil
    | Cons of { bits : int; rep : H.t; id : int; next : chain }

  type stripe = {
    mu : Mutex.t;
    mutable buckets : chain array; (* length is a power of two *)
    mutable count : int;
  }

  let stripes =
    Array.init n_stripes (fun _ ->
        { mu = Mutex.create (); buckets = Array.make initial_buckets Nil; count = 0 })

  let next_id = Atomic.make 0

  (* per stripe: ids below it were issued before the stripe's latest
     clear; written under the stripe's lock, read without it *)
  let watermarks = Array.init n_stripes (fun _ -> Atomic.make 0)

  (* under stripe [i]'s lock; the watermark rises before the entries go,
     so no check made after they are gone trusts their ids *)
  let clear i s =
    Atomic.set watermarks.(i) (Atomic.get next_id);
    s.buckets <- Array.make initial_buckets Nil;
    s.count <- 0

  let () =
    Cache.register_clear (fun () ->
        Array.iteri
          (fun i s -> Mutex.protect s.mu (fun () -> clear i s))
          stripes)

  let size () = Array.fold_left (fun acc s -> acc + s.count) 0 stripes

  let register_gauge name = Stats.register_gauge name size

  (* murmur3's 64-bit finalizer, constants cut to OCaml's 63-bit ints:
     every output bit depends on every input bit *)
  let mix h =
    let h = (h lxor (h lsr 33)) * 0x3f51afd7ed558ccd in
    let h = (h lxor (h lsr 33)) * 0x04ceb9fe1a85ec53 in
    h lxor (h lsr 33)

  let slot s bits = bits land (Array.length s.buckets - 1)

  let trusted ~hash id =
    id >= Atomic.get watermarks.(mix hash land (n_stripes - 1))

  let grow s =
    let old = s.buckets in
    s.buckets <- Array.make (2 * Array.length old) Nil;
    let rec move = function
      | Nil -> ()
      | Cons e ->
          let i = slot s e.bits in
          s.buckets.(i) <- Cons { e with next = s.buckets.(i) };
          move e.next
    in
    Array.iter move old

  let insert i s bits x =
    if s.count >= max 1 (Cache.capacity () / n_stripes) then begin
      clear i s;
      Stats.bump Stats.evictions
    end
    else if s.count >= 2 * Array.length s.buckets then grow s;
    let id = Atomic.fetch_and_add next_id 1 in
    let i = slot s bits in
    s.buckets.(i) <- Cons { bits; rep = x; id; next = s.buckets.(i) };
    s.count <- s.count + 1;
    (x, id)

  let intern_with x canon =
    let h = mix (H.hash x) in
    let i = h land (n_stripes - 1) in
    let s = stripes.(i) in
    let bits = h lsr stripe_bits in
    Mutex.protect s.mu @@ fun () ->
    let rec find = function
      | Nil -> insert i s bits (canon x)
      | Cons e ->
          if e.bits = bits && H.equal e.rep x then (e.rep, e.id) else find e.next
    in
    find s.buckets.(slot s bits)

  let intern x = intern_with x Fun.id
  let id x = snd (intern x)
end
