(** Hash-consing (interning) tables with stable, never-reused integer ids.

    The generative functor creates one bounded table (clear-on-full, bound
    shared via {!Cache.capacity}) whose clear hook is registered with
    {!Cache}. Ids are monotone across clears, which makes id-keyed memo
    tables invalidation-free. [H.hash] is called once per lookup, so it
    should be cheap (the term modules store theirs). *)

module Make (H : Hashtbl.HashedType) () : sig
  val intern : H.t -> H.t * int
  (** Canonical representative and stable id; the first interning of a value
      makes it the representative. *)

  val intern_with : H.t -> (H.t -> H.t) -> H.t * int
  (** [intern_with x canon] looks [x] up as it is, without a lock; only
      on a miss does it take the stripe lock, look again and insert
      [canon x] as the representative. [canon x] must be [H.equal] to [x]
      (typically [x] with its children interned). [canon] runs under
      this table's stripe lock, so it may intern into other tables but
      never into this one; tables nest in one fixed order, which rules out
      deadlock. A hit that races a clear may return an id the clear
      retired; {!trusted} then rejects it. *)

  val id : H.t -> int

  val trusted : hash:int -> int -> bool
  (** [trusted ~hash id], [hash] being [H.hash] of the value [id] was
      issued for: no clear has hit that value's stripe since [id] was
      issued, so re-interning the value would return [id] again. A caller
      that keeps an id and hash beside its representative may skip
      {!intern} while this holds. *)

  val size : unit -> int
  val register_gauge : string -> unit
  (** Publish the live node count under the given name in {!Stats}. *)
end
