(** Communication analysis: the equations of Figure 3 of the paper.

    A {e logical communication event} covers a set of coalesced references
    to one array, vectorized out to a placement point enclosed by loops
    [J1..Jv]. All sets are parameterized by the enclosing loop variables (as
    parameters named after the loops) and by myid's VP coordinates
    ([vm$k]); the relations map partner VP tuples to array element
    tuples. *)

open Iset

val add_constraints : Rel.t -> Constr.t list -> Rel.t
(** Add constraints to every disjunct. *)

type maps = {
  data_accessed : Rel.t;  (** vp -> data: all data accessed by each processor *)
  nl_data : Rel.t;  (** set over data: off-processor data accessed by myid *)
  send_map : Rel.t;  (** partner vp -> data that myid must send to it *)
  recv_map : Rel.t;  (** partner vp -> data that myid must receive from it *)
  send_map_full : Rel.t;
      (** like [send_map] but without the partner ≠ myid exclusion: the
          per-partner data description stays a single conjunct, which is
          what the §3.3 contiguity test and the packing loops want (self
          pairs are skipped by a runtime guard anyway) *)
}

val comm_maps :
  Layout.ctx ->
  kind:[ `Read | `Write ] ->
  level_vars:string list ->
  array:string ->
  (Rel.t * Rel.t) list ->
  maps
(** Figure 3 for one logical event. Each reference contributes its CPMap
    (vp -> full iteration tuple, range-restricted to the loop) and its
    RefMap (iteration tuple -> data, domain-restricted). [`Read]: owners
    send to readers. [`Write]: writers flush computed values to owners. *)

val participation : level_vars:string list -> Rel.t -> Rel.t
(** The prefix values of the enclosing loop variables for which the
    relation is non-empty — the "CP" of communication code placed inside
    partitioned loops (what makes pipelined patterns schedule). *)
