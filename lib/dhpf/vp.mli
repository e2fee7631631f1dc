(** Active virtual processor sets, Figure 5 of the paper: the VPs that
    actually compute, send, or receive, used to restrict generated VP loops
    under symbolic cyclic distributions. *)

open Iset

type active = {
  busy : Rel.t;  (** VPs assigned any iteration: Domain(CPMap) *)
  active_send : Rel.t;
  active_recv : Rel.t;
}

val for_event :
  Layout.ctx ->
  layout:Rel.t ->
  kind:[ `Read | `Write ] ->
  (Rel.t * Rel.t) list ->
  active
(** Figure 5(a) for one logical communication event; the pairs are
    (CPMap, RefMap) as in {!Comm.comm_maps}. *)
