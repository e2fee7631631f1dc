(** Active virtual processor sets, Figure 5.

    For symbolic distributions the virtual processor domain over-approximates
    the physical machine; these equations compute the VPs that actually
    compute, send, or receive, so generated VP loops (and their runtime
    restriction to the VPs owned by myid) skip the inactive ones. *)

open Iset

type active = {
  busy : Rel.t;  (** VPs assigned any iteration: Domain(CPMap) *)
  active_send : Rel.t;
  active_recv : Rel.t;
}

(** [for_event ctx ~cpmaps ~layout ~kind refs] computes the Figure 5(a) sets
    for one logical communication event. [cpmaps] are the CPMaps of the
    referencing statements; [refs] pairs each with its RefMap. *)
let for_event (_ctx : Layout.ctx) ~(layout : Rel.t)
    ~(kind : [ `Read | `Write ]) (refs : (Rel.t * Rel.t) list) : active =
  let cpmap_union =
    match List.map fst refs with
    | [] -> invalid_arg "Vp.for_event: no references"
    | c :: cs -> List.fold_left Rel.union c cs
  in
  let busy = Rel.coalesce (Rel.domain cpmap_union) in
  (* NLDataAccessed = DataAccessed − Layout  (map difference) *)
  let data_accessed =
    match List.map (fun (cp, rm) -> Rel.compose cp rm) refs with
    | [] -> assert false
    | d :: ds -> List.fold_left Rel.union d ds
  in
  let nl_accessed = Rel.coalesce (Rel.diff data_accessed layout) in
  let all_nl_data = Rel.apply nl_accessed busy in
  let vps_that_own = Rel.coalesce (Rel.apply (Rel.inverse layout) all_nl_data) in
  let vps_that_access = Rel.coalesce (Rel.domain nl_accessed) in
  match kind with
  | `Read -> { busy; active_send = vps_that_own; active_recv = vps_that_access }
  | `Write -> { busy; active_send = vps_that_access; active_recv = vps_that_own }
