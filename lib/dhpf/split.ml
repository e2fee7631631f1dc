(** Loop splitting (non-local index-set splitting), Figure 4.

    Splits the iteration set of a statement group into the four sections
    localIters / nlROIters / nlWOIters / nlRWIters, enabling
    communication-computation overlap and check-free buffer access. *)

open Iset

type ref_class = {
  rc_ref : Hpf.Ast.ref_;
  rc_kind : [ `Read | `Write ];
  rc_local_iters : Rel.t;  (** iterations in which this reference is local *)
}

type sections = {
  local_iters : Rel.t;
  nl_ro_iters : Rel.t;
  nl_wo_iters : Rel.t;
  nl_rw_iters : Rel.t;
  ref_classes : ref_class list;
}

(** Per-reference access mode within a section: all iterations access local
    data (no check, direct array access), all access non-local data (no
    check, direct overlay access), or mixed (runtime ownership check). *)
type access_mode = AllLocal | AllNonLocal | Mixed

let access_in (sec : Rel.t) (rc : ref_class) : access_mode =
  if Rel.is_empty sec then AllLocal
  else if Rel.subset sec rc.rc_local_iters then AllLocal
  else if Rel.is_empty (Rel.inter sec rc.rc_local_iters) then AllNonLocal
  else Mixed

type section = Local | Nl_ro | Nl_wo | Nl_rw

let section_set s = function
  | Local -> s.local_iters
  | Nl_ro -> s.nl_ro_iters
  | Nl_wo -> s.nl_wo_iters
  | Nl_rw -> s.nl_rw_iters

let section_name = function
  | Local -> "local"
  | Nl_ro -> "non-local read-only"
  | Nl_wo -> "non-local write-only"
  | Nl_rw -> "non-local read-write"

(* The equations below fix three modes by construction: localIters lies
   inside every reference's local iterations, nlROIters (outside
   nl_write) inside every write's, nlWOIters (outside nl_read) inside
   every read's. *)
let fixed_mode sec rc =
  match (sec, rc.rc_kind) with
  | Local, _ | Nl_ro, `Write | Nl_wo, `Read -> Some AllLocal
  | (Nl_ro | Nl_wo | Nl_rw), _ -> None

let mode s sec rc =
  match fixed_mode sec rc with
  | Some m -> m
  | None -> access_in (section_set s sec) rc

(** Compute the split sections for a statement group.

    [cp_iter]: the group's cpIterSet(m) over the nest variables.
    [refs]: potentially non-local references with their RefMaps
    (iteration -> data, domain-restricted). Local references (same-processor
    accesses proved by CP choice) should not be passed. *)
let compute (ctx : Layout.ctx)
    ~(cp_iter : Rel.t)
    ~(refs : (Hpf.Ast.ref_ * [ `Read | `Write ] * Rel.t) list) : sections =
  let m = Layout.my_vp_point ctx in
  let classes =
    List.map
      (fun ((name, _idx) as r, kind, refmap) ->
        let layout_m =
          match Layout.layout_of ctx name with
          | Some l -> Rel.apply_point l m
          | None -> invalid_arg "Split.compute: replicated array reference"
        in
        let data_accessed = Rel.apply refmap cp_iter in
        let local_data = Rel.inter data_accessed layout_m in
        let local_iters =
          Rel.coalesce (Rel.inter (Rel.apply (Rel.inverse refmap) local_data) cp_iter)
        in
        { rc_ref = r; rc_kind = kind; rc_local_iters = local_iters })
      refs
  in
  let inter_of kind =
    let sets =
      List.filter_map
        (fun rc -> if rc.rc_kind = kind then Some rc.rc_local_iters else None)
        classes
    in
    match sets with
    | [] -> cp_iter (* no refs of this kind: every iteration is "local" *)
    | s :: ss -> List.fold_left Rel.inter s ss
  in
  let local_read = inter_of `Read and local_write = inter_of `Write in
  let nl_read = Rel.coalesce (Rel.diff cp_iter local_read) in
  let nl_write = Rel.coalesce (Rel.diff cp_iter local_write) in
  let local_iters =
    Rel.coalesce (Rel.inter cp_iter (Rel.inter local_read local_write))
  in
  let nl_rw = Rel.coalesce (Rel.inter nl_read nl_write) in
  let nl_ro = Rel.coalesce (Rel.diff nl_read nl_write) in
  let nl_wo = Rel.coalesce (Rel.diff nl_write nl_read) in
  {
    local_iters;
    nl_ro_iters = nl_ro;
    nl_wo_iters = nl_wo;
    nl_rw_iters = nl_rw;
    ref_classes = classes;
  }

(** Is splitting worthwhile? Requires a non-empty local section and at least
    one non-empty non-local section — otherwise the split adds loop
    overhead without removing any checks. The emptiness answers are symbolic:
    "not provably empty" counts as non-empty. *)
let worthwhile (s : sections) =
  (not (Rel.is_empty s.local_iters))
  && not
       (Rel.is_empty s.nl_ro_iters
       && Rel.is_empty s.nl_wo_iters
       && Rel.is_empty s.nl_rw_iters)
