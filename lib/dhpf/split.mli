(** Loop splitting (non-local index-set splitting), Figure 4 of the paper:
    the iteration set of a statement group splits into sections that access
    only local data, only read, only write, or read and write non-local
    data — enabling communication/computation overlap and check-free buffer
    access. *)

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

type access_mode = AllLocal | AllNonLocal | Mixed
(** Per-reference access classification within a section: direct local
    access, direct overlay access, or a runtime ownership check. *)

val access_in : Rel.t -> ref_class -> access_mode
(** The mode decided by Omega queries: subset of, or disjoint from, the
    reference's local iterations. *)

type section = Local | Nl_ro | Nl_wo | Nl_rw
(** localIters, nlROIters, nlWOIters, nlRWIters. *)

val section_set : sections -> section -> Rel.t

val section_name : section -> string
(** ["local"], ["non-local read-only"], ... *)

val fixed_mode : section -> ref_class -> access_mode option
(** The mode the equations fix by construction, without a query: every
    reference is local in localIters, writes are local in nlROIters and
    reads in nlWOIters. [None] elsewhere. *)

val mode : sections -> section -> ref_class -> access_mode
(** {!fixed_mode} where it is defined, else {!access_in} on the section. *)

val compute :
  Layout.ctx ->
  cp_iter:Rel.t ->
  refs:(Hpf.Ast.ref_ * [ `Read | `Write ] * Rel.t) list ->
  sections
(** The Figure 4(a) equations. [cp_iter] is the group's cpIterSet(m);
    [refs] are the potentially non-local references with their
    domain-restricted RefMaps. *)

val worthwhile : sections -> bool
(** A non-empty local section and at least one non-empty non-local section
    (otherwise the split only adds loop overhead). *)
