(** The SPMD intermediate representation emitted by the compiler and executed
    by the {!Spmdsim} machine simulator.

    Loop bounds, guards and subscripts reuse the expression language of
    {!Iset.Codegen} (affine terms with max/min/floor/ceil/alignment); loop
    variables and symbolic parameters are referenced by name and resolved by
    the interpreter's environment. The processor tuple in all communication
    constructs is in {e virtual processor} coordinates (§4 of the paper);
    [dim_binding] tells the runtime how VP coordinates relate to physical
    processors. *)

type expr = Iset.Codegen.expr
type cond = Iset.Codegen.cond

(** How a reference is addressed at run time. [Checked] references test
    ownership and fall back to the non-local receive overlay — the paper's
    buffered non-local access, whose per-reference cost loop splitting
    removes. [Local] references are proved local (or are on the fast path of
    a split loop). [Global] is used by serial (reference) code. *)
type access = Local | Overlay | Checked | Global
(** [Overlay]: proved non-local by loop splitting — read directly from the
    receive overlay (write: straight to the outgoing buffer), no ownership
    check. *)

type fexpr =
  | FConst of float
  | FLoad of { arr : string; idx : expr list; access : access }
  | FScalar of string
  | FBin of Hpf.Ast.fbinop * fexpr * fexpr
  | FNeg of fexpr
  | FIntrin of string * fexpr list
  | FOfInt of expr

type fcond =
  | FCmp of fexpr * Hpf.Ast.cmpop * fexpr
  | FAnd of fcond * fcond
  | FOr of fcond * fcond
  | FNot of fcond

type reduce_op = RSum | RMax | RMin

let reduce_op_name = function RSum -> "sum" | RMax -> "max" | RMin -> "min"

type stmt =
  | For of { var : string; lo : expr; hi : expr; step : expr; body : stmt list }
  | If of cond * stmt list
  | FIf of fcond * stmt list * stmt list
  | Store of { arr : string; idx : expr list; value : fexpr; access : access }
  | SetScalar of string * fexpr
  | Pack of { event : int; arr : string; idx : expr list }
      (** append element [arr(idx)] to the buffer for the current partner *)
  | Send of { event : int; dest : expr list }
      (** flush the packed buffer to the VP with the given coordinates *)
  | Recv of { event : int; src : expr list }
      (** block until the matching message arrives; contents are unpacked
          into the receive overlay (or in place, per the event's flag) *)
  | Reduce of { scalar : string; op : reduce_op }
      (** replicated-scalar reduction across all processors *)
  | Call of string
  | Comment of string  (** annotation shown by the pretty-printer *)

(* ------------------------------------------------------------------ *)
(* Layout descriptors (runtime ownership)                              *)
(* ------------------------------------------------------------------ *)

(** Distribution format of one processor/VP dimension, with symbolic pieces
    as expressions over parameters. *)
type fmt_rt =
  | RBlock of { bsize : expr }  (** owner p: t in [tlo + p·B, tlo + (p+1)·B) *)
  | RCyclic  (** owner p: (t − tlo) mod P = p *)
  | RBlockCyclic of int  (** cyclic(k): owner p: ((t − tlo)/k) mod P = p *)

(** How a VP coordinate in this dimension maps back to a physical processor
    coordinate, and which VPs a processor owns. *)
type vp_mode =
  | VpIsPhys  (** concrete distribution: VP coordinate = processor coordinate *)
  | VpBlockOnePer  (** symbolic block: vm = B·m + tlo; one active VP per proc *)
  | VpTemplateCell  (** symbolic cyclic: VP = template cell; owner = (v−tlo) mod P *)

type dim_source =
  | FromData of { data_dim : int; coef : int; off : expr }
      (** template coord = coef·idx[data_dim] + off *)
  | FixedCoord of expr  (** align target is a constant expression *)
  | AnyCoord  (** align target is '*': replicated over this dimension *)

type dim_layout = {
  source : dim_source;
  fmt : fmt_rt;
  tlo : expr;  (** template lower bound in this dimension *)
  vp_mode : vp_mode;
  pextent : expr;  (** number of processors in this dimension *)
}

type array_layout = {
  la_name : string;
  la_dims : dim_layout list;  (** one entry per processor-array dimension *)
}

type array_decl = {
  ad_name : string;
  ad_bounds : (expr * expr) list;
  ad_layout : array_layout option;  (** None: replicated (no distribution) *)
}

(* ------------------------------------------------------------------ *)
(* Communication events                                                *)
(* ------------------------------------------------------------------ *)

type event_info = {
  ev_id : int;
  ev_array : string;
  ev_kind : [ `ReadComm | `WriteComm ];
      (** ReadComm: owners send values to readers (into the overlay).
          WriteComm: writers send computed values back to owners (into the
          local array). *)
  ev_inplace : bool;
      (** §3.3: contiguity proved at compile time — pack/unpack cost waived *)
  ev_rect : bool;
      (** the communication set is a rectangular section: when compile-time
          contiguity is unproved, the runtime check of §3.3 applies *)
  ev_desc : string;  (** human-readable provenance (array, source line) *)
}

(* ------------------------------------------------------------------ *)
(* Whole program                                                       *)
(* ------------------------------------------------------------------ *)

type param_binding = {
  pb_name : string;
  pb_value : [ `Given of int | `Expr of Hpf.Ast.iexpr | `FromEnv ];
      (** Given: compile-time constant. Expr: computed at startup (processor
          extents, block sizes — may use number_of_processors()). FromEnv:
          must be supplied when the simulation is launched. *)
}

type proc_dim_rt = {
  pd_mode : vp_mode;
  pd_extent : expr;
  pd_tlo : expr;
  pd_bsize : expr option;
}
(** Runtime description of one processor/VP dimension: how myid's VP
    coordinate is computed at startup and how VP coordinates map back to
    physical processors. *)

type program = {
  proc_dims : proc_dim_rt list;
  proc_extents : expr list;  (** extent of each processor dimension *)
  params : param_binding list;
  arrays : array_decl list;
  scalars : string list;
  events : event_info list;
  main : stmt list;
  subs : (string * stmt list) list;
}

(* ------------------------------------------------------------------ *)
(* Traversal                                                           *)
(* ------------------------------------------------------------------ *)

(** Apply [f] to [s] and every statement nested inside it, pre-order. *)
let rec iter_stmt f (s : stmt) : unit =
  f s;
  match s with
  | For { body; _ } -> List.iter (iter_stmt f) body
  | If (_, body) -> List.iter (iter_stmt f) body
  | FIf (_, t, e) ->
      List.iter (iter_stmt f) t;
      List.iter (iter_stmt f) e
  | Store _ | SetScalar _ | Pack _ | Send _ | Recv _ | Reduce _ | Call _
  | Comment _ ->
      ()

let iter_stmts f body = List.iter (iter_stmt f) body

(** Apply [f] to every statement of [main] and of every subroutine. *)
let iter_program f (p : program) : unit =
  iter_stmts f p.main;
  List.iter (fun (_, body) -> iter_stmts f body) p.subs

(** Names assigned by [SetScalar] anywhere in the program (targets may lie
    outside the declared [scalars] list; the runtime must still give them a
    storage cell). *)
let assigned_scalars (p : program) : string list =
  let seen = Hashtbl.create 16 in
  iter_program
    (function
      | SetScalar (name, _) | Reduce { scalar = name; _ } ->
          Hashtbl.replace seen name ()
      | _ -> ())
    p;
  Hashtbl.fold (fun name () acc -> name :: acc) seen []
  |> List.sort String.compare

(* ------------------------------------------------------------------ *)
(* Pretty-printing (Fortran-like, for the examples and the CLI)        *)
(* ------------------------------------------------------------------ *)

let pp_expr = Iset.Codegen.pp_expr
let pp_cond = Iset.Codegen.pp_cond

let rec pp_fexpr fmt = function
  | FConst x -> Fmt.float fmt x
  | FLoad { arr; idx; access } ->
      let marker =
        match access with Local | Global -> "" | Checked -> "@" | Overlay -> "~"
      in
      Fmt.pf fmt "%s%s(%a)" marker arr Fmt.(list ~sep:comma pp_expr) idx
  | FScalar s -> Fmt.string fmt s
  | FBin (op, a, b) ->
      let s = match op with Hpf.Ast.Add -> "+" | Sub -> "-" | Mul -> "*" | Div -> "/" in
      Fmt.pf fmt "(%a %s %a)" pp_fexpr a s pp_fexpr b
  | FNeg a -> Fmt.pf fmt "(-%a)" pp_fexpr a
  | FIntrin (f, args) -> Fmt.pf fmt "%s(%a)" f Fmt.(list ~sep:comma pp_fexpr) args
  | FOfInt e -> pp_expr fmt e

let rec pp_fcond fmt = function
  | FCmp (a, op, b) ->
      Fmt.pf fmt "%a %s %a" pp_fexpr a (Hpf.Ast.string_of_cmpop op) pp_fexpr b
  | FAnd (a, b) -> Fmt.pf fmt "(%a .and. %a)" pp_fcond a pp_fcond b
  | FOr (a, b) -> Fmt.pf fmt "(%a .or. %a)" pp_fcond a pp_fcond b
  | FNot a -> Fmt.pf fmt "(.not. %a)" pp_fcond a

let rec pp_stmt ?(indent = 0) fmt s =
  let pad = String.make indent ' ' in
  let body b = List.iter (pp_stmt ~indent:(indent + 2) fmt) b in
  match s with
  | For { var; lo; hi; step; body = b } ->
      (match step with
      | Iset.Codegen.EInt 1 ->
          Fmt.pf fmt "%sdo %s = %a, %a@." pad var pp_expr lo pp_expr hi
      | _ ->
          Fmt.pf fmt "%sdo %s = %a, %a, %a@." pad var pp_expr lo pp_expr hi pp_expr step);
      body b;
      Fmt.pf fmt "%senddo@." pad
  | If (c, b) ->
      Fmt.pf fmt "%sif (%a) then@." pad pp_cond c;
      body b;
      Fmt.pf fmt "%sendif@." pad
  | FIf (c, t, e) ->
      Fmt.pf fmt "%sif (%a) then@." pad pp_fcond c;
      body t;
      if e <> [] then begin
        Fmt.pf fmt "%selse@." pad;
        body e
      end;
      Fmt.pf fmt "%sendif@." pad
  | Store { arr; idx; value; access } ->
      let marker = match access with Checked -> "@" | _ -> "" in
      Fmt.pf fmt "%s%s%s(%a) = %a@." pad marker arr
        Fmt.(list ~sep:comma pp_expr) idx pp_fexpr value
  | SetScalar (s, v) -> Fmt.pf fmt "%s%s = %a@." pad s pp_fexpr v
  | Pack { event; arr; idx } ->
      Fmt.pf fmt "%scall pack_%d(%s(%a))@." pad event arr
        Fmt.(list ~sep:comma pp_expr) idx
  | Send { event; dest } ->
      Fmt.pf fmt "%scall send_%d(vp=(%a))@." pad event Fmt.(list ~sep:comma pp_expr) dest
  | Recv { event; src } ->
      Fmt.pf fmt "%scall recv_%d(vp=(%a))@." pad event Fmt.(list ~sep:comma pp_expr) src
  | Reduce { scalar; op } ->
      Fmt.pf fmt "%scall allreduce_%s(%s)@." pad (reduce_op_name op) scalar
  | Call f -> Fmt.pf fmt "%scall %s@." pad f
  | Comment c -> Fmt.pf fmt "%s! %s@." pad c

let pp_stmts fmt body = List.iter (pp_stmt ~indent:0 fmt) body

let program_to_string (p : program) =
  let buf = Buffer.create 4096 in
  let fmt = Format.formatter_of_buffer buf in
  Format.pp_set_margin fmt 400;
  (fun fmt () ->
      Fmt.pf fmt "! SPMD node program@.";
      List.iter
        (fun (name, body) ->
          Fmt.pf fmt "subroutine %s@." name;
          List.iter (pp_stmt ~indent:2 fmt) body;
          Fmt.pf fmt "end subroutine@.@.")
        p.subs;
      Fmt.pf fmt "program main@.";
      List.iter (pp_stmt ~indent:2 fmt) p.main;
      Fmt.pf fmt "end program@.")
    fmt ();
  Format.pp_print_flush fmt ();
  Buffer.contents buf
