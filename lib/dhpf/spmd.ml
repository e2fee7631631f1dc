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

module B = Iset.Linebuf

let add_expr = Iset.Codegen.add_expr
let add_cond = Iset.Codegen.add_cond

let rec add_fexpr b = function
  | FConst x -> B.add_string b (Printf.sprintf "%g" x)
  | FLoad { arr; idx; access } ->
      (match access with
      | Local | Global -> ()
      | Checked -> B.add_char b '@'
      | Overlay -> B.add_char b '~');
      add_ref b arr idx
  | FScalar s -> B.add_string b s
  | FBin (op, x, y) ->
      B.add_char b '(';
      add_fexpr b x;
      B.add_string b
        (match op with
        | Hpf.Ast.Add -> " + "
        | Sub -> " - "
        | Mul -> " * "
        | Div -> " / ");
      add_fexpr b y;
      B.add_char b ')'
  | FNeg x -> B.add_string b "(-"; add_fexpr b x; B.add_char b ')'
  | FIntrin (f, args) ->
      B.add_string b f;
      B.add_char b '(';
      B.list add_fexpr b args;
      B.add_char b ')'
  | FOfInt e -> add_expr b e

(* [arr(i, j)], the commas break hints *)
and add_ref b arr idx =
  B.add_string b arr;
  B.add_char b '(';
  B.list add_expr b idx;
  B.add_char b ')'

let rec add_fcond b = function
  | FCmp (x, op, y) ->
      add_fexpr b x;
      B.add_char b ' ';
      B.add_string b (Hpf.Ast.string_of_cmpop op);
      B.add_char b ' ';
      add_fexpr b y
  | FAnd (x, y) -> add_fbin b x " .and. " y
  | FOr (x, y) -> add_fbin b x " .or. " y
  | FNot x -> B.add_string b "(.not. "; add_fcond b x; B.add_char b ')'

and add_fbin b x op y =
  B.add_char b '(';
  add_fcond b x;
  B.add_string b op;
  add_fcond b y;
  B.add_char b ')'

let line b indent f =
  B.add_spaces b indent;
  f ();
  B.newline b

let rec add_stmt b indent s =
  let body = List.iter (add_stmt b (indent + 2)) in
  let str = B.add_string b in
  let call name event =
    str "call ";
    str name;
    B.add_int b event
  in
  let vp name event coords =
    call name event;
    str "(vp=(";
    B.list add_expr b coords;
    str "))"
  in
  match s with
  | For { var; lo; hi; step; body = bd } ->
      line b indent (fun () ->
          str "do ";
          str var;
          str " = ";
          add_expr b lo;
          str ", ";
          add_expr b hi;
          match step with
          | Iset.Codegen.EInt 1 -> ()
          | _ ->
              str ", ";
              add_expr b step);
      body bd;
      line b indent (fun () -> str "enddo")
  | If (c, bd) ->
      line b indent (fun () -> str "if ("; add_cond b c; str ") then");
      body bd;
      line b indent (fun () -> str "endif")
  | FIf (c, t, e) ->
      line b indent (fun () -> str "if ("; add_fcond b c; str ") then");
      body t;
      if e <> [] then begin
        line b indent (fun () -> str "else");
        body e
      end;
      line b indent (fun () -> str "endif")
  | Store { arr; idx; value; access } ->
      line b indent (fun () ->
          if access = Checked then B.add_char b '@';
          add_ref b arr idx;
          str " = ";
          add_fexpr b value)
  | SetScalar (name, v) ->
      line b indent (fun () -> str name; str " = "; add_fexpr b v)
  | Pack { event; arr; idx } ->
      line b indent (fun () ->
          call "pack_" event;
          B.add_char b '(';
          add_ref b arr idx;
          B.add_char b ')')
  | Send { event; dest } -> line b indent (fun () -> vp "send_" event dest)
  | Recv { event; src } -> line b indent (fun () -> vp "recv_" event src)
  | Reduce { scalar; op } ->
      line b indent (fun () ->
          str "call allreduce_";
          str (reduce_op_name op);
          B.add_char b '(';
          str scalar;
          B.add_char b ')')
  | Call f -> line b indent (fun () -> str "call "; str f)
  | Comment c -> line b indent (fun () -> str "! "; str c)

(** The node program as Fortran-like text, for the examples, the CLI and
    the daemon's compile answer. *)
let program_to_string (p : program) =
  let b = B.create 4096 in
  let lines ss = List.iter (fun s -> B.add_string b s; B.newline b) ss in
  lines [ "! SPMD node program" ];
  List.iter
    (fun (name, body) ->
      lines [ "subroutine " ^ name ];
      List.iter (add_stmt b 2) body;
      lines [ "end subroutine"; "" ])
    p.subs;
  lines [ "program main" ];
  List.iter (add_stmt b 2) p.main;
  lines [ "end program" ];
  B.contents b
