(* OCaml-source back end of the SPMD lowering (the native engine).

   {!Imp.lower} produces one kernel per program; the closure engine
   ({!Compile}) turns it into closures and [emit] prints it as a
   standalone compilation unit: straight-line OCaml over {!Compile}'s
   per-processor state record, with every loop a [while] over an
   [int ref] in a function of its own, every array access an inlined
   address computation against the dense owned block, and every machine
   cost a hexadecimal float literal ([%h], bit-exact round trip). The unit
   registers its entry point with {!Native.register} at load time;
   {!Native} compiles it out-of-process and dynlinks the result.

   Each kernel node executes as its closure does, bit for bit: clock
   charges at the same points and in the same order, float operands
   let-sequenced in the same evaluation order (FP arithmetic is not
   associative, so shapes matter, not just operand sets), and every cold
   path (dense-slot miss, bounds failure, unbound name, non-positive step,
   unknown subroutine) and every effect calls the shared runtime paths in
   {!Compile}, re-exported by {!Native}. [Array.unsafe_get]/[unsafe_set]
   is used where it is unconditionally safe — slot reads, post-check
   ownership tables — and a subscript's bounds comparison is dropped only
   when {!Imp}'s interval analysis proved it cannot fire.

   Loops are outlined: [k_main], each subroutine and each [KFor] is one
   function of the unit's [let rec] chain, so no function holds more than
   one [while]. ocamlopt's liveness, register allocation and spilling
   grow faster than a function's size, and the guarded node programs of
   loop splitting are large: one function per loop roughly halves the
   build. The whole unit is printed into a single buffer; no printer
   returns a string. *)

open Imp

let str = Buffer.add_string
let chr = Buffer.add_char
let int b k =
  if k >= 0 && k < 10 then chr b (Char.unsafe_chr (48 + k)) else str b (string_of_int k)

(* ------------------------------------------------------------------ *)
(* Literals                                                            *)
(* ------------------------------------------------------------------ *)

let pint b k = if k >= 0 then int b k else (chr b '('; int b k; chr b ')')

(* [%S]: OCaml string-literal syntax *)
let pquoted b s =
  chr b '"';
  str b (String.escaped s);
  chr b '"'

(* %h round-trips every finite float bit-exactly; infinities print as
   identifiers that are not literals, so name them explicitly *)
let pfloat b x =
  match Float.classify_float x with
  | Float.FP_nan -> str b "Stdlib.nan"
  | Float.FP_infinite -> str b (if x > 0.0 then "Stdlib.infinity" else "Stdlib.neg_infinity")
  | _ -> Printf.bprintf b "(%h)" x

(* ------------------------------------------------------------------ *)
(* Clock accumulation                                                  *)
(* ------------------------------------------------------------------ *)

(* Compile's [tick] is [r_clock.now <- r_clock.now +. dt *. r_skew]: a
   call plus a store to memory, per machine-cost charge. Each emitted
   function accumulates the clock in a local [float ref] instead (kept in
   a register by the native compiler), started from the processor's clock
   cell, with the identical chain of [+. (dt *. sk)] operations, so the
   result is bit-equal; the local is flushed to the cell before anything
   that can observe it — an effect (send/recv/reduce suspends the fiber
   and the scheduler prices against live clocks) or a call to a
   subroutine or an outlined loop (which accumulates its own) — and
   reloaded after, since the callee may have advanced it. A float stored
   and read back is the same value, so the split chain is the closure's
   chain. Error paths abort the run, so a stale clock under them is
   unobservable. *)
let ptick b x =
  str b "clk := !clk +. (";
  pfloat b x;
  str b " *. sk);"

let flush_clk = "rt.C.r_clock.C.now <- !clk;"
let reload_clk = "clk := rt.C.r_clock.C.now;"

(* ------------------------------------------------------------------ *)
(* Emitter state                                                       *)
(* ------------------------------------------------------------------ *)

type est = {
  b : Buffer.t;
  mutable gen : int;
  sub_index : string -> int;
  looped : bool array;
      (* by slot: some [KFor] of the kernel writes it; every other slot
         ([m$k], parameters, an unlooped [vm$k]) is invariant over a run *)
  pending : (unit -> unit) Queue.t;  (* outlined loops still to print *)
}

(* ------------------------------------------------------------------ *)
(* Integer expressions                                                 *)
(* ------------------------------------------------------------------ *)

(* [env]: slots bound to an OCaml variable — the function's own loop
   variable and the enclosing ones its prologue rebinds; an invariant slot
   reads the prologue's [cK]; any other slot reads the per-processor slot
   array (always in bounds — slots are allocated below the array size by
   construction) *)
let pslot st env s =
  let b = st.b in
  match List.assoc_opt s env with
  | Some v -> str b v
  | None when not st.looped.(s) -> chr b 'c'; int b s
  | None -> str b "(Array.unsafe_get ri "; int b s; chr b ')'

let rec pe st env (e : iexpr) : unit =
  let b = st.b in
  match e with
  | IConst k -> pint b k
  | ISlot (s, _) -> pslot st env s
  | IUnbound n -> str b "(N.unbound_int rt "; pquoted b n; chr b ')'
  | IAdd (x, y) -> pbin st env "(" x " + " y ")"
  | ISub (x, y) -> pbin st env "(" x " - " y ")"
  | IMul (k, x) -> chr b '('; pint b k; str b " * "; pe st env x; chr b ')'
  | IFloorDiv (x, k) -> str b "(Iset.Lin.fdiv "; pe st env x; chr b ' '; pint b k; chr b ')'
  | ICeilDiv (x, k) -> str b "(Iset.Lin.cdiv "; pe st env x; chr b ' '; pint b k; chr b ')'
  | IMax [] -> str b "min_int"
  | IMax (e :: es) -> pfold st env "(max " e es
  | IMin [] -> str b "max_int"
  | IMin (e :: es) -> pfold st env "(min " e es
  | IAlignUp (a, t, k) ->
      (* each AlignUp's [au] is self-contained: nested occurrences shadow
         harmlessly inside their own parentheses *)
      str b "(let au = "; pe st env a;
      pbin st env " in au + Iset.Lin.pmod (" t " - au) " k ")"

and pbin st env l x m y r =
  str st.b l; pe st env x; str st.b m; pe st env y; str st.b r

(* [(op (op e e1) e2)]: the left fold of a binary [op] *)
and pfold st env op e es =
  let b = st.b in
  List.iter (fun _ -> str b op) es;
  pe st env e;
  List.iter (fun e -> chr b ' '; pe st env e; chr b ')') es

let rec pb st env (c : icond) : unit =
  let b = st.b in
  match c with
  | BConst true | BAnd [] -> str b "true"
  | BConst false | BOr [] -> str b "false"
  | BGeq0 e -> chr b '('; pe st env e; str b " >= 0)"
  | BEq0 e -> chr b '('; pe st env e; str b " = 0)"
  | BDivides (k, e) ->
      str b "(Iset.Lin.pmod "; pe st env e; chr b ' '; pint b k; str b " = 0)"
  | BAnd (c :: cs) -> pjoin st env " && " c cs
  | BOr (c :: cs) -> pjoin st env " || " c cs
  | BNot c -> str b "(not "; pb st env c; chr b ')'

and pjoin st env sep c cs =
  chr st.b '(';
  pb st env c;
  List.iter (fun c -> str st.b sep; pb st env c) cs;
  chr st.b ')'

(* ------------------------------------------------------------------ *)
(* Access sites                                                        *)
(* ------------------------------------------------------------------ *)

(* The inlined form of one access site, as a run of [let]s binding
   [slot] (and optionally [enc]); spliced into a parenthesized block, so
   the fixed internal names scope away (nested accesses close over their
   own). The prologue's per-array hoists carry the loop-invariant parts:
   [st_A] the store record, [dn_A] the dense-owned flag (computed against
   compile.ml's own empty-array constant — the literal [[||]] in a
   dynlinked unit is that unit's own static block, so a physical
   comparison here would diverge), [dm_A_d]/[ls_A_d] the ownership maps
   and data strides, [sd_A]/[ss_A] the dense block and side table.
   Ranks 1-3 evaluate all subscripts before checking; higher ranks check
   per dimension — the orders differ only in which of two errors wins, and
   both back ends use the same order rank for rank. A dimension's comparison is emitted only
   when the interval analysis failed to prove it dead; the ownership-table
   reads after it are unconditionally safe either way (checked or proven
   in range).

   [enc] — the global linear index — is only consumed off the dense fast
   path (side-table stores, halo/miss lookups, pack staging), so sites
   that can skip it on a dense hit splice [access_enc] into just the
   branches that need it; the computation is pure int arithmetic, so
   deferring it cannot reorder an observable event. *)
let access_enc b (ap : access_plan) =
  Array.iteri
    (fun d (da : dim_access) ->
      if d > 0 then str b " + ";
      if da.da_stride = 1 then (chr b 'u'; int b d)
      else (str b "(u"; int b d; str b " * "; pint b da.da_stride; chr b ')'))
    ap.ap_dims

let access_lets ?(enc = false) st env (ap : access_plan) =
  let b = st.b in
  let a = ap.ap_aid in
  let subscript d (da : dim_access) =
    str b "let x"; int b d; str b " = "; pe st env da.da_idx; str b " in\n   "
  in
  let check d (da : dim_access) =
    str b "   let u"; int b d; str b " = x"; int b d; str b " - "; pint b da.da_lo;
    str b " in\n";
    if not da.da_proven then begin
      str b "   (if u"; int b d; str b " < 0 || u"; int b d; str b " >= "; int b da.da_ext;
      str b " then C.bounds_fail st_"; int b a; str b ".C.st_am "; int b d;
      str b " x"; int b d; str b ");\n"
    end
  in
  if Array.length ap.ap_dims <= 3 then begin
    Array.iteri subscript ap.ap_dims;
    Array.iteri check ap.ap_dims
  end
  else
    Array.iteri
      (fun d da ->
        subscript d da;
        check d da)
      ap.ap_dims;
  if enc then (str b "   let enc = "; access_enc b ap; str b " in\n");
  str b "   let slot =\n     if dn_"; int b a; str b " then begin\n";
  Array.iteri
    (fun d _ ->
      str b "       let l"; int b d; str b " = Array.unsafe_get dm_"; int b a; chr b '_';
      int b d; str b " u"; int b d; str b " in\n")
    ap.ap_dims;
  str b "       if ";
  Array.iteri (fun d _ -> if d > 0 then str b " && "; chr b 'l'; int b d; str b " >= 0") ap.ap_dims;
  str b " then ";
  Array.iteri
    (fun d _ ->
      if d = 0 then str b "l0"
      else (str b " + (l"; int b d; str b " * ls_"; int b a; chr b '_'; int b d; chr b ')'))
    ap.ap_dims;
  str b " else (-1)\n     end\n     else (-1)\n   in\n"

(* ------------------------------------------------------------------ *)
(* Float expressions                                                   *)
(* ------------------------------------------------------------------ *)

let fbinop = function
  | Hpf.Ast.Add -> "+."
  | Hpf.Ast.Sub -> "-."
  | Hpf.Ast.Mul -> "*."
  | Hpf.Ast.Div -> "/."

let cmpop = function
  | Hpf.Ast.Lt -> "<"
  | Hpf.Ast.Le -> "<="
  | Hpf.Ast.Gt -> ">"
  | Hpf.Ast.Ge -> ">="
  | Hpf.Ast.Eq -> "="
  | Hpf.Ast.Ne -> "<>"

(* {!Serial.intrinsic}'s bodies, called directly on [a0], [a1]; a
   name/arity pair no intrinsic matches still raises its error there *)
let intrin_call b fn nargs =
  match fn with
  | Abs -> str b "Float.abs a0"
  | Sqrt -> str b "Float.sqrt a0"
  | Exp -> str b "Float.exp a0"
  | Log -> str b "Float.log a0"
  | Sin -> str b "Float.sin a0"
  | Cos -> str b "Float.cos a0"
  | Float -> str b "a0"
  | Max -> str b "Float.max a0 a1"
  | Min -> str b "Float.min a0 a1"
  | Mod -> str b "Float.rem a0 a1"
  | Sign -> str b "(if a1 >= 0.0 then Float.abs a0 else -.(Float.abs a0))"
  | Unknown (name, _) ->
      str b "S.intrinsic "; pquoted b name; str b " [";
      for i = 0 to nargs - 1 do
        if i > 0 then str b "; ";
        chr b 'a'; int b i
      done;
      chr b ']'

let rec pf st env (e : kfexpr) : unit =
  let b = st.b in
  match e with
  | KFConst x -> pfloat b x
  | KFOfInt ie -> str b "(float_of_int "; pe st env ie; chr b ')'
  | KFScalar { slot; fallback } ->
      let fb () =
        match fallback with
        | FbSlot (s, _) -> str b "(float_of_int "; pslot st env s; chr b ')'
        | FbConst x -> pfloat b x
        | FbUnbound n -> str b "(N.unbound_int rt "; pquoted b n; chr b ')'
      in
      (match slot with
      | Some s ->
          str b "(if Array.unsafe_get fvb "; int b s; str b " then Array.unsafe_get fv ";
          int b s; str b " else "; fb (); chr b ')'
      | None -> fb ())
  | KFLoad { ap; aname; checked; flop; check } ->
      chr b '('; ptick b flop; str b "\n   "; access_lets st env ap; str b "   ";
      if checked then (ptick b check; str b "\n   ");
      str b "if slot >= 0 then Array.unsafe_get sd_"; int b ap.ap_aid;
      str b " slot\n   else C.load_miss rt "; int b ap.ap_aid; str b " ~aname:";
      pquoted b aname; str b " ("; access_enc b ap; str b "))"
  | KFNeg a -> str b "(-. "; pf st env a; chr b ')'
  | KFBin { op; a; b = y; flop } ->
      (* operands sequenced left then right, charge after both (FP is not
         associative; shape is part of the contract) *)
      str b "(let va = "; pf st env a; str b " in\n   let vb = "; pf st env y;
      str b " in\n   "; ptick b flop; str b " va "; str b (fbinop op); str b " vb)"
  | KFIntrin { fn; args; flop } ->
      chr b '('; ptick b flop; str b "\n   ";
      List.iteri
        (fun i a -> str b "let a"; int b i; str b " = "; pf st env a; str b " in\n   ")
        args;
      intrin_call b fn (List.length args);
      chr b ')'

let rec pfc st env (c : kfcond) : unit =
  let b = st.b in
  match c with
  | KFCmp (op, x, y) ->
      str b "(let ca = "; pf st env x; str b " in\n   let cb = "; pf st env y;
      str b " in\n   ca "; str b (cmpop op); str b " cb)"
  | KFAnd (x, y) -> chr b '('; pfc st env x; str b " && "; pfc st env y; chr b ')'
  | KFOr (x, y) -> chr b '('; pfc st env x; str b " || "; pfc st env y; chr b ')'
  | KFNot x -> str b "(not "; pfc st env x; chr b ')'

(* ------------------------------------------------------------------ *)
(* What a function's own statements read                               *)
(* ------------------------------------------------------------------ *)

(* Slots, arrays (with ranks) and scalar-slot use of one function's own
   statements, for its prologue. A nested [KFor] contributes nothing: its
   header and body are another function's. The store records and their
   dmaps/lstride/data/side fields never change over a run — only array
   contents do — so binding them once per call is safe. *)
type uses = {
  u_slots : (int, unit) Hashtbl.t;
  u_arrs : (int, int) Hashtbl.t;
  mutable u_fv : bool;
}

let rec use_ie u (e : iexpr) =
  match e with
  | IConst _ | IUnbound _ -> ()
  | ISlot (s, _) -> Hashtbl.replace u.u_slots s ()
  | IAdd (x, y) | ISub (x, y) ->
      use_ie u x;
      use_ie u y
  | IMul (_, x) | IFloorDiv (x, _) | ICeilDiv (x, _) -> use_ie u x
  | IMax es | IMin es -> List.iter (use_ie u) es
  | IAlignUp (x, t, k) ->
      use_ie u x;
      use_ie u t;
      use_ie u k

let rec use_ic u (c : icond) =
  match c with
  | BConst _ -> ()
  | BGeq0 e | BEq0 e | BDivides (_, e) -> use_ie u e
  | BAnd cs | BOr cs -> List.iter (use_ic u) cs
  | BNot c -> use_ic u c

let use_ap u (ap : access_plan) =
  Hashtbl.replace u.u_arrs ap.ap_aid (Array.length ap.ap_dims);
  Array.iter (fun (da : dim_access) -> use_ie u da.da_idx) ap.ap_dims

let rec use_fe u (e : kfexpr) =
  match e with
  | KFConst _ -> ()
  | KFScalar { slot; fallback } -> (
      if slot <> None then u.u_fv <- true;
      match fallback with
      | FbSlot (s, _) -> Hashtbl.replace u.u_slots s ()
      | FbConst _ | FbUnbound _ -> ())
  | KFOfInt e -> use_ie u e
  | KFLoad { ap; _ } -> use_ap u ap
  | KFNeg a -> use_fe u a
  | KFBin { a; b; _ } ->
      use_fe u a;
      use_fe u b
  | KFIntrin { args; _ } -> List.iter (use_fe u) args

let rec use_fc u (c : kfcond) =
  match c with
  | KFCmp (_, a, b) ->
      use_fe u a;
      use_fe u b
  | KFAnd (a, b) | KFOr (a, b) ->
      use_fc u a;
      use_fc u b
  | KFNot a -> use_fc u a

let rec use_stmt u (s : kstmt) =
  match s with
  | KFor _ | KReduceArr _ | KReduceScalar _ | KCall _ | KUnknownSub _ -> ()
  | KIf { cond; body; _ } ->
      use_ic u cond;
      List.iter (use_stmt u) body
  | KFIf { cond; then_; else_; _ } ->
      use_fc u cond;
      List.iter (use_stmt u) then_;
      List.iter (use_stmt u) else_
  | KSetScalar { value; _ } ->
      u.u_fv <- true;
      use_fe u value
  | KStore { ap; value; _ } ->
      use_ap u ap;
      use_fe u value
  | KPack { ap; _ } -> use_ap u ap
  | KSend { dest = es; _ } | KRecv { src = es; _ } -> List.iter (use_ie u) es

let sorted tbl = List.sort compare (Hashtbl.fold (fun k v l -> (k, v) :: l) tbl [])

(* hoists: skew and slot arrays are immutable fields, store records are
   fixed for the run, invariant slots are fixed for the run, and an
   enclosing loop's variable is the [r_int] cell its loop wrote — the
   value the closure engine reads; the clock accumulates locally (see
   [ptick]) *)
let prologue st env u =
  let b = st.b in
  str b "  let sk = rt.C.r_skew in\n  let clk = ref rt.C.r_clock.C.now in\n  let ri = rt.C.r_int in\n";
  if u.u_fv then str b "  let fv = rt.C.r_fval in\n  let fvb = rt.C.r_fvalid in\n";
  List.iter
    (fun (s, ()) ->
      let bind v = str b "  let "; str b v; str b " = Array.unsafe_get ri "; int b s; str b " in\n" in
      match List.assoc_opt s env with
      | Some v -> bind v
      | None -> if not st.looped.(s) then bind ("c" ^ string_of_int s))
    (sorted u.u_slots);
  List.iter
    (fun (a, nd) ->
      let a = string_of_int a in
      let line l = str b "  let "; List.iter (str b) l; str b " in\n" in
      line [ "st_"; a; " = Array.unsafe_get rt.C.r_stores "; a ];
      line [ "dn_"; a; " = st_"; a; ".C.st_owned && not (C.st_sparse st_"; a; ")" ];
      line [ "sd_"; a; " = st_"; a; ".C.st_data" ];
      line [ "ss_"; a; " = st_"; a; ".C.st_side" ];
      for d = 0 to nd - 1 do
        let ds = string_of_int d in
        line [ "dm_"; a; "_"; ds; " = Array.unsafe_get st_"; a; ".C.st_dmaps "; ds ];
        if d >= 1 then
          line [ "ls_"; a; "_"; ds; " = Array.unsafe_get st_"; a; ".C.st_lstride "; ds ]
      done)
    (sorted u.u_arrs)

let uses_of f =
  let u = { u_slots = Hashtbl.create 8; u_arrs = Hashtbl.create 8; u_fv = false } in
  f u;
  u

(* ------------------------------------------------------------------ *)
(* Statements                                                          *)
(* ------------------------------------------------------------------ *)

let fn_header b name n =
  str b "\nand "; str b name; int b n; str b " (ctx : N.kctx) (rt : C.rt) : unit =\n"

let fn_end b = str b "  "; str b flush_clk; str b "\n  ()\n"

let reduce_op = function
  | Dhpf.Spmd.RSum -> "SP.RSum"
  | Dhpf.Spmd.RMax -> "SP.RMax"
  | Dhpf.Spmd.RMin -> "SP.RMin"

(* [f]'s text between a flush and a reload of the clock *)
let around_clk b f =
  chr b '('; str b flush_clk; chr b ' '; f (); chr b ' '; str b reload_clk; str b ");\n"

let rec estmt st ind env (s : kstmt) : unit =
  let b = st.b in
  str b ind;
  match s with
  | KFor { slot; var; lo; hi; step; body; loopt } ->
      let n = st.gen in
      st.gen <- n + 1;
      Queue.add (fun () -> emit_loop st n env slot var lo hi step body loopt) st.pending;
      around_clk b (fun () -> str b "lp_"; int b n; str b " ctx rt;")
  | KIf { cond; body; guard } ->
      ptick b guard; chr b '\n';
      str b ind; str b "(if "; pb st env cond; str b " then begin\n";
      estmts st (ind ^ "  ") env body;
      str b ind; str b "  ()\n"; str b ind; str b "end);\n"
  | KFIf { cond; then_; else_; guard } ->
      ptick b guard; chr b '\n';
      str b ind; str b "(if "; pfc st env cond; str b " then begin\n";
      estmts st (ind ^ "  ") env then_;
      str b ind; str b "  ()\n"; str b ind; str b "end else begin\n";
      estmts st (ind ^ "  ") env else_;
      str b ind; str b "  ()\n"; str b ind; str b "end);\n"
  | KSetScalar { slot; value; flop } ->
      str b "(let x = "; pf st env value; str b " in\n";
      str b ind; chr b ' '; ptick b flop; chr b '\n';
      str b ind; str b " Array.unsafe_set fv "; int b slot; str b " x;\n";
      str b ind; str b " Array.unsafe_set fvb "; int b slot; str b " true);\n"
  | KStore { ap; value; access; flop; check } ->
      let a = ap.ap_aid in
      str b "(let x = "; pf st env value; str b " in\n";
      str b ind; chr b ' '; ptick b flop; chr b '\n';
      str b ind; chr b ' '; access_lets st env ap;
      (match access with
      | Dhpf.Spmd.Checked -> str b ind; chr b ' '; ptick b check; chr b '\n'
      | Dhpf.Spmd.Local ->
          str b ind; str b " (if C.st_sparse st_"; int b a; str b " then begin\n";
          str b ind; str b "    let enc = "; access_enc b ap; str b " in\n";
          str b ind; str b "    if not (C.owns_enc st_"; int b a;
          str b " enc) then C.local_store_fail rt "; int b a; str b " enc\n";
          str b ind; str b "  end\n";
          str b ind; str b "  else if slot < 0 then C.local_store_fail rt "; int b a;
          str b " ("; access_enc b ap; str b "));\n"
      | Dhpf.Spmd.Overlay | Dhpf.Spmd.Global -> ());
      str b ind; str b " if slot >= 0 then Array.unsafe_set sd_"; int b a;
      str b " slot x\n else Hashtbl.replace ss_"; int b a; str b " ("; access_enc b ap;
      str b ") x);\n"
  | KPack { event; arr; ap } ->
      let a = ap.ap_aid in
      chr b '('; access_lets ~enc:true st env ap; chr b '\n';
      str b ind; str b " let v = if slot >= 0 then Array.unsafe_get sd_"; int b a;
      str b " slot else C.pack_miss rt "; int b a; str b " enc in\n";
      str b ind; str b " R.packbuf_push (Array.unsafe_get rt.C.r_packbufs "; int b event;
      str b ") ~arr:"; pquoted b arr; str b " enc v);\n"
  | KSend { event; dest = es; inplace; rect } ->
      effect st ind env "d" es (fun vars ->
          str b " N.do_send ctx rt ~event:"; int b event; str b " ~inplace:";
          str b (string_of_bool inplace); str b " ~rect:"; str b (string_of_bool rect);
          vars ())
  | KRecv { event; src = es; recv_o; unpack } ->
      effect st ind env "r" es (fun vars ->
          str b " N.do_recv ctx rt ~event:"; int b event; str b " ~recv_o:"; pfloat b recv_o;
          str b " ~unpack:"; pfloat b unpack; vars ())
  | KReduceArr { name; op } ->
      around_clk b (fun () ->
          str b "N.do_reduce_arr "; pquoted b name; chr b ' '; str b (reduce_op op); chr b ';')
  | KReduceScalar { slot; op } ->
      around_clk b (fun () ->
          str b "N.do_reduce_scalar rt "; int b slot; chr b ' '; str b (reduce_op op);
          chr b ';')
  | KCall f -> around_clk b (fun () -> str b "sub_"; int b (st.sub_index f); str b " ctx rt;")
  | KUnknownSub f -> str b "N.unknown_sub rt "; pquoted b f; str b ";\n"

(* a send or receive: coordinates let-bound in order, then the call
   between a flush and a reload; [call vars] prints the call up to its
   coordinate list, which [vars ()] closes *)
and effect st ind env base es call =
  let b = st.b in
  let first = st.gen in
  st.gen <- first + List.length es;
  str b "(\n";
  List.iteri
    (fun i e ->
      str b ind; str b " let "; str b base; int b (first + i); str b " = "; pe st env e;
      str b " in\n")
    es;
  str b ind; chr b ' '; str b flush_clk; chr b '\n';
  str b ind;
  call (fun () ->
      str b " [";
      List.iteri (fun i _ -> if i > 0 then str b "; "; str b base; int b (first + i)) es;
      str b "];\n");
  str b ind; chr b ' '; str b reload_clk; str b ");\n"

and estmts st ind env body = List.iter (estmt st ind env) body

(* One outlined loop, [lp_n]: its header is evaluated here, so evaluation
   and charge order are the inline loop's; [env] binds the enclosing loop
   variables, which the prologue reloads from [r_int] *)
and emit_loop st n env slot var lo hi step body loopt =
  let b = st.b in
  let name base = base ^ string_of_int n in
  (* [l0z], not [l0]: access sites bind [l0] *)
  let iv = name "i" and hv = name "h" and vv = name "v" in
  let lv = name "l" ^ "z" and sv = name "s" ^ "z" in
  let let_ x e = str b "  let "; str b x; str b " = "; pe st env e; str b " in\n" in
  let runs = match step with IConst k -> k > 0 | _ -> true in
  fn_header b "lp_" n;
  prologue st env
    (uses_of (fun u ->
         use_ie u lo;
         use_ie u hi;
         use_ie u step;
         if runs then List.iter (use_stmt u) body));
  (match step with
  | IConst k when k <= 0 ->
      (* statically non-positive step: evaluate the bounds (they may
         raise first), then fail *)
      let_ "_" lo;
      let_ "_" hi;
      str b "  N.bad_step rt "; pquoted b var; str b ";\n"
  | IConst _ ->
      let_ hv hi;
      str b "  let "; str b iv; str b " = ref "; pe st env lo; str b " in\n"
  | _ ->
      let_ lv lo;
      let_ hv hi;
      let_ sv step;
      str b "  (if "; str b sv; str b " <= 0 then N.bad_step rt "; pquoted b var;
      str b ");\n  let "; str b iv; str b " = ref "; str b lv; str b " in\n");
  if runs then begin
    str b "  while !"; str b iv; str b " <= "; str b hv; str b " do\n";
    str b "    let "; str b vv; str b " = !"; str b iv; str b " in\n";
    str b "    Array.unsafe_set ri "; int b slot; chr b ' '; str b vv; str b ";\n    ";
    ptick b loopt; chr b '\n';
    estmts st "    " ((slot, vv) :: env) body;
    (match step with
    | IConst 1 -> str b "    incr "; str b iv
    | _ ->
        str b "    "; str b iv; str b " := !"; str b iv; str b " + ";
        (match step with IConst k -> pint b k | _ -> str b sv));
    str b "\n  done;\n"
  end;
  fn_end b

let drain st =
  while not (Queue.is_empty st.pending) do
    Queue.pop st.pending ()
  done

(* ------------------------------------------------------------------ *)
(* Whole-kernel emission                                               *)
(* ------------------------------------------------------------------ *)

let rec mark_looped looped (s : kstmt) =
  match s with
  | KFor { slot; body; _ } ->
      looped.(slot) <- true;
      List.iter (mark_looped looped) body
  | KIf { body; _ } -> List.iter (mark_looped looped) body
  | KFIf { then_; else_; _ } ->
      List.iter (mark_looped looped) then_;
      List.iter (mark_looped looped) else_
  | KSetScalar _ | KStore _ | KPack _ | KSend _ | KRecv _ | KReduceArr _
  | KReduceScalar _ | KCall _ | KUnknownSub _ ->
      ()

let emit (k : kernel) : string =
  let subs = Array.of_list k.k_subs in
  (* [k_subs] holds one body per name, and [KCall] names only those *)
  let sub_index name =
    let rec find i = if fst subs.(i) = name then i else find (i + 1) in
    find 0
  in
  let looped = Array.make (max k.k_nint 1) false in
  List.iter (mark_looped looped) k.k_main;
  Array.iter (fun (_, body) -> List.iter (mark_looped looped) body) subs;
  let st =
    { b = Buffer.create 65536; gen = 0; sub_index; looped; pending = Queue.create () }
  in
  let b = st.b in
  str b "(* Kernel emitted by Spmdsim.Emit; compiled and dynlinked by\n";
  str b "   Spmdsim.Native. Generated code - do not edit. *)\n\n";
  str b "module C = Spmdsim.Compile\n";
  str b "module R = Spmdsim.Runtime\n";
  str b "module N = Spmdsim.Native\n";
  str b "module S = Spmdsim.Serial\n";
  str b "module SP = Dhpf.Spmd\n\n";
  Printf.bprintf b "(* %d int slots, %d float slots; %d subscript dims proven in-bounds, %d checked *)\n"
    k.k_nint k.k_nfloat k.k_proven k.k_unproven;
  let top header body =
    str b header;
    prologue st [] (uses_of (fun u -> List.iter (use_stmt u) body));
    estmts st "  " [] body;
    fn_end b;
    drain st
  in
  top "let rec k_main (ctx : N.kctx) (rt : C.rt) : unit =\n" k.k_main;
  Array.iteri
    (fun i (name, body) ->
      fn_header b "sub_" i;
      top (Printf.sprintf "  (* subroutine %s *)\n" name) body)
    subs;
  str b "\nlet () = N.register k_main\n";
  Buffer.contents b
