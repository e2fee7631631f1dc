(* OCaml-source back end of the SPMD lowering (the native engine).

   {!Imp.lower} produces one kernel per program; the closure engine
   ({!Compile}) turns it into closures and [emit] prints it as a
   standalone compilation unit: straight-line OCaml over {!Compile}'s
   per-processor state record, with every loop a [while] over an
   [int ref], every array access an inlined address computation against
   the dense owned block, and every machine cost a hexadecimal float
   literal ([%h], bit-exact round trip). The unit registers its entry
   point with {!Native.register} at load time; {!Native} compiles it
   out-of-process and dynlinks the result.

   Each kernel node executes as its closure does, bit for bit: clock
   charges at the same points and in the same order, float operands
   let-sequenced in the same evaluation order (FP arithmetic is not
   associative, so shapes matter, not just operand sets), and every cold
   path (dense-slot miss, bounds failure, unbound name, non-positive step,
   unknown subroutine) and every effect calls the shared runtime paths in
   {!Compile}, re-exported by {!Native}. [Array.unsafe_get]/[unsafe_set]
   is used where it is unconditionally safe — slot reads, post-check
   ownership tables — and a subscript's bounds comparison is dropped only
   when {!Imp}'s interval analysis proved it cannot fire. *)

open Imp

let spf = Printf.sprintf

(* ------------------------------------------------------------------ *)
(* Literals                                                            *)
(* ------------------------------------------------------------------ *)

let pint k = if k >= 0 then string_of_int k else spf "(%d)" k

(* %h round-trips every finite float bit-exactly; infinities print as
   identifiers that are not literals, so name them explicitly *)
let pfloat x =
  match Float.classify_float x with
  | Float.FP_nan -> "Stdlib.nan"
  | Float.FP_infinite -> if x > 0.0 then "Stdlib.infinity" else "Stdlib.neg_infinity"
  | _ -> spf "(%h)" x

(* ------------------------------------------------------------------ *)
(* Clock accumulation                                                  *)
(* ------------------------------------------------------------------ *)

(* Compile's [tick] is [r_clock.now <- r_clock.now +. dt *. r_skew]: a
   call plus a store to memory, per machine-cost charge. Emitted kernels
   accumulate the clock in a local [float ref] instead (kept in a register
   by the native compiler) with the identical chain of [+. (dt *. sk)]
   operations, so the result is bit-equal; the local is flushed to the
   processor's clock cell before anything that can observe it — an effect
   (send/recv/reduce suspends the fiber and the scheduler prices against
   live clocks) or a subroutine call (which accumulates its own) — and
   reloaded after, since the handler may have advanced it. Error paths
   abort the run, so a stale clock under them is unobservable. *)
let ptick x = spf "clk := !clk +. (%s *. sk);" (pfloat x)

let flush_clk = "rt.C.r_clock.C.now <- !clk;"
let reload_clk = "clk := rt.C.r_clock.C.now;"

(* ------------------------------------------------------------------ *)
(* Integer expressions                                                 *)
(* ------------------------------------------------------------------ *)

(* [env]: slots currently bound to a loop-local OCaml variable; any other
   slot reads the per-processor slot array (always in bounds — slots are
   allocated below the array size by construction; [ri] is the function
   prologue's hoist of [rt.r_int]) *)
let rec pe env (e : iexpr) : string =
  match e with
  | IConst k -> pint k
  | ISlot (s, _) -> (
      match List.assoc_opt s env with
      | Some v -> v
      | None -> spf "(Array.unsafe_get ri %d)" s)
  | IUnbound n -> spf "(N.unbound_int rt %S)" n
  | IAdd (a, b) -> spf "(%s + %s)" (pe env a) (pe env b)
  | ISub (a, b) -> spf "(%s - %s)" (pe env a) (pe env b)
  | IMul (k, a) -> spf "(%s * %s)" (pint k) (pe env a)
  | IFloorDiv (a, k) -> spf "(Iset.Lin.fdiv %s %s)" (pe env a) (pint k)
  | ICeilDiv (a, k) -> spf "(Iset.Lin.cdiv %s %s)" (pe env a) (pint k)
  | IMax [] -> "min_int"
  | IMax (e :: es) ->
      List.fold_left (fun acc e -> spf "(max %s %s)" acc (pe env e)) (pe env e) es
  | IMin [] -> "max_int"
  | IMin (e :: es) ->
      List.fold_left (fun acc e -> spf "(min %s %s)" acc (pe env e)) (pe env e) es
  | IAlignUp (a, t, k) ->
      (* each AlignUp's [au] is self-contained: nested occurrences shadow
         harmlessly inside their own parentheses *)
      spf "(let au = %s in au + Iset.Lin.pmod (%s - au) %s)" (pe env a) (pe env t)
        (pe env k)

let rec pb env (c : icond) : string =
  match c with
  | BConst true -> "true"
  | BConst false -> "false"
  | BGeq0 e -> spf "(%s >= 0)" (pe env e)
  | BEq0 e -> spf "(%s = 0)" (pe env e)
  | BDivides (k, e) -> spf "(Iset.Lin.pmod %s %s = 0)" (pe env e) (pint k)
  | BAnd [] -> "true"
  | BAnd cs -> "(" ^ String.concat " && " (List.map (pb env) cs) ^ ")"
  | BOr [] -> "false"
  | BOr cs -> "(" ^ String.concat " || " (List.map (pb env) cs) ^ ")"
  | BNot c -> spf "(not %s)" (pb env c)

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
let access_enc (ap : access_plan) : string =
  let enc_terms =
    List.mapi
      (fun d (da : dim_access) ->
        if da.da_stride = 1 then spf "u%d" d
        else spf "(u%d * %s)" d (pint da.da_stride))
      (Array.to_list ap.ap_dims)
  in
  String.concat " + " enc_terms

let access_lets ?(enc = false) env (ap : access_plan) : string =
  let b = Buffer.create 256 in
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  let nd = Array.length ap.ap_dims in
  let a = ap.ap_aid in
  let check d (da : dim_access) =
    add "   let u%d = x%d - %s in\n" d d (pint da.da_lo);
    if not da.da_proven then
      add "   (if u%d < 0 || u%d >= %d then C.bounds_fail st_%d.C.st_am %d x%d);\n" d d
        da.da_ext a d d
  in
  if nd <= 3 then begin
    Array.iteri (fun d da -> add "let x%d = %s in\n   " d (pe env da.da_idx)) ap.ap_dims;
    Array.iteri check ap.ap_dims
  end
  else
    Array.iteri
      (fun d (da : dim_access) ->
        add "let x%d = %s in\n   " d (pe env da.da_idx);
        check d da)
      ap.ap_dims;
  if enc then add "   let enc = %s in\n" (access_enc ap);
  add "   let slot =\n";
  add "     if dn_%d then begin\n" a;
  Array.iteri
    (fun d _ -> add "       let l%d = Array.unsafe_get dm_%d_%d u%d in\n" d a d d)
    ap.ap_dims;
  let lconds = List.init nd (fun d -> spf "l%d >= 0" d) in
  let lterms =
    List.init nd (fun d -> if d = 0 then "l0" else spf "(l%d * ls_%d_%d)" d a d)
  in
  add "       if %s then %s else (-1)\n" (String.concat " && " lconds)
    (String.concat " + " lterms);
  add "     end\n     else (-1)\n   in\n";
  Buffer.contents b

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

let rec pf env (e : kfexpr) : string =
  match e with
  | KFConst x -> pfloat x
  | KFOfInt ie -> spf "(float_of_int %s)" (pe env ie)
  | KFScalar { slot; fallback } -> (
      let fb =
        match fallback with
        | FbSlot (s, _) ->
            spf "(float_of_int %s)" (pe env (ISlot (s, "")))
        | FbConst x -> pfloat x
        | FbUnbound n -> spf "(N.unbound_int rt %S)" n
      in
      match slot with
      | Some s ->
          spf
            "(if Array.unsafe_get fvb %d then Array.unsafe_get fv %d else %s)"
            s s fb
      | None -> fb)
  | KFLoad { ap; aname; checked; flop; check } ->
      spf "(%s\n   %s   %sif slot >= 0 then Array.unsafe_get sd_%d slot\n   else C.load_miss rt %d ~aname:%S (%s))"
        (ptick flop) (access_lets env ap)
        (if checked then spf "%s\n   " (ptick check) else "")
        ap.ap_aid ap.ap_aid aname (access_enc ap)
  | KFNeg a -> spf "(-. %s)" (pf env a)
  | KFBin { op; a; b; flop } ->
      (* operands sequenced left then right, charge after both (FP is not
         associative; shape is part of the contract) *)
      spf "(let va = %s in\n   let vb = %s in\n   %s va %s vb)"
        (pf env a) (pf env b) (ptick flop) (fbinop op)
  | KFIntrin { fn; args; flop } ->
      let lets =
        String.concat ""
          (List.mapi (fun i a -> spf "let a%d = %s in\n   " i (pf env a)) args)
      in
      (* {!Serial.intrinsic}'s bodies, called directly; a name/arity pair
         no intrinsic matches still raises its error there *)
      let call =
        match fn with
        | Abs -> "Float.abs a0"
        | Sqrt -> "Float.sqrt a0"
        | Exp -> "Float.exp a0"
        | Log -> "Float.log a0"
        | Sin -> "Float.sin a0"
        | Cos -> "Float.cos a0"
        | Float -> "a0"
        | Max -> "Float.max a0 a1"
        | Min -> "Float.min a0 a1"
        | Mod -> "Float.rem a0 a1"
        | Sign -> "(if a1 >= 0.0 then Float.abs a0 else -.(Float.abs a0))"
        | Unknown (name, _) ->
            spf "S.intrinsic %S [%s]" name
              (String.concat "; " (List.mapi (fun i _ -> spf "a%d" i) args))
      in
      spf "(%s\n   %s%s)" (ptick flop) lets call

let rec pfc env (c : kfcond) : string =
  match c with
  | KFCmp (op, a, b) ->
      spf "(let ca = %s in\n   let cb = %s in\n   ca %s cb)" (pf env a) (pf env b)
        (cmpop op)
  | KFAnd (a, b) -> spf "(%s && %s)" (pfc env a) (pfc env b)
  | KFOr (a, b) -> spf "(%s || %s)" (pfc env a) (pfc env b)
  | KFNot a -> spf "(not %s)" (pfc env a)

(* ------------------------------------------------------------------ *)
(* Statements                                                          *)
(* ------------------------------------------------------------------ *)

type est = { b : Buffer.t; mutable gen : int; sub_index : string -> int }

let gensym st base =
  let n = st.gen in
  st.gen <- n + 1;
  spf "%s%d" base n

let add_line st ind s =
  Buffer.add_string st.b ind;
  Buffer.add_string st.b s;
  Buffer.add_char st.b '\n'

let store_put a ap =
  spf "if slot >= 0 then Array.unsafe_set sd_%d slot x\n else Hashtbl.replace ss_%d (%s) x" a a
    (access_enc ap)

let rec estmt st ind env (s : kstmt) : unit =
  match s with
  | KFor { slot; var; lo; hi; step; body; loopt } -> (
      let n = st.gen in
      st.gen <- n + 1;
      let iv = spf "i%d" n and hv = spf "h%d" n and vv = spf "v%d" n in
      let benv = (slot, vv) :: env in
      match step with
      | IConst 1 ->
          add_line st ind (spf "let %s = %s in" hv (pe env hi));
          add_line st ind (spf "let %s = ref %s in" iv (pe env lo));
          add_line st ind (spf "while !%s <= %s do" iv hv);
          add_line st ind (spf "  let %s = !%s in" vv iv);
          add_line st ind (spf "  Array.unsafe_set ri %d %s;" slot vv);
          add_line st ind ("  " ^ ptick loopt);
          estmts st (ind ^ "  ") benv body;
          add_line st ind (spf "  incr %s" iv);
          add_line st ind "done;"
      | IConst k when k > 0 ->
          add_line st ind (spf "let %s = %s in" hv (pe env hi));
          add_line st ind (spf "let %s = ref %s in" iv (pe env lo));
          add_line st ind (spf "while !%s <= %s do" iv hv);
          add_line st ind (spf "  let %s = !%s in" vv iv);
          add_line st ind (spf "  Array.unsafe_set ri %d %s;" slot vv);
          add_line st ind ("  " ^ ptick loopt);
          estmts st (ind ^ "  ") benv body;
          add_line st ind (spf "  %s := !%s + %s" iv iv (pint k));
          add_line st ind "done;"
      | IConst _ ->
          (* statically non-positive step: evaluate the bounds (they may
             raise first), then fail *)
          add_line st ind (spf "let _ = %s in" (pe env lo));
          add_line st ind (spf "let _ = %s in" (pe env hi));
          add_line st ind (spf "N.bad_step rt %S;" var)
      | _ ->
          let lv = spf "l%dz" n and sv = spf "s%dz" n in
          add_line st ind (spf "let %s = %s in" lv (pe env lo));
          add_line st ind (spf "let %s = %s in" hv (pe env hi));
          add_line st ind (spf "let %s = %s in" sv (pe env step));
          add_line st ind (spf "(if %s <= 0 then N.bad_step rt %S);" sv var);
          add_line st ind (spf "let %s = ref %s in" iv lv);
          add_line st ind (spf "while !%s <= %s do" iv hv);
          add_line st ind (spf "  let %s = !%s in" vv iv);
          add_line st ind (spf "  Array.unsafe_set ri %d %s;" slot vv);
          add_line st ind ("  " ^ ptick loopt);
          estmts st (ind ^ "  ") benv body;
          add_line st ind (spf "  %s := !%s + %s" iv iv sv);
          add_line st ind "done;")
  | KIf { cond; body; guard } ->
      add_line st ind (ptick guard);
      add_line st ind (spf "(if %s then begin" (pb env cond));
      estmts st (ind ^ "  ") env body;
      add_line st ind "  ()";
      add_line st ind "end);"
  | KFIf { cond; then_; else_; guard } ->
      add_line st ind (ptick guard);
      add_line st ind (spf "(if %s then begin" (pfc env cond));
      estmts st (ind ^ "  ") env then_;
      add_line st ind "  ()";
      add_line st ind "end else begin";
      estmts st (ind ^ "  ") env else_;
      add_line st ind "  ()";
      add_line st ind "end);"
  | KSetScalar { slot; value; flop } ->
      add_line st ind (spf "(let x = %s in" (pf env value));
      add_line st ind (" " ^ ptick flop);
      add_line st ind (spf " Array.unsafe_set fv %d x;" slot);
      add_line st ind (spf " Array.unsafe_set fvb %d true);" slot)
  | KStore { ap; value; access; flop; check } ->
      let a = ap.ap_aid in
      add_line st ind (spf "(let x = %s in" (pf env value));
      add_line st ind (" " ^ ptick flop);
      add_line st ind (spf " %s" (access_lets env ap));
      (match access with
      | Dhpf.Spmd.Checked -> add_line st ind (" " ^ ptick check)
      | Dhpf.Spmd.Local ->
          add_line st ind
            (spf
               " (if C.st_sparse st_%d then begin\n%s    let enc = %s in\n%s    if not (C.owns_enc st_%d enc) then C.local_store_fail rt %d enc\n%s  end\n%s  else if slot < 0 then C.local_store_fail rt %d (%s));"
               a ind (access_enc ap) ind a a ind ind a (access_enc ap))
      | Dhpf.Spmd.Overlay | Dhpf.Spmd.Global -> ());
      add_line st ind (spf " %s);" (store_put a ap))
  | KPack { event; arr; ap } ->
      add_line st ind (spf "(%s" (access_lets ~enc:true env ap));
      add_line st ind
        (spf
           " let v = if slot >= 0 then Array.unsafe_get sd_%d slot else C.pack_miss rt %d enc in"
           ap.ap_aid ap.ap_aid);
      add_line st ind
        (spf " R.packbuf_push (Array.unsafe_get rt.C.r_packbufs %d) ~arr:%S enc v);"
           event arr)
  | KSend { event; dest; inplace; rect } ->
      let vars = List.map (fun e -> (gensym st "d", e)) dest in
      add_line st ind "(";
      List.iter (fun (v, e) -> add_line st ind (spf " let %s = %s in" v (pe env e))) vars;
      add_line st ind (" " ^ flush_clk);
      add_line st ind
        (spf " N.do_send ctx rt ~event:%d ~inplace:%b ~rect:%b [%s];" event inplace
           rect
           (String.concat "; " (List.map fst vars)));
      add_line st ind (" " ^ reload_clk ^ ");")
  | KRecv { event; src; recv_o; unpack } ->
      let vars = List.map (fun e -> (gensym st "r", e)) src in
      add_line st ind "(";
      List.iter (fun (v, e) -> add_line st ind (spf " let %s = %s in" v (pe env e))) vars;
      add_line st ind (" " ^ flush_clk);
      add_line st ind
        (spf " N.do_recv ctx rt ~event:%d ~recv_o:%s ~unpack:%s [%s];" event
           (pfloat recv_o) (pfloat unpack)
           (String.concat "; " (List.map fst vars)));
      add_line st ind (" " ^ reload_clk ^ ");")
  | KReduceArr { name; op } ->
      add_line st ind
        (spf "(%s N.do_reduce_arr %S %s; %s);" flush_clk name (reduce_op op)
           reload_clk)
  | KReduceScalar { slot; op } ->
      add_line st ind
        (spf "(%s N.do_reduce_scalar rt %d %s; %s);" flush_clk slot
           (reduce_op op) reload_clk)
  | KCall f ->
      add_line st ind
        (spf "(%s sub_%d ctx rt; %s);" flush_clk (st.sub_index f) reload_clk)
  | KUnknownSub f -> add_line st ind (spf "N.unknown_sub rt %S;" f)

and reduce_op = function
  | Dhpf.Spmd.RSum -> "SP.RSum"
  | Dhpf.Spmd.RMax -> "SP.RMax"
  | Dhpf.Spmd.RMin -> "SP.RMin"

and estmts st ind env body = List.iter (estmt st ind env) body

(* ------------------------------------------------------------------ *)
(* Whole-kernel emission                                               *)
(* ------------------------------------------------------------------ *)

(* array ids (with ranks) accessed by a function body, for the prologue's
   per-store hoists; the store records and their dmaps/lstride/data/side
   fields never change over a run — only array contents do — so binding
   them once per call is safe *)
let note acc (ap : access_plan) = Hashtbl.replace acc ap.ap_aid (Array.length ap.ap_dims)

let rec aids_fe acc (e : kfexpr) : unit =
  match e with
  | KFConst _ | KFOfInt _ | KFScalar _ -> ()
  | KFLoad { ap; _ } -> note acc ap
  | KFNeg a -> aids_fe acc a
  | KFBin { a; b; _ } ->
      aids_fe acc a;
      aids_fe acc b
  | KFIntrin { args; _ } -> List.iter (aids_fe acc) args

let rec aids_fc acc (c : kfcond) : unit =
  match c with
  | KFCmp (_, a, b) ->
      aids_fe acc a;
      aids_fe acc b
  | KFAnd (a, b) | KFOr (a, b) ->
      aids_fc acc a;
      aids_fc acc b
  | KFNot a -> aids_fc acc a

let rec aids_stmt acc (s : kstmt) : unit =
  match s with
  | KFor { body; _ } | KIf { body; _ } -> List.iter (aids_stmt acc) body
  | KFIf { cond; then_; else_; _ } ->
      aids_fc acc cond;
      List.iter (aids_stmt acc) then_;
      List.iter (aids_stmt acc) else_
  | KSetScalar { value; _ } -> aids_fe acc value
  | KStore { ap; value; _ } ->
      note acc ap;
      aids_fe acc value
  | KPack { ap; _ } -> note acc ap
  | KSend _ | KRecv _ | KReduceArr _ | KReduceScalar _ | KCall _
  | KUnknownSub _ ->
      ()

let emit_fn st header body =
  let add s = Buffer.add_string st.b s in
  add header;
  add "  ignore ctx; ignore rt;\n";
  (* hoists: skew and slot arrays are immutable fields, store records are
     fixed for the run; the clock accumulates locally (see [ptick]) *)
  add "  let sk = rt.C.r_skew in\n";
  add "  let clk = ref rt.C.r_clock.C.now in\n";
  add "  let ri = rt.C.r_int in\n";
  add "  let fv = rt.C.r_fval in\n";
  add "  let fvb = rt.C.r_fvalid in\n";
  add "  ignore sk; ignore ri; ignore fv; ignore fvb;\n";
  let acc = Hashtbl.create 8 in
  List.iter (aids_stmt acc) body;
  let aids = List.sort compare (Hashtbl.fold (fun a nd l -> (a, nd) :: l) acc []) in
  List.iter
    (fun (a, nd) ->
      add (spf "  let st_%d = Array.unsafe_get rt.C.r_stores %d in\n" a a);
      add (spf "  let dn_%d = st_%d.C.st_owned && not (C.st_sparse st_%d) in\n" a a a);
      add (spf "  let sd_%d = st_%d.C.st_data in\n" a a);
      add (spf "  let ss_%d = st_%d.C.st_side in\n" a a);
      add (spf "  ignore dn_%d; ignore sd_%d; ignore ss_%d;\n" a a a);
      for d = 0 to nd - 1 do
        add (spf "  let dm_%d_%d = Array.unsafe_get st_%d.C.st_dmaps %d in\n" a d a d);
        add (spf "  ignore dm_%d_%d;\n" a d);
        if d >= 1 then begin
          add (spf "  let ls_%d_%d = Array.unsafe_get st_%d.C.st_lstride %d in\n" a d a d);
          add (spf "  ignore ls_%d_%d;\n" a d)
        end
      done)
    aids;
  estmts st "  " [] body;
  add ("  " ^ flush_clk ^ "\n");
  add "  ()\n"

let emit (k : kernel) : string =
  let subs = Array.of_list k.k_subs in
  (* [k_subs] holds one body per name, and [KCall] names only those *)
  let sub_index name =
    let rec find i = if fst subs.(i) = name then i else find (i + 1) in
    find 0
  in
  let st = { b = Buffer.create 16384; gen = 0; sub_index } in
  let add s = Buffer.add_string st.b s in
  add "(* Kernel emitted by Spmdsim.Emit; compiled and dynlinked by\n";
  add "   Spmdsim.Native. Generated code - do not edit. *)\n\n";
  add "module C = Spmdsim.Compile\n";
  add "module R = Spmdsim.Runtime\n";
  add "module N = Spmdsim.Native\n";
  add "module S = Spmdsim.Serial\n";
  add "module SP = Dhpf.Spmd\n\n";
  add (spf "(* %d int slots, %d float slots; %d subscript dims proven in-bounds, %d checked *)\n"
         k.k_nint k.k_nfloat k.k_proven k.k_unproven);
  emit_fn st "let rec k_main (ctx : N.kctx) (rt : C.rt) : unit =\n" k.k_main;
  Array.iteri
    (fun i (name, body) ->
      emit_fn st
        (spf "\nand sub_%d (ctx : N.kctx) (rt : C.rt) : unit =\n  (* subroutine %s *)\n" i name)
        body)
    subs;
  add "\nlet () = N.register k_main\n";
  Buffer.contents st.b
