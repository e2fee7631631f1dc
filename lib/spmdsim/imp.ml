(* The SPMD lowering: [Spmd] program -> imperative kernel IR.

   [lower] is the only pass that resolves [Spmd] names. It flattens a
   program into loops over integer ranges, float-slot loads/stores into
   dense owned-section arrays, pack/unpack of communication buffers, and
   explicit send/recv/reduce operations priced by {!Machine}: integer
   names become [r_int] slots, replicated scalars become [r_fval] slots,
   arrays become store ids, global parameters fold into constants, and
   machine costs become literals attached to the nodes that charge them.

   The kernel has two back ends: the closure engine turns it into OCaml
   closures (the default engine), and {!Emit} prints it as a standalone
   OCaml unit (the native engine). Both run over the same per-processor
   state, sized by the slot counts recorded here, so neither can drift
   from the other.

   Slots are allocated on first sight in one fixed traversal: [m$k],
   [vm$k], declared scalars, assigned scalars, the main program, then each
   subroutine name at its first declaration (with that name's last body).
   A loop's bounds and step are lowered before its variable's slot, so a
   bound naming the variable resolves to an outer binding or a global.

   Lowering also runs an interval analysis ({!Iset.Codegen.interval_of_expr})
   over every subscript: a dimension whose index provably stays inside the
   array's declared bounds is marked [da_proven], licensing an unchecked
   access in the emitted kernel (the closure engine checks every
   dimension). Proofs never change observable behavior — they only remove
   comparisons that cannot fire. *)

open Dhpf

let errf = Runtime.errf

(* ------------------------------------------------------------------ *)
(* IR                                                                  *)
(* ------------------------------------------------------------------ *)

(** Integer expressions, constant-folded, over [r_int] slots. *)
type iexpr =
  | IConst of int
  | ISlot of int * string  (* slot, source name (for readability) *)
  | IUnbound of string  (* unbound name: errors when evaluated *)
  | IAdd of iexpr * iexpr
  | ISub of iexpr * iexpr
  | IMul of int * iexpr
  | IFloorDiv of iexpr * int
  | ICeilDiv of iexpr * int
  | IMax of iexpr list
  | IMin of iexpr list
  | IAlignUp of iexpr * iexpr * iexpr

type icond =
  | BConst of bool
  | BGeq0 of iexpr
  | BEq0 of iexpr
  | BDivides of int * iexpr
  | BAnd of icond list
  | BOr of icond list
  | BNot of icond

type dim_access = {
  da_idx : iexpr;
  da_lo : int;  (* declared lower bound of the dimension *)
  da_ext : int;  (* extent *)
  da_stride : int;  (* global linear (column-major) stride *)
  da_proven : bool;  (* interval analysis proved lo <= idx <= hi *)
}

type access_plan = {
  ap_aid : int;
  ap_arr : string;
  ap_dims : dim_access array;
}

(** Fallback of a scalar read whose slot is uninitialized (or absent). *)
type ffall = FbSlot of int * string | FbConst of float | FbUnbound of string

type kfexpr =
  | KFConst of float
  | KFOfInt of iexpr
  | KFScalar of { slot : int option; fallback : ffall }
  | KFLoad of {
      ap : access_plan;
      aname : string;  (* access mode name, for the miss error *)
      checked : bool;
      flop : float;
      check : float;
    }
  | KFNeg of kfexpr
  | KFBin of { op : Hpf.Ast.fbinop; a : kfexpr; b : kfexpr; flop : float }
  | KFIntrin of { name : string; args : kfexpr list; flop : float }

type kfcond =
  | KFCmp of Hpf.Ast.cmpop * kfexpr * kfexpr
  | KFAnd of kfcond * kfcond
  | KFOr of kfcond * kfcond
  | KFNot of kfcond

type kstmt =
  | KFor of {
      slot : int;
      var : string;
      lo : iexpr;
      hi : iexpr;
      step : iexpr;
      body : kstmt list;
      loopt : float;
    }
  | KIf of { cond : icond; body : kstmt list; guard : float }
  | KFIf of { cond : kfcond; then_ : kstmt list; else_ : kstmt list; guard : float }
  | KSetScalar of { slot : int; value : kfexpr; flop : float }
  | KStore of {
      ap : access_plan;
      value : kfexpr;
      access : Spmd.access;
      flop : float;
      check : float;
    }
  | KPack of { event : int; arr : string; ap : access_plan }
  | KSend of { event : int; dest : iexpr list; inplace : bool; rect : bool }
  | KRecv of { event : int; src : iexpr list; recv_o : float; unpack : float }
  | KReduceArr of { name : string; op : Spmd.reduce_op }
  | KReduceScalar of { slot : int; op : Spmd.reduce_op }
  | KCall of string
  | KUnknownSub of string  (* Call to an undefined subroutine: runtime error *)

type kernel = {
  k_main : kstmt list;
  k_subs : (string * kstmt list) list;  (* declaration order, names unique *)
  k_nint : int;
  k_nfloat : int;
  k_m_slots : int array;  (* slot of m$k per processor dimension *)
  k_vm_slots : int array;  (* slot of vm$k per processor dimension *)
  k_islots : (string * int) list;  (* sorted by name *)
  k_fslots : (string * int) list;
  k_nevents : int;  (* one past the largest event id *)
  k_sparse : bool array;
      (* by array id: named by a Reduce, so kept in sparse storage *)
  k_proven : int;  (* subscript dimensions proved in-bounds *)
  k_unproven : int;  (* subscript dimensions that keep the runtime check *)
}

(* ------------------------------------------------------------------ *)
(* Lowering context                                                    *)
(* ------------------------------------------------------------------ *)

type lctx = {
  l_genv : (string, int) Hashtbl.t;
  l_machine : Machine.t;
  l_islots : (string, int) Hashtbl.t;
  mutable l_nint : int;
  l_fslots : (string, int) Hashtbl.t;
  mutable l_nfloat : int;
  l_arrays : (string, int) Hashtbl.t;
  l_ameta : Runtime.ameta array;
  l_inplace : (int, unit) Hashtbl.t;
  l_rect : (int, unit) Hashtbl.t;
  l_subs : (string, unit) Hashtbl.t;  (* defined subroutine names *)
  l_ranges : (string, Iset.Codegen.interval) Hashtbl.t;
      (* interval bindings for enclosing loop variables and m$k *)
  mutable l_proven : int;
  mutable l_unproven : int;
}

let islot ctx name =
  match Hashtbl.find_opt ctx.l_islots name with
  | Some s -> s
  | None ->
      let s = ctx.l_nint in
      ctx.l_nint <- s + 1;
      Hashtbl.replace ctx.l_islots name s;
      s

let fslot ctx name =
  match Hashtbl.find_opt ctx.l_fslots name with
  | Some s -> s
  | None ->
      let s = ctx.l_nfloat in
      ctx.l_nfloat <- s + 1;
      Hashtbl.replace ctx.l_fslots name s;
      s

(* interval environment: loop-bound names first; a name holding an integer
   slot but not currently loop-bound is dynamic (top); otherwise a global
   parameter is a constant; unknown names are unbounded *)
let ienv ctx s =
  match Hashtbl.find_opt ctx.l_ranges s with
  | Some iv -> iv
  | None ->
      if Hashtbl.mem ctx.l_islots s then Iset.Codegen.itv_top
      else (
        match Hashtbl.find_opt ctx.l_genv s with
        | Some v -> Iset.Codegen.itv_const v
        | None -> Iset.Codegen.itv_top)

let interval ctx e = Iset.Codegen.interval_of_expr (ienv ctx) e

(* ------------------------------------------------------------------ *)
(* Expressions                                                         *)
(* ------------------------------------------------------------------ *)

(* A name holding a slot wins over a global parameter; operations over
   constants fold, so both back ends see literals for most bounds. *)
let rec lexpr ctx (e : Spmd.expr) : iexpr =
  let open Iset.Codegen in
  match e with
  | EInt k -> IConst k
  | EVar s -> (
      match Hashtbl.find_opt ctx.l_islots s with
      | Some slot -> ISlot (slot, s)
      | None -> (
          match Hashtbl.find_opt ctx.l_genv s with
          | Some v -> IConst v
          | None -> IUnbound s))
  | EAdd (a, b) -> (
      match (lexpr ctx a, lexpr ctx b) with
      | IConst x, IConst y -> IConst (x + y)
      | a, b -> IAdd (a, b))
  | ESub (a, b) -> (
      match (lexpr ctx a, lexpr ctx b) with
      | IConst x, IConst y -> IConst (x - y)
      | a, b -> ISub (a, b))
  | EMul (k, a) -> (
      match lexpr ctx a with IConst x -> IConst (k * x) | a -> IMul (k, a))
  | EFloorDiv (a, k) -> (
      match lexpr ctx a with
      | IConst x -> IConst (Iset.Lin.fdiv x k)
      | a -> IFloorDiv (a, k))
  | ECeilDiv (a, k) -> (
      match lexpr ctx a with
      | IConst x -> IConst (Iset.Lin.cdiv x k)
      | a -> ICeilDiv (a, k))
  | EMax es ->
      let ls = List.map (lexpr ctx) es in
      if List.for_all (function IConst _ -> true | _ -> false) ls then
        IConst
          (List.fold_left
             (fun m l -> match l with IConst k -> max m k | _ -> m)
             min_int ls)
      else IMax ls
  | EMin es ->
      let ls = List.map (lexpr ctx) es in
      if List.for_all (function IConst _ -> true | _ -> false) ls then
        IConst
          (List.fold_left
             (fun m l -> match l with IConst k -> min m k | _ -> m)
             max_int ls)
      else IMin ls
  | EAlignUp (e, target, k) -> (
      match (lexpr ctx e, lexpr ctx target, lexpr ctx k) with
      | IConst x, IConst t, IConst k -> IConst (x + Iset.Lin.pmod (t - x) k)
      | le, lt, lk -> IAlignUp (le, lt, lk))

let rec lcond ctx (c : Spmd.cond) : icond =
  let open Iset.Codegen in
  match c with
  | CTrue -> BConst true
  | CGeq0 e -> (
      match lexpr ctx e with IConst k -> BConst (k >= 0) | l -> BGeq0 l)
  | CEq0 e -> (match lexpr ctx e with IConst k -> BConst (k = 0) | l -> BEq0 l)
  | CDivides (k, e) -> (
      match lexpr ctx e with
      | IConst x -> BConst (Iset.Lin.pmod x k = 0)
      | l -> BDivides (k, l))
  | CAnd cs -> BAnd (List.map (lcond ctx) cs)
  | COr cs -> BOr (List.map (lcond ctx) cs)
  | CNot c -> BNot (lcond ctx c)

(* ------------------------------------------------------------------ *)
(* Access plans                                                        *)
(* ------------------------------------------------------------------ *)

let access_name = function
  | Spmd.Local -> "Local"
  | Spmd.Overlay -> "Overlay"
  | Spmd.Checked -> "Checked"
  | Spmd.Global -> "Global"

let laccess ctx arr (idx : Spmd.expr list) : access_plan =
  let aid =
    match Hashtbl.find_opt ctx.l_arrays arr with
    | Some a -> a
    | None -> errf "unknown array %s" arr
  in
  let am = ctx.l_ameta.(aid) in
  let nd = Array.length am.Runtime.am_ext in
  if List.length idx <> nd then
    errf "array %s: %d subscripts for rank %d" am.Runtime.am_name
      (List.length idx) nd;
  let dims =
    Array.of_list
      (List.mapi
         (fun d e ->
           let lo = fst am.Runtime.am_bounds.(d) in
           let ext = am.Runtime.am_ext.(d) in
           let proven =
             Iset.Codegen.itv_within (interval ctx e) ~lo ~hi:(lo + ext - 1)
           in
           if proven then ctx.l_proven <- ctx.l_proven + 1
           else ctx.l_unproven <- ctx.l_unproven + 1;
           {
             da_idx = lexpr ctx e;
             da_lo = lo;
             da_ext = ext;
             da_stride = am.Runtime.am_strides.(d);
             da_proven = proven;
           })
         idx)
  in
  { ap_aid = aid; ap_arr = arr; ap_dims = dims }

(* ------------------------------------------------------------------ *)
(* Float expressions                                                   *)
(* ------------------------------------------------------------------ *)

let rec lfexpr ctx (e : Spmd.fexpr) : kfexpr =
  let m = ctx.l_machine in
  match e with
  | Spmd.FConst x -> KFConst x
  | Spmd.FOfInt ie -> (
      match lexpr ctx ie with
      | IConst k -> KFConst (float_of_int k)
      | l -> KFOfInt l)
  | Spmd.FScalar s ->
      let fallback =
        match Hashtbl.find_opt ctx.l_islots s with
        | Some slot -> FbSlot (slot, s)
        | None -> (
            match Hashtbl.find_opt ctx.l_genv s with
            | Some v -> FbConst (float_of_int v)
            | None -> FbUnbound s)
      in
      KFScalar { slot = Hashtbl.find_opt ctx.l_fslots s; fallback }
  | Spmd.FLoad { arr; idx; access } ->
      KFLoad
        {
          ap = laccess ctx arr idx;
          aname = access_name access;
          checked = access = Spmd.Checked;
          flop = m.Machine.flop_time;
          check = m.Machine.check_time;
        }
  | Spmd.FNeg a -> KFNeg (lfexpr ctx a)
  | Spmd.FBin (op, a, b) ->
      KFBin { op; a = lfexpr ctx a; b = lfexpr ctx b; flop = m.Machine.flop_time }
  | Spmd.FIntrin (f, args) ->
      KFIntrin
        { name = f; args = List.map (lfexpr ctx) args; flop = m.Machine.flop_time }

let rec lfcond ctx (c : Spmd.fcond) : kfcond =
  match c with
  | Spmd.FCmp (a, op, b) -> KFCmp (op, lfexpr ctx a, lfexpr ctx b)
  | Spmd.FAnd (a, b) -> KFAnd (lfcond ctx a, lfcond ctx b)
  | Spmd.FOr (a, b) -> KFOr (lfcond ctx a, lfcond ctx b)
  | Spmd.FNot a -> KFNot (lfcond ctx a)

(* ------------------------------------------------------------------ *)
(* Statements                                                          *)
(* ------------------------------------------------------------------ *)

let rec lstmt ctx (s : Spmd.stmt) : kstmt list =
  let m = ctx.l_machine in
  match s with
  | Spmd.Comment _ -> []
  | Spmd.For { var; lo; hi; step; body } ->
      (* bounds and step before the loop variable's slot (see the header) *)
      let llo = lexpr ctx lo and lhi = lexpr ctx hi in
      let lst = lexpr ctx step in
      let slot = islot ctx var in
      (* bind the variable's interval for the body: when the body runs, the
         loop counter lies between the lower bound's minimum and the upper
         bound's maximum (steps are positive at runtime) *)
      let ivlo = interval ctx lo and ivhi = interval ctx hi in
      let saved = Hashtbl.find_opt ctx.l_ranges var in
      Hashtbl.replace ctx.l_ranges var
        { Iset.Codegen.ilo = ivlo.Iset.Codegen.ilo; ihi = ivhi.Iset.Codegen.ihi };
      let body = lstmts ctx body in
      (match saved with
      | Some iv -> Hashtbl.replace ctx.l_ranges var iv
      | None -> Hashtbl.remove ctx.l_ranges var);
      [
        KFor
          { slot; var; lo = llo; hi = lhi; step = lst; body; loopt = m.Machine.loop_time };
      ]
  | Spmd.If (c, body) ->
      let cond = lcond ctx c in
      [ KIf { cond; body = lstmts ctx body; guard = m.Machine.guard_time } ]
  | Spmd.FIf (c, t, e) ->
      let cond = lfcond ctx c in
      [
        KFIf
          {
            cond;
            then_ = lstmts ctx t;
            else_ = lstmts ctx e;
            guard = m.Machine.guard_time;
          };
      ]
  | Spmd.SetScalar (name, v) ->
      let value = lfexpr ctx v in
      let slot = fslot ctx name in
      [ KSetScalar { slot; value; flop = m.Machine.flop_time } ]
  | Spmd.Store { arr; idx; value; access } ->
      let ap = laccess ctx arr idx in
      let value = lfexpr ctx value in
      [
        KStore
          { ap; value; access; flop = m.Machine.flop_time; check = m.Machine.check_time };
      ]
  | Spmd.Pack { event; arr; idx } ->
      [ KPack { event; arr; ap = laccess ctx arr idx } ]
  | Spmd.Send { event; dest } ->
      [
        KSend
          {
            event;
            dest = List.map (lexpr ctx) dest;
            inplace = Hashtbl.mem ctx.l_inplace event;
            rect = Hashtbl.mem ctx.l_rect event;
          };
      ]
  | Spmd.Recv { event; src } ->
      [
        KRecv
          {
            event;
            src = List.map (lexpr ctx) src;
            recv_o = m.Machine.recv_overhead;
            unpack = m.Machine.unpack_time;
          };
      ]
  | Spmd.Reduce { scalar; op } ->
      if Hashtbl.mem ctx.l_arrays scalar then [ KReduceArr { name = scalar; op } ]
      else
        let slot = fslot ctx scalar in
        [ KReduceScalar { slot; op } ]
  | Spmd.Call f ->
      if Hashtbl.mem ctx.l_subs f then [ KCall f ] else [ KUnknownSub f ]

and lstmts ctx body = List.concat_map (lstmt ctx) body

(* ------------------------------------------------------------------ *)
(* Whole-program lowering                                              *)
(* ------------------------------------------------------------------ *)

let lower ?(machine = Machine.default) ~genv ~extents ~arrays ~ameta
    (prog : Spmd.program) : kernel =
  let inplace = Hashtbl.create 8 and rect = Hashtbl.create 8 in
  List.iter
    (fun (e : Spmd.event_info) ->
      if e.Spmd.ev_inplace then Hashtbl.replace inplace e.Spmd.ev_id ();
      if e.Spmd.ev_rect then Hashtbl.replace rect e.Spmd.ev_id ())
    prog.Spmd.events;
  let subs = Hashtbl.create 8 in
  List.iter (fun (name, _) -> Hashtbl.replace subs name ()) prog.Spmd.subs;
  let ctx =
    {
      l_genv = genv;
      l_machine = machine;
      l_islots = Hashtbl.create 32;
      l_nint = 0;
      l_fslots = Hashtbl.create 16;
      l_nfloat = 0;
      l_arrays = arrays;
      l_ameta = ameta;
      l_inplace = inplace;
      l_rect = rect;
      l_subs = subs;
      l_ranges = Hashtbl.create 16;
      l_proven = 0;
      l_unproven = 0;
    }
  in
  (* the fixed preallocation order (see the header) *)
  let ndim = List.length prog.Spmd.proc_dims in
  let m_slots =
    Array.init ndim (fun k -> islot ctx (Printf.sprintf "m$%d" (k + 1)))
  in
  let vm_slots =
    Array.init ndim (fun k -> islot ctx (Printf.sprintf "vm$%d" (k + 1)))
  in
  List.iter (fun s -> ignore (fslot ctx s)) prog.Spmd.scalars;
  List.iter
    (fun s -> if not (Hashtbl.mem arrays s) then ignore (fslot ctx s))
    (Spmd.assigned_scalars prog);
  (* the processor's own grid coordinates are fixed for a whole run *)
  for k = 0 to ndim - 1 do
    Hashtbl.replace ctx.l_ranges
      (Printf.sprintf "m$%d" (k + 1))
      (Iset.Codegen.itv ~lo:0 ~hi:(extents.(k) - 1) ())
  done;
  let base_ranges = Hashtbl.copy ctx.l_ranges in
  let k_main = lstmts ctx prog.Spmd.main in
  (* one kernel body per subroutine name: a later definition replaces an
     earlier one, but is lowered at the name's first position, so shadowing
     never reorders slot allocation *)
  let latest = Hashtbl.create 8 in
  List.iter (fun (name, body) -> Hashtbl.replace latest name body) prog.Spmd.subs;
  let emitted = Hashtbl.create 8 in
  let k_subs =
    List.filter_map
      (fun (name, _) ->
        if Hashtbl.mem emitted name then None
        else begin
          Hashtbl.replace emitted name ();
          (* subroutines are lowered outside any loop context: only the base
             (grid-coordinate) interval bindings apply *)
          Hashtbl.reset ctx.l_ranges;
          Hashtbl.iter (Hashtbl.replace ctx.l_ranges) base_ranges;
          Some (name, lstmts ctx (Hashtbl.find latest name))
        end)
      prog.Spmd.subs
  in
  let sorted tbl =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] |> List.sort compare
  in
  (* event buffers and sparse arrays count every body, shadowed or not *)
  let nevents = ref 0 and sparse = Array.make (Array.length ameta) false in
  List.iter
    (fun (e : Spmd.event_info) -> nevents := max !nevents (e.Spmd.ev_id + 1))
    prog.Spmd.events;
  Spmd.iter_program
    (function
      | Spmd.Pack { event; _ } | Spmd.Send { event; _ } | Spmd.Recv { event; _ } ->
          nevents := max !nevents (event + 1)
      | Spmd.Reduce { scalar; _ } ->
          Array.iteri
            (fun aid am -> if am.Runtime.am_name = scalar then sparse.(aid) <- true)
            ameta
      | _ -> ())
    prog;
  {
    k_main;
    k_subs;
    k_nint = ctx.l_nint;
    k_nfloat = ctx.l_nfloat;
    k_m_slots = m_slots;
    k_vm_slots = vm_slots;
    k_islots = sorted ctx.l_islots;
    k_fslots = sorted ctx.l_fslots;
    k_nevents = !nevents;
    k_sparse = sparse;
    k_proven = ctx.l_proven;
    k_unproven = ctx.l_unproven;
  }
