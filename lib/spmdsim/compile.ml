(* The closure engine (the default behind [Exec.make ~engine:`Closure]),
   and the per-processor state both back ends of the SPMD lowering run
   over.

   The interpreter in {!Exec} re-matches the [Spmd] AST and resolves every
   name through [Hashtbl.find_opt] on every loop iteration, and keeps every
   array element in a per-processor [(int, float) Hashtbl.t]. This engine
   removes both costs:

   - {!Imp.lower} resolves the program once — integer names (loop
     variables, [m$k], [vm$k]) to slots of an [int array], replicated
     scalars to slots of a [float array], global parameters to constants —
     and this module turns each node of the resulting kernel into an OCaml
     closure over a small per-processor state record (the native engine
     prints the same kernel as OCaml source instead, {!Emit});
   - each processor's owned section of a distributed array is a dense
     [float array] block, addressed through per-dimension ownership tables
     built at setup from the layout descriptors — exact for block, cyclic
     and block-cyclic distributions under any alignment stride — with a
     small side hashtable only for received non-local (halo) values.

   The transport and scheduler are {!Runtime}'s, shared verbatim with the
   interpreter, and clock charges are issued in exactly the interpreter's
   order, so a closure-engine run produces bit-identical element values,
   clocks and message/byte/retransmit counters (the engine-differential
   property in the test suite asserts this, including under faults).

   Two deliberate semantic notes, both confined to error paths that the
   compiler never emits: a slot read of a loop variable after its loop
   exits sees the final value instead of the interpreter's unbound-name
   error, and arrays named in [Reduce] statements keep the sparse
   (hashtable) representation so the element-wise collective combines
   exactly the elements some processor has written — dense zero-initialized
   blocks could not distinguish "written 0.0" from "never written", which
   would change max/min reductions and the collective's priced element
   count. *)

open Dhpf

let errf = Runtime.errf

(* ------------------------------------------------------------------ *)
(* Per-processor storage                                                *)
(* ------------------------------------------------------------------ *)

type store = {
  st_am : Runtime.ameta;
  st_owned : bool;
      (* false: a FixedCoord layout dimension excludes this processor from
         holding any owned block *)
  st_dmaps : int array array;
      (* per data dimension: (x - lo_d) -> local index, or -1 if this
         processor does not own that coordinate *)
  st_lstride : int array;  (* per data dimension: stride into st_data *)
  st_data : float array;  (* dense owned block; [||] if sparse or unowned *)
  st_side : (int, float) Hashtbl.t;
      (* non-local values (received halos), keyed by global linear index;
         for sparse (reduction-target) arrays, all values live here *)
}

let st_sparse st = st.st_data == [||] && st.st_owned

(* decode a global linear index into the dense slot, or -1 if not owned *)
let slot_of_enc (st : store) (enc : int) : int =
  if not st.st_owned || st.st_data == [||] then -1
  else begin
    let ext = st.st_am.Runtime.am_ext in
    let nd = Array.length ext in
    let slot = ref 0 and rem = ref enc and ok = ref true in
    for d = 0 to nd - 1 do
      let u = !rem mod ext.(d) in
      rem := !rem / ext.(d);
      let l = st.st_dmaps.(d).(u) in
      if l < 0 then ok := false else slot := !slot + (l * st.st_lstride.(d))
    done;
    if !ok then !slot else -1
  end

let put_enc (st : store) enc v =
  let s = slot_of_enc st enc in
  if s >= 0 then st.st_data.(s) <- v else Hashtbl.replace st.st_side enc v

let get_enc (st : store) enc =
  let s = slot_of_enc st enc in
  if s >= 0 then st.st_data.(s)
  else match Hashtbl.find_opt st.st_side enc with Some v -> v | None -> 0.0

(* does this processor own the element at decoded coordinates? (used on the
   slow paths of sparse arrays, where there is no dense block to consult) *)
let owns_enc (st : store) enc =
  st.st_owned
  &&
  let ext = st.st_am.Runtime.am_ext in
  let nd = Array.length ext in
  let rem = ref enc and ok = ref true in
  for d = 0 to nd - 1 do
    let u = !rem mod ext.(d) in
    rem := !rem / ext.(d);
    if st.st_dmaps.(d).(u) < 0 then ok := false
  done;
  !ok

(* ------------------------------------------------------------------ *)
(* Per-processor runtime state                                          *)
(* ------------------------------------------------------------------ *)

(* a float-only record is stored flat, so [tick] updates it in place; a
   mutable float field of [rt], whose fields are mixed, would box every
   charge *)
type clock = { mutable now : float }

type rt = {
  r_pid : int;
  r_int : int array;  (* integer slots: loop vars, m$k, vm$k *)
  r_fval : float array;  (* replicated-scalar slots *)
  r_fvalid : bool array;
      (* mirrors the interpreter's fenv membership: a slot is readable as a
         scalar only after initialization (declared) or first assignment *)
  r_stores : store array;  (* indexed by array id *)
  r_packbufs : Runtime.packbuf array;  (* indexed by event id *)
  r_clock : clock;
  r_skew : float;
  r_scratch : int array;  (* index scratch for arrays of rank > 3 *)
  r_freg : float array;  (* float register file, see [cfexpr] *)
  mutable r_enc : int;  (* global linear index of the last [caddr] *)
}

let tick rt dt =
  let c = rt.r_clock in
  c.now <- c.now +. (dt *. rt.r_skew)

(* ------------------------------------------------------------------ *)
(* Shared runtime paths                                                 *)
(* ------------------------------------------------------------------ *)

(* Everything below up to the closure builders is shared with the kernels
   the native engine emits: generated source inlines the hot sequences but
   calls back here for communication, reductions, dense misses and
   failures, so halo lookups, sparse-array defaults, effects and error
   messages are one piece of code for both back ends. *)

let bad_step (rt : rt) var =
  errf "proc %d: non-positive loop step for %s" rt.r_pid var

let unbound_int (rt : rt) name =
  errf "proc %d: unbound integer name %s" rt.r_pid name

let unknown_sub (rt : rt) f = errf "proc %d: unknown subroutine %s" rt.r_pid f

let bounds_fail (am : Runtime.ameta) d x =
  let lo, hi = am.Runtime.am_bounds.(d) in
  errf "array %s: index %d outside [%d,%d] (dim %d)" am.Runtime.am_name x lo hi
    (d + 1)

(* pretty-print the subscripts of an access for an error message (cold) *)
let idx_string (am : Runtime.ameta) enc =
  let nd = Array.length am.Runtime.am_ext in
  let parts = ref [] and rem = ref enc in
  for d = 0 to nd - 1 do
    let u = !rem mod am.Runtime.am_ext.(d) in
    rem := !rem / am.Runtime.am_ext.(d);
    parts := string_of_int (u + fst am.Runtime.am_bounds.(d)) :: !parts
  done;
  String.concat "," (List.rev !parts)

let load_miss (rt : rt) aid ~aname enc =
  let st = rt.r_stores.(aid) in
  match Hashtbl.find_opt st.st_side enc with
  | Some v -> v
  | None ->
      if st_sparse st && owns_enc st enc then 0.0
      else
        errf "proc %d: %s access to non-local %s(%s) with no received value"
          rt.r_pid aname st.st_am.Runtime.am_name (idx_string st.st_am enc)

let pack_miss (rt : rt) aid enc =
  let st = rt.r_stores.(aid) in
  match Hashtbl.find_opt st.st_side enc with
  | Some v -> v
  | None ->
      if st_sparse st && owns_enc st enc then 0.0
      else
        errf "proc %d: packing non-resident element %s(%s)" rt.r_pid
          st.st_am.Runtime.am_name (idx_string st.st_am enc)

let local_store_fail (rt : rt) aid enc =
  let st = rt.r_stores.(aid) in
  errf "proc %d: Local store to non-owned %s(%s)" rt.r_pid
    st.st_am.Runtime.am_name (idx_string st.st_am enc)

type link = {
  l_tr : Runtime.transport;
  l_phys : int list -> int;
  l_arrays : (string, int) Hashtbl.t;
  l_vm_slots : int array;
}

let my_vp link (rt : rt) =
  Array.to_list (Array.map (fun s -> rt.r_int.(s)) link.l_vm_slots)

let send link (rt : rt) ~event ~inplace ~rect dest_vp =
  let pl = Runtime.packbuf_flush rt.r_packbufs.(event) in
  Runtime.send link.l_tr
    ~tick:(fun dt -> tick rt dt)
    ~get_clock:(fun () -> rt.r_clock.now)
    ~pid:rt.r_pid ~dst_pid:(link.l_phys dest_vp) ~event ~src_vp:(my_vp link rt)
    ~dst_vp:dest_vp ~inplace ~rect pl

let recv link (rt : rt) ~event ~recv_o ~unpack src_vp =
  let k = { Runtime.k_event = event; k_src = src_vp; k_dst = my_vp link rt } in
  let c = rt.r_clock in
  let t0 = c.now in
  let msg = Effect.perform (Runtime.ERecv k) in
  tick rt recv_o;
  c.now <- Float.max c.now msg.Runtime.m_arrival;
  let pl = msg.Runtime.m_payload in
  let n = Array.length pl.Runtime.pl_idx in
  if not msg.Runtime.m_contig then tick rt (float_of_int n *. unpack);
  if n > 0 then begin
    let st =
      match Hashtbl.find_opt link.l_arrays pl.Runtime.pl_arr with
      | Some aid -> rt.r_stores.(aid)
      | None -> errf "unknown array %s" pl.Runtime.pl_arr
    in
    for i = 0 to n - 1 do
      put_enc st pl.Runtime.pl_idx.(i) pl.Runtime.pl_val.(i)
    done
  end;
  Runtime.trace_recv link.l_tr ~tid:rt.r_pid ~t0 ~t1:c.now k msg

let reduce_arr_effect name op =
  ignore (Effect.perform (Runtime.ECollective (Elementwise (name, op))) : float)

let reduce_scalar (rt : rt) slot op =
  let mine = if rt.r_fvalid.(slot) then rt.r_fval.(slot) else 0.0 in
  let combined = Effect.perform (Runtime.ECollective (Scalar (op, mine))) in
  rt.r_fval.(slot) <- combined;
  rt.r_fvalid.(slot) <- true

(* ------------------------------------------------------------------ *)
(* Closures over the kernel IR                                          *)
(* ------------------------------------------------------------------ *)

type cint = rt -> int
type cstmt = rt -> unit

(* {!Imp.lower} has already folded every constant subexpression, so a
   constant operand is visible in the node shape and gets its own closure *)
let rec cexpr (e : Imp.iexpr) : cint =
  match e with
  | IConst k -> fun _ -> k
  | ISlot (slot, _) -> fun rt -> rt.r_int.(slot)
  | IUnbound s -> fun rt -> unbound_int rt s
  | IAdd (IConst x, b) ->
      let g = cexpr b in
      fun rt -> x + g rt
  | IAdd (a, IConst y) ->
      let f = cexpr a in
      fun rt -> f rt + y
  | IAdd (a, b) ->
      let f = cexpr a and g = cexpr b in
      fun rt -> f rt + g rt
  | ISub (IConst x, b) ->
      let g = cexpr b in
      fun rt -> x - g rt
  | ISub (a, IConst y) ->
      let f = cexpr a in
      fun rt -> f rt - y
  | ISub (a, b) ->
      let f = cexpr a and g = cexpr b in
      fun rt -> f rt - g rt
  | IMul (k, a) ->
      let f = cexpr a in
      fun rt -> k * f rt
  | IFloorDiv (a, k) ->
      let f = cexpr a in
      fun rt -> Iset.Lin.fdiv (f rt) k
  | ICeilDiv (a, k) ->
      let f = cexpr a in
      fun rt -> Iset.Lin.cdiv (f rt) k
  | IMax es ->
      let fs = Array.of_list (List.map cexpr es) in
      fun rt ->
        let m = ref min_int in
        for i = 0 to Array.length fs - 1 do
          m := max !m (fs.(i) rt)
        done;
        !m
  | IMin es ->
      let fs = Array.of_list (List.map cexpr es) in
      fun rt ->
        let m = ref max_int in
        for i = 0 to Array.length fs - 1 do
          m := min !m (fs.(i) rt)
        done;
        !m
  | IAlignUp (e, target, k) ->
      let fe = cexpr e and ft = cexpr target and fk = cexpr k in
      fun rt ->
        let x = fe rt in
        x + Iset.Lin.pmod (ft rt - x) (fk rt)

let rec ccond (c : Imp.icond) : rt -> bool =
  match c with
  | BConst b -> fun _ -> b
  | BGeq0 e ->
      let f = cexpr e in
      fun rt -> f rt >= 0
  | BEq0 e ->
      let f = cexpr e in
      fun rt -> f rt = 0
  | BDivides (k, e) ->
      let f = cexpr e in
      fun rt -> Iset.Lin.pmod (f rt) k = 0
  | BAnd cs ->
      let fs = Array.of_list (List.map ccond cs) in
      fun rt ->
        let i = ref 0 in
        while !i < Array.length fs && fs.(!i) rt do
          incr i
        done;
        !i = Array.length fs
  | BOr cs ->
      let fs = Array.of_list (List.map ccond cs) in
      fun rt ->
        let i = ref 0 in
        while !i < Array.length fs && not (fs.(!i) rt) do
          incr i
        done;
        !i < Array.length fs
  | BNot c ->
      let f = ccond c in
      fun rt -> not (f rt)

(* One access site: evaluates the subscripts, bounds-checks every one of
   them in dimension order (the interval proofs are the emitter's business),
   returns the dense slot (or -1) and leaves the global linear index in
   [r_enc] for the miss, pack, sparse-ownership and side-table paths to
   read right after the call. Ranks 1-3 are specialized to keep subscript
   values in registers; higher ranks use the per-processor scratch buffer
   (subscript expressions are integer-only, so an access cannot re-enter
   another access mid-computation). *)
let caddr (ap : Imp.access_plan) : cint =
  let aid = ap.ap_aid and dims = ap.ap_dims in
  let nd = Array.length dims in
  let cidx = Array.map (fun (da : Imp.dim_access) -> cexpr da.da_idx) dims in
  let lo d = dims.(d).da_lo and ext d = dims.(d).da_ext in
  let str d = dims.(d).da_stride in
  let fail rt d x = bounds_fail rt.r_stores.(aid).st_am d x in
  match nd with
  | 1 ->
      let i0 = cidx.(0) and lo0 = lo 0 and e0 = ext 0 in
      fun rt ->
        let x0 = i0 rt in
        let u0 = x0 - lo0 in
        if u0 < 0 || u0 >= e0 then fail rt 0 x0;
        rt.r_enc <- u0;
        let st = rt.r_stores.(aid) in
        if st.st_owned && st.st_data != [||] then st.st_dmaps.(0).(u0) else -1
  | 2 ->
      let i0 = cidx.(0) and i1 = cidx.(1) in
      let lo0 = lo 0 and lo1 = lo 1 in
      let e0 = ext 0 and e1 = ext 1 in
      let s1 = str 1 in
      fun rt ->
        let x0 = i0 rt in
        let x1 = i1 rt in
        let u0 = x0 - lo0 in
        if u0 < 0 || u0 >= e0 then fail rt 0 x0;
        let u1 = x1 - lo1 in
        if u1 < 0 || u1 >= e1 then fail rt 1 x1;
        rt.r_enc <- u0 + (u1 * s1);
        let st = rt.r_stores.(aid) in
        if st.st_owned && st.st_data != [||] then begin
          let l0 = st.st_dmaps.(0).(u0) and l1 = st.st_dmaps.(1).(u1) in
          if l0 >= 0 && l1 >= 0 then l0 + (l1 * st.st_lstride.(1)) else -1
        end
        else -1
  | 3 ->
      let i0 = cidx.(0) and i1 = cidx.(1) and i2 = cidx.(2) in
      let lo0 = lo 0 and lo1 = lo 1 and lo2 = lo 2 in
      let e0 = ext 0 and e1 = ext 1 and e2 = ext 2 in
      let s1 = str 1 and s2 = str 2 in
      fun rt ->
        let x0 = i0 rt in
        let x1 = i1 rt in
        let x2 = i2 rt in
        let u0 = x0 - lo0 in
        if u0 < 0 || u0 >= e0 then fail rt 0 x0;
        let u1 = x1 - lo1 in
        if u1 < 0 || u1 >= e1 then fail rt 1 x1;
        let u2 = x2 - lo2 in
        if u2 < 0 || u2 >= e2 then fail rt 2 x2;
        rt.r_enc <- u0 + (u1 * s1) + (u2 * s2);
        let st = rt.r_stores.(aid) in
        if st.st_owned && st.st_data != [||] then begin
          let l0 = st.st_dmaps.(0).(u0)
          and l1 = st.st_dmaps.(1).(u1)
          and l2 = st.st_dmaps.(2).(u2) in
          if l0 >= 0 && l1 >= 0 && l2 >= 0 then
            l0 + (l1 * st.st_lstride.(1)) + (l2 * st.st_lstride.(2))
          else -1
        end
        else -1
  | _ ->
      fun rt ->
        let u = rt.r_scratch in
        for d = 0 to nd - 1 do
          let x = cidx.(d) rt in
          let v = x - lo d in
          if v < 0 || v >= ext d then fail rt d x;
          u.(d) <- v
        done;
        let st = rt.r_stores.(aid) in
        let enc = ref 0 in
        for d = 0 to nd - 1 do
          enc := !enc + (u.(d) * str d)
        done;
        rt.r_enc <- !enc;
        if st.st_owned && st.st_data != [||] then begin
          let s = ref 0 and ok = ref true in
          for d = 0 to nd - 1 do
            let l = st.st_dmaps.(d).(u.(d)) in
            if l < 0 then ok := false else s := !s + (l * st.st_lstride.(d))
          done;
          if !ok then !s else -1
        end
        else -1

(* Float expressions evaluate into the per-processor register file
   [r_freg], never through a returned (boxed) float: the node at depth [d]
   writes register [d]; a binary node evaluates its left operand into [d]
   and its right into [d + 1], and an intrinsic its arguments into
   [d .. d + n - 1]. {!Imp.fregs} sizes the file. Clock charges keep the
   interpreter's order: a load charges the flop, addresses, then charges
   the check; a binary node evaluates both operands, then charges; an
   intrinsic charges, then evaluates its arguments in order. *)
let rec cfexpr d (e : Imp.kfexpr) : cstmt =
  match e with
  | KFConst x -> fun rt -> rt.r_freg.(d) <- x
  | KFOfInt ie ->
      let f = cexpr ie in
      fun rt -> rt.r_freg.(d) <- float_of_int (f rt)
  | KFScalar { slot; fallback } -> (
      (* an uninitialized or absent scalar falls back to the integer
         environment, as the interpreter's fenv-then-ienv lookup does *)
      let fallback : cstmt =
        match fallback with
        | FbSlot (s, _) -> fun rt -> rt.r_freg.(d) <- float_of_int rt.r_int.(s)
        | FbConst x -> fun rt -> rt.r_freg.(d) <- x
        | FbUnbound s -> fun rt -> unbound_int rt s
      in
      match slot with
      | Some slot ->
          fun rt ->
            if rt.r_fvalid.(slot) then rt.r_freg.(d) <- rt.r_fval.(slot)
            else fallback rt
      | None -> fallback)
  | KFLoad { ap; aname; checked; flop; check } ->
      let aid = ap.ap_aid and addr = caddr ap in
      if checked then fun rt ->
        tick rt flop;
        let s = addr rt in
        tick rt check;
        rt.r_freg.(d) <-
          (if s >= 0 then rt.r_stores.(aid).st_data.(s)
           else load_miss rt aid ~aname rt.r_enc)
      else fun rt ->
        tick rt flop;
        let s = addr rt in
        rt.r_freg.(d) <-
          (if s >= 0 then rt.r_stores.(aid).st_data.(s)
           else load_miss rt aid ~aname rt.r_enc)
  | KFNeg a ->
      let f = cfexpr d a in
      fun rt ->
        f rt;
        rt.r_freg.(d) <- -.rt.r_freg.(d)
  | KFBin { op; a; b; flop } -> (
      let fa = cfexpr d a and fb = cfexpr (d + 1) b in
      match op with
      | Hpf.Ast.Add ->
          fun rt ->
            fa rt;
            fb rt;
            tick rt flop;
            let r = rt.r_freg in
            r.(d) <- r.(d) +. r.(d + 1)
      | Hpf.Ast.Sub ->
          fun rt ->
            fa rt;
            fb rt;
            tick rt flop;
            let r = rt.r_freg in
            r.(d) <- r.(d) -. r.(d + 1)
      | Hpf.Ast.Mul ->
          fun rt ->
            fa rt;
            fb rt;
            tick rt flop;
            let r = rt.r_freg in
            r.(d) <- r.(d) *. r.(d + 1)
      | Hpf.Ast.Div ->
          fun rt ->
            fa rt;
            fb rt;
            tick rt flop;
            let r = rt.r_freg in
            r.(d) <- r.(d) /. r.(d + 1))
  | KFIntrin { fn; args; flop } -> (
      let cargs = Array.of_list (List.mapi (fun i a -> cfexpr (d + i) a) args) in
      let eval rt =
        tick rt flop;
        for i = 0 to Array.length cargs - 1 do
          cargs.(i) rt
        done
      in
      (* the bodies are {!Serial.intrinsic}'s, case for case *)
      match fn with
      | Abs ->
          fun rt ->
            eval rt;
            let r = rt.r_freg in
            r.(d) <- Float.abs r.(d)
      | Sqrt ->
          fun rt ->
            eval rt;
            let r = rt.r_freg in
            r.(d) <- sqrt r.(d)
      | Exp ->
          fun rt ->
            eval rt;
            let r = rt.r_freg in
            r.(d) <- exp r.(d)
      | Log ->
          fun rt ->
            eval rt;
            let r = rt.r_freg in
            r.(d) <- log r.(d)
      | Sin ->
          fun rt ->
            eval rt;
            let r = rt.r_freg in
            r.(d) <- sin r.(d)
      | Cos ->
          fun rt ->
            eval rt;
            let r = rt.r_freg in
            r.(d) <- cos r.(d)
      | Float -> eval (* float(x) is x, already in register [d] *)
      | Max ->
          fun rt ->
            eval rt;
            let r = rt.r_freg in
            r.(d) <- Float.max r.(d) r.(d + 1)
      | Min ->
          fun rt ->
            eval rt;
            let r = rt.r_freg in
            r.(d) <- Float.min r.(d) r.(d + 1)
      | Mod ->
          fun rt ->
            eval rt;
            let r = rt.r_freg in
            r.(d) <- Float.rem r.(d) r.(d + 1)
      | Sign ->
          fun rt ->
            eval rt;
            let r = rt.r_freg in
            let a = Float.abs r.(d) in
            r.(d) <- (if r.(d + 1) >= 0.0 then a else -.a)
      | Unknown (name, n) ->
          fun rt ->
            eval rt;
            ignore
              (Serial.intrinsic name (List.init n (fun i -> rt.r_freg.(d + i)))
                : float))

(* a float comparison evaluates its operands into registers 0 and 1 *)
let rec cfcond (c : Imp.kfcond) : rt -> bool =
  match c with
  | KFCmp (op, a, b) -> (
      let fa = cfexpr 0 a and fb = cfexpr 1 b in
      let operands rt =
        fa rt;
        fb rt;
        rt.r_freg
      in
      match op with
      | Hpf.Ast.Lt ->
          fun rt ->
            let r = operands rt in
            r.(0) < r.(1)
      | Hpf.Ast.Le ->
          fun rt ->
            let r = operands rt in
            r.(0) <= r.(1)
      | Hpf.Ast.Gt ->
          fun rt ->
            let r = operands rt in
            r.(0) > r.(1)
      | Hpf.Ast.Ge ->
          fun rt ->
            let r = operands rt in
            r.(0) >= r.(1)
      | Hpf.Ast.Eq ->
          fun rt ->
            let r = operands rt in
            r.(0) = r.(1)
      | Hpf.Ast.Ne ->
          fun rt ->
            let r = operands rt in
            r.(0) <> r.(1))
  | KFAnd (a, b) ->
      let ca = cfcond a and cb = cfcond b in
      fun rt -> ca rt && cb rt
  | KFOr (a, b) ->
      let ca = cfcond a and cb = cfcond b in
      fun rt -> ca rt || cb rt
  | KFNot a ->
      let ca = cfcond a in
      fun rt -> not (ca rt)

let seq (fs : cstmt list) : cstmt =
  match fs with
  | [] -> fun _ -> ()
  | [ a ] -> a
  | [ a; b ] ->
      fun rt ->
        a rt;
        b rt
  | [ a; b; c ] ->
      fun rt ->
        a rt;
        b rt;
        c rt
  | l ->
      let a = Array.of_list l in
      fun rt ->
        for i = 0 to Array.length a - 1 do
          a.(i) rt
        done

(* [subs]: one lazy per subroutine name, so mutually recursive calls
   reference each other's closures by name *)
let rec cstmt link (subs : (string, cstmt Lazy.t) Hashtbl.t) (s : Imp.kstmt) :
    cstmt =
  match s with
  | KFor { slot; var; lo; hi; step; body; loopt } -> (
      let flo = cexpr lo and fhi = cexpr hi in
      let cbody = cstmts link subs body in
      match step with
      | IConst 1 ->
          fun rt ->
            let h = fhi rt in
            let i = ref (flo rt) in
            while !i <= h do
              rt.r_int.(slot) <- !i;
              tick rt loopt;
              cbody rt;
              incr i
            done
      | _ ->
          let fst = cexpr step in
          fun rt ->
            let l = flo rt and h = fhi rt in
            let st = fst rt in
            if st <= 0 then bad_step rt var;
            let i = ref l in
            while !i <= h do
              rt.r_int.(slot) <- !i;
              tick rt loopt;
              cbody rt;
              i := !i + st
            done)
  | KIf { cond; body; guard } ->
      let cc = ccond cond in
      let cbody = cstmts link subs body in
      fun rt ->
        tick rt guard;
        if cc rt then cbody rt
  | KFIf { cond; then_; else_; guard } ->
      let cc = cfcond cond in
      let ct = cstmts link subs then_ and ce = cstmts link subs else_ in
      fun rt ->
        tick rt guard;
        if cc rt then ct rt else ce rt
  | KSetScalar { slot; value; flop } ->
      let cv = cfexpr 0 value in
      fun rt ->
        cv rt;
        tick rt flop;
        rt.r_fval.(slot) <- rt.r_freg.(0);
        rt.r_fvalid.(slot) <- true
  | KStore { ap; value; access; flop; check } -> (
      let aid = ap.ap_aid and addr = caddr ap in
      let cv = cfexpr 0 value in
      (* the value is in register 0, the global index in [r_enc] *)
      let put rt s =
        if s >= 0 then rt.r_stores.(aid).st_data.(s) <- rt.r_freg.(0)
        else Hashtbl.replace rt.r_stores.(aid).st_side rt.r_enc rt.r_freg.(0)
      in
      match access with
      | Spmd.Checked ->
          fun rt ->
            cv rt;
            tick rt flop;
            let s = addr rt in
            tick rt check;
            put rt s
      | Spmd.Local ->
          fun rt ->
            cv rt;
            tick rt flop;
            let s = addr rt in
            let st = rt.r_stores.(aid) in
            let owned = if st_sparse st then owns_enc st rt.r_enc else s >= 0 in
            if not owned then local_store_fail rt aid rt.r_enc;
            put rt s
      | Spmd.Overlay | Spmd.Global ->
          fun rt ->
            cv rt;
            tick rt flop;
            put rt (addr rt))
  | KPack { event; arr; ap } ->
      let aid = ap.ap_aid and addr = caddr ap in
      fun rt ->
        let s = addr rt in
        let enc = rt.r_enc in
        let v =
          if s >= 0 then rt.r_stores.(aid).st_data.(s) else pack_miss rt aid enc
        in
        Runtime.packbuf_push rt.r_packbufs.(event) ~arr enc v
  | KSend { event; dest; inplace; rect } ->
      let cdest = List.map cexpr dest in
      fun rt -> send link rt ~event ~inplace ~rect (List.map (fun f -> f rt) cdest)
  | KRecv { event; src; recv_o; unpack } ->
      let csrc = List.map cexpr src in
      fun rt -> recv link rt ~event ~recv_o ~unpack (List.map (fun f -> f rt) csrc)
  | KReduceArr { name; op } -> fun _ -> reduce_arr_effect name op
  | KReduceScalar { slot; op } -> fun rt -> reduce_scalar rt slot op
  | KCall f ->
      let sub = Hashtbl.find subs f in
      fun rt -> (Lazy.force sub) rt
  | KUnknownSub f -> fun rt -> unknown_sub rt f

and cstmts link subs body = seq (List.map (cstmt link subs) body)

(* ------------------------------------------------------------------ *)
(* Setup: dense storage construction                                    *)
(* ------------------------------------------------------------------ *)

(* build one processor's storage for one array: evaluate the ownership
   formula of every layout dimension over the full extent of its data
   dimension once, tabulating (global coordinate -> local index | -1) *)
let build_store ~geval ~(su : Runtime.setup) ~sparse pid
    (am : Runtime.ameta) (layout : Spmd.array_layout option) : store =
  let nd = Array.length am.Runtime.am_ext in
  let owned_dim = Array.init nd (fun d -> Array.make am.Runtime.am_ext.(d) true) in
  let owned = ref true in
  (match layout with
  | None -> ()
  | Some la ->
      List.iteri
        (fun k (dl : Spmd.dim_layout) ->
          let c = su.Runtime.su_coords.(pid).(k) in
          match dl.Spmd.source with
          | Spmd.AnyCoord -> ()
          | Spmd.FixedCoord e -> if geval e <> c then owned := false
          | Spmd.FromData { data_dim; _ } ->
              let lo = fst am.Runtime.am_bounds.(data_dim) in
              let scratch = Array.make nd 0 in
              for u = 0 to am.Runtime.am_ext.(data_dim) - 1 do
                scratch.(data_dim) <- lo + u;
                match Runtime.owner_coord ~eval:geval dl scratch with
                | None -> ()
                | Some o ->
                    if o <> c then owned_dim.(data_dim).(u) <- false
              done)
        la.Spmd.la_dims);
  let dmaps =
    Array.init nd (fun d ->
        let next = ref 0 in
        Array.map
          (fun own ->
            if own then begin
              let l = !next in
              incr next;
              l
            end
            else -1)
          owned_dim.(d))
  in
  let nown = Array.map (fun od -> Array.fold_left (fun n b -> if b then n + 1 else n) 0 od) owned_dim in
  let lstride = Array.make nd 1 in
  for d = 1 to nd - 1 do
    lstride.(d) <- lstride.(d - 1) * nown.(d - 1)
  done;
  let size = Array.fold_left ( * ) 1 nown in
  let data =
    if sparse || not !owned || size = 0 then [||] else Array.make size 0.0
  in
  {
    st_am = am;
    st_owned = !owned;
    st_dmaps = dmaps;
    st_lstride = lstride;
    st_data = data;
    st_side = Hashtbl.create 16;
  }

(* ------------------------------------------------------------------ *)
(* The compiled simulation                                              *)
(* ------------------------------------------------------------------ *)

type csim = {
  c_prog : Spmd.program;
  c_su : Runtime.setup;
  c_tr : Runtime.transport;
  c_rts : rt array;
  c_main : cstmt;
  c_kernel : Imp.kernel;
  c_arrays : (string, int) Hashtbl.t;
  c_ameta : Runtime.ameta array;
  c_layouts : Spmd.array_layout option array;
  c_domains : int;
  mutable c_ran : bool;
}

let prepare ?(machine = Machine.default) ?faults ?(domains = Par.domains ())
    ~nprocs ?(params = []) (prog : Spmd.program) : csim =
  let su = Runtime.setup ?faults ~nprocs ~params prog in
  let geval e = Runtime.eval_genv su.Runtime.su_genv e in
  let tr = Runtime.transport_make ~machine ~faults ~nprocs:su.Runtime.su_total in
  let arrays = Hashtbl.create 16 in
  List.iteri (fun i (ad : Spmd.array_decl) -> Hashtbl.replace arrays ad.Spmd.ad_name i)
    prog.Spmd.arrays;
  let ameta =
    Array.of_list
      (List.map (fun ad -> Runtime.ameta ~eval:geval ad) prog.Spmd.arrays)
  in
  let layouts =
    Array.of_list (List.map (fun (ad : Spmd.array_decl) -> ad.Spmd.ad_layout) prog.Spmd.arrays)
  in
  let k =
    Imp.lower ~machine ~genv:su.Runtime.su_genv ~extents:su.Runtime.su_extents
      ~arrays ~ameta prog
  in
  (* per-processor state, sized by the kernel's slot counts *)
  let max_rank =
    Array.fold_left (fun n am -> max n (Array.length am.Runtime.am_ext)) 1 ameta
  in
  let rts =
    Array.init su.Runtime.su_total (fun pid ->
        let r_int = Array.make (max k.Imp.k_nint 1) 0 in
        Array.iteri (fun d s -> r_int.(s) <- su.Runtime.su_coords.(pid).(d)) k.Imp.k_m_slots;
        List.iter (fun (d, v) -> r_int.(k.Imp.k_vm_slots.(d)) <- v) su.Runtime.su_vm0.(pid);
        let r_fval = Array.make (max k.Imp.k_nfloat 1) 0.0 in
        let r_fvalid = Array.make (max k.Imp.k_nfloat 1) false in
        (* declared replicated scalars start initialized at zero, matching
           the interpreter's fenv pre-population *)
        List.iter
          (fun s -> r_fvalid.(List.assoc s k.Imp.k_fslots) <- true)
          prog.Spmd.scalars;
        let stores =
          Array.init (Array.length ameta) (fun aid ->
              build_store ~geval ~su ~sparse:k.Imp.k_sparse.(aid) pid ameta.(aid)
                layouts.(aid))
        in
        {
          r_pid = pid;
          r_int;
          r_fval;
          r_fvalid;
          r_stores = stores;
          r_packbufs =
            Array.init (max k.Imp.k_nevents 1) (fun _ -> Runtime.packbuf_create ());
          r_clock = { now = 0.0 };
          r_skew = su.Runtime.su_skew.(pid);
          r_scratch = Array.make max_rank 0;
          r_freg = Array.make (max k.Imp.k_fregs 1) 0.0;
          r_enc = 0;
        })
  in
  {
    c_prog = prog;
    c_su = su;
    c_tr = tr;
    c_rts = rts;
    c_main = (fun _ -> errf "simulation has no main installed");
    c_kernel = k;
    c_arrays = arrays;
    c_ameta = ameta;
    c_layouts = layouts;
    c_domains = domains;
    c_ran = false;
  }

let nprocs cs = cs.c_su.Runtime.su_total

let phys_of_vp cs =
  Runtime.phys_of_vp
    ~eval:(Runtime.eval_genv cs.c_su.Runtime.su_genv)
    cs.c_prog ~extents:cs.c_su.Runtime.su_extents

let link cs =
  {
    l_tr = cs.c_tr;
    l_phys = phys_of_vp cs;
    l_arrays = cs.c_arrays;
    l_vm_slots = cs.c_kernel.Imp.k_vm_slots;
  }

let make ?machine ?faults ?domains ~nprocs ?params prog : csim =
  let cs = prepare ?machine ?faults ?domains ~nprocs ?params prog in
  let link = link cs and subs = Hashtbl.create 8 in
  let k_subs = cs.c_kernel.Imp.k_subs in
  List.iter
    (fun (name, body) -> Hashtbl.replace subs name (lazy (cstmts link subs body)))
    k_subs;
  let main = cstmts link subs cs.c_kernel.Imp.k_main in
  (* force every body now, so a run never forces a lazy — racy across the
     scheduler's domains (a Call closure forces at invocation, not at
     construction, so mutual recursion still terminates) *)
  List.iter (fun (name, _) -> ignore (Lazy.force (Hashtbl.find subs name) : cstmt)) k_subs;
  { cs with c_main = main }

(* element-wise array reduction over the (sparse) side tables *)
let reduce_arr cs name (op : Spmd.reduce_op) : int =
  let aid =
    match Hashtbl.find_opt cs.c_arrays name with
    | Some a -> a
    | None -> errf "unknown array %s" name
  in
  Runtime.reduce_tables op
    (Array.map (fun rt -> rt.r_stores.(aid).st_side) cs.c_rts)

let run (cs : csim) : Runtime.stats =
  if cs.c_ran then
    errf "simulation already executed: Exec.run consumed this sim (build a fresh one with Exec.make)";
  cs.c_ran <- true;
  Runtime.sched_run ~domains:cs.c_domains
    {
      Runtime.h_nprocs = Array.length cs.c_rts;
      h_tr = cs.c_tr;
      h_clock = (fun p -> cs.c_rts.(p).r_clock.now);
      h_set_clock = (fun p t -> cs.c_rts.(p).r_clock.now <- t);
      h_body = (fun p -> cs.c_main cs.c_rts.(p));
      h_reduce_arr = reduce_arr cs;
      h_phys_of_vp = phys_of_vp cs;
    };
  Runtime.stats_of cs.c_tr
    ~proc_times:(Array.map (fun rt -> rt.r_clock.now) cs.c_rts)

(* ------------------------------------------------------------------ *)
(* Result inspection                                                    *)
(* ------------------------------------------------------------------ *)

(** Value of an array element after execution, read from its owner. *)
let get_elem cs name idx =
  let aid =
    match Hashtbl.find_opt cs.c_arrays name with
    | Some a -> a
    | None -> errf "unknown array %s" name
  in
  let pid =
    Runtime.owner_pid
      ~eval:(Runtime.eval_genv cs.c_su.Runtime.su_genv)
      cs.c_layouts.(aid) ~extents:cs.c_su.Runtime.su_extents idx
  in
  let enc = Runtime.encode cs.c_ameta.(aid) idx in
  get_enc cs.c_rts.(pid).r_stores.(aid) enc

(** Scalar value (replicated; read from processor 0). *)
let get_scalar cs name =
  match List.assoc_opt name cs.c_kernel.Imp.k_fslots with
  | Some slot when cs.c_rts.(0).r_fvalid.(slot) -> cs.c_rts.(0).r_fval.(slot)
  | _ -> errf "unknown scalar %s" name

(* ------------------------------------------------------------------ *)
(* Checkpoint capture                                                   *)
(* ------------------------------------------------------------------ *)

let transport cs = cs.c_tr
let clocks cs = Array.map (fun rt -> rt.r_clock.now) cs.c_rts
let set_clocks cs t = Array.iter (fun rt -> rt.r_clock.now <- t) cs.c_rts

let charge cs dt =
  Array.iter (fun rt -> rt.r_clock.now <- rt.r_clock.now +. dt) cs.c_rts

(* every resident element of one store as sorted (global linear index,
   value) pairs: the dense owned block enumerated through the per-dimension
   ownership tables, plus the side hashtable (halos / sparse storage) —
   the two never hold the same index, so a plain merge-and-sort suffices *)
let store_elems (st : store) : (int * float) array =
  let acc = ref [] in
  Hashtbl.iter (fun k v -> acc := (k, v) :: !acc) st.st_side;
  if st.st_owned && st.st_data != [||] then begin
    let ext = st.st_am.Runtime.am_ext in
    let nd = Array.length ext in
    let owned =
      Array.init nd (fun d ->
          let l = ref [] in
          Array.iteri
            (fun u m -> if m >= 0 then l := (u, m) :: !l)
            st.st_dmaps.(d);
          Array.of_list (List.rev !l))
    in
    let str = st.st_am.Runtime.am_strides in
    let rec go d enc slot =
      if d < 0 then acc := (enc, st.st_data.(slot)) :: !acc
      else
        Array.iter
          (fun (u, l) ->
            go (d - 1) (enc + (u * str.(d))) (slot + (l * st.st_lstride.(d))))
          owned.(d)
    in
    go (nd - 1) 0 0
  end;
  let a = Array.of_list !acc in
  Array.sort compare a;
  a

let capture (cs : csim) : Runtime.image =
  let anames =
    Hashtbl.fold (fun n aid acc -> (n, aid) :: acc) cs.c_arrays []
    |> List.sort compare
  in
  let procs =
    Array.map
      (fun rt ->
        (* the kernel's slot tables are sorted by name *)
        let ints =
          Array.of_list (List.map (fun (n, s) -> (n, rt.r_int.(s))) cs.c_kernel.Imp.k_islots)
        in
        let floats =
          List.filter_map
            (fun (n, s) -> if rt.r_fvalid.(s) then Some (n, rt.r_fval.(s)) else None)
            cs.c_kernel.Imp.k_fslots
          |> Array.of_list
        in
        let elems =
          List.map (fun (n, aid) -> (n, store_elems rt.r_stores.(aid))) anames
          |> Array.of_list
        in
        let staged = ref [] in
        Array.iteri
          (fun ev buf ->
            let pl = Runtime.packbuf_peek buf in
            if Array.length pl.Runtime.pl_idx > 0 then
              staged := (ev, pl) :: !staged)
          rt.r_packbufs;
        {
          Runtime.pi_clock = rt.r_clock.now;
          pi_ints = ints;
          pi_floats = floats;
          pi_elems = elems;
          pi_staged = Array.of_list (List.rev !staged);
        })
      cs.c_rts
  in
  Runtime.capture cs.c_tr procs
