(** SPMD code generation: hierarchical loop partitioning (§3.1), placement
    and synthesis of communication (§3.2), loop splitting (§3.4), and the
    virtual-processor loops of §4.2.

    The generator works scope by scope, as dHPF does: for each loop it
    computes one iteration-demand set per statement group (including
    communication events placed inside the loop, which is what makes
    pipelined patterns come out right), synthesizes bounds and guards with
    {!Iset.Codegen}, and recurses. *)

open Iset

exception Unsupported = Cp.Unsupported

let errf fmt = Fmt.kstr (fun s -> raise (Unsupported s)) fmt

type options = {
  opt_vectorize : bool;  (** hoist communication out of loops (dependence permitting) *)
  opt_coalesce : bool;  (** merge communication for references to one array *)
  opt_split : bool;  (** non-local index-set splitting (Figure 4) *)
  opt_inplace : bool;  (** §3.3 contiguity recognition *)
}

let default_options =
  { opt_vectorize = true; opt_coalesce = true; opt_split = true; opt_inplace = true }

(* ------------------------------------------------------------------ *)
(* Set plumbing helpers                                                *)
(* ------------------------------------------------------------------ *)

(* Keep the first k input variables of a set; existentialize the rest. *)
let project_onto_prefix (r : Rel.t) k : Rel.t =
  let ar = Rel.in_arity r in
  assert (k <= ar);
  let conjs =
    List.map
      (fun c ->
        let base = Conj.n_ex c in
        let f = function
          | Var.In i when i >= k -> Var.Ex (base + i - k)
          | v -> v
        in
        Conj.make ~n_ex:(base + ar - k)
          (List.map (Constr.map_lin (Lin.map_vars f)) (Conj.constraints c)))
      (Rel.conjuncts r)
  in
  Rel.simplify
    (Rel.set ~names:(Array.sub (Rel.in_names r) 0 k) ~ar:k conjs)

(* Turn a k-var prefix set into a 1-var set over variable k-1, with the
   outer variables becoming parameters named after themselves (they are
   bound by the enclosing generated loops at run time). *)
let scope_set (r : Rel.t) : Rel.t =
  let k = Rel.in_arity r in
  assert (k >= 1);
  let names = Rel.in_names r in
  let f = function
    | Var.In i when i = k - 1 -> Var.In 0
    | Var.In i -> Var.Param names.(i)
    | v -> v
  in
  Rel.simplify
    (Rel.set ~names:[| names.(k - 1) |] ~ar:1
       (List.map (fun c -> Conj.map_lin (Lin.map_vars f) c) (Rel.conjuncts r)))

(* Bind the first [np] variables of a set to parameters with the given
   names; remaining variables shift down. *)
let bind_prefix_params (pnames : string array) (r : Rel.t) : Rel.t =
  let np = Array.length pnames in
  let ar = Rel.in_arity r in
  let f = function
    | Var.In i when i < np -> Var.Param pnames.(i)
    | Var.In i -> Var.In (i - np)
    | v -> v
  in
  Rel.simplify
    (Rel.set
       ~names:(Array.sub (Rel.in_names r) np (ar - np))
       ~ar:(ar - np)
       (List.map (fun c -> Conj.map_lin (Lin.map_vars f) c) (Rel.conjuncts r)))

let rename_vars names (r : Rel.t) = Rel.with_names ~in_names:names r

(* ------------------------------------------------------------------ *)
(* Expression conversion                                               *)
(* ------------------------------------------------------------------ *)

(* iexpr -> runtime expression; loop variables and parameters both become
   EVar and are resolved by the interpreter's scope. *)
let rec rt_iexpr (e : Hpf.Ast.iexpr) : Spmd.expr =
  let module C = Codegen in
  match e with
  | INum k -> C.EInt k
  | IName s -> C.EVar s
  | IAdd (a, b) -> C.eadd (rt_iexpr a) (rt_iexpr b)
  | ISub (a, b) -> C.esub (rt_iexpr a) (rt_iexpr b)
  | INeg a -> C.esub (C.EInt 0) (rt_iexpr a)
  | IMul (a, b) -> (
      match (rt_iexpr a, rt_iexpr b) with
      | C.EInt x, eb -> C.emul x eb
      | ea, C.EInt y -> C.emul y ea
      | _ -> errf "non-affine multiplication: %a" Hpf.Ast.pp_iexpr e)
  | IDiv (a, b) -> (
      match rt_iexpr b with
      | C.EInt k when k > 0 -> C.efloordiv (rt_iexpr a) k
      | _ -> errf "division in subscript: %a" Hpf.Ast.pp_iexpr e)
  | ICall (f, _) -> errf "call to %s in integer expression" f

let rec rt_fexpr ~(access_of : Hpf.Ast.ref_ -> Spmd.access) (e : Hpf.Ast.fexpr) :
    Spmd.fexpr =
  match e with
  | FNum x -> Spmd.FConst x
  | FInt ie -> Spmd.FOfInt (rt_iexpr ie)
  | FRef (n, []) -> Spmd.FScalar n
  | FRef (n, idx) ->
      Spmd.FLoad { arr = n; idx = List.map rt_iexpr idx; access = access_of (n, idx) }
  | FNeg a -> Spmd.FNeg (rt_fexpr ~access_of a)
  | FBin (op, a, b) -> Spmd.FBin (op, rt_fexpr ~access_of a, rt_fexpr ~access_of b)
  | FCall (f, args) -> Spmd.FIntrin (f, List.map (rt_fexpr ~access_of) args)

let rec rt_fcond ~access_of (c : Hpf.Ast.cond) : Spmd.fcond =
  match c with
  | CCmp (a, op, b) -> Spmd.FCmp (rt_fexpr ~access_of a, op, rt_fexpr ~access_of b)
  | CAnd (a, b) -> Spmd.FAnd (rt_fcond ~access_of a, rt_fcond ~access_of b)
  | COr (a, b) -> Spmd.FOr (rt_fcond ~access_of a, rt_fcond ~access_of b)
  | CNot a -> Spmd.FNot (rt_fcond ~access_of a)

(* ------------------------------------------------------------------ *)
(* Analysis tree                                                       *)
(* ------------------------------------------------------------------ *)

type assign_info = {
  ai_lhs : Hpf.Ast.ref_;
  ai_rhs : Hpf.Ast.fexpr;
  ai_line : int;
  ai_nest : Cp.loop list;  (** enclosing loops, outermost first *)
  mutable ai_cpmap : Rel.t;  (** vp -> iterations *)
  mutable ai_cpiter : Rel.t;  (** iterations of myid (vm-parameterized) *)
  ai_reduction : Cp.reduction option;
  ai_replicated : bool;  (** CP assigns every iteration to every processor *)
  mutable ai_nl_reads : Hpf.Ast.ref_ list;  (** refs needing communication *)
  mutable ai_write_nl : bool;  (** lhs write can be non-local *)
}

type event = {
  mutable ev_id : int;
      (** unit-local during analysis; renumbered to the global sequential
          order before emission (see {!compile}) *)
  ev_array : string;
  ev_kind : [ `Read | `Write ];
  ev_level_vars : string list;  (** loops enclosing the placement point *)
  ev_maps : Comm.maps;
  ev_active : Vp.active option;  (** computed when cyclic VP dims exist *)
  ev_inplace : Inplace.result;
  ev_desc : string;
}

type node =
  | NAssign of assign_info
  | NLoop of Cp.loop * node list
  | NIf of Hpf.Ast.cond * node list * node list * Rel.t option
      (** demand CP iter set of the guard (union of children), lazily set *)
  | NCall of string
  | NCommSend of event
  | NCommRecv of event
  | NReduce of string * Spmd.reduce_op

(* ------------------------------------------------------------------ *)
(* Pass A: statement analysis                                          *)
(* ------------------------------------------------------------------ *)

type gctx = {
  ctx : Layout.ctx;
  opts : options;
  mutable events : event list;
  mutable next_event : int;
  phase : Phase.t;
  comm_reads : (int * Hpf.Ast.ref_, unit) Hashtbl.t;
      (** pre-placement non-local-read classification, per unit (placement
          consumes [ai_nl_reads]; emission needs the original) *)
  comm_write : (int, unit) Hashtbl.t;  (** likewise for non-local writes *)
  mutable splits : Split.sections list;
      (** the sections of every nest split so far, latest first *)
  iters : (Cp.loop list, Rel.t) Hashtbl.t;  (** {!iter_space} per nest *)
  refmaps : (Cp.loop list * Hpf.Ast.ref_, Rel.t) Hashtbl.t;
      (** {!restricted_refmap} per nest and reference *)
}

(* Built once per unit: a repeat would convert the same AST again and
   re-intern the result before the relation memo could answer. *)
let cached tbl k f =
  match Hashtbl.find_opt tbl k with
  | Some v -> v
  | None ->
      let v = f () in
      Hashtbl.add tbl k v;
      v

let iter_space g nest = cached g.iters nest (fun () -> Cp.iter_space g.ctx nest)

(* RefMap of [r] restricted to its nest's iteration space *)
let restricted_refmap g nest r =
  cached g.refmaps (nest, r) (fun () ->
      Rel.restrict_domain (Cp.refmap g.ctx nest r) (iter_space g nest))

let is_distributed g name = Layout.distributed g.ctx name

(* CP references of an assignment: explicit on_home, else owner-computes on
   the LHS; reductions partition on the data being reduced. *)
let cp_refs_of g (lhs : Hpf.Ast.ref_) on_home reduction =
  match on_home with
  | Some refs -> refs
  | None -> (
      match reduction with
      | Some (r : Cp.reduction) -> (
          match
            List.find_opt (fun (n, _) -> is_distributed g n) (Cp.refs_of_fexpr r.red_rhs)
          with
          | Some r -> [ r ]
          | None -> [])
      | None ->
          let name, idx = lhs in
          if idx <> [] && is_distributed g name then [ lhs ] else [])

let rec analyze_stmt g nest (s : Hpf.Ast.stmt) : node =
  match s with
  | Hpf.Ast.SDo { var; lo; hi; step; body } ->
      let l = { Cp.lvar = var; llo = lo; lhi = hi; lstep = step } in
      NLoop (l, List.map (analyze_stmt g (nest @ [ l ])) body)
  | Hpf.Ast.SIf { cond; then_; else_ } ->
      NIf
        ( cond,
          List.map (analyze_stmt g nest) then_,
          List.map (analyze_stmt g nest) else_,
          None )
  | Hpf.Ast.SCall (f, _) ->
      (* a call executes on every processor (replicated demand); the callee
         body partitions its own loops *)
      ignore nest;
      NCall f
  | Hpf.Ast.SAssign { lhs; rhs; on_home; line } ->
      Phase.time g.phase "partitioning computation" @@ fun () ->
      let reduction =
        match Cp.reduction_of lhs rhs with
        | Some r when snd lhs <> [] && is_distributed g (fst lhs) ->
            (* array reductions are supported for replicated accumulators
               only; a distributed accumulator goes through the normal
               owner-computes + communication path *)
            ignore r;
            None
        | r -> r
      in
      let iter = iter_space g nest in
      let refs = cp_refs_of g lhs on_home reduction in
      let cpmap =
        if refs = [] then Cp.replicated_cpmap g.ctx iter
        else Cp.cpmap_of_refs g.ctx nest iter refs
      in
      let cpiter = Cp.cp_iter_set g.ctx cpmap in
      let replicated =
        refs = [] || (try Rel.equal cpiter iter with Conj.Inexact_negation -> false)
      in
      NAssign
        {
          ai_lhs = lhs;
          ai_rhs = rhs;
          ai_line = line;
          ai_nest = nest;
          ai_cpmap = cpmap;
          ai_cpiter = cpiter;
          ai_reduction = reduction;
          ai_replicated = replicated;
          ai_nl_reads = [];
          ai_write_nl = false;
        }

(* Existentialize the iteration (output) dimensions of a CPMap beyond
   depth d, so a consumer in a deeper nest contributes a CP at the
   producer's depth. *)
let proj_cpmap_depth (cpmap : Rel.t) d : Rel.t =
  let out_ar = Rel.out_arity cpmap in
  assert (d <= out_ar);
  let conjs =
    List.map
      (fun c ->
        let base = Conj.n_ex c in
        let f = function
          | Var.Out i when i >= d -> Var.Ex (base + i - d)
          | v -> v
        in
        Conj.make ~n_ex:(base + out_ar - d)
          (List.map (Constr.map_lin (Lin.map_vars f)) (Conj.constraints c)))
      (Rel.conjuncts cpmap)
  in
  Rel.simplify
    (Rel.make
       ~in_names:(Rel.in_names cpmap)
       ~out_names:(Array.sub (Rel.out_names cpmap) 0 d)
       ~in_ar:(Rel.in_arity cpmap) ~out_ar:d conjs)

(* Privatizable-scalar CPs: a non-reduction scalar assignment inside a loop
   takes the union of the CPs of the statements later in the same body that
   read the scalar (projected to the producer's nest depth); it stays
   replicated if there are none. *)
let rec fix_scalar_cps g (nodes : node list) : unit =
  let rec consumers name = function
    | NAssign ai when List.mem name (Cp.scalars_of_fexpr ai.ai_rhs) -> [ ai ]
    | NLoop (_, body) -> List.concat_map (consumers name) body
    | NIf (_, t, e, _) -> List.concat_map (consumers name) (t @ e)
    | _ -> []
  in
  let rec go = function
    | [] -> ()
    | NAssign ai :: rest
      when ai.ai_nest <> [] && snd ai.ai_lhs = [] && ai.ai_reduction = None ->
        let name = fst ai.ai_lhs in
        let d = List.length ai.ai_nest in
        let cs =
          List.concat_map (consumers name) rest
          |> List.filter (fun c -> List.length c.ai_nest >= d)
        in
        (match cs with
        | [] -> () (* replicated *)
        | c0 :: crest ->
            let u =
              List.fold_left
                (fun acc c -> Rel.union acc (proj_cpmap_depth c.ai_cpmap d))
                (proj_cpmap_depth c0.ai_cpmap d)
                crest
            in
            ai.ai_cpmap <- u;
            ai.ai_cpiter <- Cp.cp_iter_set g.ctx u);
        go rest
    | NLoop (_, body) :: rest ->
        fix_scalar_cps g body;
        go rest
    | NIf (_, t, e, _) :: rest ->
        fix_scalar_cps g t;
        fix_scalar_cps g e;
        go rest
    | _ :: rest -> go rest
  in
  go nodes

(* ------------------------------------------------------------------ *)
(* Pass B: non-local reference identification                          *)
(* ------------------------------------------------------------------ *)

(* Is the reference potentially non-local under the statement's CP?
   (Figure 3 specialized to one reference with no vectorization.) *)
let ref_is_nonlocal g ai (r : Hpf.Ast.ref_) =
  let name, _ = r in
  match Layout.layout_of g.ctx name with
  | None -> false
  | Some layout ->
      Phase.time g.phase "communication analysis" @@ fun () ->
      let rm = restricted_refmap g ai.ai_nest r in
      let accessed = Rel.apply rm ai.ai_cpiter in
      let owned = Rel.apply_point layout (Layout.my_vp_point g.ctx) in
      not (Rel.is_empty (Rel.diff accessed owned))

(* Annotate every assignment with its non-local reads and writes. *)
let rec annotate_nl g = function
  | NAssign ai ->
      let rhs = match ai.ai_reduction with Some r -> r.Cp.red_rhs | None -> ai.ai_rhs in
      let reads =
        Cp.refs_of_fexpr rhs
        |> List.filter (fun (n, _) -> is_distributed g n)
        |> List.sort_uniq compare
      in
      ai.ai_nl_reads <- List.filter (ref_is_nonlocal g ai) reads;
      let lname, lidx = ai.ai_lhs in
      ai.ai_write_nl <-
        lidx <> [] && is_distributed g lname && ref_is_nonlocal g ai ai.ai_lhs
  | NLoop (_, body) -> List.iter (annotate_nl g) body
  | NIf (cond, t, e, _) ->
      List.iter
        (fun (n, _) ->
          if is_distributed g n then
            errf "distributed array %s referenced in an IF condition" n)
        (Cp.refs_of_cond cond);
      List.iter (annotate_nl g) t;
      List.iter (annotate_nl g) e
  | NCall _ | NCommSend _ | NCommRecv _ | NReduce _ -> ()

(* ------------------------------------------------------------------ *)
(* Pass B: communication placement (vectorization) and event creation  *)
(* ------------------------------------------------------------------ *)

(* mutable placement state lives in ai_nl_reads / ai_write_nl: entries are
   consumed when an event is created for them *)

let rec pending_reads = function
  | NAssign ai -> List.map (fun r -> (ai, r)) ai.ai_nl_reads
  | NLoop (_, body) -> List.concat_map pending_reads body
  | NIf (_, t, e, _) -> List.concat_map pending_reads (t @ e)
  | _ -> []

let rec pending_writes = function
  | NAssign ai -> if ai.ai_write_nl then [ ai ] else []
  | NLoop (_, body) -> List.concat_map pending_writes body
  | NIf (_, t, e, _) -> List.concat_map pending_writes (t @ e)
  | _ -> []

(* Data touched by reference [r] of [ai], for conflict tests. *)
let data_of_ref g ai r =
  Rel.range (restricted_refmap g ai.ai_nest r)

(* Would communication for read [r] of [ai_r], placed just before this
   subtree at loop depth [depth], be stale because the subtree writes the
   same array elements within the same iteration of the enclosing loops?

   The test is the set-based dependence refinement of §3: build the
   data-flow relation D = RefMap_w o RefMap_r^-1 (write iteration ->
   read iteration touching the same element), equate the first [depth]
   loop coordinates (communication is re-executed for every iteration of
   the enclosing loops, so only same-prefix flow blocks hoisting), and ask
   whether it is empty. This is what vectorizes the Gauss pivot-row read
   out of a loop that writes the same array, and what places the
   ERLEBACHER z-sweep communication exactly one loop level in (the
   pipelined pattern). *)
let rec write_conflict g node ~depth ~(read : assign_info * Hpf.Ast.ref_) =
  let ai_r, r = read in
  let name = fst r in
  match node with
  | NAssign ai_w when fst ai_w.ai_lhs = name && snd ai_w.ai_lhs <> [] ->
      Phase.time g.phase "communication analysis" @@ fun () ->
      let rm_r = restricted_refmap g ai_r.ai_nest r in
      let rm_w = restricted_refmap g ai_w.ai_nest ai_w.ai_lhs in
      let d = Rel.compose rm_w (Rel.inverse rm_r) in
      let k = min depth (min (Rel.in_arity d) (Rel.out_arity d)) in
      let prefix_eq =
        List.init k (fun l ->
            Constr.equal_terms (Lin.var (Var.In l)) (Lin.var (Var.Out l)))
      in
      not (Rel.is_empty (Comm.add_constraints d prefix_eq))
  | NAssign _ -> false
  | NLoop (_, body) -> List.exists (fun n -> write_conflict g n ~depth ~read) body
  | NIf (_, t, e, _) -> List.exists (fun n -> write_conflict g n ~depth ~read) (t @ e)
  | _ -> false

let rec read_conflict g node ~name ~data =
  match node with
  | NAssign ai ->
      let rhs = match ai.ai_reduction with Some r -> r.Cp.red_rhs | None -> ai.ai_rhs in
      Phase.time g.phase "communication analysis" @@ fun () ->
      List.exists
        (fun (n, idx) ->
          n = name
          && not (Rel.is_empty (Rel.inter (data_of_ref g ai (n, idx)) data)))
        (Cp.refs_of_fexpr rhs)
  | NLoop (_, body) -> List.exists (fun n -> read_conflict g n ~name ~data) body
  | NIf (_, t, e, _) -> List.exists (fun n -> read_conflict g n ~name ~data) (t @ e)
  | _ -> false

let array_bounds_set g name =
  let ai =
    match Hpf.Sema.find_array g.ctx.Layout.env name with
    | Some a -> a
    | None -> errf "unknown array %s" name
  in
  let rank = List.length ai.adims in
  let cs =
    List.concat
      (List.mapi
         (fun i (lo, hi) ->
           let v = Lin.var (Var.In i) in
           [
             Constr.le (Layout.lin_of_iexpr g.ctx.Layout.env lo) v;
             Constr.le v (Layout.lin_of_iexpr g.ctx.Layout.env hi);
           ])
         ai.adims)
  in
  Rel.set ~names:(Array.init rank (fun i -> Printf.sprintf "a%d" (i + 1))) ~ar:rank
    [ Conj.make ~n_ex:0 cs ]

let has_cyclic_vps g =
  List.exists (fun d -> d.Layout.vp_mode = Spmd.VpTemplateCell) g.ctx.Layout.dims

(* Build one logical communication event for coalesced references. *)
let make_event g ~nest ~kind ~array (refs : (assign_info * Hpf.Ast.ref_) list) : event =
  Phase.time g.phase "communication generation" @@ fun () ->
  let level_vars = List.map (fun l -> l.Cp.lvar) nest in
  let pairs =
    List.map
      (fun (ai, r) ->
        (ai.ai_cpmap, restricted_refmap g ai.ai_nest r))
      refs
  in
  let maps =
    Comm.comm_maps g.ctx
      ~kind:(kind :> [ `Read | `Write ])
      ~level_vars ~array pairs
  in
  let active =
    if has_cyclic_vps g then
      Some
        (Vp.for_event g.ctx
           ~layout:(Option.get (Layout.layout_of g.ctx array))
           ~kind:(kind :> [ `Read | `Write ])
           pairs)
    else None
  in
  let ev_id = g.next_event in
  g.next_event <- ev_id + 1;
  let inplace =
    if g.opts.opt_inplace then begin
      let pn =
        Array.init g.ctx.Layout.rank_p (fun k -> Printf.sprintf "p%d_e%d" (k + 1) ev_id)
      in
      let pack_set = bind_prefix_params pn (Rel.flatten maps.Comm.send_map_full) in
      Phase.time g.phase "check if msg is contiguous" @@ fun () ->
      Inplace.analyze ~comm_set:pack_set ~array_bounds:(array_bounds_set g array)
    end
    else { Inplace.contiguous = false; rect_section = false; break_dim = 0 }
  in
  let lines =
    List.map (fun (ai, _) -> string_of_int ai.ai_line) refs |> List.sort_uniq compare
  in
  let ev =
    {
      ev_id;
      ev_array = array;
      ev_kind = (kind :> [ `Read | `Write ]);
      ev_level_vars = level_vars;
      ev_maps = maps;
      ev_active = active;
      ev_inplace = inplace;
      ev_desc =
        Printf.sprintf "%s %s (line %s)"
          (match kind with `Read -> "read" | `Write -> "write")
          array (String.concat "," lines);
    }
  in
  g.events <- g.events @ [ ev ];
  ev

(* Insert communication nodes. Reads are hoisted to the outermost subtree
   boundary with no conflicting write (message vectorization); writes are
   flushed after the outermost subtree with no conflicting read. *)
let rec place_comm g ~nest nodes =
  List.concat_map
    (fun node ->
      match node with
      | NAssign _ | NLoop _ | NIf _ ->
          (* reads that vectorize to just before this subtree *)
          let cands = pending_reads node in
          let placeable, kept =
            match node with
            | NAssign _ ->
                (* innermost fallback: communication immediately before the
                   statement is always legal — the fetched value is the
                   owner's pre-statement value for this iteration *)
                (cands, [])
            | _ when not g.opts.opt_vectorize -> ([], cands)
            | _ ->
                let depth = List.length nest in
                List.partition
                  (fun (ai, r) -> not (write_conflict g node ~depth ~read:(ai, r)))
                  cands
          in
          ignore kept;
          (* consume the placed reads *)
          List.iter
            (fun (ai, r) ->
              ai.ai_nl_reads <- List.filter (fun r' -> r' <> r) ai.ai_nl_reads)
            placeable;
          let groups =
            if g.opts.opt_coalesce then
              (* one event per array *)
              let arrays =
                List.sort_uniq compare (List.map (fun (_, (n, _)) -> n) placeable)
              in
              List.map
                (fun a -> (a, List.filter (fun (_, (n, _)) -> n = a) placeable))
                arrays
            else List.map (fun ((_, (n, _)) as p) -> (n, [ p ])) placeable
          in
          let read_events =
            List.map (fun (a, refs) -> make_event g ~nest ~kind:`Read ~array:a refs) groups
          in
          (* writes that flush right after this subtree *)
          let wcands = pending_writes node in
          let wplaceable, _ =
            List.partition
              (fun ai ->
                (match node with NAssign _ -> true | _ -> false)
                ||
                let data = data_of_ref g ai ai.ai_lhs in
                not (read_conflict g node ~name:(fst ai.ai_lhs) ~data))
              wcands
          in
          List.iter (fun ai -> ai.ai_write_nl <- false) wplaceable;
          let wgroups =
            let arrays =
              List.sort_uniq compare (List.map (fun ai -> fst ai.ai_lhs) wplaceable)
            in
            List.map
              (fun a ->
                ( a,
                  List.map
                    (fun ai -> (ai, ai.ai_lhs))
                    (List.filter (fun ai -> fst ai.ai_lhs = a) wplaceable) ))
              arrays
          in
          let write_events =
            List.map (fun (a, refs) -> make_event g ~nest ~kind:`Write ~array:a refs) wgroups
          in
          (* recurse for anything still pending deeper *)
          let node =
            match node with
            | NLoop (l, body) -> NLoop (l, place_comm g ~nest:(nest @ [ l ]) body)
            | NIf (c, t, e, d) ->
                NIf (c, place_comm g ~nest t, place_comm g ~nest e, d)
            | n -> n
          in
          List.map (fun e -> NCommSend e) read_events
          @ List.map (fun e -> NCommRecv e) read_events
          @ [ node ]
          @ List.map (fun e -> NCommSend e) write_events
          @ List.map (fun e -> NCommRecv e) write_events
      | n -> [ n ])
    nodes

(* ------------------------------------------------------------------ *)
(* Pass B: reduction finalization points                               *)
(* ------------------------------------------------------------------ *)

let rec scalar_used_in name = function
  | NAssign ai ->
      fst ai.ai_lhs = name
      || List.mem name (Cp.scalars_of_fexpr ai.ai_rhs)
      || List.exists (fun (n, _) -> n = name) (Cp.refs_of_fexpr ai.ai_rhs)
  | NLoop (_, body) -> List.exists (scalar_used_in name) body
  | NIf (cond, t, e, _) ->
      let rec cond_scalars = function
        | Hpf.Ast.CCmp (a, _, b) ->
            Cp.scalars_of_fexpr a @ Cp.scalars_of_fexpr b
        | Hpf.Ast.CAnd (a, b) | Hpf.Ast.COr (a, b) -> cond_scalars a @ cond_scalars b
        | Hpf.Ast.CNot a -> cond_scalars a
      in
      List.mem name (cond_scalars cond)
      || List.exists (scalar_used_in name) (t @ e)
  | _ -> false

(* Returns the rebuilt node list and the reductions still pending
   finalization (to be inserted by an enclosing scope). *)
let rec insert_reduces g ~toplevel nodes =
  (* first rebuild children (inner bodies may finalize their own) *)
  let rebuilt =
    List.map
      (fun node ->
        match node with
        | NLoop (l, body) ->
            let body', pending = insert_reduces g ~toplevel:false body in
            (NLoop (l, body'), pending)
        | NIf (c, t, e, d) ->
            let t', p1 = insert_reduces g ~toplevel:false t in
            let e', p2 = insert_reduces g ~toplevel:false e in
            (NIf (c, t', e', d), p1 @ p2)
        | NAssign ai -> (
            match ai.ai_reduction with
            | Some r when not ai.ai_replicated -> (node, [ (fst ai.ai_lhs, r.Cp.red_op) ])
            | _ -> (node, []))
        | n -> (n, []))
      nodes
  in
  (* a child's pending reduction is finalized here if the scalar is used by
     a sibling (or we are at the top level); otherwise it stays pending *)
  let out = ref [] and still = ref [] in
  List.iteri
    (fun i (node, pending) ->
      out := node :: !out;
      List.iter
        (fun (scalar, op) ->
          let used_by_sibling =
            List.exists
              (fun (j, (n, _)) -> j <> i && scalar_used_in scalar n)
              (List.mapi (fun j x -> (j, x)) rebuilt)
          in
          if used_by_sibling || toplevel then
            out := NReduce (scalar, op) :: !out
          else still := (scalar, op) :: !still)
        (List.sort_uniq compare pending))
    rebuilt;
  (List.rev !out, !still)

(* ------------------------------------------------------------------ *)
(* Pass B': snapshot persistent communication classification           *)
(* ------------------------------------------------------------------ *)

(* ai_nl_reads / ai_write_nl are consumed by placement; access-mode decisions
   at emission need the pre-placement classification (kept per unit in the
   gctx, so units can be analyzed concurrently). *)
let rec snapshot_nl g = function
  | NAssign ai ->
      List.iter
        (fun r -> Hashtbl.replace g.comm_reads (ai.ai_line, r) ())
        ai.ai_nl_reads;
      if ai.ai_write_nl then Hashtbl.replace g.comm_write ai.ai_line ()
  | NLoop (_, body) -> List.iter (snapshot_nl g) body
  | NIf (_, t, e, _) -> List.iter (snapshot_nl g) (t @ e)
  | _ -> ()

let is_comm_read g ai r = Hashtbl.mem g.comm_reads (ai.ai_line, r)
let is_comm_write g ai = Hashtbl.mem g.comm_write ai.ai_line

(* ------------------------------------------------------------------ *)
(* Pass C: emission                                                    *)
(* ------------------------------------------------------------------ *)

let rec ast_to_stmts ~leaf ~for_hook (asts : 'a Codegen.ast list) : Spmd.stmt list =
  List.concat_map
    (fun a ->
      match (a : 'a Codegen.ast) with
      | Codegen.AFor { var; lo; hi; step; body } ->
          let lo, hi, step = for_hook var (lo, hi, Codegen.EInt step) in
          [ Spmd.For { var; lo; hi; step; body = ast_to_stmts ~leaf ~for_hook body } ]
      | Codegen.AIf (c, body) -> [ Spmd.If (c, ast_to_stmts ~leaf ~for_hook body) ]
      | Codegen.ALeaf t -> leaf t)
    asts

let no_hook _var x = x

let dummy_name _ = failwith "unexpected tuple variable"

(* Membership of a rank-0 (parameter-only) set, as a runtime condition. *)
let cond_of_set (r : Rel.t) : Codegen.cond =
  match Rel.conjuncts r with
  | [] -> Codegen.CGeq0 (Codegen.EInt (-1)) (* false *)
  | conjs ->
      let of_conj c =
        let plain, strides, windows = Codegen.classify c in
        Codegen.cand
          (List.map (Codegen.cond_of_constr ~name_of:dummy_name) plain
          @ List.map (Codegen.cond_of_stride ~name_of:dummy_name) strides
          @ List.map (Codegen.cond_of_window ~name_of:dummy_name) windows)
      in
      let cs = List.map of_conj conjs in
      (match cs with [ c ] -> c | cs -> Codegen.COr cs)

let not_self g (pn : string array) : Codegen.cond =
  let module C = Codegen in
  let per_dim k =
    let p = C.EVar pn.(k) and vm = C.EVar g.ctx.Layout.vm.(k) in
    [
      C.CGeq0 (C.esub (C.esub p vm) (C.EInt 1));
      C.CGeq0 (C.esub (C.esub vm p) (C.EInt 1));
    ]
  in
  C.COr (List.concat_map per_dim (List.init (Array.length pn) Fun.id))

(* Partner loops over VP-block dimensions step through real VPs only:
   lo aligned to tlo mod B, step B (Figure 6's refinement for block). *)
let vp_partner_hook g (pn : string array) var (lo, hi, step) =
  let module C = Codegen in
  let rec find k =
    if k >= Array.length pn then None
    else if pn.(k) = var then Some (List.nth g.ctx.Layout.dims k)
    else find (k + 1)
  in
  match find 0 with
  | Some d when d.Layout.vp_mode = Spmd.VpBlockOnePer ->
      let b = Option.get d.Layout.bsize_expr in
      (C.EAlignUp (lo, d.Layout.tlo_expr, b), hi, b)
  | _ -> (lo, hi, step)

let thi_expr (d : Layout.dim_info) = Layout.expr_of_lin d.Layout.thi_lin

(* Wrap code referencing vm$k in VP loops for cyclic (template-cell) dims,
   restricted at run time to the active VPs owned by myid (§4.2). *)
let wrap_vp g ~(active : Rel.t) (body : Spmd.stmt list) : Spmd.stmt list =
  let module C = Codegen in
  let rec go dims body =
    match dims with
    | [] -> body
    | (k, (d : Layout.dim_info)) :: rest when d.Layout.vp_mode = Spmd.VpTemplateCell ->
        let proj = Inplace.proj_dim active k in
        let implied = Hull.implied_constraints (Rel.conjuncts proj) in
        let lbs, ubs =
          List.fold_left
            (fun (lbs, ubs) c ->
              match Codegen.bound_of ~name_of:dummy_name 0 c with
              | Codegen.Lower e -> (e :: lbs, ubs)
              | Codegen.Upper e -> (lbs, e :: ubs)
              | Codegen.NotBound -> (lbs, ubs))
            ([], []) implied
        in
        let lo = match lbs with [] -> d.Layout.tlo_expr | _ -> C.emax lbs in
        let hi = match ubs with [] -> thi_expr d | _ -> C.emin ubs in
        let target = C.eadd d.Layout.tlo_expr (C.EVar g.ctx.Layout.mphys.(k)) in
        [
          Spmd.For
            {
              var = g.ctx.Layout.vm.(k);
              lo = C.EAlignUp (lo, target, d.Layout.pextent_expr);
              hi;
              step = d.Layout.pextent_expr;
              body = go rest body;
            };
        ]
    | _ :: rest -> go rest body
  in
  if has_cyclic_vps g then
    go (List.mapi (fun k d -> (k, d)) g.ctx.Layout.dims) body
  else body

(* ---- communication code ---- *)

let partner_names g ev =
  Array.init g.ctx.Layout.rank_p (fun k -> Printf.sprintf "p%d_e%d" (k + 1) ev.ev_id)

let emit_comm_send g ev : Spmd.stmt list =
  Phase.time g.phase "communication generation" @@ fun () ->
  if has_cyclic_vps g && ev.ev_level_vars <> [] then
    errf "communication inside loops with cyclic distributions is not supported";
  let pn = partner_names g ev in
  let rank = Rel.out_arity ev.ev_maps.Comm.send_map in
  let en = Array.init rank (fun i -> Printf.sprintf "x%d_e%d" (i + 1) ev.ev_id) in
  let pack_set =
    rename_vars en (bind_prefix_params pn (Rel.flatten ev.ev_maps.Comm.send_map_full))
  in
  (* enumerate elements in column-major order (first array dimension
     innermost), i.e. in increasing memory offset: that is the order Fortran
     packs buffers, and it lets the §3.3 runtime contiguity check observe
     consecutive offsets *)
  let pack_set =
    Rel.with_names
      ~in_names:(Array.init rank (fun i -> en.(rank - 1 - i)))
      (Rel.map_tuple_vars
         (function
           | Iset.Var.In i -> Iset.Var.In (rank - 1 - i)
           | v -> v)
         pack_set)
  in
  let pack_stmts =
    Phase.time g.phase "loops to compute msg sizes" @@ fun () ->
    (* packing the same element twice is harmless (the receiver stores by
       index), so overlapping disjuncts need not be separated *)
    let asts =
      Codegen.gen ~disjoint:false ~order:`Any
        ~names:(Array.init rank (fun i -> en.(rank - 1 - i)))
        [ { Codegen.tag = 0; dom = pack_set } ]
    in
    ast_to_stmts
      ~leaf:(fun _ ->
        [
          Spmd.Pack
            {
              event = ev.ev_id;
              arr = ev.ev_array;
              idx = Array.to_list (Array.map (fun n -> Codegen.EVar n) en);
            };
        ])
      ~for_hook:no_hook asts
  in
  let send =
    Spmd.Send
      { event = ev.ev_id; dest = Array.to_list (Array.map (fun n -> Codegen.EVar n) pn) }
  in
  let dom = rename_vars pn (Rel.domain ev.ev_maps.Comm.send_map) in
  let stmts =
    Phase.time g.phase "loops over comm partners" @@ fun () ->
    let asts = Codegen.gen ~order:`Any ~names:pn [ { Codegen.tag = 0; dom } ] in
    ast_to_stmts
      ~leaf:(fun _ -> [ Spmd.If (not_self g pn, pack_stmts @ [ send ]) ])
      ~for_hook:(vp_partner_hook g pn) asts
  in
  let stmts = Spmd.Comment (Printf.sprintf "send for %s" ev.ev_desc) :: stmts in
  match ev.ev_active with
  | Some a -> wrap_vp g ~active:a.Vp.active_send stmts
  | None -> stmts

let emit_comm_recv g ev : Spmd.stmt list =
  Phase.time g.phase "communication generation" @@ fun () ->
  let pn = partner_names g ev in
  let dom = rename_vars pn (Rel.domain ev.ev_maps.Comm.recv_map) in
  let recv =
    Spmd.Recv
      { event = ev.ev_id; src = Array.to_list (Array.map (fun n -> Codegen.EVar n) pn) }
  in
  let stmts =
    Phase.time g.phase "loops over comm partners" @@ fun () ->
    let asts = Codegen.gen ~order:`Any ~names:pn [ { Codegen.tag = 0; dom } ] in
    ast_to_stmts
      ~leaf:(fun _ -> [ Spmd.If (not_self g pn, [ recv ]) ])
      ~for_hook:(vp_partner_hook g pn) asts
  in
  let stmts = Spmd.Comment (Printf.sprintf "recv for %s" ev.ev_desc) :: stmts in
  match ev.ev_active with
  | Some a -> wrap_vp g ~active:a.Vp.active_recv stmts
  | None -> stmts

(* ---- statement emission ---- *)

let default_access g ai (r : Hpf.Ast.ref_) : Spmd.access =
  if is_comm_read g ai r then Spmd.Checked else Spmd.Local

let emit_assign g ?(access_of : (Hpf.Ast.ref_ -> Spmd.access) option) ai :
    Spmd.stmt list =
  let access_of =
    match access_of with Some f -> f | None -> default_access g ai
  in
  let value = rt_fexpr ~access_of ai.ai_rhs in
  let name, idx = ai.ai_lhs in
  if idx = [] then [ Spmd.SetScalar (name, value) ]
  else
    let access =
      if is_comm_write g ai then
        match access_of ai.ai_lhs with Spmd.Local -> Spmd.Checked | a -> a
      else Spmd.Local
    in
    [ Spmd.Store { arr = name; idx = List.map rt_iexpr idx; value; access } ]

(* demand of a node at loop depth [depth] (1-based): Some set over one var,
   or None meaning "every iteration / every processor" *)
let rec demand_at g depth node : Rel.t option =
  let union a b =
    match (a, b) with
    | None, _ | _, None -> None
    | Some x, Some y -> Some (Rel.union x y)
  in
  match node with
  | NAssign ai ->
      let d = scope_set (project_onto_prefix ai.ai_cpiter depth) in
      (* intermediate projections may be over-approximated: deeper levels
         re-restrict (the deepest level is the cpiter itself, kept exact) *)
      Some (if depth < List.length ai.ai_nest then Codegen.approx d else d)
  | NLoop (_, body) -> (
      match body with
      | [] -> None
      | b :: bs ->
          List.fold_left (fun acc n -> union acc (demand_at g depth n)) (demand_at g depth b) bs)
  | NIf (_, t, e, _) -> (
      match t @ e with
      | [] -> None
      | b :: bs ->
          List.fold_left (fun acc n -> union acc (demand_at g depth n)) (demand_at g depth b) bs)
  | NCommSend ev ->
      (* communication participation demands are over-approximable at any
         level: the partner-loop bounds and guards are generated from the
         exact sets, so an extra iteration sends/receives nothing *)
      Some
        (Codegen.approx
           (scope_set
              (project_onto_prefix
                 (Comm.participation ~level_vars:ev.ev_level_vars
                    ev.ev_maps.Comm.send_map)
                 depth)))
  | NCommRecv ev ->
      Some
        (Codegen.approx
           (scope_set
              (project_onto_prefix
                 (Comm.participation ~level_vars:ev.ev_level_vars
                    ev.ev_maps.Comm.recv_map)
                 depth)))
  | NReduce _ | NCall _ -> None

(* Syntactic set equality for statement grouping: a false negative merely
   splits a group (extra guards), never breaks correctness — and avoids the
   Omega-backed Rel.equal on every pair of adjacent statements. *)
let demand_equal a b =
  let conj_key c = List.sort Constr.compare (Conj.constraints c) in
  let key r =
    List.sort (List.compare Constr.compare) (List.map conj_key (Rel.conjuncts r))
  in
  match (a, b) with
  | None, None -> true
  | Some x, Some y -> List.equal (List.equal Constr.equal) (key x) (key y)
  | _ -> false

(* context set for one loop: lo <= v <= hi with outer loop variables as
   parameters *)
let loop_ctx_set g ~outer (l : Cp.loop) : Rel.t =
  let lookup s =
    if s = l.Cp.lvar then Var.In 0
    else if List.mem s outer then Var.Param s
    else if Hpf.Sema.is_param g.ctx.Layout.env s then Var.Param s
    else errf "unknown name %s in loop bound" s
  in
  let aff e =
    try Hpf.Sema.subst_known_params g.ctx.Layout.env (Hpf.Sema.affine ~lookup e)
    with Hpf.Sema.Nonaffine _ -> errf "loop bound not affine"
  in
  let v = Lin.var (Var.In 0) in
  let lo = aff l.Cp.llo and hi = aff l.Cp.lhi in
  let base = [ Constr.le lo v; Constr.le v hi ] in
  let conj =
    if l.Cp.lstep = 1 then Conj.make ~n_ex:0 base
    else
      Conj.make ~n_ex:1
        (Constr.eq (Lin.sub (Lin.sub v lo) (Lin.var ~coef:l.Cp.lstep (Var.Ex 0)))
        :: base)
  in
  Rel.set ~names:[| l.Cp.lvar |] ~ar:1 [ conj ]

(* ---- loop splitting (Figure 4) ---- *)

(* Does any dependence carried by the loops connect the write [rmw] to the
   access [rma] (same array)? Splitting reorders iterations, so a carried
   true, anti or output dependence forbids it — the paper restricts the
   transformation to nests "having no dependences that prevent iteration
   reordering". Lexicographic formulation: some first level l with equal
   prefix and differing coordinate relates two iterations touching one
   element. *)
let carried_dependence ~from_level ~depth rmw rma =
  let d = Rel.compose rmw (Rel.inverse rma) in
  let rec try_level l =
    if l >= depth then false
    else
      let prefix_eq =
        List.init l (fun k ->
            Constr.equal_terms (Lin.var (Var.In k)) (Lin.var (Var.Out k)))
      in
      let lt =
        Constr.le (Lin.add_const 1 (Lin.var (Var.In l))) (Lin.var (Var.Out l))
      in
      let gt =
        Constr.le (Lin.add_const 1 (Lin.var (Var.Out l))) (Lin.var (Var.In l))
      in
      let test c = not (Rel.is_empty (Comm.add_constraints d (c :: prefix_eq))) in
      test lt || test gt || try_level (l + 1)
  in
  (* loops outside the reordered region stay sequential, so only
     differences first arising at [from_level] or deeper matter *)
  try_level from_level

(* A split candidate: a loop subtree containing only loops and assignments,
   all assignments sharing one cpIterSet, with at least one communicated
   reference and no loop-carried dependences within the reordered loops.
   [outer_depth] is the number of enclosing loops already generated (they
   remain sequential). Returns the common nest, the assigns (in order) and
   the RefMaps restricted to the nest's iteration space, each built once
   and shared by the dependence test and the sections. *)
let split_candidate g ~outer_depth node =
  if not g.opts.opt_split then None
  else
    let ok = ref true in
    let assigns = ref [] in
    let rec walk = function
      | NAssign ai -> assigns := ai :: !assigns
      | NLoop (_, body) -> List.iter walk body
      | _ -> ok := false
    in
    walk node;
    let assigns = List.rev !assigns in
    match assigns with
    | [] -> None
    | a0 :: rest ->
        let comm_reads ai =
          List.filter (is_comm_read g ai)
            (List.sort_uniq compare (Cp.refs_of_fexpr ai.ai_rhs))
        in
        let nest = a0.ai_nest in
        let rm = restricted_refmap g nest in
        let no_carried_deps () =
          Phase.time g.phase "loop splitting" @@ fun () ->
          let depth = List.length nest in
          let writes =
            List.filter_map
              (fun a -> if snd a.ai_lhs <> [] then Some (fst a.ai_lhs, rm a.ai_lhs) else None)
              assigns
          in
          let accesses =
            writes
            @ List.concat_map
                (fun a ->
                  List.map (fun ((n, _) as r) -> (n, rm r)) (Cp.refs_of_fexpr a.ai_rhs))
                assigns
          in
          List.for_all
            (fun (wn, wrm) ->
              List.for_all
                (fun (an, arm) ->
                  wn <> an
                  || not (carried_dependence ~from_level:outer_depth ~depth wrm arm))
                accesses)
            writes
        in
        if
          !ok
          && List.for_all
               (fun a ->
                 a.ai_nest == a0.ai_nest
                 && (try Rel.equal a.ai_cpiter a0.ai_cpiter
                     with Conj.Inexact_negation -> false))
               rest
          && a0.ai_nest <> []
          && List.for_all (fun a -> a.ai_reduction = None) assigns
          && List.exists
               (fun a -> comm_reads a <> [] || is_comm_write g a)
               assigns
          && no_carried_deps ()
        then Some (nest, assigns, rm)
        else None


(* The access of each reference in one section, its modes computed once
   (those the section does not fix are Omega queries); a reference both
   read and written takes its read's mode. *)
let section_access (sections : Split.sections) sec : Hpf.Ast.ref_ -> Spmd.access =
  let table =
    List.map
      (fun c ->
        let mode =
          match Split.mode sections sec c with
          | Split.AllLocal -> Spmd.Local
          | Split.AllNonLocal -> Spmd.Overlay
          | Split.Mixed -> Spmd.Checked
        in
        ((c.Split.rc_ref, c.Split.rc_kind), mode))
      sections.Split.ref_classes
  in
  fun r ->
    match List.assoc_opt (r, `Read) table with
    | Some m -> m
    | None -> (
        match List.assoc_opt (r, `Write) table with Some m -> m | None -> Spmd.Local)

(* ---- main emission recursion ---- *)

let busy_of g node : Rel.t =
  let empty = Rel.empty ~in_ar:g.ctx.Layout.rank_p ~out_ar:0 () in
  let rec go = function
    | NAssign ai -> Rel.domain ai.ai_cpmap
    | NLoop (_, body) -> List.fold_left (fun acc n -> Rel.union acc (go n)) empty body
    | NIf (_, t, e, _) ->
        List.fold_left (fun acc n -> Rel.union acc (go n)) empty (t @ e)
    | _ -> empty
  in
  go node

let rec emit_children g ~outer (nodes : node list) : Spmd.stmt list =
  match nodes with
  | [] -> []
  | _ ->
      (* recognize [read sends; read recvs; splittable nest] windows *)
      let rec take_comm sends recvs = function
        | NCommSend e :: rest when e.ev_kind = `Read ->
            take_comm (e :: sends) recvs rest
        | NCommRecv e :: rest when e.ev_kind = `Read ->
            take_comm sends (e :: recvs) rest
        | rest -> (List.rev sends, List.rev recvs, rest)
      in
      let sends, recvs, rest = take_comm [] [] nodes in
      let candidate =
        match rest with
        | (NLoop _ as loop) :: tail -> (
            match split_candidate g ~outer_depth:(List.length outer) loop with
            | Some c -> Some (loop, c, tail)
            | None -> None)
        | _ -> None
      in
      (match candidate with
      | Some (loop, c, tail) -> (
          match try_split g ~outer loop c ~sends ~recvs with
          | Some stmts -> stmts @ emit_children g ~outer tail
          | None ->
              List.concat_map (fun e -> emit_comm_send g e) sends
              @ List.concat_map (fun e -> emit_comm_recv g e) recvs
              @ emit_node g ~outer loop
              @ emit_children g ~outer tail)
      | None ->
          (* no split: emit the comms (if any) and then continue node by
             node *)
          let comm_stmts =
            List.concat_map (fun e -> emit_comm_send g e) sends
            @ List.concat_map (fun e -> emit_comm_recv g e) recvs
          in
          (match rest with
          | [] -> comm_stmts
          | n :: tail -> comm_stmts @ emit_node g ~outer n @ emit_children g ~outer tail))

and emit_node g ~outer node : Spmd.stmt list =
  match node with
  | NAssign ai ->
      let stmts = emit_assign g ai in
      if outer = [] then begin
        let stmts =
          match cond_of_set ai.ai_cpiter with
          | Codegen.CTrue -> stmts
          | c -> [ Spmd.If (c, stmts) ]
        in
        if has_cyclic_vps g then wrap_vp g ~active:(busy_of g node) stmts else stmts
      end
      else stmts
  | NLoop (l, body) ->
      let stmts = emit_loop g ~outer l body in
      if outer = [] && has_cyclic_vps g then
        wrap_vp g ~active:(busy_of g node) stmts
      else stmts
  | NIf (c, t, e, _) ->
      [
        Spmd.FIf
          ( rt_fcond ~access_of:(fun _ -> Spmd.Local) c,
            emit_children g ~outer t,
            emit_children g ~outer e );
      ]
  | NCall f -> [ Spmd.Call f ]
  | NCommSend ev -> emit_comm_send g ev
  | NCommRecv ev -> emit_comm_recv g ev
  | NReduce (s, op) -> [ Spmd.Reduce { scalar = s; op } ]

and emit_loop g ~outer (l : Cp.loop) children : Spmd.stmt list =
  let depth = List.length outer + 1 in
  let demands, groups =
    Phase.time g.phase "loop bounds reduction" @@ fun () ->
    let demands = List.map (fun n -> (n, demand_at g depth n)) children in
    (* group consecutive children with equal demands *)
    let groups =
      List.fold_left
        (fun acc (n, d) ->
          match acc with
          | (d', ns) :: tl when demand_equal d d' -> (d', n :: ns) :: tl
          | _ -> (d, [ n ]) :: acc)
        [] demands
      |> List.rev_map (fun (d, ns) -> (d, List.rev ns))
    in
    (demands, groups)
  in
  ignore demands;
  let ctx_set = loop_ctx_set g ~outer l in
  let garr = Array.of_list groups in
  let items =
    List.mapi
      (fun i (d, _) ->
        { Codegen.tag = i; dom = (match d with Some s -> s | None -> ctx_set) })
      groups
  in
  let asts =
    Phase.time g.phase "loop bounds reduction" @@ fun () ->
    Codegen.gen ~context:ctx_set ~names:[| l.Cp.lvar |] items
  in
  ast_to_stmts
    ~leaf:(fun i -> emit_children g ~outer:(outer @ [ l.Cp.lvar ]) (snd garr.(i)))
    ~for_hook:no_hook asts

and try_split g ~outer loop_node (nest, assigns, rm) ~sends ~recvs :
    Spmd.stmt list option =
  try
    let a0 = List.hd assigns in
    let refs =
      let reads =
        List.concat_map
          (fun ai ->
            List.filter_map
              (fun r ->
                if is_comm_read g ai r then Some (r, `Read, rm r) else None)
              (List.sort_uniq compare (Cp.refs_of_fexpr ai.ai_rhs)))
          assigns
      in
      let writes =
        List.filter_map
          (fun ai ->
            if is_comm_write g ai then Some (ai.ai_lhs, `Write, rm ai.ai_lhs)
            else None)
          assigns
      in
      (* one class per distinct reference *)
      List.sort_uniq (fun (r1, k1, _) (r2, k2, _) -> compare (r1, k1) (r2, k2))
        (reads @ writes)
    in
    let sections =
      Phase.time g.phase "loop splitting" @@ fun () ->
      Split.compute g.ctx ~cp_iter:a0.ai_cpiter ~refs
    in
    if not (Split.worthwhile sections) then None
    else begin
      let outern = Array.of_list outer in
      let context =
        bind_prefix_params outern (iter_space g nest)
      in
      let emit_sec sec =
        let set = Split.section_set sections sec in
        if (try Rel.is_empty set with _ -> false) then []
        else begin
          let access_of =
            Phase.time g.phase "loop splitting" @@ fun () ->
            section_access sections sec
          in
          let bound = bind_prefix_params outern set in
          let items = List.map (fun ai -> { Codegen.tag = ai; dom = bound }) assigns in
          let asts =
            Phase.time g.phase "loop bounds reduction" @@ fun () ->
            Codegen.gen ~order:`Any ~context ~names:(Rel.in_names bound) items
          in
          let stmts =
            Spmd.Comment (Printf.sprintf "%s section" (Split.section_name sec))
            :: ast_to_stmts
                 ~leaf:(fun ai -> emit_assign g ~access_of ai)
                 ~for_hook:no_hook asts
          in
          (* cyclic (template-cell) dims bind vm$k only through generated
             VP loops; at top level each section needs its own wrapping,
             exactly like the unsplit nest in emit_node (the comm
             sends/recvs between sections wrap themselves) *)
          if outer = [] && has_cyclic_vps g then
            wrap_vp g ~active:(busy_of g loop_node) stmts
          else stmts
        end
      in
      let stmts =
        List.concat_map (emit_comm_send g) sends
        @ emit_sec Split.Nl_wo
        @ emit_sec Split.Local
        @ List.concat_map (emit_comm_recv g) recvs
        @ emit_sec Split.Nl_ro
        @ emit_sec Split.Nl_rw
      in
      g.splits <- sections :: g.splits;
      Some stmts
    end
  with Unsupported _ | Conj.Inexact_negation | Codegen.Unsupported _ -> None

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)
(* ------------------------------------------------------------------ *)

type compiled = {
  cprog : Spmd.program;
  cevents : event list;
  cctx : Layout.ctx;
  csplits : Split.sections list;
      (** the sections of every nest loop splitting transformed, in unit
          and emission order *)
}

let compile ?(opts = default_options) ?(phase = Phase.global)
    ?(domains = Par.domains ()) (chk : Hpf.Sema.checked) : compiled =
  let ctx = Phase.time phase "layout construction" (fun () -> Layout.build chk) in
  (* interprocedural analysis: call-graph sanity (calls resolve, no
     recursion) and global layout visibility *)
  Phase.time phase "interprocedural analysis" (fun () ->
      let rec calls_of (s : Hpf.Ast.stmt) =
        match s with
        | Hpf.Ast.SCall (f, _) -> [ f ]
        | Hpf.Ast.SDo { body; _ } -> List.concat_map calls_of body
        | Hpf.Ast.SIf { then_; else_; _ } -> List.concat_map calls_of (then_ @ else_)
        | _ -> []
      in
      let rec check seen uname =
        if List.mem uname seen then errf "recursive call chain through %s" uname;
        match Hashtbl.find_opt chk.env.Hpf.Sema.subroutines uname with
        | None -> ()
        | Some u ->
            List.iter (check (uname :: seen)) (List.concat_map calls_of u.Hpf.Ast.body)
      in
      List.iter
        (fun (u : Hpf.Ast.unit_) ->
          List.iter (check [ u.uname ]) (List.concat_map calls_of u.body))
        chk.prog.units);
  (* Program units (subroutines, then main) are analyzed and emitted
     independently: they share only the read-only layout ctx and the
     domain-safe integer-set caches, so both passes fan out across a
     domain pool. Between the passes, event ids — unit-local during
     analysis — are renumbered sequentially in unit order, so the emitted
     program (whose buffer and partner-variable names embed event ids) is
     identical for every domain count. *)
  let units =
    List.filter (fun (u : Hpf.Ast.unit_) -> u.kind = `Subroutine)
      chk.prog.units
    @ [ Hpf.Ast.main_unit chk.prog ]
  in
  let uarr = Array.of_list units in
  let nd = max 1 (min domains (Array.length uarr)) in
  let par_map f arr =
    if nd <= 1 then Array.map f arr
    else Par.map ~domains:nd (Array.length arr) (fun i -> f arr.(i))
  in
  (* passes A+B: statement analysis, communication placement, reduction
     finalization — builds each unit's node tree and event list *)
  let analyze_unit (u : Hpf.Ast.unit_) =
    Phase.time phase "module compilation" @@ fun () ->
    let g =
      {
        ctx;
        opts;
        events = [];
        next_event = 0;
        phase;
        comm_reads = Hashtbl.create 64;
        comm_write = Hashtbl.create 64;
        iters = Hashtbl.create 16;
        refmaps = Hashtbl.create 64;
        splits = [];
      }
    in
    let nodes = List.map (analyze_stmt g []) u.body in
    fix_scalar_cps g nodes;
    List.iter (annotate_nl g) nodes;
    List.iter (snapshot_nl g) nodes;
    let nodes = place_comm g ~nest:[] nodes in
    let nodes, pending = insert_reduces g ~toplevel:true nodes in
    assert (pending = []);
    (g, nodes)
  in
  let analyzed = par_map analyze_unit uarr in
  let next = ref 0 in
  Array.iter
    (fun (g, _) ->
      List.iter
        (fun ev ->
          ev.ev_id <- !next;
          incr next)
        g.events)
    analyzed;
  let all_events = List.concat_map (fun (g, _) -> g.events) (Array.to_list analyzed) in
  (* pass C: emission *)
  let emit_unit (g, nodes) =
    Phase.time phase "module compilation" @@ fun () ->
    emit_children g ~outer:[] nodes
  in
  let emitted = par_map emit_unit analyzed in
  let main = emitted.(Array.length emitted - 1) in
  let subs =
    List.init
      (Array.length emitted - 1)
      (fun i -> (uarr.(i).Hpf.Ast.uname, emitted.(i)))
  in
  let prog_params =
    Hashtbl.fold
      (fun name v acc ->
        {
          Spmd.pb_name = name;
          pb_value = (match v with Some k -> `Given k | None -> `FromEnv);
        }
        :: acc)
      chk.env.Hpf.Sema.params []
    |> List.sort (fun a b -> compare a.Spmd.pb_name b.Spmd.pb_name)
  in
  let scalars =
    Hashtbl.fold (fun n _ acc -> n :: acc) chk.env.Hpf.Sema.scalars []
  in
  let events_info =
    List.map
      (fun e ->
        {
          Spmd.ev_id = e.ev_id;
          ev_array = e.ev_array;
          ev_kind = (match e.ev_kind with `Read -> `ReadComm | `Write -> `WriteComm);
          ev_inplace = e.ev_inplace.Inplace.contiguous;
          ev_rect = e.ev_inplace.Inplace.rect_section;
          ev_desc = e.ev_desc;
        })
      all_events
  in
  let sorted_dims =
    List.sort (fun a b -> compare a.Layout.proc_dim b.Layout.proc_dim) ctx.Layout.dims
  in
  let proc_extents = List.map (fun d -> d.Layout.pextent_expr) sorted_dims in
  let proc_dims =
    List.map
      (fun (d : Layout.dim_info) ->
        {
          Spmd.pd_mode = d.vp_mode;
          pd_extent = d.pextent_expr;
          pd_tlo = d.tlo_expr;
          pd_bsize = d.bsize_expr;
        })
      sorted_dims
  in
  {
    cprog =
      {
        Spmd.proc_dims;
        proc_extents;
        params = prog_params @ ctx.Layout.params;
        arrays = ctx.Layout.rt_arrays;
        scalars;
        events = events_info;
        main;
        subs;
      };
    cevents = all_events;
    cctx = ctx;
    csplits =
      List.concat_map (fun (g, _) -> List.rev g.splits) (Array.to_list analyzed);
  }

(** The communication sets of every event, as [dhpfc compile --show-sets]
    prints them. *)
let pp_sets fmt events =
  List.iter
    (fun (e : event) ->
      Fmt.pf fmt "event %d: %s%s@." e.ev_id e.ev_desc
        (if e.ev_inplace.Inplace.contiguous then " [in-place]"
         else if e.ev_inplace.Inplace.rect_section then " [rect]"
         else "");
      Fmt.pf fmt "  SendCommMap(m) = %a@." Rel.pp e.ev_maps.Comm.send_map;
      Fmt.pf fmt "  RecvCommMap(m) = %a@." Rel.pp e.ev_maps.Comm.recv_map;
      match e.ev_active with
      | Some a ->
          Fmt.pf fmt "  busyVPSet        = %a@." Rel.pp a.Vp.busy;
          Fmt.pf fmt "  activeSendVPSet  = %a@." Rel.pp a.Vp.active_send;
          Fmt.pf fmt "  activeRecvVPSet  = %a@." Rel.pp a.Vp.active_recv
      | None -> ())
    events
