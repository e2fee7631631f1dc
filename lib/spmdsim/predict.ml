(* Static communication-volume prediction: evaluate the compiler's
   Figure-3 communication sets at concrete distribution parameters and
   tabulate, per (event, sender, receiver), exactly how many messages and
   elements the generated program will send — without simulating any
   computation.

   The generated SPMD program *is* the closed form of those sets: the
   partner loops enumerate [domain(SendCommMap)], the pack loops enumerate
   the flattened [send_map_full] (both synthesized by {!Iset.Codegen.gen}
   from the integer-set equations), and [Send] fires once per enumerated
   partner. So the prediction walks the communication skeleton of the
   program — every [For]/[If] that (transitively) contains a [Pack],
   [Send] or [Recv], with all other statements dropped — evaluating loop
   bounds and guards with {!Iset.Codegen.eval_expr} under the same
   startup environment ({!Runtime.setup}) the simulator itself uses.
   Walking the emitted loops rather than re-enumerating the raw relations
   keeps the oracle faithful to code-generation details a set cardinality
   would miss: overlapping disjuncts deliberately re-packed
   ([~disjoint:false]), cyclic-VP loop rewrites, and empty messages that
   still count as one send.

   Everything here is per-processor arithmetic on integers — no clocks,
   no storage, no transport — so predicted counts are exact for
   fault-free and faulty runs alike (the transport's per-pair counters
   are fault-invariant). *)

open Dhpf

exception Unpredictable of string

let errf fmt = Fmt.kstr (fun s -> raise (Unpredictable s)) fmt

type cell = {
  p_event : int;
  p_src : int;
  p_dst : int;  (** [p_src = p_dst]: local copy between co-located VPs *)
  p_msgs : int;
  p_elems : int;
}

(* does this statement (transitively) communicate? *)
let rec has_comm (prog : Spmd.program) (s : Spmd.stmt) : bool =
  match s with
  | Spmd.Pack _ | Spmd.Send _ | Spmd.Recv _ -> true
  | Spmd.For { body; _ } | Spmd.If (_, body) ->
      List.exists (has_comm prog) body
  | Spmd.FIf (_, t, e) ->
      List.exists (has_comm prog) t || List.exists (has_comm prog) e
  | Spmd.Call f -> (
      match List.assoc_opt f prog.Spmd.subs with
      | Some body -> List.exists (has_comm prog) body
      | None -> false)
  | Spmd.Store _ | Spmd.SetScalar _ | Spmd.Reduce _ | Spmd.Comment _ -> false

let comm ~nprocs (prog : Spmd.program) : cell list =
  let su = Runtime.setup ~nprocs ~params:[] prog in
  let geval = Runtime.eval_genv su.Runtime.su_genv in
  let phys =
    Runtime.phys_of_vp ~eval:geval prog ~extents:su.Runtime.su_extents
  in
  let cells : (int * int * int, int ref * int ref) Hashtbl.t =
    Hashtbl.create 64
  in
  let cell key =
    match Hashtbl.find_opt cells key with
    | Some c -> c
    | None ->
        let c = (ref 0, ref 0) in
        Hashtbl.add cells key c;
        c
  in
  for pid = 0 to su.Runtime.su_total - 1 do
    (* local environment: grid coordinates, startup VP coordinates, then
       the loop variables of the communication skeleton *)
    let locals : (string, int) Hashtbl.t = Hashtbl.create 16 in
    Array.iteri
      (fun k c -> Hashtbl.replace locals (Printf.sprintf "m$%d" (k + 1)) c)
      su.Runtime.su_coords.(pid);
    List.iter
      (fun (k, v) ->
        Hashtbl.replace locals (Printf.sprintf "vm$%d" (k + 1)) v)
      su.Runtime.su_vm0.(pid);
    let look s =
      match Hashtbl.find_opt locals s with
      | Some v -> v
      | None -> (
          match Hashtbl.find_opt su.Runtime.su_genv s with
          | Some v -> v
          | None -> errf "unbound integer name %s in communication bounds" s)
    in
    let eval e = Iset.Codegen.eval_expr look e in
    let evalc c = Iset.Codegen.eval_cond look c in
    (* elements packed since the last Send, per event (mirrors the
       per-(processor, event) staging buffer of the runtime) *)
    let pending : (int, int ref) Hashtbl.t = Hashtbl.create 8 in
    let pending_of event =
      match Hashtbl.find_opt pending event with
      | Some r -> r
      | None ->
          let r = ref 0 in
          Hashtbl.add pending event r;
          r
    in
    let rec walk stmts = List.iter stmt stmts
    and stmt (s : Spmd.stmt) =
      match s with
      | Spmd.Store _ | Spmd.SetScalar _ | Spmd.Reduce _ | Spmd.Comment _ -> ()
      | Spmd.FIf (_, t, e) ->
          (* communication under a data-dependent branch cannot be
             predicted statically; the compiler never emits it *)
          if List.exists (has_comm prog) t || List.exists (has_comm prog) e
          then errf "communication under a data-dependent branch"
      | Spmd.If (c, body) ->
          if List.exists (has_comm prog) body && evalc c then walk body
      | Spmd.For { var; lo; hi; step; body } ->
          if List.exists (has_comm prog) body then begin
            let l = eval lo and h = eval hi in
            let st = eval step in
            if st <= 0 then
              errf "non-positive step for communication loop %s" var;
            let i = ref l in
            while !i <= h do
              Hashtbl.replace locals var !i;
              walk body;
              i := !i + st
            done;
            Hashtbl.remove locals var
          end
      | Spmd.Pack { event; _ } -> Stdlib.incr (pending_of event)
      | Spmd.Send { event; dest } ->
          let dst = phys (List.map eval dest) in
          let n = pending_of event in
          let msgs, elems = cell (event, pid, dst) in
          Stdlib.incr msgs;
          elems := !elems + !n;
          n := 0
      | Spmd.Recv _ -> ()
      | Spmd.Call f -> (
          match List.assoc_opt f prog.Spmd.subs with
          | Some body -> if List.exists (has_comm prog) body then walk body
          | None -> errf "unknown subroutine %s" f)
    in
    walk prog.Spmd.main
  done;
  Hashtbl.fold
    (fun (event, src, dst) (msgs, elems) acc ->
      { p_event = event; p_src = src; p_dst = dst; p_msgs = !msgs;
        p_elems = !elems }
      :: acc)
    cells []
  |> List.sort compare

(* ------------------------------------------------------------------ *)
(* Joining prediction against measurement                               *)
(* ------------------------------------------------------------------ *)

type mismatch = {
  mm_event : int;
  mm_src : int;
  mm_dst : int;
  mm_pred_msgs : int;
  mm_meas_msgs : int;
  mm_pred_elems : int;
  mm_meas_elems : int;
}

(** Full outer join of a prediction against a measured table: rows whose
    message or element counts differ. Rows present on only one side always
    mismatch. *)
let check (pred : cell list) (meas : Runtime.comm_cell list) : mismatch list =
  let tbl : (int * int * int, (int * int) * (int * int)) Hashtbl.t =
    Hashtbl.create 64
  in
  List.iter
    (fun (c : cell) ->
      Hashtbl.replace tbl
        (c.p_event, c.p_src, c.p_dst)
        ((c.p_msgs, c.p_elems), (0, 0)))
    pred;
  List.iter
    (fun (c : Runtime.comm_cell) ->
      let key = (c.cm_event, c.cm_src, c.cm_dst) in
      let p, _ =
        Option.value (Hashtbl.find_opt tbl key) ~default:((0, 0), (0, 0))
      in
      Hashtbl.replace tbl key (p, (c.cm_msgs, c.cm_elems)))
    meas;
  Hashtbl.fold
    (fun (event, src, dst) ((pm, pe), (mm, me)) acc ->
      if pm = mm && pe = me then acc
      else
        { mm_event = event; mm_src = src; mm_dst = dst; mm_pred_msgs = pm;
          mm_meas_msgs = mm; mm_pred_elems = pe; mm_meas_elems = me }
        :: acc)
    tbl []
  |> List.sort compare
