(* In-memory span recorder for the traced (--trace 1) runs.

   Spans are recorded from the runner's own code around each call into a
   layer's public entry points; nothing inside the libraries is traced.
   A span has a name, a request id (the serve rid, or ""), start and end
   wall-clock times and the id of the span that was open when it began. Durations a layer reports about itself (Phase totals,
   serve telemetry) become synthetic children laid end to end from a
   given start: their lengths are exact, their placement is not. Spans
   stay in memory and are written as Chrome trace-event JSON at the end.

   Each operation is a root span ({!root}); only operations started with
   [~on:true] are recorded, so a traced run can interleave traced and
   untraced operations and measure what tracing costs. *)

type span = {
  id : int;
  name : string;
  rid : string;
  parent : int;  (** 0: a root *)
  t0 : float;
  t1 : float;
}

let spans : span list ref = ref []
let next_id = ref 0

(* the open spans of the current operation, innermost first; empty when
   the operation is not traced. The runner makes its calls from one
   domain, one operation at a time. *)
let stack : int list ref = ref []

let add s = spans := s :: !spans

let fresh () =
  incr next_id;
  !next_id

let record ~rid ~parent name f =
  let id = fresh () in
  stack := id :: !stack;
  let t0 = Unix.gettimeofday () in
  let finish () =
    let t1 = Unix.gettimeofday () in
    stack := List.tl !stack;
    add { id; name; rid; parent; t0; t1 }
  in
  match f id with
  | r ->
      finish ();
      r
  | exception e ->
      finish ();
      raise e

(* An operation: recorded as a root span when [on]. *)
let root ?(rid = "") ~on name f =
  if on then record ~rid ~parent:0 name (fun _ -> f ()) else f ()

(* A layer call inside the current operation; returns the result and the
   span id (0 when not recorded). *)
let span_id ?(rid = "") name f =
  match !stack with
  | [] -> (f (), 0)
  | parent :: _ ->
      let id = ref 0 in
      let r =
        record ~rid ~parent name (fun i ->
            id := i;
            f ())
      in
      (r, !id)

let span ?rid name f = fst (span_id ?rid name f)

(* Synthetic children of span [parent], laid end to end from [t0]; one
   per (name, seconds) pair. Returns their ids. *)
let children ?(rid = "") ~parent ~t0 parts =
  if parent = 0 then List.map (fun _ -> 0) parts
  else begin
    let cur = ref t0 in
    List.map
      (fun (name, dur) ->
        let id = fresh () in
        let dur = Float.max 0.0 dur in
        add { id; name; rid; parent; t0 = !cur; t1 = !cur +. dur };
        cur := !cur +. dur;
        id)
      parts
  end

let all () = List.rev !spans

(* Self time by span name (a span's duration minus its children's) and
   the summed duration of the roots. Because children nest inside their
   parents, the self times add up to the roots' total: the ledger closes,
   and whatever a layer does not account for shows as its own self time. *)
let ledger () =
  let ss = all () in
  let child_sum = Hashtbl.create 256 in
  List.iter
    (fun s ->
      if s.parent <> 0 then
        Hashtbl.replace child_sum s.parent
          (s.t1 -. s.t0
          +. Option.value (Hashtbl.find_opt child_sum s.parent) ~default:0.0))
    ss;
  let by_name = Hashtbl.create 32 in
  let roots = ref 0.0 in
  List.iter
    (fun s ->
      let dur = s.t1 -. s.t0 in
      if s.parent = 0 then roots := !roots +. dur;
      let self =
        dur -. Option.value (Hashtbl.find_opt child_sum s.id) ~default:0.0
      in
      Hashtbl.replace by_name s.name
        (self +. Option.value (Hashtbl.find_opt by_name s.name) ~default:0.0))
    ss;
  let rows =
    Hashtbl.fold (fun n v acc -> (n, v) :: acc) by_name [] |> List.sort compare
  in
  (rows, !roots)

(* Chrome trace-event JSON: one complete ("X") event per span, all on one
   lane, since operations run one after another *)
let write_chrome path =
  let module J = Serve.Jsonx in
  let ss = all () in
  let base = List.fold_left (fun m s -> Float.min m s.t0) infinity ss in
  let ev s =
    J.Obj
      [
        ("name", J.Str s.name);
        ("ph", J.Str "X");
        ("pid", J.int 1);
        ("tid", J.int 1);
        ("ts", J.Num ((s.t0 -. base) *. 1e6));
        ("dur", J.Num ((s.t1 -. s.t0) *. 1e6));
        ( "args",
          J.Obj [ ("id", J.int s.id); ("parent", J.int s.parent); ("rid", J.Str s.rid) ] );
      ]
  in
  let oc = open_out_bin path in
  output_string oc (J.to_string (J.Obj [ ("traceEvents", J.List (List.map ev ss)) ]));
  close_out oc

(* the innermost open span of the current operation, or 0 *)
let current () = match !stack with [] -> 0 | id :: _ -> id
