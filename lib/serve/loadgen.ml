(* Closed-loop load generator (see loadgen.mli). *)

type result = {
  lg_total : int;
  lg_ok : int;
  lg_error : int;
  lg_overloaded : int;
  lg_wall_s : float;
  lg_latencies : float array;
  lg_queue_waits : float array;
  lg_services : float array;
  lg_by_op : (string * float array) list;
}

type tally = {
  mutable t_ok : int;
  mutable t_error : int;
  mutable t_overloaded : int;
  mutable t_lat : (string * float) list;  (* (op, end-to-end seconds) *)
  mutable t_queue : float list;
  mutable t_service : float list;
}

(* the server-side split of a response: the telemetry section lives
   inside the compile report when there is one, top-level otherwise *)
let telemetry_of v =
  match Option.bind (Obs.Json.get v "report") (fun r -> Obs.Json.get r "telemetry") with
  | Some t -> Some t
  | None -> Obs.Json.get v "telemetry"

(* one request, retrying overloaded answers with linear backoff; returns
   the final status and the overloaded count along the way *)
let issue ~socket ~rid req tally =
  let op = Proto.op_name req in
  let rec go attempt =
    let t0 = Unix.gettimeofday () in
    let status, telemetry =
      try
        let v = Client.request ~rid ~socket req in
        ( Option.value (Obs.Json.get_str v "status") ~default:"error",
          telemetry_of v )
      with Client.Connect_error _ | Proto.Proto_error _ -> ("error", None)
    in
    let dt = Unix.gettimeofday () -. t0 in
    if status = "overloaded" && attempt < 200 then begin
      tally.t_overloaded <- tally.t_overloaded + 1;
      Unix.sleepf (0.001 *. float_of_int (min attempt 20));
      go (attempt + 1)
    end
    else begin
      tally.t_lat <- (op, dt) :: tally.t_lat;
      (match telemetry with
      | Some t ->
          (match Obs.Json.get_num t "queue_wait_s" with
          | Some q -> tally.t_queue <- q :: tally.t_queue
          | None -> ());
          (match Obs.Json.get_num t "service_s" with
          | Some s -> tally.t_service <- s :: tally.t_service
          | None -> ())
      | None -> ());
      if status = "ok" then tally.t_ok <- tally.t_ok + 1
      else tally.t_error <- tally.t_error + 1
    end
  in
  go 1

let sorted_array xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let run ~socket ~clients ~requests ~workload =
  let clients = max 1 clients and requests = max 0 requests in
  let tallies =
    Array.init clients (fun _ ->
        {
          t_ok = 0;
          t_error = 0;
          t_overloaded = 0;
          t_lat = [];
          t_queue = [];
          t_service = [];
        })
  in
  let t0 = Unix.gettimeofday () in
  Par.spawn_join clients (fun c ->
      let tally = tallies.(c) in
      for seq = 0 to requests - 1 do
        let rid = Printf.sprintf "lg-c%d-%d" c seq in
        issue ~socket ~rid (workload ~client:c ~seq) tally
      done);
  let wall = Unix.gettimeofday () -. t0 in
  let all_lat =
    List.concat_map (fun t -> t.t_lat) (Array.to_list tallies)
  in
  let ops =
    List.sort_uniq compare (List.map fst all_lat)
  in
  let by_op =
    List.map
      (fun op ->
        ( op,
          sorted_array
            (List.filter_map
               (fun (o, l) -> if o = op then Some l else None)
               all_lat) ))
      ops
  in
  let sum f = Array.fold_left (fun a t -> a + f t) 0 tallies in
  let gather f =
    sorted_array (List.concat_map f (Array.to_list tallies))
  in
  {
    lg_total = clients * requests;
    lg_ok = sum (fun t -> t.t_ok);
    lg_error = sum (fun t -> t.t_error);
    lg_overloaded = sum (fun t -> t.t_overloaded);
    lg_wall_s = wall;
    lg_latencies = sorted_array (List.map snd all_lat);
    lg_queue_waits = gather (fun t -> t.t_queue);
    lg_services = gather (fun t -> t.t_service);
    lg_by_op = by_op;
  }

let percentile q a =
  let n = Array.length a in
  if n = 0 then 0.
  else
    let rank = int_of_float (ceil (q *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))
