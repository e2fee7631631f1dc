(* Client side of dhpf-serve/1 (see client.mli). *)

exception Connect_error of string

(* without this the EPIPE handling below is moot: the default SIGPIPE
   disposition kills the process before write ever returns the error *)
let ignore_sigpipe =
  lazy (Sys.set_signal Sys.sigpipe Sys.Signal_ignore)

let connect socket =
  Lazy.force ignore_sigpipe;
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  try
    Unix.connect fd (Unix.ADDR_UNIX socket);
    fd
  with Unix.Unix_error (e, _, _) ->
    (try Unix.close fd with _ -> ());
    raise
      (Connect_error
         (Printf.sprintf "%s: %s" socket (Unix.error_message e)))

let request_json ~socket payload =
  let fd = connect socket in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with _ -> ())
    (fun () ->
      (* an overloaded server answers and closes without reading the
         request, so the write can hit a closed peer (EPIPE) while a
         perfectly good response sits in the socket buffer — push on to
         the read and let it decide *)
      (try Proto.write_json fd payload
       with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> ());
      match Proto.read_json fd with
      | Some v -> v
      | None ->
          raise (Proto.Proto_error "server closed without a response"))

let request ?rid ~socket req =
  let payload = Proto.request_to_json req in
  let payload =
    match (rid, payload) with
    | Some r, Obs.Json.Obj fields ->
        Obs.Json.Obj (fields @ [ ("rid", Obs.Json.Str r) ])
    | _ -> payload
  in
  request_json ~socket payload

let wait_ready ?(attempts = 100) ?(delay_s = 0.05) ~socket () =
  let rec go n =
    if n <= 0 then false
    else
      let up =
        try
          let v = request ~socket Proto.Ping in
          Obs.Json.get_str v "status" = Some "ok"
        with Connect_error _ | Proto.Proto_error _ -> false
      in
      if up then true
      else begin
        Unix.sleepf delay_s;
        go (n - 1)
      end
  in
  go attempts
