(* dhpf-serve/1 framing and request codec (see proto.mli). *)

let schema = "dhpf-serve/1"
let max_frame = 16 * 1024 * 1024

exception Proto_error of string

let perr fmt = Printf.ksprintf (fun s -> raise (Proto_error s)) fmt

(* -- framing -------------------------------------------------------- *)

let rec write_all fd buf pos len =
  if len > 0 then begin
    let n =
      try Unix.write fd buf pos len
      with Unix.Unix_error (Unix.EINTR, _, _) -> 0
    in
    write_all fd buf (pos + n) (len - n)
  end

(* [false] on EOF at the very first byte (and only there) *)
let read_exact fd buf pos len =
  let rec go pos len =
    if len = 0 then true
    else
      match Unix.read fd buf pos len with
      | 0 ->
          if pos = 0 then false else perr "short read: connection closed mid-frame"
      | n -> go (pos + n) (len - n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go pos len
  in
  go pos len

let write_frame fd payload =
  let len = String.length payload in
  if len > max_frame then perr "frame of %d bytes exceeds %d" len max_frame;
  let b = Bytes.create (4 + len) in
  Bytes.set_uint8 b 0 ((len lsr 24) land 0xFF);
  Bytes.set_uint8 b 1 ((len lsr 16) land 0xFF);
  Bytes.set_uint8 b 2 ((len lsr 8) land 0xFF);
  Bytes.set_uint8 b 3 (len land 0xFF);
  Bytes.blit_string payload 0 b 4 len;
  write_all fd b 0 (Bytes.length b)

let read_frame fd =
  let hdr = Bytes.create 4 in
  if not (read_exact fd hdr 0 4) then None
  else begin
    let len =
      (Bytes.get_uint8 hdr 0 lsl 24)
      lor (Bytes.get_uint8 hdr 1 lsl 16)
      lor (Bytes.get_uint8 hdr 2 lsl 8)
      lor Bytes.get_uint8 hdr 3
    in
    if len > max_frame then perr "frame of %d bytes exceeds %d" len max_frame;
    let b = Bytes.create len in
    if len > 0 && not (read_exact fd b 0 len) then
      perr "short read: connection closed mid-frame";
    Some (Bytes.unsafe_to_string b)
  end

let write_json fd v = write_frame fd (Obs.Json.to_string v)

let read_json fd =
  match read_frame fd with
  | None -> None
  | Some payload -> (
      match Obs.Json.of_string payload with
      | v -> Some v
      | exception Obs.Json.Error msg -> perr "bad JSON payload: %s" msg)

(* -- requests ------------------------------------------------------- *)

type request =
  | Ping
  | Stats
  | Dump
  | Shutdown
  | Compile of {
      label : string;
      source : string option;
      opts : Dhpf.Gen.options;
    }
  | Run of {
      label : string;
      source : string option;
      opts : Dhpf.Gen.options;
      nprocs : int;
      params : (string * int) list;
      engine : string;
    }

let opts_to_json (o : Dhpf.Gen.options) =
  Obs.Json.Obj
    [
      ("split", Obs.Json.Bool o.Dhpf.Gen.opt_split);
      ("vectorize", Obs.Json.Bool o.Dhpf.Gen.opt_vectorize);
      ("coalesce", Obs.Json.Bool o.Dhpf.Gen.opt_coalesce);
      ("inplace", Obs.Json.Bool o.Dhpf.Gen.opt_inplace);
    ]

let opts_of_json v =
  match Obs.Json.get v "opts" with
  | None -> Dhpf.Gen.default_options
  | Some o ->
      let d = Dhpf.Gen.default_options in
      let flag k dflt = Option.value (Obs.Json.get_bool o k) ~default:dflt in
      {
        Dhpf.Gen.opt_split = flag "split" d.Dhpf.Gen.opt_split;
        opt_vectorize = flag "vectorize" d.Dhpf.Gen.opt_vectorize;
        opt_coalesce = flag "coalesce" d.Dhpf.Gen.opt_coalesce;
        opt_inplace = flag "inplace" d.Dhpf.Gen.opt_inplace;
      }

let params_to_json ps =
  Obs.Json.List
    (List.map (fun (n, v) -> Obs.Json.List [ Obs.Json.Str n; Obs.Json.int v ]) ps)

let params_of_json v =
  let bad = Error "params must be a list of [name, int] pairs" in
  match Obs.Json.get v "params" with
  | None -> Ok []
  | Some (Obs.Json.List xs) ->
      let rec go acc = function
        | [] -> Ok (List.rev acc)
        | Obs.Json.List [ Obs.Json.Str n; x ] :: rest -> (
            match Obs.Json.to_int x with Some k -> go ((n, k) :: acc) rest | None -> bad)
        | _ -> bad
      in
      go [] xs
  | Some _ -> bad

(* absent is the default of 4; present, it must be a positive integer *)
let nprocs_of_json v =
  match Obs.Json.get v "nprocs" with
  | None -> Ok 4
  | Some x -> (
      match Obs.Json.to_int x with
      | Some n when n >= 1 -> Ok n
      | Some _ -> Error "nprocs must be positive"
      | None -> Error "nprocs must be an integer")

let src_fields label source =
  ("src", Obs.Json.Str label)
  ::
  (match source with Some s -> [ ("source", Obs.Json.Str s) ] | None -> [])

let op_name = function
  | Ping -> "ping"
  | Stats -> "stats"
  | Dump -> "dump"
  | Shutdown -> "shutdown"
  | Compile _ -> "compile"
  | Run _ -> "run"

let request_to_json = function
  | Ping -> Obs.Json.Obj [ ("op", Obs.Json.Str "ping") ]
  | Stats -> Obs.Json.Obj [ ("op", Obs.Json.Str "stats") ]
  | Dump -> Obs.Json.Obj [ ("op", Obs.Json.Str "dump") ]
  | Shutdown -> Obs.Json.Obj [ ("op", Obs.Json.Str "shutdown") ]
  | Compile { label; source; opts } ->
      Obs.Json.Obj
        ((("op", Obs.Json.Str "compile") :: src_fields label source)
        @ [ ("opts", opts_to_json opts) ])
  | Run { label; source; opts; nprocs; params; engine } ->
      Obs.Json.Obj
        ((("op", Obs.Json.Str "run") :: src_fields label source)
        @ [
            ("opts", opts_to_json opts);
            ("nprocs", Obs.Json.int nprocs);
            ("params", params_to_json params);
            ("engine", Obs.Json.Str engine);
          ])

let request_of_json v =
  match Obs.Json.get_str v "op" with
  | None -> Error "missing op field"
  | Some "ping" -> Ok Ping
  | Some "stats" -> Ok Stats
  | Some "dump" -> Ok Dump
  | Some "shutdown" -> Ok Shutdown
  | Some ("compile" | "run") as op -> (
      let op = Option.get op in
      let source = Obs.Json.get_str v "source" in
      let label =
        match (Obs.Json.get_str v "src", source) with
        | Some l, _ -> Some l
        | None, Some _ -> Some "<inline>"
        | None, None -> None
      in
      match label with
      | None -> Error "compile/run needs src (builtin name) or source (text)"
      | Some label -> (
          let opts = opts_of_json v in
          match op with
          | "compile" -> Ok (Compile { label; source; opts })
          | _ -> (
              match (params_of_json v, nprocs_of_json v) with
              | Error e, _ | _, Error e -> Error e
              | Ok params, Ok nprocs ->
                  let engine =
                    Option.value (Obs.Json.get_str v "engine") ~default:"closure"
                  in
                  Ok (Run { label; source; opts; nprocs; params; engine }))))
  | Some op -> Error (Printf.sprintf "unknown op %S" op)

(* -- responses ------------------------------------------------------ *)

let base status rest =
  Obs.Json.Obj
    ((("schema", Obs.Json.Str schema) :: [ ("status", Obs.Json.Str status) ]) @ rest)

let ok fields = base "ok" fields

let error ~code msg =
  base "error" [ ("code", Obs.Json.Str code); ("message", Obs.Json.Str msg) ]

let overloaded =
  base "overloaded"
    [ ("message", Obs.Json.Str "queue full; retry later") ]
