(** Client side of [dhpf-serve/1]: connect, send one request, read one
    response. *)

exception Connect_error of string
(** The socket could not be reached (no server, stale path, refused). *)

val request : ?rid:string -> socket:string -> Proto.request -> Obs.Json.t
(** One round trip on a fresh connection. [rid] is the caller-chosen
    trace id stamped on the request; the server threads it through its
    log/flight-recorder and echoes it in the response ([rid] plus the
    [telemetry] section).
    @raise Connect_error when the connection cannot be established.
    @raise Proto.Proto_error on a malformed response (including a server
    that closed the connection without answering). *)

val request_json : socket:string -> Obs.Json.t -> Obs.Json.t
(** {!request} with a caller-built payload — the escape hatch used by
    the protocol-error tests to send frames no {!Proto.request}
    constructor would produce. *)

val wait_ready : ?attempts:int -> ?delay_s:float -> socket:string -> unit -> bool
(** Poll [ping] until the server answers [ok] (true) or the attempts
    run out (false). Default: 100 attempts, 50 ms apart. *)
