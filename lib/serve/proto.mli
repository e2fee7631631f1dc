(** The [dhpf-serve/1] wire protocol: length-prefixed JSON over a
    Unix-domain socket, one request per connection.

    A frame is a 4-byte big-endian payload length followed by that many
    bytes of UTF-8 JSON. The client connects, writes one request frame,
    reads one response frame, and the server closes the connection.

    Every request is an object with an ["op"] field; every response is an
    object with ["schema"] = ["dhpf-serve/1"] and a ["status"] field:

    - ["ok"] — the operation succeeded; payload fields depend on the op
      (e.g. ["report"] for compiles, ["run"] for runs).
    - ["error"] — the operation failed; ["code"] is a kind of
      {!Server.classify}'s failure table (one CLI exit code each), and
      ["message"] is human-readable.
    - ["overloaded"] — admission control rejected the request because the
      server's queue was at [--max-queue]; retry later. *)

val schema : string
(** ["dhpf-serve/1"]. *)

val max_frame : int
(** Largest accepted payload (16 MiB); larger frames are a protocol
    error. *)

exception Proto_error of string
(** A malformed frame: oversized length, short read mid-frame, or a
    payload that does not parse as JSON. *)

(** {1 Framing} *)

val write_frame : Unix.file_descr -> string -> unit

val write_json : Unix.file_descr -> Obs.Json.t -> unit

val read_json : Unix.file_descr -> Obs.Json.t option
(** One frame's JSON payload; [None] on a clean EOF before the first
    length byte.
    @raise Proto_error on a short or oversized frame, or when the payload
    is not valid JSON. *)

(** {1 Requests} *)

type request =
  | Ping
  | Stats  (** metrics snapshot + queue depth + rolling-window gauges *)
  | Dump  (** flight-recorder bundle + metrics snapshot *)
  | Shutdown  (** acknowledge, then stop the server *)
  | Compile of {
      label : string;  (** builtin name, or a caller-chosen label *)
      source : string option;  (** inline mini-HPF text; overrides label *)
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

val op_name : request -> string
(** The wire ["op"] string of a request (["ping"], ["compile"], ...). *)

val request_to_json : request -> Obs.Json.t

val request_of_json : Obs.Json.t -> (request, string) result
(** [Error] carries the reason (unknown op, missing field, bad type). *)

(** {1 Response builders} *)

val ok : (string * Obs.Json.t) list -> Obs.Json.t
val error : code:string -> string -> Obs.Json.t
val overloaded : Obs.Json.t
