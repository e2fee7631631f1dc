(** The repository's one JSON codec: the value type, a strict parser and
    a stable printer. Every JSON document the project writes — Chrome
    traces, flight dumps, JSONL logs, metrics exports, the serve protocol,
    compile reports and bench results — is built as a {!t} and printed by
    {!to_string}; every reader parses with {!of_string}.

    The printer is compact: no whitespace between tokens and never a raw
    newline (control characters in strings are escaped), so one document
    is one line and JSONL stays one record per line. Equal values print to
    equal bytes; object field order is preserved, not sorted — builders
    emit fields in schema order. The parser accepts standard JSON (UTF-8
    passthrough, [\uXXXX] escapes including surrogate pairs) and rejects
    trailing garbage. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

exception Error of string

val to_string : t -> string
(** Numbers: an integral value of magnitude at most 2{^53} prints without
    a fraction; any other finite value prints with [%.15g] when that reads
    back to the same float and with [%.17g] otherwise, so every finite
    number round-trips exactly. Non-finite numbers print as [null]. *)

val max_depth : int
(** The deepest nesting of arrays and objects {!of_string} accepts (512);
    no document the project writes comes near it. *)

val of_string : string -> t
(** @raise Error on any malformation, including trailing garbage and
    nesting deeper than {!max_depth}. *)

(** {1 Builders and accessors} *)

val int : int -> t

val get : t -> string -> t option
(** Field of an [Obj]; [None] on anything else or when absent. *)

val get_str : t -> string -> string option
val to_int : t -> int option
(** An integral [Num] with magnitude at most 2{^53}, the range {!to_string}
    prints exactly; [None] for anything else. *)

val get_int : t -> string -> int option
(** The field, by {!to_int}. *)

val get_bool : t -> string -> bool option
val get_num : t -> string -> float option
val get_list : t -> string -> t list option
