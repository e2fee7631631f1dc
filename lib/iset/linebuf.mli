(** The output buffer behind every printed loop nest and SPMD node
    program ({!Codegen.ast_to_string}, [Dhpf.Spmd.program_to_string]).

    Text is appended line by line. {!comma} writes [", "] and marks the
    space as a break hint; {!newline} ends the line and settles its hints
    in place, turning some of those spaces into newlines. The rule is the
    one a [Format] formatter with margin 400 applied to the same text when
    every list separator was [Fmt.comma] and every line ended with [@.],
    so the printed programs keep their bytes:
    - the last hint on a line always breaks;
    - any other hint breaks iff [1 + (characters after it, up to and
      including the next hint's comma) >= 400 - column];
    - after a break the column is 0 and no indent is written.

    Columns count bytes since the last newline written by {!newline} or
    by a break. *)

type t

val create : int -> t
(** An empty buffer with the given initial capacity in bytes. *)

val add_string : t -> string -> unit
val add_char : t -> char -> unit
val add_int : t -> int -> unit

val add_spaces : t -> int -> unit
(** [add_spaces b n] writes [n] spaces (an indent). *)

val comma : t -> unit
(** [", "], the space a break hint. *)

val list : (t -> 'a -> unit) -> t -> 'a list -> unit
(** The elements separated by {!comma}. *)

val newline : t -> unit
(** End the current line: settle its hints, then write ['\n']. *)

val contents : t -> string
(** Everything written so far. Hints of an unfinished line stay spaces. *)
