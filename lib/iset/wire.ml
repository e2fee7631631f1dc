(* Canonical byte encoding for integer-set structures (see wire.mli).

   The stream is flat text: an int is its decimal image terminated by one
   space, a string is its length followed by the raw bytes, a list is its
   length followed by the elements. Every reader bounds-checks against the
   end of the buffer and raises {!Malformed} on any shortfall, so a
   truncated cache entry can never read past its bytes or loop. *)

exception Malformed

type cursor = { buf : string; mutable pos : int }

let cursor ?(pos = 0) buf = { buf; pos }
let at_end c = c.pos >= String.length c.buf

(* [n] against the bytes left, not [c.pos + n] against the length: a
   corrupt length field near [max_int] would overflow the sum *)
let take c n =
  if n < 0 || n > String.length c.buf - c.pos then raise Malformed;
  let s = String.sub c.buf c.pos n in
  c.pos <- c.pos + n;
  s

let char b c = Buffer.add_char b c

let read_char c =
  if at_end c then raise Malformed;
  let ch = c.buf.[c.pos] in
  c.pos <- c.pos + 1;
  ch

let int b n =
  Buffer.add_string b (string_of_int n);
  Buffer.add_char b ' '

(* decimal, optional leading '-', at least one digit, terminated by one
   space; anything else — a value outside [min_int, max_int] included —
   is malformed. Accumulates negated to represent [min_int] without
   overflow; [acc * 10 - d >= min_int] iff [acc >= (min_int + d) / 10],
   as [/] truncates toward zero. *)
let read_int c =
  let neg =
    if (not (at_end c)) && c.buf.[c.pos] = '-' then begin
      c.pos <- c.pos + 1;
      true
    end
    else false
  in
  let rec digits acc n =
    match read_char c with
    | '0' .. '9' as d ->
        let d = Char.code d - Char.code '0' in
        if acc < (min_int + d) / 10 then raise Malformed;
        digits ((acc * 10) - d) (n + 1)
    | ' ' when n > 0 -> acc
    | _ -> raise Malformed
  in
  let acc = digits 0 0 in
  if neg then acc else if acc = min_int then raise Malformed else -acc

let bool b v = Buffer.add_char b (if v then '1' else '0')

let read_bool c =
  match read_char c with
  | '1' -> true
  | '0' -> false
  | _ -> raise Malformed

let string b s =
  int b (String.length s);
  Buffer.add_string b s

let read_string c = take c (read_int c)

let list f b xs =
  int b (List.length xs);
  List.iter (f b) xs

(* elements must be read left to right ([List.init] does not guarantee an
   application order), so build the list with an explicit fold *)
let read_list f c =
  let n = read_int c in
  if n < 0 then raise Malformed;
  let rec go k acc = if k = 0 then List.rev acc else go (k - 1) (f c :: acc) in
  go n []
