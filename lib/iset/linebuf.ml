(* Line buffer with Format's break rule (see linebuf.mli). Each hint is
   written as a space and its offset remembered; [newline] overwrites the
   breaking ones with '\n' in place, so no line is copied. *)

let margin = 400

type t = {
  mutable bytes : Bytes.t;
  mutable len : int;
  mutable line : int;  (** offset where the current line starts *)
  mutable hints : int array;  (** offsets of the current line's hints *)
  mutable nhints : int;
}

let create n =
  { bytes = Bytes.create (max n 16); len = 0; line = 0;
    hints = Array.make 16 0; nhints = 0 }

let reserve b n =
  let cap = Bytes.length b.bytes in
  if b.len + n > cap then begin
    let bytes = Bytes.create (max (2 * cap) (b.len + n)) in
    Bytes.blit b.bytes 0 bytes 0 b.len;
    b.bytes <- bytes
  end

let add_char b c =
  reserve b 1;
  Bytes.unsafe_set b.bytes b.len c;
  b.len <- b.len + 1

let add_string b s =
  let n = String.length s in
  reserve b n;
  Bytes.blit_string s 0 b.bytes b.len n;
  b.len <- b.len + n

let add_int b k =
  if k >= 0 && k < 10 then add_char b (Char.unsafe_chr (48 + k))
  else add_string b (string_of_int k)

let add_spaces b n =
  reserve b n;
  Bytes.unsafe_fill b.bytes b.len n ' ';
  b.len <- b.len + n

let comma b =
  add_string b ", ";
  if b.nhints = Array.length b.hints then begin
    let hints = Array.make (2 * b.nhints) 0 in
    Array.blit b.hints 0 hints 0 b.nhints;
    b.hints <- hints
  end;
  b.hints.(b.nhints) <- b.len - 1;
  b.nhints <- b.nhints + 1

let list f b xs =
  List.iteri
    (fun i x ->
      if i > 0 then comma b;
      f b x)
    xs

(* The break rule. Hint [i] sits at [p] in column [p - start]; the next
   one at [q] ends a segment of [q - p] bytes: this hint's own space, then
   text up to and including the next comma. *)
let newline b =
  let start = ref b.line in
  let last = b.nhints - 1 in
  for i = 0 to last do
    let p = b.hints.(i) in
    if i = last || b.hints.(i + 1) - p >= margin - (p - !start) then begin
      Bytes.unsafe_set b.bytes p '\n';
      start := p + 1
    end
  done;
  b.nhints <- 0;
  add_char b '\n';
  b.line <- b.len

let contents b = Bytes.sub_string b.bytes 0 b.len
