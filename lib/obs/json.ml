(* The JSON codec (see json.mli). *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

exception Error of string

let err fmt = Printf.ksprintf (fun s -> raise (Error s)) fmt

(* -- printing ------------------------------------------------------- *)

(* plain runs are copied whole; only quotes, backslashes and control
   characters are written one at a time *)
let escape b s =
  Buffer.add_char b '"';
  let n = String.length s in
  let run = ref 0 in
  for i = 0 to n - 1 do
    let c = String.unsafe_get s i in
    if c = '"' || c = '\\' || c < ' ' then begin
      Buffer.add_substring b s !run (i - !run);
      run := i + 1;
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | '\b' -> Buffer.add_string b "\\b"
      | '\012' -> Buffer.add_string b "\\f"
      | c ->
          Buffer.add_string b "\\u00";
          Buffer.add_char b "0123456789abcdef".[Char.code c lsr 4];
          Buffer.add_char b "0123456789abcdef".[Char.code c land 15]
    end
  done;
  Buffer.add_substring b s !run (n - !run);
  Buffer.add_char b '"'

let add_num b x =
  if not (Float.is_finite x) then Buffer.add_string b "null"
  else if Float.is_integer x && Float.abs x <= 0x1p53 then
    Buffer.add_string b (Printf.sprintf "%.0f" x)
  else
    let s = Printf.sprintf "%.15g" x in
    Buffer.add_string b
      (if float_of_string s = x then s else Printf.sprintf "%.17g" x)

let rec add b = function
  | Null -> Buffer.add_string b "null"
  | Bool v -> Buffer.add_string b (if v then "true" else "false")
  | Num x -> add_num b x
  | Str s -> escape b s
  | List xs ->
      Buffer.add_char b '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char b ',';
          add b x)
        xs;
      Buffer.add_char b ']'
  | Obj fields ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b ',';
          escape b k;
          Buffer.add_char b ':';
          add b v)
        fields;
      Buffer.add_char b '}'

let to_string v =
  let b = Buffer.create 256 in
  add b v;
  Buffer.contents b

(* -- parsing -------------------------------------------------------- *)

type cursor = { s : string; mutable pos : int }

let peek c = if c.pos < String.length c.s then Some c.s.[c.pos] else None

let next c =
  match peek c with
  | Some ch ->
      c.pos <- c.pos + 1;
      ch
  | None -> err "unexpected end of input"

let skip_ws c =
  while
    match peek c with
    | Some (' ' | '\t' | '\n' | '\r') ->
        c.pos <- c.pos + 1;
        true
    | _ -> false
  do
    ()
  done

let expect c ch =
  let got = next c in
  if got <> ch then err "expected %C at offset %d, got %C" ch (c.pos - 1) got

let literal c word v =
  String.iter (fun ch -> expect c ch) word;
  v

let hex4 c =
  let digit ch =
    match ch with
    | '0' .. '9' -> Char.code ch - Char.code '0'
    | 'a' .. 'f' -> Char.code ch - Char.code 'a' + 10
    | 'A' .. 'F' -> Char.code ch - Char.code 'A' + 10
    | _ -> err "bad \\u escape"
  in
  let a = digit (next c) in
  let b = digit (next c) in
  let d = digit (next c) in
  let e = digit (next c) in
  (a lsl 12) lor (b lsl 8) lor (d lsl 4) lor e

let add_utf8 b cp =
  if cp < 0x80 then Buffer.add_char b (Char.chr cp)
  else if cp < 0x800 then begin
    Buffer.add_char b (Char.chr (0xC0 lor (cp lsr 6)));
    Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3F)))
  end
  else if cp < 0x10000 then begin
    Buffer.add_char b (Char.chr (0xE0 lor (cp lsr 12)));
    Buffer.add_char b (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3F)))
  end
  else begin
    Buffer.add_char b (Char.chr (0xF0 lor (cp lsr 18)));
    Buffer.add_char b (Char.chr (0x80 lor ((cp lsr 12) land 0x3F)));
    Buffer.add_char b (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3F)))
  end

(* the first offset at or after [i] holding a quote, a backslash or a
   control character; [String.length s] if none *)
let rec plain_end s i =
  if i < String.length s then
    match String.unsafe_get s i with
    | '"' | '\\' | '\000' .. '\031' -> i
    | _ -> plain_end s (i + 1)
  else i

let parse_string c =
  expect c '"';
  let s = c.s in
  let stop = plain_end s c.pos in
  if stop < String.length s && s.[stop] = '"' then begin
    (* no escapes: one copy of the run *)
    let r = String.sub s c.pos (stop - c.pos) in
    c.pos <- stop + 1;
    r
  end
  else begin
    let b = Buffer.create (stop - c.pos + 16) in
    let rec go stop =
      Buffer.add_substring b s c.pos (stop - c.pos);
      c.pos <- stop;
      match next c with
      | '"' -> Buffer.contents b
      | '\\' ->
          (match next c with
          | '"' -> Buffer.add_char b '"'
          | '\\' -> Buffer.add_char b '\\'
          | '/' -> Buffer.add_char b '/'
          | 'n' -> Buffer.add_char b '\n'
          | 'r' -> Buffer.add_char b '\r'
          | 't' -> Buffer.add_char b '\t'
          | 'b' -> Buffer.add_char b '\b'
          | 'f' -> Buffer.add_char b '\012'
          | 'u' ->
              let cp = hex4 c in
              if cp >= 0xD800 && cp <= 0xDBFF then begin
                (* high surrogate: a low surrogate must follow *)
                expect c '\\';
                expect c 'u';
                let lo = hex4 c in
                if lo < 0xDC00 || lo > 0xDFFF then err "unpaired surrogate";
                add_utf8 b
                  (0x10000 + (((cp - 0xD800) lsl 10) lor (lo - 0xDC00)))
              end
              else if cp >= 0xDC00 && cp <= 0xDFFF then err "unpaired surrogate"
              else add_utf8 b cp
          | ch -> err "bad escape \\%C" ch);
          go (plain_end s c.pos)
      | _ -> err "raw control character in string"
    in
    go stop
  end

let parse_number c =
  let start = c.pos in
  let num_char ch =
    match ch with
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  while match peek c with Some ch when num_char ch -> true | _ -> false do
    c.pos <- c.pos + 1
  done;
  let tok = String.sub c.s start (c.pos - start) in
  match float_of_string_opt tok with
  | Some x -> Num x
  | None -> err "bad number %S at offset %d" tok start

let max_depth = 512

(* [depth]: containers open around the value. The parser recurses once per
   level, so a cap keeps a hostile document from growing the stack (and
   the collector's work on it) with its length. *)
let rec parse_value c depth =
  skip_ws c;
  match peek c with
  | None -> err "unexpected end of input"
  | Some '"' -> Str (parse_string c)
  | Some ('{' | '[') when depth >= max_depth ->
      err "nesting deeper than %d at offset %d" max_depth c.pos
  | Some '{' ->
      expect c '{';
      skip_ws c;
      if peek c = Some '}' then begin
        c.pos <- c.pos + 1;
        Obj []
      end
      else begin
        let rec fields acc =
          skip_ws c;
          let k = parse_string c in
          skip_ws c;
          expect c ':';
          let v = parse_value c (depth + 1) in
          skip_ws c;
          match next c with
          | ',' -> fields ((k, v) :: acc)
          | '}' -> Obj (List.rev ((k, v) :: acc))
          | ch -> err "expected ',' or '}', got %C" ch
        in
        fields []
      end
  | Some '[' ->
      expect c '[';
      skip_ws c;
      if peek c = Some ']' then begin
        c.pos <- c.pos + 1;
        List []
      end
      else begin
        let rec elems acc =
          let v = parse_value c (depth + 1) in
          skip_ws c;
          match next c with
          | ',' -> elems (v :: acc)
          | ']' -> List (List.rev (v :: acc))
          | ch -> err "expected ',' or ']', got %C" ch
        in
        elems []
      end
  | Some 't' -> literal c "true" (Bool true)
  | Some 'f' -> literal c "false" (Bool false)
  | Some 'n' -> literal c "null" Null
  | Some _ -> parse_number c

let of_string s =
  let c = { s; pos = 0 } in
  let v = parse_value c 0 in
  skip_ws c;
  if c.pos <> String.length s then err "trailing garbage at offset %d" c.pos;
  v

(* -- builders and accessors ----------------------------------------- *)

let int n = Num (float_of_int n)

let get v k =
  match v with Obj fields -> List.assoc_opt k fields | _ -> None

let get_str v k = match get v k with Some (Str s) -> Some s | _ -> None

(* integral and within the printer's exact range (see [add_num]): past
   2^53 a double need not be the integer that was written, and
   [int_of_float] is unspecified past [max_int] *)
let to_int = function
  | Num x when Float.is_integer x && Float.abs x <= 0x1p53 -> Some (int_of_float x)
  | _ -> None

let get_int v k = Option.bind (get v k) to_int

let get_bool v k = match get v k with Some (Bool b) -> Some b | _ -> None
let get_num v k = match get v k with Some (Num x) -> Some x | _ -> None
let get_list v k = match get v k with Some (List xs) -> Some xs | _ -> None
