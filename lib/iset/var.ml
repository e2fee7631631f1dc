(** Variables occurring in integer-set formulas.

    A relation constrains an input tuple ([In i]) and an output tuple
    ([Out i]); a set uses only [In]. [Param] names a free symbolic constant
    (array extent, processor id, enclosing loop index at a vectorization
    level, ...). [Ex] is an existentially quantified variable local to one
    conjunct; ids are dense within the conjunct that owns them. *)

type t =
  | In of int
  | Out of int
  | Param of string
  | Ex of int

let compare a b =
  let tag = function In _ -> 0 | Out _ -> 1 | Param _ -> 2 | Ex _ -> 3 in
  match (a, b) with
  | In i, In j | Out i, Out j | Ex i, Ex j -> Int.compare i j
  | Param s, Param t -> String.compare s t
  | _ -> Int.compare (tag a) (tag b)

let equal a b = compare a b = 0

let hash = function
  | In i -> (i * 4) + 0
  | Out i -> (i * 4) + 1
  | Param s -> (Hashtbl.hash s * 4) + 2
  | Ex i -> (i * 4) + 3

let is_ex = function Ex _ -> true | _ -> false

(* canonical byte codec (see {!Wire}): one tag character plus payload *)
let wire_put b = function
  | In i ->
      Wire.char b 'i';
      Wire.int b i
  | Out i ->
      Wire.char b 'o';
      Wire.int b i
  | Param s ->
      Wire.char b 'p';
      Wire.string b s
  | Ex i ->
      Wire.char b 'e';
      Wire.int b i

let wire_read c =
  match Wire.read_char c with
  | 'i' -> In (Wire.read_int c)
  | 'o' -> Out (Wire.read_int c)
  | 'p' -> Param (Wire.read_string c)
  | 'e' -> Ex (Wire.read_int c)
  | _ -> raise Wire.Malformed

let pp fmt = function
  | In i -> Fmt.pf fmt "$in%d" i
  | Out i -> Fmt.pf fmt "$out%d" i
  | Param s -> Fmt.string fmt s
  | Ex i -> Fmt.pf fmt "$a%d" i

let to_string v = Fmt.str "%a" pp v

module Map = Map.Make (struct
  type nonrec t = t
  let compare = compare
end)

module Set = Set.Make (struct
  type nonrec t = t
  let compare = compare
end)
