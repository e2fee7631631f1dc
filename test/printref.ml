(* The reference printer: loop nests and SPMD programs printed through a
   Format formatter at margin 400, every list separator [Fmt.comma] and
   every line ended by [@.]. This is how the library printed them before
   Linebuf; the printing properties check that Linebuf's text is still
   byte-equal to it. *)

open Iset.Codegen
open Dhpf.Spmd

let rec pp_expr fmt = function
  | EInt k -> Fmt.int fmt k
  | EVar s -> Fmt.string fmt s
  | EAdd (a, b) -> Fmt.pf fmt "%a + %a" pp_expr a pp_expr b
  | ESub (a, b) -> Fmt.pf fmt "%a - %a" pp_expr a pp_paren b
  | EMul (k, e) -> Fmt.pf fmt "%d*%a" k pp_paren e
  | EFloorDiv (e, k) -> Fmt.pf fmt "floor(%a, %d)" pp_expr e k
  | ECeilDiv (e, k) -> Fmt.pf fmt "ceil(%a, %d)" pp_expr e k
  | EMax es -> Fmt.pf fmt "max(%a)" Fmt.(list ~sep:comma pp_expr) es
  | EMin es -> Fmt.pf fmt "min(%a)" Fmt.(list ~sep:comma pp_expr) es
  | EAlignUp (e, t, k) ->
      Fmt.pf fmt "alignup(%a, %a, %a)" pp_expr e pp_expr t pp_expr k

and pp_paren fmt e =
  match e with
  | EAdd _ | ESub _ -> Fmt.pf fmt "(%a)" pp_expr e
  | _ -> pp_expr fmt e

let rec pp_cond fmt = function
  | CTrue -> Fmt.string fmt ".true."
  | CGeq0 e -> Fmt.pf fmt "%a >= 0" pp_expr e
  | CEq0 e -> Fmt.pf fmt "%a == 0" pp_expr e
  | CDivides (k, e) -> Fmt.pf fmt "mod(%a, %d) == 0" pp_expr e k
  | CAnd cs -> Fmt.(list ~sep:(any " .and. ") pp_cond_paren) fmt cs
  | COr cs -> Fmt.(list ~sep:(any " .or. ") pp_cond_paren) fmt cs
  | CNot c -> Fmt.pf fmt ".not. %a" pp_cond_paren c

and pp_cond_paren fmt c =
  match c with
  | CAnd _ | COr _ | CNot _ -> Fmt.pf fmt "(%a)" pp_cond c
  | _ -> pp_cond fmt c

let rec pp_ast fmt ?(indent = 0) ast =
  let pad = String.make indent ' ' in
  match ast with
  | AFor { var; lo; hi; step; body } ->
      if step = 1 then
        Fmt.pf fmt "%sdo %s = %a, %a@." pad var pp_expr lo pp_expr hi
      else
        Fmt.pf fmt "%sdo %s = %a, %a, %d@." pad var pp_expr lo pp_expr hi step;
      List.iter (pp_ast fmt ~indent:(indent + 2)) body;
      Fmt.pf fmt "%senddo@." pad
  | AIf (c, body) ->
      Fmt.pf fmt "%sif (%a) then@." pad pp_cond c;
      List.iter (pp_ast fmt ~indent:(indent + 2)) body;
      Fmt.pf fmt "%sendif@." pad
  | ALeaf tag -> Fmt.pf fmt "%s%a@." pad Fmt.string tag

let with_formatter f =
  let buf = Buffer.create 1024 in
  let fmt = Format.formatter_of_buffer buf in
  Format.pp_set_margin fmt 400;
  f fmt;
  Format.pp_print_flush fmt ();
  Buffer.contents buf

let ast_to_string asts =
  with_formatter (fun fmt -> List.iter (pp_ast fmt ~indent:0) asts)

let rec pp_fexpr fmt = function
  | FConst x -> Fmt.float fmt x
  | FLoad { arr; idx; access } ->
      let marker =
        match access with Local | Global -> "" | Checked -> "@" | Overlay -> "~"
      in
      Fmt.pf fmt "%s%s(%a)" marker arr Fmt.(list ~sep:comma pp_expr) idx
  | FScalar s -> Fmt.string fmt s
  | FBin (op, a, b) ->
      let s =
        match op with Hpf.Ast.Add -> "+" | Sub -> "-" | Mul -> "*" | Div -> "/"
      in
      Fmt.pf fmt "(%a %s %a)" pp_fexpr a s pp_fexpr b
  | FNeg a -> Fmt.pf fmt "(-%a)" pp_fexpr a
  | FIntrin (f, args) ->
      Fmt.pf fmt "%s(%a)" f Fmt.(list ~sep:comma pp_fexpr) args
  | FOfInt e -> pp_expr fmt e

let rec pp_fcond fmt = function
  | FCmp (a, op, b) ->
      Fmt.pf fmt "%a %s %a" pp_fexpr a (Hpf.Ast.string_of_cmpop op) pp_fexpr b
  | FAnd (a, b) -> Fmt.pf fmt "(%a .and. %a)" pp_fcond a pp_fcond b
  | FOr (a, b) -> Fmt.pf fmt "(%a .or. %a)" pp_fcond a pp_fcond b
  | FNot a -> Fmt.pf fmt "(.not. %a)" pp_fcond a

let rec pp_stmt ?(indent = 0) fmt s =
  let pad = String.make indent ' ' in
  let body b = List.iter (pp_stmt ~indent:(indent + 2) fmt) b in
  let exprs = Fmt.(list ~sep:comma pp_expr) in
  match s with
  | For { var; lo; hi; step; body = b } ->
      (match step with
      | EInt 1 -> Fmt.pf fmt "%sdo %s = %a, %a@." pad var pp_expr lo pp_expr hi
      | _ ->
          Fmt.pf fmt "%sdo %s = %a, %a, %a@." pad var pp_expr lo pp_expr hi
            pp_expr step);
      body b;
      Fmt.pf fmt "%senddo@." pad
  | If (c, b) ->
      Fmt.pf fmt "%sif (%a) then@." pad pp_cond c;
      body b;
      Fmt.pf fmt "%sendif@." pad
  | FIf (c, t, e) ->
      Fmt.pf fmt "%sif (%a) then@." pad pp_fcond c;
      body t;
      if e <> [] then begin
        Fmt.pf fmt "%selse@." pad;
        body e
      end;
      Fmt.pf fmt "%sendif@." pad
  | Store { arr; idx; value; access } ->
      let marker = match access with Checked -> "@" | _ -> "" in
      Fmt.pf fmt "%s%s%s(%a) = %a@." pad marker arr exprs idx pp_fexpr value
  | SetScalar (s, v) -> Fmt.pf fmt "%s%s = %a@." pad s pp_fexpr v
  | Pack { event; arr; idx } ->
      Fmt.pf fmt "%scall pack_%d(%s(%a))@." pad event arr exprs idx
  | Send { event; dest } ->
      Fmt.pf fmt "%scall send_%d(vp=(%a))@." pad event exprs dest
  | Recv { event; src } ->
      Fmt.pf fmt "%scall recv_%d(vp=(%a))@." pad event exprs src
  | Reduce { scalar; op } ->
      Fmt.pf fmt "%scall allreduce_%s(%s)@." pad (reduce_op_name op) scalar
  | Call f -> Fmt.pf fmt "%scall %s@." pad f
  | Comment c -> Fmt.pf fmt "%s! %s@." pad c

let program_to_string (p : program) =
  with_formatter (fun fmt ->
      Fmt.pf fmt "! SPMD node program@.";
      List.iter
        (fun (name, body) ->
          Fmt.pf fmt "subroutine %s@." name;
          List.iter (pp_stmt ~indent:2 fmt) body;
          Fmt.pf fmt "end subroutine@.@.")
        p.subs;
      Fmt.pf fmt "program main@.";
      List.iter (pp_stmt ~indent:2 fmt) p.main;
      Fmt.pf fmt "end program@.")
