(** A small calculator language over sets and relations, in the spirit of
    the Omega calculator that accompanied the original Omega library. Used
    by [dhpfc omega] and handy in tests and exploration:

    {v
      A := {[i] : 1 <= i <= n};
      B := {[i] : exists(a : i = 2a)};
      C := A - B;
      C;
      sat C;
      A subset B;
      L := {[p] -> [a] : 4p+1 <= a <= 4p+4 && 0 <= p <= 3};
      domain (L restrictrange {[a] : a = 7});
      codegen C;
    v} *)

exception Error of string

let errf fmt = Fmt.kstr (fun s -> raise (Error s)) fmt

type env = (string * Rel.t) list

(* ------------------------------------------------------------------ *)
(* Lexing: set literals are atomic tokens                              *)
(* ------------------------------------------------------------------ *)

type token =
  | TIdent of string
  | TSet of string  (** a complete {...} literal, braces included *)
  | TAssign
  | TLParen
  | TRParen
  | TMinus

let tokenize line =
  let n = String.length line in
  let toks = ref [] in
  let i = ref 0 in
  let push t = toks := t :: !toks in
  while !i < n do
    let c = line.[!i] in
    if c = ' ' || c = '\t' then incr i
    else if c = '{' then begin
      let depth = ref 0 and j = ref !i in
      let stop = ref (-1) in
      while !j < n && !stop < 0 do
        (match line.[!j] with
        | '{' -> incr depth
        | '}' ->
            decr depth;
            if !depth = 0 then stop := !j
        | _ -> ());
        incr j
      done;
      if !stop < 0 then errf "unterminated set literal";
      (* a literal may be followed by `union {..}` chains; keep them joined
         so Parse.rel sees the whole union *)
      push (TSet (String.sub line !i (!stop - !i + 1)));
      i := !stop + 1
    end
    else if c = '(' then begin push TLParen; incr i end
    else if c = ')' then begin push TRParen; incr i end
    else if c = '-' then begin push TMinus; incr i end
    else if c = ':' && !i + 1 < n && line.[!i + 1] = '=' then begin
      push TAssign;
      i := !i + 2
    end
    else if c = ';' then incr i
    else if (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_' then begin
      let j = ref !i in
      while
        !j < n
        && ((line.[!j] >= 'a' && line.[!j] <= 'z')
           || (line.[!j] >= 'A' && line.[!j] <= 'Z')
           || (line.[!j] >= '0' && line.[!j] <= '9')
           || line.[!j] = '_')
      do
        incr j
      done;
      push (TIdent (String.sub line !i (!j - !i)));
      i := !j
    end
    else errf "unexpected character %C" c
  done;
  List.rev !toks

(* join consecutive TSet "u" TSet produced by `{..} union {..}` *)
let rec join_unions = function
  | TSet a :: TIdent "union" :: TSet b :: rest ->
      join_unions (TSet (a ^ " union " ^ b) :: rest)
  | t :: rest -> t :: join_unions rest
  | [] -> []

(* ------------------------------------------------------------------ *)
(* Parsing and evaluation                                              *)
(* ------------------------------------------------------------------ *)

type st = { mutable toks : token list; env : env }

let peek st = match st.toks with t :: _ -> Some t | [] -> None
let advance st = match st.toks with _ :: r -> st.toks <- r | [] -> ()

let unops = [ "domain"; "range"; "inverse"; "hull"; "simplify"; "coalesce"; "flatten"; "disjoint" ]

let binops =
  [ "inter"; "union"; "compose"; "apply"; "restrictdomain"; "restrictrange"; "gist" ]

let rec parse_expr st : Rel.t =
  let lhs = parse_atom st in
  parse_rest st lhs

and parse_rest st lhs =
  match peek st with
  | Some TMinus ->
      advance st;
      let rhs = parse_atom st in
      parse_rest st (Rel.diff lhs rhs)
  | Some (TIdent op) when List.mem op binops ->
      advance st;
      let rhs = parse_atom st in
      let v =
        match op with
        | "inter" -> Rel.inter lhs rhs
        | "union" -> Rel.union lhs rhs
        | "compose" -> Rel.compose lhs rhs
        | "apply" -> Rel.apply lhs rhs
        | "restrictdomain" -> Rel.restrict_domain lhs rhs
        | "restrictrange" -> Rel.restrict_range lhs rhs
        | "gist" -> Rel.gist lhs ~given:rhs
        | _ -> assert false
      in
      parse_rest st v
  | _ -> lhs

and parse_atom st : Rel.t =
  match peek st with
  | Some (TSet lit) ->
      advance st;
      Parse.rel lit
  | Some TLParen ->
      advance st;
      let e = parse_expr st in
      (match peek st with
      | Some TRParen -> advance st
      | _ -> errf "expected )");
      e
  | Some (TIdent op) when List.mem op unops ->
      advance st;
      let e = parse_atom st in
      (match op with
      | "domain" -> Rel.domain e
      | "range" -> Rel.range e
      | "inverse" -> Rel.inverse e
      | "hull" -> Hull.hull e
      | "simplify" -> Rel.simplify e
      | "coalesce" -> Rel.coalesce e
      | "flatten" -> Rel.flatten e
      | "disjoint" -> Rel.disjointify e
      | _ -> assert false)
  | Some (TIdent name) -> (
      advance st;
      match List.assoc_opt name st.env with
      | Some v -> v
      | None -> errf "unbound name %s" name)
  | _ -> errf "expected an expression"

(** Evaluate one line; returns the updated environment and the printed
    output (possibly empty). *)
let rec eval_line (env : env) (line : string) : env * string =
  let line = String.trim line in
  if line = "" || line.[0] = '#' then (env, "")
  else
    try eval_line_exn env line with
    | Invalid_argument msg -> errf "%s" msg
    | Conj.Inexact_negation -> errf "operation needs an inexact negation"

and eval_line_exn env line =
    let toks = join_unions (tokenize line) in
    match toks with
    | [ TIdent "env" ] ->
        (env, String.concat "\n" (List.map (fun (n, _) -> n) env))
    | TIdent name :: TAssign :: rest ->
        let st = { toks = rest; env } in
        let v = parse_expr st in
        if st.toks <> [] then errf "trailing input";
        ((name, v) :: List.remove_assoc name env, "")
    | TIdent "sat" :: rest ->
        let st = { toks = rest; env } in
        (env, string_of_bool (Rel.is_sat (parse_expr st)))
    | TIdent "empty" :: rest ->
        let st = { toks = rest; env } in
        (env, string_of_bool (Rel.is_empty (parse_expr st)))
    | TIdent "convex" :: rest ->
        let st = { toks = rest; env } in
        (env, string_of_bool (Hull.is_convex (parse_expr st)))
    | TIdent "codegen" :: rest ->
        let st = { toks = rest; env } in
        let e = parse_expr st in
        let asts =
          Codegen.gen ~names:(Rel.in_names e) [ { Codegen.tag = "S"; dom = e } ]
        in
        (env, String.trim (Codegen.ast_to_string asts))
    | _ -> (
        let st = { toks; env } in
        let v = parse_expr st in
        match peek st with
        | Some (TIdent "subset") ->
            advance st;
            let rhs = parse_expr st in
            (env, string_of_bool (Rel.subset v rhs))
        | Some (TIdent "equal") ->
            advance st;
            let rhs = parse_expr st in
            (env, string_of_bool (Rel.equal v rhs))
        | None -> (env, Rel.to_string (Rel.simplify v))
        | _ -> errf "trailing input")

(** Evaluate a whole script (one statement per line). Returns the outputs
    of the printing statements. *)
let eval_script ?(env = []) (script : string) : string list =
  let lines = String.split_on_char '\n' script in
  let _, outs =
    List.fold_left
      (fun (env, outs) line ->
        let env, out = eval_line env line in
        (env, if out = "" then outs else out :: outs))
      (env, []) lines
  in
  List.rev outs
