(* Correctness of the hash-consing / memoization layer of lib/iset:

   - differential QCheck properties asserting that memoized and
     cache-disabled runs agree on sat / simplify / subset / equal / gist
     and on the memoized relation operations (inter, diff, coalesce,
     compose, domain, range, inverse, restrict_domain, restrict_range,
     flatten, apply_point) for random sets (including the repeated-query
     path, where the second call is served from the cache);
   - shape independence of interning: terms, constraints and conjuncts
     built in permuted orders are equal, hash equal, share one id, and
     the representative's children are canonical;
   - the eviction bound: every stripe of every intern/memo table stays
     within its share of the configured capacity, with monotone (never
     reused) interned ids, and a clear-on-full retires only the ids of
     its own stripe;
   - interning from several domains at once, through the lock-free hit
     path, leaves one representative per value, and memoizing from
     several domains into the shared tables answers what caching off
     answers;
   - a pairwise meet of the relation operations is one [rel] entry keyed
     by its operands' ids, and a repeated subset is answered by the [rel]
     and [sat] tables. *)

open Iset
open Gsets

(* ------------------------------------------------------------------ *)
(* Generators: small random conjuncts and sets, cheap for the Omega     *)
(* test but rich enough to hit strides, windows and empty sets          *)
(* ------------------------------------------------------------------ *)

let var_gen =
  QCheck.Gen.oneofl
    [ Var.In 0; Var.In 1; Var.Param "n"; Var.Param "m"; Var.Ex 0; Var.Ex 1 ]

let lin_gen =
  QCheck.Gen.(
    map2
      (fun pairs k -> Lin.of_list pairs k)
      (list_size (int_range 0 3) (pair (int_range (-4) 4) var_gen))
      (int_range (-12) 12))

let constr_gen =
  QCheck.Gen.(
    map2 (fun eq lin -> if eq then Constr.eq lin else Constr.geq lin) bool lin_gen)

let conj_gen =
  QCheck.Gen.(
    map (fun cs -> Conj.make ~n_ex:2 cs) (list_size (int_range 1 5) constr_gen))

let rel_gen =
  QCheck.Gen.(map (fun conjs -> Rel.set ~ar:2 conjs) (list_size (int_range 0 2) conj_gen))

let conj_print c = Conj.to_string c
let arb_conj = QCheck.make ~print:conj_print conj_gen
let arb_conj2 = QCheck.make ~print:(fun (a, b) -> conj_print a ^ " | " ^ conj_print b)
    QCheck.Gen.(pair conj_gen conj_gen)
let arb_rel2 =
  QCheck.make
    ~print:(fun (a, b) -> Rel.to_string a ^ " | " ^ Rel.to_string b)
    QCheck.Gen.(pair rel_gen rel_gen)

(* Evaluate [f] with caches off, then twice with caches on (cold, then
   cached); every observable outcome — value or exception constructor —
   must agree. *)
let three_ways f =
  let observe g = try Ok (g ()) with Conj.Inexact_negation -> Error `Inexact in
  Cache.set_enabled false;
  let plain = observe f in
  Cache.set_enabled true;
  let cold = observe f in
  let warm = observe f in
  (plain, cold, warm)

let agree eq (plain, cold, warm) =
  let same a b =
    match (a, b) with
    | Ok x, Ok y -> eq x y
    | Error `Inexact, Error `Inexact -> true
    | _ -> false
  in
  same plain cold && same plain warm

(* ------------------------------------------------------------------ *)
(* Differential properties                                              *)
(* ------------------------------------------------------------------ *)

let prop_sat =
  QCheck.Test.make ~count:300 ~name:"memoized sat = cache-disabled sat" arb_conj
    (fun c -> agree ( = ) (three_ways (fun () -> Conj.sat c)))

let prop_simplify =
  QCheck.Test.make ~count:300 ~name:"memoized simplify = cache-disabled simplify"
    arb_conj (fun c ->
      agree
        (fun a b ->
          Option.equal Conj.equal a b
          && Option.equal String.equal
               (Option.map Conj.to_string a)
               (Option.map Conj.to_string b))
        (three_ways (fun () -> Conj.simplify c)))

let prop_gist =
  QCheck.Test.make ~count:200 ~name:"memoized gist = cache-disabled gist"
    arb_conj2 (fun (c, given) ->
      agree Conj.equal (three_ways (fun () -> Conj.gist c ~given)))

let prop_subset =
  QCheck.Test.make ~count:150 ~name:"memoized subset = cache-disabled subset"
    arb_rel2 (fun (a, b) ->
      agree ( = ) (three_ways (fun () -> Rel.subset a b)))

let prop_equal =
  QCheck.Test.make ~count:100 ~name:"memoized equal = cache-disabled equal"
    arb_rel2 (fun (a, b) ->
      agree ( = ) (three_ways (fun () -> Rel.equal a b)))

(* relation results agree in arities, conjuncts and printed names *)
let same_rel a b =
  Rel.in_arity a = Rel.in_arity b
  && Rel.out_arity a = Rel.out_arity b
  && List.equal Conj.equal (Rel.conjuncts a) (Rel.conjuncts b)
  && String.equal (Rel.to_string a) (Rel.to_string b)

(* the generated sets read as 1 -> 1 relations, so compose, domain, range
   and apply_point have a non-trivial output tuple to work on *)
let as_rel s = Rel.unflatten ~in_ar:1 s

(* restrict_domain and restrict_range take the same operands: a 1 -> 1
   relation and a set over one variable *)
let restrict f a b = f (as_rel a) (Rel.domain (as_rel b))

let rel_ops =
  [
    ("inter", Rel.inter);
    ("diff", Rel.diff);
    ("coalesce", fun a _ -> Rel.coalesce (Rel.union a a));
    ("compose", fun a b -> Rel.compose (as_rel a) (as_rel b));
    ("domain", fun a _ -> Rel.domain (as_rel a));
    ("range", fun a _ -> Rel.range (as_rel a));
    ("inverse", fun a _ -> Rel.inverse (as_rel a));
    ("restrict_domain", restrict Rel.restrict_domain);
    ("restrict_range", restrict Rel.restrict_range);
    ("flatten", fun a _ -> Rel.flatten (as_rel a));
    ("apply_point", fun a _ -> Rel.apply_point (as_rel a) [ Lin.var (Var.Param "m") ]);
    (* every pair [inter] met is met again under another op code: each
       meet is answered by its own entry, keyed by the two conjunct ids *)
    ( "meets",
      fun a b ->
        ignore (Rel.inter a b);
        Rel.restrict_domain a b );
  ]

let prop_rel (name, f) =
  QCheck.Test.make ~count:100
    ~name:(Printf.sprintf "memoized Rel.%s = cache-disabled Rel.%s" name name)
    arb_rel2
    (fun (a, b) -> agree same_rel (three_ways (fun () -> f a b)))

(* every operation over the same operands in one table epoch, plus the
   domain of the operand read as a set: a key that lost its op code, an
   arity or a term would make two of them collide *)
let prop_rel_shared =
  QCheck.Test.make ~count:100 ~name:"memoized Rel operations share one table"
    arb_rel2 (fun (a, b) ->
      let all () =
        List.map (fun (_, f) -> f a b) rel_ops
        @ [ Rel.domain a; Rel.apply_point (as_rel a) [ Lin.const 3 ] ]
      in
      agree (List.equal same_rel) (three_ways all))

let prop_rel_ops = List.map prop_rel rel_ops @ [ prop_rel_shared ]

(* ------------------------------------------------------------------ *)
(* Interning is shape-independent                                      *)
(* ------------------------------------------------------------------ *)

(* The same term built from a coefficient list and from a permutation of
   it: the two Var.Map trees are built in different insertion orders, so
   their shapes usually differ, yet the terms must be equal, hash equal
   and intern to one id. *)
let wide_var_gen =
  QCheck.Gen.oneofl
    [
      Var.In 0; Var.In 1; Var.In 2; Var.In 3; Var.Out 0; Var.Out 1;
      Var.Param "n"; Var.Param "m"; Var.Param "p"; Var.Ex 0; Var.Ex 1;
    ]

let term_twice_gen =
  QCheck.Gen.(
    list_size (int_range 0 7) (pair (int_range (-5) 5) wide_var_gen)
    >>= fun pairs ->
    shuffle_l pairs >>= fun perm ->
    int_range (-12) 12 >|= fun k -> (Lin.of_list pairs k, Lin.of_list perm k))

let constr_twice_gen =
  QCheck.Gen.(
    map2
      (fun eq (a, b) ->
        if eq then (Constr.eq a, Constr.eq b) else (Constr.geq a, Constr.geq b))
      bool term_twice_gen)

let conj_twice_gen =
  QCheck.Gen.(
    map2
      (fun n_ex pairs ->
        let cs, cs' = List.split pairs in
        (Conj.make ~n_ex cs, Conj.make ~n_ex cs'))
      (int_range 0 2)
      (list_size (int_range 0 5) constr_twice_gen))

let prop_lin_shape =
  QCheck.Test.make ~count:300 ~name:"permuted terms: equal, same hash, same id"
    (QCheck.make
       ~print:(fun (a, b) -> Lin.to_string a ^ " | " ^ Lin.to_string b)
       term_twice_gen)
    (fun (a, b) ->
      Lin.equal a b && Lin.compare a b = 0
      && Lin.hash a = Lin.hash b
      && Lin.id a = Lin.id b)

let prop_constr_shape =
  QCheck.Test.make ~count:300
    ~name:"permuted constraints: equal, same hash, same id"
    (QCheck.make
       ~print:(fun (a, b) -> Constr.to_string a ^ " | " ^ Constr.to_string b)
       constr_twice_gen)
    (fun (a, b) ->
      Constr.equal a b
      && Constr.hash a = Constr.hash b
      && Constr.id a = Constr.id b)

let prop_conj_shape =
  QCheck.Test.make ~count:300
    ~name:"permuted conjuncts: equal, same hash, same id, canonical children"
    (QCheck.make
       ~print:(fun (a, b) -> conj_print a ^ " | " ^ conj_print b)
       conj_twice_gen)
    (fun (a, b) ->
      let rep = Conj.intern a in
      Conj.equal a b
      && Conj.hash a = Conj.hash b
      && Conj.id a = Conj.id b
      && Conj.intern b == rep
      (* children are interned only when the representative is inserted,
         yet every constraint and term of it is its own representative *)
      && List.for_all
           (fun c ->
             Constr.intern c == c && Lin.intern (Constr.lin c) == Constr.lin c)
           (Conj.constraints rep))

let mk_interval lo hi =
  Conj.make ~n_ex:0
    [
      Constr.geq (Lin.of_list [ (1, Var.In 0) ] (-lo));
      Constr.geq (Lin.of_list [ (-1, Var.In 0) ] hi);
    ]

(* every table's stripes within their bound, or a failure naming [what] *)
let check_stripes what =
  List.iter
    (fun (name, bound, sizes) ->
      Array.iteri
        (fun i n ->
          if n > bound then
            Alcotest.failf "%s: %s stripe %d holds %d, its bound is %d" what
              name i n bound)
        sizes)
    (Cache.occupancy ())

(* the per-stripe bound and stripe sizes of the table published as [name] *)
let stripes name =
  match List.find_opt (fun (n, _, _) -> n = name) (Cache.occupancy ()) with
  | Some (_, bound, sizes) -> (bound, sizes)
  | None -> Alcotest.failf "no table publishes %s" name

(* ------------------------------------------------------------------ *)
(* The loop-nest memo of Codegen.gen                                    *)
(* ------------------------------------------------------------------ *)

(* One call's observable outcome: the printed nest, or the message of
   the Unsupported it raised. *)
let nest_of ?context ?order ?disjoint ~names stmts =
  match Codegen.gen ?context ?order ?disjoint ~names stmts with
  | asts -> Ok (Codegen.ast_to_string asts)
  | exception Codegen.Unsupported m -> Error m

let nest_plain ?context ?order ?disjoint ~names stmts =
  Cache.set_enabled false;
  Fun.protect
    ~finally:(fun () -> Cache.set_enabled true)
    (fun () -> nest_of ?context ?order ?disjoint ~names stmts)

let show = function Ok s -> s | Error m -> "Unsupported: " ^ m

(* every call of [calls], made in order over one table epoch, gives what
   the same call gives with caches off *)
let nests_agree calls =
  let expected = List.map (fun call -> call nest_plain) calls in
  Cache.clear_all ();
  List.for_all2
    (fun call want ->
      let got = call nest_of in
      got = want
      || QCheck.Test.fail_reportf "memoized:@.%s@.cache-disabled:@.%s"
           (show got) (show want))
    calls expected

let stmts_of tags doms =
  List.map2 (fun tag dom -> { Codegen.tag; dom }) tags doms

let gen_order = QCheck.Gen.oneofl [ `Lex; `Any ]

let arb_nest_case =
  QCheck.make
    ~print:(fun (g1, g2, ctx, order, disjoint) ->
      Printf.sprintf "%s | %s | context %s | %s | disjoint %b"
        (Rel.to_string (set_of_gset g1))
        (Rel.to_string (set_of_gset g2))
        (Conj.to_string (conj_of_gcs ctx))
        (match order with `Lex -> "Lex" | `Any -> "Any")
        disjoint)
    QCheck.Gen.(tup5 gen_gset gen_gset gen_gcs gen_order bool)

(* Caches off, cold and hit agree, with and without a context, and a hit
   under other names and tags prints its own. The calls share one epoch,
   so a key that dropped the context, the order, the disjointness flag or
   the sharing pattern would answer one call with another's nest: the
   context-less call repeats the contextual one's conjuncts, the flipped
   order and flag repeat them too, and [d; d] and [d; d'] (d' equal to d
   but a distinct value) differ only in whether the piecewise path
   applies. *)
let prop_codegen_memo =
  QCheck.Test.make ~count:150
    ~name:"memoized Codegen.gen = cache-disabled Codegen.gen" arb_nest_case
    (fun (g1, g2, ctx, order, disjoint) ->
      let d = set_of_gset g1 and d' = set_of_gset g1 and e = set_of_gset g2 in
      let context = Rel.set ~ar:2 [ conj_of_gcs ctx ] in
      let xy = [| "x"; "y" |] and ij = [| "i"; "j" |] in
      let other = match order with `Lex -> `Any | `Any -> `Lex in
      let call ?context ?(order = order) ?(disjoint = disjoint) ~names tags
          doms f =
        f ?context ?order:(Some order) ?disjoint:(Some disjoint) ~names
          (stmts_of tags doms)
      in
      nests_agree
        [
          call ~context ~names:xy [ "s" ] [ d ];
          call ~names:xy [ "s" ] [ d ];
          call ~order:other ~names:xy [ "s" ] [ d ];
          call ~disjoint:(not disjoint) ~names:xy [ "s" ] [ d ];
          call ~context ~names:ij [ "t" ] [ d' ];
          call ~names:ij [ "a"; "b" ] [ d; d ];
          call ~names:xy [ "a"; "b" ] [ d; d' ];
          call ~names:ij [ "b"; "a" ] [ d; d ];
          call ~context ~names:xy [ "a"; "b"; "c" ] [ d; e; d ];
          call ~context ~names:ij [ "c"; "b"; "a" ] [ d'; e; d' ];
        ])

(* y bounded by the drawn constraints or the context only: a nest that
   leaves it open raises Unsupported, on the first call and on the
   repeat, naming the caller's variable; the contextual call between them
   is generated and cached. *)
let prop_codegen_unsupported =
  QCheck.Test.make ~count:150 ~name:"Codegen.gen Unsupported is never cached"
    (QCheck.make
       ~print:(fun (g, ctx) ->
         Rel.to_string (set_of_gset ~bound_y:false g)
         ^ " | "
         ^ Conj.to_string (conj_of_gcs ctx))
       QCheck.Gen.(pair gen_gset gen_gcs))
    (fun (g, ctx) ->
      let d = set_of_gset ~bound_y:false g in
      let context = Rel.set ~ar:2 [ conj_of_gcs ctx ] in
      let call ?context names f =
        f ?context ?order:None ?disjoint:None ~names
          [ { Codegen.tag = "s"; dom = d } ]
      in
      nests_agree
        [
          call [| "x"; "y" |];
          call [| "x"; "y" |];
          call ~context [| "x"; "y" |];
          call [| "i"; "j" |];
          call ~context [| "i"; "j" |];
        ])

let test_codegen_unsupported_name () =
  Cache.set_enabled true;
  Cache.clear_all ();
  let d = Rel.set ~ar:2 [ conj_of_gcs ~bound_y:false [] ] in
  let msg names =
    match nest_of ~names [ { Codegen.tag = "s"; dom = d } ] with
    | Ok s -> Alcotest.failf "expected Unsupported, got@.%s" s
    | Error m -> m
  in
  let check what want names = Alcotest.(check string) what want (msg names) in
  check "first call" "unbounded loop variable y" [| "x"; "y" |];
  check "repeat" "unbounded loop variable y" [| "x"; "y" |];
  check "other names" "unbounded loop variable j" [| "i"; "j" |]

(* More distinct nests than the table holds: its stripes clear when
   full, one fills to its bound (2 entries, a 256th of the capacity over
   16 stripes; 40 nests cannot otherwise fit in 16 stripes of one), and
   none passes it. *)
let test_codegen_bound () =
  let cap = 8192 in
  Cache.set_capacity cap;
  Stats.reset ();
  let sizes =
    List.init 40 (fun i ->
        ignore
          (Codegen.gen ~names:[| "i" |]
             [
               {
                 Codegen.tag = ();
                 dom = Rel.set ~ar:1 [ mk_interval 1 (i + 1) ];
               };
             ]);
        snd (stripes "codegen cache size"))
  in
  let bound = fst (stripes "codegen cache size") in
  Cache.set_capacity 65536;
  Alcotest.(check int) "a 256th of the capacity per stripe" (cap / 256 / 16)
    bound;
  Alcotest.(check int) "every nest was a miss" 0
    (Stats.count Stats.codegen.hits);
  Alcotest.(check bool) "a stripe filled to its bound" true
    (List.exists (Array.mem bound) sizes);
  List.iter
    (Array.iter (fun n ->
         Alcotest.(check bool)
           (Printf.sprintf "stripe size %d within %d" n bound)
           true (n <= bound)))
    sizes

let test_codegen_hits_recorded () =
  Cache.set_enabled true;
  Cache.clear_all ();
  Stats.reset ();
  let d = Rel.set ~ar:1 [ mk_interval 1 10 ] in
  let nest names tag = nest_of ~names [ { Codegen.tag; dom = d } ] in
  let first = nest [| "i" |] "a" in
  Alcotest.(check int) "first call misses" 0 (Stats.count Stats.codegen.hits);
  let again = nest [| "k" |] "b" in
  Alcotest.(check int) "repeat under other names hits" 1
    (Stats.count Stats.codegen.hits);
  Alcotest.(check string) "first nest" "do i = 1, 10\n  a\nenddo\n"
    (show first);
  Alcotest.(check string) "names and tags come from the caller"
    "do k = 1, 10\n  b\nenddo\n" (show again)

(* ------------------------------------------------------------------ *)
(* Unit tests: hit accounting, eviction bound, id stability             *)
(* ------------------------------------------------------------------ *)

let test_hits_recorded () =
  Cache.set_enabled true;
  Stats.reset ();
  let c = mk_interval 1 10 in
  let r1 = Conj.sat c in
  (* a structurally equal but physically distinct conjunct must hit *)
  let r2 = Conj.sat (mk_interval 1 10) in
  Alcotest.(check bool) "same answer" r1 r2;
  Alcotest.(check bool) "second query hits" true
    (Stats.count Stats.sat.hits >= 1)

let test_rel_hits_recorded () =
  Cache.set_enabled true;
  Stats.reset ();
  let a = Rel.set ~ar:1 [ mk_interval 1 10 ] and b = Rel.set ~ar:1 [ mk_interval 4 6 ] in
  let d1 = Rel.diff a b in
  Alcotest.(check int) "first diff misses" 0 (Stats.count Stats.rel.hits);
  (* structurally equal operands under other names must hit *)
  let d2 =
    Rel.diff (Rel.with_names ~in_names:[| "x" |] a) (Rel.set ~ar:1 [ mk_interval 4 6 ])
  in
  Alcotest.(check bool) "repeated diff hits" true
    (Stats.count Stats.rel.hits >= 1);
  Alcotest.(check bool) "same conjuncts" true
    (List.equal Conj.equal (Rel.conjuncts d1) (Rel.conjuncts d2));
  Alcotest.(check string) "names come from the operands, not the table"
    "{[x] : x <= 10 && 7 <= x || x <= 3 && 1 <= x}" (Rel.to_string d2)

(* A repeated inter or restrict_domain is one rel hit: the results come
   back as representatives, so nothing is simplified or interned again. *)
let test_rel_repeat_is_a_lookup () =
  Cache.set_enabled true;
  let r =
    Rel.make ~in_ar:1 ~out_ar:1
      [
        Conj.make ~n_ex:0
          [
            Constr.eq (Lin.of_list [ (1, Var.Out 0); (-1, Var.In 0) ] (-1));
            Constr.geq (Lin.of_list [ (1, Var.In 0) ] (-1));
            Constr.geq (Lin.of_list [ (-1, Var.In 0) ] 20);
          ];
      ]
  in
  let s = Rel.set ~ar:1 [ mk_interval 5 12 ] in
  let a = Rel.set ~ar:1 [ mk_interval 2 30; mk_interval 40 50 ] in
  let b = Rel.set ~ar:1 [ mk_interval 25 45 ] in
  let d1 = Rel.restrict_domain r s and i1 = Rel.inter a b in
  let interned () = List.assoc "interned conjuncts" (Stats.report ()) in
  let before = interned () in
  Stats.reset ();
  let d2 = Rel.restrict_domain r s in
  Alcotest.(check int) "repeated restrict_domain: one rel hit" 1
    (Stats.count Stats.rel.hits);
  let i2 = Rel.inter a b in
  Alcotest.(check int) "repeated inter: one rel hit" 2
    (Stats.count Stats.rel.hits);
  Alcotest.(check int) "no simplify lookups" 0
    (Stats.count Stats.simplify.lookups);
  Alcotest.(check int) "no new interned conjunct" before (interned ());
  Alcotest.(check string) "same restriction" (Rel.to_string d1)
    (Rel.to_string d2);
  Alcotest.(check string) "same intersection" (Rel.to_string i1)
    (Rel.to_string i2)

(* An [inter] is one rel entry over its operands and one per pair of
   conjuncts met. A restriction over the same conjuncts misses the first
   and hits every meet: nothing is simplified or interned again. *)
let test_meets_keyed_by_ids () =
  Cache.set_enabled true;
  Cache.clear_all ();
  let a = Rel.set ~ar:1 [ mk_interval 2 30; mk_interval 40 50 ] in
  let b = Rel.set ~ar:1 [ mk_interval 25 45; mk_interval 0 3 ] in
  let interned () = List.assoc "interned conjuncts" (Stats.report ()) in
  Stats.reset ();
  let i1 = Rel.inter a b in
  Alcotest.(check int) "cold inter: one lookup per pair, plus its own" 5
    (Stats.count Stats.rel.lookups);
  Alcotest.(check int) "cold inter: no rel hit" 0 (Stats.count Stats.rel.hits);
  Alcotest.(check int) "a meet is not looked up in simplify" 0
    (Stats.count Stats.simplify.lookups);
  let before = interned () in
  Stats.reset ();
  let r1 = Rel.restrict_domain a b in
  Alcotest.(check int) "restrict_domain: every meet hits" 4
    (Stats.count Stats.rel.hits);
  Alcotest.(check int) "restrict_domain: one miss, its own" 5
    (Stats.count Stats.rel.lookups);
  Alcotest.(check int) "no simplify lookups" 0
    (Stats.count Stats.simplify.lookups);
  Alcotest.(check int) "no new interned conjunct" before (interned ());
  Alcotest.(check string) "same conjuncts" (Rel.to_string i1)
    (Rel.to_string r1);
  Alcotest.(check string) "the meets"
    "{[i1] : i1 <= 30 && 25 <= i1 || i1 <= 3 && 2 <= i1 || i1 <= 45 && 40 <= i1}"
    (Rel.to_string i1)

(* A subset is the emptiness of a diff: a repeat is a [rel] hit on the
   diff and [sat] lookups of its result conjuncts, which are
   representatives, so nothing is interned again. *)
let test_subset_answered_by_rel_and_sat () =
  Cache.set_enabled true;
  Cache.clear_all ();
  let a = Rel.set ~ar:1 [ mk_interval 1 10 ] in
  let b = Rel.set ~ar:1 [ mk_interval 4 6; mk_interval 20 30 ] in
  let interned () = List.assoc "interned conjuncts" (Stats.report ()) in
  let first = Rel.subset a b in
  let before = interned () in
  Stats.reset ();
  let again = Rel.subset a b in
  Alcotest.(check bool) "same verdict" first again;
  Alcotest.(check bool) "the repeat hits rel" true
    (Stats.count Stats.rel.hits >= 1);
  List.iter
    (fun (m : Stats.memo) ->
      if m != Stats.rel && m != Stats.sat then
        Alcotest.(check int) (m.name ^ ": not looked up") 0
          (Stats.count m.lookups))
    Stats.memos;
  Alcotest.(check int) "no new interned conjunct" before (interned ())

let test_interned_ids_stable () =
  Cache.set_enabled true;
  let c = mk_interval 2 5 in
  let id1 = Conj.id c in
  let id2 = Conj.id (mk_interval 2 5) in
  Alcotest.(check int) "equal conjuncts share an id" id1 id2;
  Alcotest.(check bool) "representative is shared physically" true
    (Conj.intern c == Conj.intern (mk_interval 2 5))

(* A representative keeps its id and skips the intern table; after a
   clear, wholesale or on full, it must answer what a fresh copy does. *)
let test_cached_ids_follow_clears () =
  Cache.set_enabled true;
  let rep = Conj.intern (mk_interval 3 9) in
  let id0 = Conj.id rep in
  Alcotest.(check int) "a copy finds the representative's id" id0
    (Conj.id (mk_interval 3 9));
  Cache.clear_all ();
  let after = Conj.id rep in
  let fresh = Conj.id (mk_interval 3 9) in
  Alcotest.(check bool) "clear_all retired the id" true (fresh <> id0);
  Alcotest.(check int) "after clear_all" fresh after;
  (* at capacity 4 every stripe holds one conjunct, so the flood below
     empties the representative's stripe *)
  Cache.set_capacity 4;
  let rep = Conj.intern (mk_interval 3 9) in
  let id1 = Conj.id rep in
  let evictions = Stats.count Stats.evictions in
  for i = 1 to 64 do
    ignore (Conj.id (mk_interval 1 i))
  done;
  Alcotest.(check bool) "clear-on-full evictions occurred" true
    (Stats.count Stats.evictions > evictions);
  let after = Conj.id rep in
  let fresh = Conj.id (mk_interval 3 9) in
  Alcotest.(check bool) "clear-on-full retired the id" true (fresh <> id1);
  Alcotest.(check int) "after a clear-on-full" fresh after;
  Cache.set_capacity 65536

(* Domains intern the same values at once, each from copies of its own,
   through the lock-free hit path and the locked insert, while stripes
   grow and clear: at capacity 2,400 a stripe holds up to 150 entries and
   its 64 buckets double at 128, and the 3,000 constraints (1,000 alone,
   2,000 inside the conjuncts) overflow that share; at 640 the conjunct
   table clears too. Afterwards each value has one representative: every
   representative a domain was handed either is it, or lost its entry to
   a clear, is no longer trusted, and re-interns to it. The same domains
   then share the memo tables (below). *)
let concurrent_n = 1000
let concurrent_constr i =
  Constr.geq (Lin.of_list [ (1, Var.In 0); (i + 1, Var.In 1) ] i)

let concurrent_conj i =
  Conj.make ~n_ex:0
    [
      Constr.eq (Lin.of_list [ (1, Var.In 1); (-1, Var.Param "n") ] (-i));
      Constr.geq
        (Lin.of_list [ (-1, Var.In 0); (2, Var.In 1) ] (i + concurrent_n));
    ]

(* [got.(d).(i)]: what domain [d] was handed for value [i]. Checking [i]
   inserts at most [i] itself, before the representative is taken, so no
   clear falls between the checks of one value. *)
let agree_after ~what ~intern ~id make got =
  for i = 0 to concurrent_n - 1 do
    let rep = intern (make i) in
    let rid = id rep in
    Array.iteri
      (fun d g ->
        let r = g.(i) in
        if not (intern r == rep && id r = rid) then
          Alcotest.failf "%s %d: domain %d holds id %d, the representative %d"
            what i d (id r) rid)
      got
  done

(* The memo half's operands: random conjuncts and set pairs, fixed by a
   seed. An answer is what [sat], [simplify] and every memoized relation
   operation return for one of them, printed. *)
let memo_operands =
  lazy
    (let rand = Random.State.make [| 39 |] in
     Array.init 60 (fun _ ->
         ( QCheck.Gen.generate1 ~rand conj_gen,
           QCheck.Gen.generate1 ~rand QCheck.Gen.(pair rel_gen rel_gen) )))

let memo_answer (c, (a, b)) =
  let show f = try f () with Conj.Inexact_negation -> "inexact" in
  show (fun () -> string_of_bool (Conj.sat c))
  :: show (fun () ->
         Option.fold ~none:"empty" ~some:Conj.to_string (Conj.simplify c))
  :: List.map (fun (_, f) -> show (fun () -> Rel.to_string (f a b))) rel_ops

(* [domains] domains run [f d] for their index [d], released together *)
let released domains f =
  let ready = Atomic.make 0 in
  Par.spawn_join domains (fun d ->
      Atomic.incr ready;
      while Atomic.get ready < domains do
        Domain.cpu_relax ()
      done;
      f d)

let test_concurrent_interns () =
  Cache.set_enabled true;
  Fun.protect ~finally:(fun () -> Cache.set_capacity 65536) @@ fun () ->
  List.iter
    (fun (domains, capacity) ->
      let what = Printf.sprintf "%d domains, capacity %d" domains capacity in
      Cache.set_capacity capacity;
      let evictions = Stats.count Stats.evictions in
      let got_c = Array.make domains [||] and got_j = Array.make domains [||] in
      let copies make =
        Array.init domains (fun _ -> Array.init concurrent_n make)
      in
      let cs = copies concurrent_constr and js = copies concurrent_conj in
      released domains (fun d ->
          got_c.(d) <- Array.map Constr.intern cs.(d);
          got_j.(d) <- Array.map Conj.intern js.(d));
      Alcotest.(check bool) (what ^ ": stripes cleared") true
        (Stats.count Stats.evictions > evictions);
      agree_after ~what:"constraint" ~intern:Constr.intern ~id:Constr.id
        concurrent_constr got_c;
      agree_after ~what:"conjunct" ~intern:Conj.intern ~id:Conj.id
        concurrent_conj got_j;
      (* the memo half: each domain answers every operand, one behind the
         domain before it, into the shared memo tables, whose stripes
         clear (the rel table's bound is 2 or 9 entries a stripe here) *)
      let ops = Lazy.force memo_operands in
      let n = Array.length ops in
      Cache.set_enabled false;
      let want = Array.map memo_answer ops in
      Cache.set_enabled true;
      let evictions = Stats.count Stats.evictions in
      let got = Array.make domains [||] in
      released domains (fun d ->
          got.(d) <-
            Array.init n (fun j ->
                let i = (j + d) mod n in
                (i, memo_answer ops.(i))));
      Array.iteri
        (fun d ->
          Array.iter (fun (i, answer) ->
              if answer <> want.(i) then
                Alcotest.failf "%s: domain %d, operand %d: %s, caches off: %s"
                  what d i (String.concat "; " answer)
                  (String.concat "; " want.(i))))
        got;
      Alcotest.(check bool) (what ^ ": memo stripes cleared") true
        (Stats.count Stats.evictions > evictions);
      check_stripes what)
    [ (2, 2400); (2, 640); (4, 2400); (4, 640) ]

(* A clear-on-full empties one stripe of an intern table and retires only
   the ids issued in it: a representative in another stripe stays
   trusted. Which stripe a value lands in is the table's business, so the
   test interns values until a clear has hit a stripe other than the
   probe's. *)
module Probe_tbl = Cache.Intern (struct
  type t = int

  let equal = Int.equal
  let hash = Fun.id
end) ()

let test_stripe_clear_keeps_others () =
  Cache.set_capacity 32;
  Fun.protect ~finally:(fun () -> Cache.set_capacity 65536) @@ fun () ->
  let probe = 0 in
  let _, id0 = Probe_tbl.intern probe in
  Alcotest.(check bool) "a fresh id is trusted" true
    (Probe_tbl.trusted ~hash:probe id0);
  let rec flood id v =
    if v > 10_000 then
      Alcotest.fail "no clear-on-full left the probe's stripe alone"
    else begin
      let evictions = Stats.count Stats.evictions in
      ignore (Probe_tbl.intern v);
      if Stats.count Stats.evictions = evictions then flood id (v + 1)
      else
        match Probe_tbl.intern probe with
        | _, id' when id' = id ->
            (* the clear hit another stripe *)
            Alcotest.(check bool) "the probe's id stays trusted" true
              (Probe_tbl.trusted ~hash:probe id)
        | _, id' ->
            (* the clear hit the probe's own stripe *)
            Alcotest.(check bool) "a cleared stripe's id is retired" false
              (Probe_tbl.trusted ~hash:probe id);
            flood id' (v + 1)
    end
  in
  flood id0 1

(* Far more distinct queries than the capacity: every table stays within
   its per-stripe bound, [max 1 (capacity / share / 16)], and every table
   the queries reach fills a stripe to that bound. *)
let test_eviction_bound () =
  let cap = 32 in
  Cache.set_capacity cap;
  let filled = Hashtbl.create 8 in
  for i = 1 to 40 * cap do
    ignore (Conj.sat (mk_interval 1 i));
    ignore (Rel.coalesce (Rel.set ~ar:1 [ mk_interval 1 i ]));
    check_stripes (Printf.sprintf "query %d" i);
    List.iter
      (fun (name, bound, sizes) ->
        if Array.mem bound sizes then Hashtbl.replace filled name ())
      (Cache.occupancy ())
  done;
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " filled a stripe to its bound") true
        (Hashtbl.mem filled name))
    [ "interned terms"; "interned constraints"; "interned conjuncts";
      "sat cache size"; "simplify cache size"; "rel cache size" ];
  Alcotest.(check bool) "clear-on-full evictions occurred" true
    (Stats.count Stats.evictions > 0);
  (* the relation table's share is a sixteenth, the intern tables' all *)
  Alcotest.(check int) "rel stripe bound" (max 1 (cap / 16 / 16))
    (fst (stripes "rel cache size"));
  Alcotest.(check int) "conjunct stripe bound" (cap / 16)
    (fst (stripes "interned conjuncts"));
  (* ids keep growing across evictions: no reuse, so no stale hits *)
  let idA = Conj.id (mk_interval 1 1) in
  Cache.clear_all ();
  let idB = Conj.id (mk_interval 1 1) in
  Alcotest.(check bool) "ids are never reused after a clear" true (idB > idA);
  Cache.set_capacity 65536

(* one call of every memoized operation, and of gist, implies and subset
   built on them: each of the four tables is looked up at least once when
   caching is on *)
let drive_every_table () =
  let c = mk_interval 1 4 and given = mk_interval 0 10 in
  let s = Rel.set ~ar:1 [ c ] and t = Rel.set ~ar:1 [ given ] in
  ignore (Conj.sat c);
  ignore (Conj.simplify c);
  ignore (Conj.gist c ~given);
  ignore (Conj.implies c (Constr.geq (Lin.of_list [ (1, Var.In 0) ] (-1))));
  ignore (Rel.subset s t);
  ignore (Rel.diff t s);
  ignore (Codegen.gen ~names:[| "i" |] [ { Codegen.tag = (); dom = s } ])

(* With caching off every table is bypassed: no table counts a lookup or
   holds an entry, and nothing reaches the disk layer, configured here so
   that a leak would show. *)
let test_disabled_is_transparent () =
  let lookups (m : Stats.memo) = Stats.count m.lookups in
  Cache.set_enabled true;
  Stats.reset ();
  drive_every_table ();
  List.iter
    (fun (m : Stats.memo) ->
      Alcotest.(check bool)
        (m.name ^ ": driven when enabled")
        true (lookups m > 0))
    Stats.memos;
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "dhpf-test-cache-off-%d" (Unix.getpid ()))
  in
  Diskcache.set_dir (Some dir);
  Cache.set_enabled false;
  Fun.protect
    ~finally:(fun () ->
      Diskcache.set_dir None;
      Cache.set_enabled true)
    (fun () ->
      Stats.reset ();
      drive_every_table ();
      drive_every_table ();
      List.iter
        (fun (m : Stats.memo) ->
          Alcotest.(check int)
            (m.name ^ ": no lookups when disabled")
            0 (lookups m);
          Alcotest.(check int) (m.name ^ ": no entries when disabled") 0
            (List.assoc (m.name ^ " cache size") (Stats.report ())))
        Stats.memos;
      Alcotest.(check int) "no disk lookups" 0 (Stats.count Stats.disk_lookups);
      Alcotest.(check bool)
        "nothing written to disk" false (Sys.file_exists dir))

let () =
  Alcotest.run "cache"
    [
      ( "differential",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_sat;
            prop_simplify;
            prop_gist;
            prop_subset;
            prop_equal;
          ]
        @ List.map QCheck_alcotest.to_alcotest prop_rel_ops );
      ( "codegen",
        List.map QCheck_alcotest.to_alcotest
          [ prop_codegen_memo; prop_codegen_unsupported ]
        @ [
            Alcotest.test_case "hits recorded" `Quick test_codegen_hits_recorded;
            Alcotest.test_case "table within its bound" `Quick test_codegen_bound;
            Alcotest.test_case "Unsupported names the caller's variable" `Quick
              test_codegen_unsupported_name;
          ] );
      ( "interning",
        List.map QCheck_alcotest.to_alcotest
          [ prop_lin_shape; prop_constr_shape; prop_conj_shape ] );
      ( "bounds",
        [
          Alcotest.test_case "hits recorded" `Quick test_hits_recorded;
          Alcotest.test_case "rel hits recorded" `Quick test_rel_hits_recorded;
          Alcotest.test_case "repeated rel op is a lookup" `Quick
            test_rel_repeat_is_a_lookup;
          Alcotest.test_case "interned ids stable" `Quick test_interned_ids_stable;
          Alcotest.test_case "cached ids follow clears" `Quick
            test_cached_ids_follow_clears;
          Alcotest.test_case "meets keyed by operand ids" `Quick
            test_meets_keyed_by_ids;
          Alcotest.test_case "subset is answered by rel and sat" `Quick
            test_subset_answered_by_rel_and_sat;
          Alcotest.test_case "concurrent interns agree" `Quick
            test_concurrent_interns;
          Alcotest.test_case "stripe clear keeps other stripes" `Quick
            test_stripe_clear_keeps_others;
          Alcotest.test_case "eviction bound" `Quick test_eviction_bound;
          Alcotest.test_case "disabled mode transparent" `Quick
            test_disabled_is_transparent;
        ] );
    ]
