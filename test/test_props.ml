(* Property-based tests: the set algebra is compared pointwise against a
   direct evaluator on randomly generated (bounded) sets, and code
   generation is compared against brute-force enumeration. *)

open Iset
open Gsets

let all_points =
  List.concat_map
    (fun x -> List.map (fun y -> (x, y)) (List.init (box_hi - box_lo + 1) (fun i -> box_lo + i)))
    (List.init (box_hi - box_lo + 1) (fun i -> box_lo + i))

let pointwise name f =
  QCheck.Test.make ~count:60 ~name (QCheck.pair arb_gset arb_gset) f

let prop_mem =
  QCheck.Test.make ~count:100 ~name:"mem agrees with direct evaluation" arb_gset
    (fun g ->
      let s = set_of_gset g in
      List.for_all
        (fun pt -> Rel.mem_set s [ fst pt; snd pt ] = eval_gset g pt)
        all_points)

let prop_union =
  pointwise "union is pointwise or" (fun (g1, g2) ->
      let u = Rel.union (set_of_gset g1) (set_of_gset g2) in
      List.for_all
        (fun pt ->
          Rel.mem_set u [ fst pt; snd pt ] = (eval_gset g1 pt || eval_gset g2 pt))
        all_points)

let prop_inter =
  pointwise "inter is pointwise and" (fun (g1, g2) ->
      let u = Rel.inter (set_of_gset g1) (set_of_gset g2) in
      List.for_all
        (fun pt ->
          Rel.mem_set u [ fst pt; snd pt ] = (eval_gset g1 pt && eval_gset g2 pt))
        all_points)

let prop_diff =
  pointwise "diff is pointwise and-not" (fun (g1, g2) ->
      let u = Rel.diff (set_of_gset g1) (set_of_gset g2) in
      List.for_all
        (fun pt ->
          Rel.mem_set u [ fst pt; snd pt ]
          = (eval_gset g1 pt && not (eval_gset g2 pt)))
        all_points)

let prop_subset =
  pointwise "subset agrees with pointwise inclusion" (fun (g1, g2) ->
      let s1 = set_of_gset g1 and s2 = set_of_gset g2 in
      Rel.subset s1 s2
      = List.for_all
          (fun pt -> (not (eval_gset g1 pt)) || eval_gset g2 pt)
          all_points)

let prop_empty =
  QCheck.Test.make ~count:100 ~name:"is_empty agrees with exhaustive search" arb_gset
    (fun g ->
      let s = set_of_gset g in
      Rel.is_empty s = not (List.exists (eval_gset g) all_points))

(* Relations x -> y built from the same machinery, for compose/domain/range *)
let rel_of_gset gset =
  let f = function Var.In 1 -> Var.Out 0 | v -> v in
  let conjs = List.map (fun c -> Conj.map_lin (Lin.map_vars f) (conj_of_gcs c)) gset in
  Rel.make ~in_ar:1 ~out_ar:1 conjs

let prop_compose =
  pointwise "compose is relational join" (fun (g1, g2) ->
      let r = Rel.compose (rel_of_gset g1) (rel_of_gset g2) in
      List.for_all
        (fun (x, z) ->
          let direct =
            List.exists
              (fun y ->
                in_box (x, y) && in_box (y, z) && eval_gset g1 (x, y)
                && eval_gset g2 (y, z))
              (List.init (box_hi - box_lo + 1) (fun i -> box_lo + i))
          in
          Rel.mem r ([ x ], [ z ]) = direct)
        all_points)

let prop_domain_range =
  QCheck.Test.make ~count:60 ~name:"domain/range are projections" arb_gset (fun g ->
      let r = rel_of_gset g in
      let dom = Rel.domain r and rng = Rel.range r in
      let xs = List.init (box_hi - box_lo + 1) (fun i -> box_lo + i) in
      List.for_all
        (fun x ->
          let dx = List.exists (fun y -> eval_gset g (x, y)) xs in
          let rx = List.exists (fun y -> eval_gset g (y, x)) xs in
          Rel.mem_set dom [ x ] = dx && Rel.mem_set rng [ x ] = rx)
        xs)

let prop_codegen =
  QCheck.Test.make ~count:60 ~name:"codegen enumerates exactly the set" arb_gset
    (fun g ->
      let s = set_of_gset g in
      let asts =
        try Codegen.gen ~names:[| "x"; "y" |] [ { Codegen.tag = 0; dom = s } ]
        with Codegen.Unsupported _ -> QCheck.assume_fail ()
      in
      let got = ref [] in
      Codegen.run
        ~env:(fun v -> failwith v)
        ~f:(fun _ binds -> got := (List.assoc "x" binds, List.assoc "y" binds) :: !got)
        asts;
      let got = List.sort_uniq compare !got in
      let want = List.filter (eval_gset g) all_points |> List.sort_uniq compare in
      got = want)

let prop_codegen_order =
  QCheck.Test.make ~count:60 ~name:"codegen order is lexicographic" arb_gset (fun g ->
      let s = set_of_gset g in
      let asts =
        try Codegen.gen ~names:[| "x"; "y" |] [ { Codegen.tag = 0; dom = s } ]
        with Codegen.Unsupported _ -> QCheck.assume_fail ()
      in
      let got = ref [] in
      Codegen.run
        ~env:(fun v -> failwith v)
        ~f:(fun _ binds -> got := (List.assoc "x" binds, List.assoc "y" binds) :: !got)
        asts;
      let l = List.rev !got in
      (* no duplicates and sorted lexicographically *)
      let rec sorted = function
        | a :: (b :: _ as rest) -> compare a b < 0 && sorted rest
        | _ -> true
      in
      sorted l)

(* Simplification against direct evaluation: a conjunct of ground
   constraints with at least one stride, simplified, holds at exactly the
   points where the ground constraints hold inside the box. The simplified
   conjunct is evaluated on its own: at each point its existentials are
   searched over a window wide enough for the box (the strides' own
   witnesses stay below 25 in absolute value). *)
let ex_window = 64

let holds_at c (x, y) =
  let at = function Var.In 0 -> x | Var.In 1 -> y | v -> failwith (Var.to_string v) in
  let cs =
    List.map
      (fun k ->
        let lin = Constr.lin k in
        let const, exs =
          Lin.fold
            (fun v a (const, exs) ->
              match v with Var.Ex i -> (const, (i, a) :: exs) | _ -> (const + (a * at v), exs))
            lin (Lin.constant lin, [])
        in
        (Constr.kind k, const, exs))
      (Conj.constraints c)
  in
  let n = Conj.n_ex c in
  let env = Array.make n 0 in
  (* a constraint is checked once the highest existential it names is set *)
  let ready i (_, _, exs) = List.fold_left (fun m (j, _) -> max m j) (-1) exs = i in
  let holds (kind, const, exs) =
    let v = List.fold_left (fun acc (j, a) -> acc + (a * env.(j))) const exs in
    match kind with Constr.Eq -> v = 0 | Constr.Geq -> v >= 0
  in
  let rec search i =
    List.for_all holds (List.filter (ready (i - 1)) cs)
    && (i = n
       ||
       let rec try_v v =
         v <= ex_window
         && ((env.(i) <- v;
              search (i + 1))
            || try_v (v + 1))
       in
       try_v (-ex_window))
  in
  search 0

let gen_strided =
  QCheck.Gen.(
    let coef = int_range (-3) 3 and cst = int_range (-8) 8 in
    let stride = map3 (fun a b (c, k) -> Stride (a, b, c, k)) coef coef (pair cst (int_range 2 4)) in
    map2 (fun s gcs -> s :: gcs) stride (list_size (int_range 1 4) gen_gc))

let prop_simplify =
  QCheck.Test.make ~count:200 ~name:"simplify preserves the set"
    (QCheck.make ~print:(fun gcs -> Conj.to_string (conj_of_gcs gcs)) gen_strided)
    (fun gcs ->
      let want pt = in_box pt && List.for_all (eval_gc pt) gcs in
      let wide = List.init (box_hi - box_lo + 5) (fun i -> box_lo - 2 + i) in
      let pts = List.concat_map (fun x -> List.map (fun y -> (x, y)) wide) wide in
      match Conj.simplify (conj_of_gcs gcs) with
      | None -> not (List.exists want pts)
      | Some s -> List.for_all (fun pt -> holds_at s pt = want pt) pts)

(* Gist by its definition: under [given] the gist describes exactly what
   [a] does, so at every box point [gist a ~given ∧ given] holds exactly
   when [a ∧ given] does. The gist keeps [a]'s constraints as they are, so
   it is evaluated with [holds_at]; [a] and [given] by their ground
   constraints. Checked with the caches on and off. *)
let prop_gist =
  let print (ga, gg) =
    Conj.to_string (conj_of_gcs ga)
    ^ "  given  "
    ^ Conj.to_string (conj_of_gcs gg)
  in
  QCheck.Test.make ~count:100 ~name:"gist keeps the set under its context"
    (QCheck.make ~print QCheck.Gen.(pair gen_gcs gen_gcs))
    (fun (ga, gg) ->
      let a = conj_of_gcs ga and given = conj_of_gcs gg in
      let by_definition () =
        let g = Conj.gist a ~given in
        List.for_all
          (fun pt ->
            (not (List.for_all (eval_gc pt) gg))
            || holds_at g pt = List.for_all (eval_gc pt) ga)
          all_points
      in
      let on = by_definition () in
      Cache.set_enabled false;
      let off =
        Fun.protect ~finally:(fun () -> Cache.set_enabled true) by_definition
      in
      on && off)

(* Pugh-shaped two-variable bands, l1 <= a·x + b·y <= l1 + w1 and
   l2 <= c·x − d·y <= l2 + w2, with every coefficient above 1: eliminating
   either variable pairs non-unit bounds, so the Omega test is inexact and
   thin bands with no integer point in them reach the dark shadow and the
   splinters. The bands meet in a parallelogram: with every coefficient
   at least 2 and both band ends within ±band_reach, every solution has
   |x|, |y| <= band_reach / 2, so enumerating that box is an exact
   oracle. *)
type band = { a : int; b : int; c : int; d : int; l1 : int; w1 : int; l2 : int; w2 : int }

let band_reach = 40

let band_box =
  let r = band_reach / 2 in
  List.concat_map
    (fun x -> List.init ((2 * r) + 1) (fun j -> (x, j - r)))
    (List.init ((2 * r) + 1) (fun i -> i - r))

let band_set bd =
  let lin a b k = Lin.of_list [ (a, Var.In 0); (b, Var.In 1) ] k in
  Rel.set ~ar:2
    [
      Conj.make ~n_ex:0
        [
          Constr.geq (lin bd.a bd.b (-bd.l1));
          Constr.geq (lin (-bd.a) (-bd.b) (bd.l1 + bd.w1));
          Constr.geq (lin bd.c (-bd.d) (-bd.l2));
          Constr.geq (lin (-bd.c) bd.d (bd.l2 + bd.w2));
        ];
    ]

let in_band bd (x, y) =
  let s = (bd.a * x) + (bd.b * y) and t = (bd.c * x) - (bd.d * y) in
  bd.l1 <= s && s <= bd.l1 + bd.w1 && bd.l2 <= t && t <= bd.l2 + bd.w2

let gen_band =
  QCheck.Gen.(
    let coef = int_range 2 13 in
    let side = int_range 0 20 >>= fun w ->
      map (fun l -> (l, w)) (int_range (-band_reach) (band_reach - w))
    in
    map3
      (fun (a, b) (c, d) ((l1, w1), (l2, w2)) -> { a; b; c; d; l1; w1; l2; w2 })
      (pair coef coef) (pair coef coef) (pair side side))

let check_band bd =
  let s = band_set bd in
  Rel.is_empty s = not (List.exists (in_band bd) band_box)
  && List.for_all (fun (x, y) -> Rel.mem_set s [ x; y ] = in_band bd (x, y)) band_box

let prop_bands =
  QCheck.Test.make ~count:200 ~name:"bands: is_empty and mem agree with enumeration"
    (QCheck.make ~print:(fun bd -> Rel.to_string (band_set bd)) gen_band)
    check_band

(* the same oracle over a fixed corpus, which must reach omega_sat's
   splinter loop: a random seed alone does not promise that it does *)
let test_band_splinters () =
  (* answered afresh, not from the memo tables *)
  Cache.clear_all ();
  let s0 = Stats.count Stats.splinters in
  let rand = Random.State.make [| 1998 |] in
  List.iter
    (fun bd ->
      if not (check_band bd) then
        Alcotest.failf "disagrees with enumeration: %s" (Rel.to_string (band_set bd)))
    (QCheck.Gen.generate ~rand ~n:200 gen_band);
  Alcotest.(check bool) "splinters tested" true (Stats.count Stats.splinters > s0)

let () =
  Alcotest.run "props"
    [
      ( "algebra",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_mem;
            prop_union;
            prop_inter;
            prop_diff;
            prop_subset;
            prop_empty;
            prop_compose;
            prop_domain_range;
            prop_simplify;
            prop_gist;
          ] );
      ( "codegen",
        List.map QCheck_alcotest.to_alcotest [ prop_codegen; prop_codegen_order ] );
      ( "omega",
        [
          QCheck_alcotest.to_alcotest prop_bands;
          Alcotest.test_case "bands reach the splinters" `Quick test_band_splinters;
        ] );
    ]
