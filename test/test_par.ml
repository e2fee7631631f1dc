(* The domain-parallel stack: Par pool combinators, lock-free
   observability counters under concurrent mutation, parallel compiler
   determinism (byte-identical output at any domain count), and the
   domain-differential simulator contract (bit-identical runs when
   processor lanes are sharded across a pool — including an
   oversubscribed one; this host may well have a single core).

   Everything here deliberately runs MORE domains than cores when the
   host is small: the contracts are about interleaving, not speed. *)

let benchmarks =
  [
    ("jacobi", Codes.jacobi ~n:16 ~iters:2 ());
    ("tomcatv", Codes.tomcatv ~n:12 ~iters:2 ());
    ("erlebacher", Codes.erlebacher ~n:10 ());
    ("gauss", Codes.gauss ~n:10 ());
    ("figure2", Codes.figure2 ());
    ("sp_like", Codes.sp_like ~n:12 ~nsub:6 ());
  ]

(* ---- Par combinators ---- *)

let test_spawn_join () =
  let hits = Array.make 4 0 in
  Par.spawn_join 4 (fun d -> hits.(d) <- hits.(d) + 1);
  Alcotest.(check (list int))
    "each body ran exactly once" [ 1; 1; 1; 1 ] (Array.to_list hits);
  match Par.spawn_join 3 (fun d -> if d >= 1 then failwith "boom") with
  | () -> Alcotest.fail "worker exception not propagated"
  | exception Failure msg -> Alcotest.(check string) "re-raised" "boom" msg

let test_map_order () =
  let r = Par.map ~domains:4 257 (fun i -> (i * 7) + 1) in
  Alcotest.(check bool)
    "results land at their own index" true
    (Array.to_list r = List.init 257 (fun i -> (i * 7) + 1))

let test_clamp () =
  Alcotest.(check int) "floored at one" 1 (Par.clamp 0);
  Alcotest.(check int) "floored at one (negative)" 1 (Par.clamp (-3));
  Alcotest.(check bool)
    "ceiled at the recommended count" true
    (Par.clamp 10_000 <= Par.recommended ())

(* ---- counters survive concurrent mutation without losing updates ---- *)

let test_counters_no_loss () =
  Obs.Metrics.enable ();
  let c = Obs.Metrics.counter "par_test/hits" in
  let h = Obs.Metrics.histogram "par_test/sizes" in
  Iset.Stats.reset ();
  let per_domain = 10_000 in
  Par.spawn_join 4 (fun _ ->
      for i = 1 to per_domain do
        Obs.Metrics.inc c 1.0;
        Obs.Metrics.observe h (float_of_int (i land 7));
        Iset.Stats.bump Iset.Stats.sat.lookups
      done);
  Alcotest.(check int)
    "Iset.Stats counter exact under 4 domains" (4 * per_domain)
    (Iset.Stats.count Iset.Stats.sat.lookups);
  let find name =
    List.find
      (fun s -> s.Obs.Metrics.m_name = name)
      (Obs.Metrics.snapshot ())
  in
  (match (find "par_test/hits").Obs.Metrics.m_value with
  | Obs.Metrics.VCounter v ->
      Alcotest.(check (float 0.0))
        "metrics counter exact under 4 domains"
        (float_of_int (4 * per_domain))
        v
  | _ -> Alcotest.fail "par_test/hits is not a counter");
  (match (find "par_test/sizes").Obs.Metrics.m_value with
  | Obs.Metrics.VHisto hs ->
      Alcotest.(check int)
        "histogram count exact under 4 domains" (4 * per_domain) hs.hs_count
  | _ -> Alcotest.fail "par_test/sizes is not a histogram");
  Iset.Stats.reset ()

(* interning the same values from four domains must agree on physical
   identity and never duplicate ids *)
let test_hcons_concurrent () =
  let reps =
    Par.map ~domains:4 4 (fun d ->
        List.init 200 (fun i ->
            let v = Iset.Lin.var ~coef:(i + 1) (Iset.Var.In (d land 1)) in
            Iset.Conj.make ~n_ex:0 [ Iset.Constr.geq v ]))
  in
  let base = reps.(0) and other = reps.(2) in
  Alcotest.(check bool)
    "equal conjuncts intern to equal ids" true
    (List.for_all2
       (fun a b -> Iset.Conj.id a = Iset.Conj.id b)
       base other)

(* ---- parallel compiler: byte-identical output at any domain count ---- *)

let test_compile_deterministic () =
  List.iter
    (fun (name, src) ->
      let chk = Hpf.Sema.analyze_source src in
      let c1 = (Dhpf.Gen.compile ~domains:1 chk).Dhpf.Gen.cprog in
      List.iter
        (fun d ->
          let cd = (Dhpf.Gen.compile ~domains:d chk).Dhpf.Gen.cprog in
          Alcotest.(check bool)
            (Printf.sprintf "%s: %d-domain compile structurally identical"
               name d)
            true (cd = c1);
          Alcotest.(check string)
            (Printf.sprintf "%s: %d-domain compile prints identically" name d)
            (Dhpf.Spmd.program_to_string c1)
            (Dhpf.Spmd.program_to_string cd))
        [ 2; 3; 4 ])
    benchmarks

(* The memo tables are shared by every domain: after a 1-domain compile,
   a 2-domain compile of the same program misses in none of them, and a
   [Conj.sat] answered on a helper domain is a hit on the launching
   one. *)
let test_compile_shares_tables () =
  let misses () =
    List.map
      (fun (m : Iset.Stats.memo) ->
        (m.name, Iset.Stats.count m.lookups - Iset.Stats.count m.hits))
      Iset.Stats.memos
  in
  let chk =
    Hpf.Sema.analyze_source
      (Codes.sp_like ~n:24 ~nsub:30 ~procs:(Codes.Fixed (2, 2)) ())
  in
  Iset.Cache.clear_all ();
  ignore (Dhpf.Gen.compile ~domains:1 chk);
  let before = misses () in
  ignore (Dhpf.Gen.compile ~domains:2 chk);
  List.iter2
    (fun (name, b) (_, a) ->
      Alcotest.(check int)
        (Printf.sprintf
           "SP-4: %s misses of a 2-domain compile after a 1-domain one" name)
        0 (a - b))
    before (misses ());
  let c =
    let open Iset in
    Conj.make ~n_ex:0
      [ Constr.geq (Lin.add_const 7 (Lin.var ~coef:3 (Var.In 0))) ]
  in
  ignore (Domain.join (Domain.spawn (fun () -> Iset.Conj.sat c)));
  let hits = Iset.Stats.count Iset.Stats.sat.hits in
  ignore (Iset.Conj.sat c);
  Alcotest.(check int)
    "sat answered on a helper domain hits on the launching one" (hits + 1)
    (Iset.Stats.count Iset.Stats.sat.hits)

(* ---- domain-differential simulator runs ---- *)

let outcome_ok name = function
  | Spmdsim.Diffcheck.Pass _ -> ()
  | out ->
      Alcotest.failf "%s: %a" name Spmdsim.Diffcheck.pp_outcome out

let test_sim_domains () =
  List.iter
    (fun (name, src) ->
      let chk = Hpf.Sema.analyze_source src in
      let nprocs = if name = "sp_like" then 6 else 4 in
      outcome_ok name
        (Spmdsim.Diffcheck.domains ~nprocs ~domain_counts:[ 2; 4 ]
           ~seeds:[ 5 ] chk))
    (benchmarks @ [ ("gauss (symbolic grid)", Colocated.src) ]);
  Colocated.check_copies ~nprocs:4

let test_sim_domains_interp () =
  (* jacobi's collectives are scalar, erlebacher's element-wise *)
  List.iter
    (fun (name, src) ->
      let chk = Hpf.Sema.analyze_source src in
      outcome_ok (name ^ "/interp")
        (Spmdsim.Diffcheck.domains ~engine:`Interp ~nprocs:4
           ~domain_counts:[ 3 ] ~seeds:[ 9 ] chk))
    [ ("jacobi", Codes.jacobi ~n:14 ~iters:2 ()); ("erlebacher", Codes.erlebacher ~n:10 ()) ]

(* metrics instrumentation must not perturb a sharded run, and
   the per-pair communication table must be identical at every count *)
let test_sim_domains_metered () =
  Obs.Metrics.enable ();
  let chk = Hpf.Sema.analyze_source (Codes.erlebacher ~n:10 ()) in
  outcome_ok "erlebacher/metered"
    (Spmdsim.Diffcheck.domains ~nprocs:4 ~domain_counts:[ 2; 4 ]
       ~seeds:[ 3 ] chk)

(* ---- the property: random programs x faults x domain counts ---- *)

(* reuses the generator design of test_random.ml in reduced form: the
   point here is the scheduler and compiler pool, not stencil coverage *)
type spec = {
  sp_dist : [ `BlockStar | `BlockBlock | `CyclicStar ];
  sp_shift : int * int;
  sp_refs : (string * (int * int)) list;
}

let src_of_spec s =
  let n = 8 in
  let procs, dist =
    match s.sp_dist with
    | `BlockStar -> ("processors p(2)", "distribute t(block,*) onto p")
    | `BlockBlock -> ("processors p(2,2)", "distribute t(block,block) onto p")
    | `CyclicStar -> ("processors p(2)", "distribute t(cyclic,*) onto p")
  in
  let buf = Buffer.create 512 in
  let pf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  pf "program fuzzpar\n  parameter n = %d\n" n;
  pf "  real a(n,n), b(n,n)\n  %s\n  template t(n+1,n+1)\n" procs;
  pf "  align a(i,j) with t(i,j)\n  align b(i,j) with t(i,j)\n  %s\n" dist;
  pf "  do i = 1, n\n    do j = 1, n\n";
  pf "      a(i,j) = i + 2*j\n      b(i,j) = 2*i - j\n";
  pf "    end do\n  end do\n";
  let li, lj = s.sp_shift in
  let sub (di, dj) =
    let f v d = if d = 0 then v else Printf.sprintf "%s%+d" v d in
    Printf.sprintf "%s,%s" (f "i" di) (f "j" dj)
  in
  pf "  do i = 2, n-1\n    do j = 2, n-1\n";
  let rhs =
    String.concat " + "
      (List.map (fun (arr, d) -> Printf.sprintf "0.5*%s(%s)" arr (sub d)) s.sp_refs)
  in
  pf "      a(%s) = %s + 1.0\n" (sub (li, lj)) rhs;
  pf "    end do\n  end do\nend\n";
  Buffer.contents buf

let gen_spec =
  QCheck.Gen.(
    let shift = int_range (-1) 1 in
    map
      (fun (dist, sh, refs) -> { sp_dist = dist; sp_shift = sh; sp_refs = refs })
      (triple
         (oneofl [ `BlockStar; `BlockBlock; `CyclicStar ])
         (pair shift shift)
         (list_size (int_range 1 2)
            (pair (oneofl [ "a"; "b" ]) (pair shift shift)))))

let arb_spec = QCheck.make ~print:src_of_spec gen_spec

let prop_domains =
  QCheck.Test.make ~count:12
    ~name:
      "random programs: parallel compile is identical and sharded runs \
       are bit-identical under faults"
    arb_spec
    (fun spec ->
      let src = src_of_spec spec in
      match Hpf.Sema.analyze_source src with
      | chk -> (
          match
            let c1 = (Dhpf.Gen.compile ~domains:1 chk).Dhpf.Gen.cprog in
            let c4 = (Dhpf.Gen.compile ~domains:4 chk).Dhpf.Gen.cprog in
            if c1 <> c4 then
              QCheck.Test.fail_report "parallel compile diverged"
            else
              Spmdsim.Diffcheck.domains ~domain_counts:[ 2; 4 ]
                ~seeds:[ 1; 2 ] chk
          with
          | Spmdsim.Diffcheck.Pass _ -> true
          | out ->
              QCheck.Test.fail_reportf "%a" Spmdsim.Diffcheck.pp_outcome out
          | exception Dhpf.Gen.Unsupported _ -> QCheck.assume_fail ()
          | exception Dhpf.Layout.Unsupported _ -> QCheck.assume_fail ())
      | exception Hpf.Sema.Error _ -> QCheck.assume_fail ())

let () =
  Alcotest.run "par"
    [
      ( "pool",
        [
          Alcotest.test_case "spawn_join runs and re-raises" `Quick
            test_spawn_join;
          Alcotest.test_case "map keeps index order" `Quick test_map_order;
          Alcotest.test_case "clamp bounds" `Quick test_clamp;
        ] );
      ( "counters",
        [
          Alcotest.test_case "no lost updates across 4 domains" `Quick
            test_counters_no_loss;
          Alcotest.test_case "hash-consing agrees across domains" `Quick
            test_hcons_concurrent;
        ] );
      ( "compiler",
        [
          Alcotest.test_case "byte-identical output at 1/2/3/4 domains"
            `Slow test_compile_deterministic;
          Alcotest.test_case "a 2-domain compile reuses 1-domain entries" `Quick
            test_compile_shares_tables;
        ] );
      ( "simulator",
        [
          Alcotest.test_case "bit-identical sharded runs (all benchmarks)"
            `Slow test_sim_domains;
          Alcotest.test_case "interpreter engine too" `Quick
            test_sim_domains_interp;
          Alcotest.test_case "metered runs and comm cells" `Quick
            test_sim_domains_metered;
        ] );
      ( "property",
        [ QCheck_alcotest.to_alcotest prop_domains ] );
    ]
