(* Tests for the metrics registry and the predicted-vs-measured
   communication machinery: the disabled fast path, histogram merge
   associativity and percentile bounds (QCheck), point counting of
   generated loop nests, counter-series namespacing in the Chrome trace,
   the guarantee that metering a run changes nothing, and exact agreement
   of Predict.comm with the simulator's measured matrix on the paper's
   applications under both engines. *)

module M = Obs.Metrics

let with_metrics f =
  M.reset ();
  M.enable ();
  let r = Fun.protect ~finally:(fun () -> M.disable ()) f in
  let snap = M.snapshot () in
  M.reset ();
  (r, snap)

(* ---- registry basics ---- *)

let test_disabled_noop () =
  M.reset ();
  M.disable ();
  let c = M.counter "t/c" and g = M.gauge "t/g" and h = M.histogram "t/h" in
  M.inc c 5.0;
  M.set g 7.0;
  M.observe h 3.0;
  let snap = M.snapshot () in
  List.iter
    (fun (s : M.sample) ->
      match s.m_value with
      | M.VCounter v | M.VGauge v ->
          Alcotest.(check (float 0.0)) ("disabled " ^ s.m_name) 0.0 v
      | M.VHisto hs -> Alcotest.(check int) "disabled histo" 0 hs.hs_count)
    snap;
  M.reset ()

let test_accumulate () =
  let (), snap =
    with_metrics (fun () ->
        let c = M.counter ~labels:[ ("k", "v") ] "t/c" in
        M.inc c 2.0;
        M.inc c 3.0;
        M.incr (M.counter ~labels:[ ("k", "v") ] "t/c");
        M.set (M.gauge "t/g") 9.0;
        let h = M.histogram "t/h" in
        List.iter (M.observe h) [ 1.0; 2.0; 4.0; 1024.0 ])
  in
  let find name =
    match List.find_opt (fun (s : M.sample) -> s.m_name = name) snap with
    | Some s -> s.M.m_value
    | None -> Alcotest.failf "series %s missing" name
  in
  (match find "t/c" with
  | M.VCounter v -> Alcotest.(check (float 0.0)) "counter sums" 6.0 v
  | _ -> Alcotest.fail "t/c not a counter");
  (match find "t/h" with
  | M.VHisto h ->
      Alcotest.(check int) "histo count" 4 h.hs_count;
      Alcotest.(check (float 0.0)) "histo sum" 1031.0 h.hs_sum;
      Alcotest.(check (float 0.0)) "histo min" 1.0 h.hs_min;
      Alcotest.(check (float 0.0)) "histo max" 1024.0 h.hs_max
  | _ -> Alcotest.fail "t/h not a histogram")

(* ---- concurrent mutation: no lost increments, stable snapshots ---- *)

let test_multidomain_hammer () =
  let domains = 4 and per_domain = 10_000 in
  let (), snap =
    with_metrics (fun () ->
        let c = M.counter "hammer/c" in
        let h = M.histogram "hammer/h" in
        Par.spawn_join domains (fun d ->
            for i = 0 to per_domain - 1 do
              M.incr c;
              if i land 63 = 0 then
                M.observe h (float_of_int (d + 1))
            done))
  in
  let find name =
    match List.find_opt (fun (s : M.sample) -> s.m_name = name) snap with
    | Some s -> s.M.m_value
    | None -> Alcotest.failf "series %s missing" name
  in
  (match find "hammer/c" with
  | M.VCounter v ->
      Alcotest.(check (float 0.0))
        "no lost increments across domains"
        (float_of_int (domains * per_domain))
        v
  | _ -> Alcotest.fail "hammer/c not a counter");
  (match find "hammer/h" with
  | M.VHisto hs ->
      Alcotest.(check int) "no lost observations"
        (domains * ((per_domain + 63) / 64))
        hs.hs_count
  | _ -> Alcotest.fail "hammer/h not a histogram");
  (* a quiescent registry exports deterministically *)
  Alcotest.(check string) "snapshot JSON is stable"
    (Obs.Json.to_string (M.samples_to_json snap))
    (Obs.Json.to_string (M.samples_to_json snap));
  (* merge with itself doubles counters and bucket counts *)
  (match
     List.find_opt
       (fun (s : M.sample) -> s.m_name = "hammer/c")
       (M.merge snap snap)
   with
  | Some { M.m_value = M.VCounter v; _ } ->
      Alcotest.(check (float 0.0)) "self-merge doubles"
        (2.0 *. float_of_int (domains * per_domain))
        v
  | _ -> Alcotest.fail "merged counter missing")

(* ---- Prometheus text exposition ---- *)

let test_prometheus_format () =
  let (), snap =
    with_metrics (fun () ->
        M.inc (M.counter ~labels:[ ("op", "compile") ] "serve/requests") 3.0;
        M.set (M.gauge "serve/queue depth") 2.0;
        let h = M.histogram "serve/latency_s" in
        List.iter (M.observe h) [ 0.001; 0.01; 0.1 ])
  in
  let text = M.to_prometheus snap in
  let lines = String.split_on_char '\n' text in
  let has prefix =
    List.exists
      (fun l ->
        String.length l >= String.length prefix
        && String.sub l 0 (String.length prefix) = prefix)
      lines
  in
  Alcotest.(check bool) "counter TYPE line" true
    (has "# TYPE serve_requests counter");
  Alcotest.(check bool) "counter sample with label" true
    (has "serve_requests{op=\"compile\"} 3");
  Alcotest.(check bool) "gauge name sanitized" true
    (has "serve_queue_depth 2");
  Alcotest.(check bool) "histogram +Inf bucket" true
    (List.exists
       (fun l ->
         has "serve_latency_s_bucket"
         &&
         let rec find i =
           i + 6 <= String.length l
           && (String.sub l i 6 = "+Inf\"}" || find (i + 1))
         in
         find 0)
       lines);
  Alcotest.(check bool) "histogram count" true (has "serve_latency_s_count 3");
  (* every non-comment, non-blank line is "name{labels} value" with a
     sanitized name *)
  List.iter
    (fun l ->
      if l <> "" && l.[0] <> '#' then begin
        match String.index_opt l ' ' with
        | None -> Alcotest.failf "prometheus line %S has no value" l
        | Some sp ->
            let name_part = String.sub l 0 sp in
            let name_end =
              match String.index_opt name_part '{' with
              | Some i -> i
              | None -> String.length name_part
            in
            String.iter
              (fun ch ->
                if
                  not
                    ((ch >= 'a' && ch <= 'z')
                    || (ch >= 'A' && ch <= 'Z')
                    || (ch >= '0' && ch <= '9')
                    || ch = '_' || ch = ':')
                then Alcotest.failf "unsanitized metric name in %S" l)
              (String.sub name_part 0 name_end)
      end)
    lines;
  (* cumulative buckets: counts never decrease as le rises *)
  let bucket_counts =
    List.filter_map
      (fun l ->
        let p = "serve_latency_s_bucket" in
        if
          String.length l > String.length p
          && String.sub l 0 (String.length p) = p
        then
          match String.rindex_opt l ' ' with
          | Some sp ->
              float_of_string_opt
                (String.sub l (sp + 1) (String.length l - sp - 1))
          | None -> None
        else None)
      lines
  in
  let rec monotone = function
    | a :: (b :: _ as rest) -> a <= b && monotone rest
    | _ -> true
  in
  Alcotest.(check bool) "buckets are cumulative" true (monotone bucket_counts)

(* ---- export precision: both exports carry exact values, down to
   sub-millisecond latencies ---- *)

let test_export_precision () =
  let (), snap =
    with_metrics (fun () ->
        let h = M.histogram "serve/latency_s" in
        List.iter (M.observe h) [ 2.5e-5; 4e-4 ];
        M.set (M.gauge "compiler/phase_s") 0.0123456)
  in
  let module J = Obs.Json in
  let doc = J.of_string (J.to_string (M.samples_to_json snap)) in
  let series name =
    match
      List.find_opt
        (fun m -> J.get_str m "name" = Some name)
        (Option.value (J.get_list doc "metrics") ~default:[])
    with
    | Some m -> m
    | None -> Alcotest.failf "series %s missing from the export" name
  in
  let num m k =
    match J.get_num m k with
    | Some v -> v
    | None -> Alcotest.failf "field %s missing" k
  in
  let h = series "serve/latency_s" in
  (* 2.5e-5 +. 4e-4 is one ulp above the literal 4.25e-4; the export
     must carry the sum the histogram holds *)
  let sum = 2.5e-5 +. 4e-4 in
  Alcotest.(check (float 0.0)) "sum" sum (num h "sum");
  Alcotest.(check (float 1e-19)) "sum is 4.25e-4" 4.25e-4 (num h "sum");
  Alcotest.(check (float 0.0)) "min" 2.5e-5 (num h "min");
  Alcotest.(check (float 0.0)) "max" 4e-4 (num h "max");
  Alcotest.(check (float 0.0)) "gauge" 0.0123456
    (num (series "compiler/phase_s") "value");
  (* the Prometheus text parses back to the same floats *)
  let prom name =
    let lines = String.split_on_char '\n' (M.to_prometheus snap) in
    match
      List.find_opt (fun l -> String.starts_with ~prefix:(name ^ " ") l) lines
    with
    | Some l ->
        float_of_string (String.sub l (String.length name + 1)
                           (String.length l - String.length name - 1))
    | None -> Alcotest.failf "prometheus line %s missing" name
  in
  Alcotest.(check (float 0.0)) "prometheus sum" sum (prom "serve_latency_s_sum");
  Alcotest.(check (float 0.0)) "prometheus gauge" 0.0123456
    (prom "compiler_phase_s")

(* ---- QCheck: merge associativity, percentile bounds ---- *)

let snap_of vals =
  snd
    (with_metrics (fun () ->
         let h = M.histogram "q/h" in
         List.iter (M.observe h) vals))

let histo_of snap =
  match List.find_opt (fun (s : M.sample) -> s.m_name = "q/h") snap with
  | Some { m_value = M.VHisto h; _ } -> h
  | _ -> assert false

let pos_floats = QCheck.(list_of_size (Gen.int_range 1 40) (pos_float))

(* sums are floating-point, so associativity holds up to rounding; every
   other field (count, min, max, buckets) must agree exactly *)
let histo_equiv (x : M.histo) (y : M.histo) =
  x.hs_count = y.hs_count && x.hs_min = y.hs_min && x.hs_max = y.hs_max
  && x.hs_buckets = y.hs_buckets
  && abs_float (x.hs_sum -. y.hs_sum)
     <= 1e-9 *. Float.max 1.0 (abs_float x.hs_sum)

let prop_merge_assoc =
  QCheck.Test.make ~count:100 ~name:"histogram merge is associative"
    QCheck.(triple pos_floats pos_floats pos_floats)
    (fun (a, b, c) ->
      let sa = snap_of a and sb = snap_of b and sc = snap_of c in
      histo_equiv
        (histo_of (M.merge sa (M.merge sb sc)))
        (histo_of (M.merge (M.merge sa sb) sc)))

let prop_merge_counts =
  QCheck.Test.make ~count:100 ~name:"merged histogram sums counts and sums"
    QCheck.(pair pos_floats pos_floats)
    (fun (a, b) ->
      let h = histo_of (M.merge (snap_of a) (snap_of b)) in
      h.M.hs_count = List.length a + List.length b
      && abs_float (h.M.hs_sum -. (List.fold_left ( +. ) 0.0 (a @ b))) < 1e-6)

let prop_percentile_bounds =
  QCheck.Test.make ~count:200
    ~name:"percentiles lie in [min,max], monotone, exact at the ends"
    QCheck.(pair (list_of_size (Gen.int_range 1 40) pos_float) (float_bound_inclusive 1.0))
    (fun (vals, q) ->
      let h = histo_of (snap_of vals) in
      let p = M.percentile q h in
      let q' = Float.min 1.0 (q +. 0.25) in
      p >= h.M.hs_min && p <= h.M.hs_max
      && M.percentile q' h >= p
      && M.percentile 0.0 h = h.M.hs_min
      && M.percentile 1.0 h = h.M.hs_max)

(* each observation lands in the bucket whose range covers it *)
let prop_bucket_covers =
  QCheck.Test.make ~count:200 ~name:"log2 bucket covers its value"
    QCheck.pos_float
    (fun v ->
      let b = M.bucket_of v in
      v <= M.bucket_upper b && (b = 0 || v > M.bucket_upper (b - 1)))

(* ---- Iset.Codegen.count_points: the compile-time message-size count ---- *)

let test_count_points () =
  List.iter
    (fun (msg, src, env) ->
      let set = Iset.Parse.set src in
      let names = Iset.Rel.in_names set in
      let asts =
        Iset.Codegen.gen ~names [ { Iset.Codegen.tag = 0; dom = set } ]
      in
      let env s = List.assoc s env in
      let n = ref 0 in
      Iset.Codegen.run ~env ~f:(fun _ _ -> incr n) asts;
      Alcotest.(check int) msg !n (Iset.Codegen.count_points ~env asts))
    [
      ("box", "{[i,j] : 1 <= i <= 10 && i <= j <= n}", [ ("n", 7) ]);
      ("stride", "{[i] : exists(a : i = 2a) && 1 <= i <= n}", [ ("n", 20) ]);
      ("empty", "{[i] : 5 <= i <= 2}", []);
      ("union", "{[i] : 1 <= i <= 4} union {[i] : 10 <= i <= 12}", []);
    ]

(* ---- counter series carry a subsystem prefix in the Chrome trace ---- *)

let test_counter_namespacing () =
  Obs.reset ();
  Obs.enable ();
  let src = Codes.jacobi ~n:12 ~iters:1 () in
  ignore (Dhpf.Gen.compile (Hpf.Sema.analyze_source src));
  let evs = Obs.events () in
  Obs.disable ();
  Obs.reset ();
  let counters =
    List.filter (fun e -> e.Obs.e_ph = Obs.C) evs
    |> List.map (fun e -> e.Obs.e_name)
  in
  Alcotest.(check bool) "compile emits iset counter samples" true
    (List.mem "iset/cache hits" counters);
  (* the series are the seven memo tables Server.cache_ratios sums *)
  List.iter
    (fun e ->
      if e.Obs.e_ph = Obs.C && e.Obs.e_name = "iset/cache hits" then
        Alcotest.(check (list string))
          "iset/cache hits series"
          [ "sat"; "simplify"; "gist"; "implies"; "subset"; "rel"; "codegen" ]
          (List.map fst e.Obs.e_args))
    evs;
  List.iter
    (fun n ->
      if not (String.contains n '/') then
        Alcotest.failf
          "counter series %S has no subsystem prefix: two subsystems with \
           this name would interleave into one trace track"
          n)
    counters

(* ---- metering must not perturb the simulation ---- *)

let run_jacobi ~engine ?faults () =
  let src = Codes.jacobi ~n:12 ~iters:2 () in
  let compiled = Dhpf.Gen.compile (Hpf.Sema.analyze_source src) in
  let sim =
    Spmdsim.Exec.make ~engine ?faults ~nprocs:4 compiled.Dhpf.Gen.cprog
  in
  let stats = Spmdsim.Exec.run sim in
  let values =
    List.concat_map
      (fun arr ->
        List.concat_map
          (fun i ->
            List.map
              (fun j -> Spmdsim.Exec.get_elem sim arr [ i; j ])
              (List.init 12 succ))
          (List.init 12 succ))
      [ "a"; "b" ]
  in
  (stats, values, Spmdsim.Exec.get_scalar sim "eps")

let test_metered_identical () =
  List.iter
    (fun (engine, faults) ->
      let plain = run_jacobi ~engine ?faults () in
      (* metered, and metered+traced: both must be bit-identical *)
      let metered, _ = with_metrics (fun () -> run_jacobi ~engine ?faults ()) in
      let both, _ =
        with_metrics (fun () ->
            Obs.reset ();
            Obs.enable ();
            Fun.protect
              ~finally:(fun () ->
                Obs.disable ();
                Obs.reset ())
              (fun () -> run_jacobi ~engine ?faults ()))
      in
      List.iter
        (fun (s2, v2, e2) ->
          let s1, v1, e1 = plain in
          Alcotest.(check (list (float 0.0))) "element values identical" v1 v2;
          Alcotest.(check (float 0.0)) "scalar identical" e1 e2;
          Alcotest.(check bool) "stats identical (incl. clocks)" true (s1 = s2))
        [ metered; both ])
    [ (`Closure, None);
      (`Interp, None);
      (`Closure, Some (Spmdsim.Fault.default ~seed:7)) ]

(* ---- predicted vs measured on the paper's applications ---- *)

let check_app name src nprocs =
  let compiled = Dhpf.Gen.compile (Hpf.Sema.analyze_source src) in
  let predicted = Spmdsim.Predict.comm ~nprocs compiled.Dhpf.Gen.cprog in
  Alcotest.(check bool)
    (name ^ " predicts some communication")
    true (predicted <> []);
  List.iter
    (fun (engine, faults) ->
      let (), _ =
        with_metrics (fun () ->
            let sim =
              Spmdsim.Exec.make ~engine ?faults ~nprocs
                compiled.Dhpf.Gen.cprog
            in
            ignore (Spmdsim.Exec.run sim);
            let measured = Spmdsim.Exec.comm_cells sim in
            match Spmdsim.Predict.check predicted measured with
            | [] -> ()
            | mm ->
                Alcotest.failf "%s: %d predicted-vs-measured cells diverge"
                  name (List.length mm))
      in
      ignore faults)
    [ (`Closure, None);
      (`Interp, None);
      (`Closure, Some (Spmdsim.Fault.default ~seed:11)) ]

let test_predicted_measured () =
  check_app "jacobi" (Codes.jacobi ~n:24 ~iters:2 ~procs:(Codes.Fixed (2, 2)) ()) 4;
  check_app "tomcatv" (Codes.tomcatv ~n:33 ~iters:1 ()) 4;
  check_app "gauss (cyclic, local copies)" (Codes.gauss ~n:12 ()) 4

(* the join must flag divergence in either direction *)
let test_check_detects_mismatch () =
  let pred =
    [ { Spmdsim.Predict.p_event = 0; p_src = 0; p_dst = 1; p_msgs = 2; p_elems = 10 } ]
  in
  let meas ~msgs ~elems =
    [
      {
        Spmdsim.Exec.cm_event = 0;
        cm_src = 0;
        cm_dst = 1;
        cm_msgs = msgs;
        cm_elems = elems;
        cm_bytes = elems * 8;
      };
    ]
  in
  Alcotest.(check int) "exact match passes" 0
    (List.length (Spmdsim.Predict.check pred (meas ~msgs:2 ~elems:10)));
  Alcotest.(check int) "element divergence flagged" 1
    (List.length (Spmdsim.Predict.check pred (meas ~msgs:2 ~elems:11)));
  Alcotest.(check int) "missing measured cell flagged" 1
    (List.length (Spmdsim.Predict.check pred []));
  Alcotest.(check int) "unpredicted measured cell flagged" 1
    (List.length (Spmdsim.Predict.check [] (meas ~msgs:2 ~elems:10)))

let () =
  Alcotest.run "metrics"
    [
      ( "registry",
        [
          Alcotest.test_case "disabled is a no-op" `Quick test_disabled_noop;
          Alcotest.test_case "accumulation" `Quick test_accumulate;
          Alcotest.test_case "multi-domain hammer loses nothing" `Quick
            test_multidomain_hammer;
          Alcotest.test_case "prometheus exposition" `Quick
            test_prometheus_format;
          Alcotest.test_case "exports keep full precision" `Quick
            test_export_precision;
        ] );
      ( "histograms",
        [
          QCheck_alcotest.to_alcotest prop_merge_assoc;
          QCheck_alcotest.to_alcotest prop_merge_counts;
          QCheck_alcotest.to_alcotest prop_percentile_bounds;
          QCheck_alcotest.to_alcotest prop_bucket_covers;
        ] );
      ( "count-points",
        [ Alcotest.test_case "matches enumeration" `Quick test_count_points ] );
      ( "namespacing",
        [
          Alcotest.test_case "trace counter series prefixed" `Quick
            test_counter_namespacing;
        ] );
      ( "simulator",
        [
          Alcotest.test_case "metered run bit-identical" `Quick
            test_metered_identical;
          Alcotest.test_case "predicted = measured (both engines, faults)"
            `Quick test_predicted_measured;
          Alcotest.test_case "check flags divergence" `Quick
            test_check_detects_mismatch;
        ] );
    ]
