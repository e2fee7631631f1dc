(* Unit and property tests for the observability subsystem: span
   nesting, the disabled fast path, JSON escaping, the JSON codec and
   atomic file writes, counter-window reset
   at subcommand granularity, send<->recv flow matching on random stencil
   programs, and the guarantee that tracing a run changes nothing. *)

let with_trace f =
  Obs.reset ();
  Obs.enable ();
  let r = Fun.protect ~finally:(fun () -> Obs.disable ()) f in
  let evs = Obs.events () in
  Obs.reset ();
  (r, evs)

(* ---- span basics ---- *)

let test_disabled_path () =
  Obs.reset ();
  Obs.disable ();
  let r = Obs.span "ignored" (fun () -> 41 + 1) in
  Obs.instant "also ignored";
  Obs.counter "nope" [ ("x", 1.0) ];
  Alcotest.(check int) "thunk result" 42 r;
  Alcotest.(check int) "no events recorded" 0 (Obs.events_count ())

let test_span_nesting () =
  let r, evs =
    with_trace (fun () ->
        Obs.span "outer" (fun () ->
            let x = Obs.span ~cat:"t" "inner" (fun () -> 3) in
            x + 4))
  in
  Alcotest.(check int) "result through nested spans" 7 r;
  let find name =
    match
      List.find_opt (fun e -> e.Obs.e_ph = Obs.X && e.Obs.e_name = name) evs
    with
    | Some e -> e
    | None -> Alcotest.failf "span %s not recorded" name
  in
  let outer = find "outer" and inner = find "inner" in
  (* children close (and are pushed) before their parent *)
  Alcotest.(check bool) "inner starts after outer" true
    (inner.Obs.e_ts >= outer.Obs.e_ts -. 0.5);
  Alcotest.(check bool) "inner contained in outer" true
    (inner.Obs.e_ts +. inner.Obs.e_dur
    <= outer.Obs.e_ts +. outer.Obs.e_dur +. 0.5);
  Alcotest.(check string) "category recorded" "t" inner.Obs.e_cat

let test_span_exception () =
  let (), evs =
    with_trace (fun () ->
        try Obs.span "raises" (fun () -> failwith "boom") with Failure _ -> ())
  in
  Alcotest.(check bool) "span recorded despite exception" true
    (List.exists (fun e -> e.Obs.e_name = "raises") evs)

(* ---- JSON export ---- *)

module J = Obs.Json

let read_file path = In_channel.with_open_bin path In_channel.input_all

let test_json_escaping () =
  Obs.reset ();
  Obs.enable ();
  let nasty = "quote\" back\\slash \n\t\r\b\012 ctl\001 end" in
  Obs.instant ~cat:nasty ~args:[ (nasty, Obs.Str nasty) ] nasty;
  ignore (Obs.span nasty (fun () -> 0));
  Obs.counter "c\"c" [ ("s\\s", 1.5) ];
  Obs.set_process_name ~pid:3 "p\"name";
  Obs.flow_start ~pid:1 ~tid:0 ~ts:1.0 ~id:(Obs.next_flow_id ()) "m\"sg";
  let json = J.to_string (Obs.to_chrome_json ()) in
  Obs.disable ();
  Obs.reset ();
  let v =
    match J.of_string json with
    | v -> v
    | exception J.Error msg -> Alcotest.failf "invalid JSON: %s" msg
  in
  let contains sub =
    let ls = String.length sub and lj = String.length json in
    let rec go i = i + ls <= lj && (String.sub json i ls = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "quotes escaped" true (contains {|quote\"|});
  Alcotest.(check bool) "backslash escaped" true (contains {|back\\slash|});
  Alcotest.(check bool) "control char unicode-escaped" true
    (contains {|\u0001|});
  Alcotest.(check bool) "names decode to the original bytes" true
    (List.exists
       (fun e -> J.get_str e "name" = Some nasty)
       (Option.value (J.get_list v "traceEvents") ~default:[]));
  (* no raw control bytes (newlines included) anywhere in the output *)
  String.iter
    (fun c ->
      if Char.code c < 0x20 then
        Alcotest.failf "raw control byte %d in JSON output" (Char.code c))
    json

(* a non-finite field must read back as null, never as a real number *)
let test_flight_nan () =
  Obs.Recorder.start ~capacity:16 ();
  Fun.protect ~finally:Obs.Recorder.stop @@ fun () ->
  Obs.Recorder.record
    ~fields:[ ("x", Obs.Float nan); ("inf", Obs.Float infinity) ]
    "nan-probe";
  let path = Filename.temp_file "flight" ".json" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  Obs.Recorder.write path;
  match J.get_list (J.of_string (read_file path)) "entries" with
  | Some [ e ] ->
      let field k = Option.bind (J.get e "fields") (fun f -> J.get f k) in
      Alcotest.(check bool) "NaN field is null" true (field "x" = Some J.Null);
      Alcotest.(check bool) "infinite field is null" true
        (field "inf" = Some J.Null)
  | _ -> Alcotest.fail "dump should hold exactly one entry"

(* two domains write different documents to one path at once: each round
   leaves one whole document and no temp file *)
let test_atomic_write_race () =
  let dir = Filename.temp_dir "obs_atomic" "" in
  let path = Filename.concat dir "doc.json" in
  let doc i =
    J.Obj
      [ ("writer", J.int i);
        ("pad", J.Str (String.make (100_000 * (i + 1)) (Char.chr (97 + i)))) ]
  in
  let docs = [| doc 0; doc 1 |] in
  Fun.protect ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Sys.rmdir dir)
  @@ fun () ->
  for round = 1 to 200 do
    let writers =
      Array.map (fun d -> Domain.spawn (fun () -> Obs.write_json path d)) docs
    in
    Array.iter Domain.join writers;
    match J.of_string (read_file path) with
    | v when v = docs.(0) || v = docs.(1) -> ()
    | _ -> Alcotest.failf "round %d: file holds neither document" round
    | exception J.Error msg -> Alcotest.failf "round %d: torn file (%s)" round msg
  done;
  Alcotest.(check (list string)) "no temp file left" [ "doc.json" ]
    (Array.to_list (Sys.readdir dir))

(* ---- the codec itself ---- *)

let json_gen =
  let open QCheck.Gen in
  let byte =
    oneof [ char; oneofl [ '"'; '\\'; '\n'; '\000'; '\031'; '\127'; '\xc3'; '\xa9' ] ]
  in
  let str = string_size ~gen:byte (int_range 0 12) in
  let num =
    oneof
      [
        map float_of_int int;
        map3
          (fun neg m e -> (if neg then -.m else m) *. (10. ** float_of_int e))
          bool (float_range 1. 10.) (int_range (-300) 299);
      ]
  in
  sized
  @@ fix (fun self n ->
         let leaf =
           oneof
             [ return J.Null; map (fun b -> J.Bool b) bool;
               map (fun x -> J.Num x) num; map (fun s -> J.Str s) str ]
         in
         if n <= 0 then leaf
         else
           frequency
             [
               (3, leaf);
               (1, map (fun l -> J.List l) (list_size (int_range 0 4) (self (n / 4))));
               ( 1,
                 map (fun l -> J.Obj l)
                   (list_size (int_range 0 4) (pair str (self (n / 4)))) );
             ])

let arb_json = QCheck.make ~print:J.to_string json_gen

let prop_round_trip =
  QCheck.Test.make ~count:500 ~name:"of_string (to_string v) = v" arb_json
    (fun v -> J.of_string (J.to_string v) = v)

let prop_no_control_bytes =
  QCheck.Test.make ~count:500 ~name:"output has no byte below 0x20" arb_json
    (fun v -> String.for_all (fun c -> Char.code c >= 0x20) (J.to_string v))

let test_number_rule () =
  List.iter
    (fun (x, want) -> Alcotest.(check string) want want (J.to_string (J.Num x)))
    [ (2.5e-5, "2.5e-05"); (3.0, "3"); (-42.0, "-42"); (0.1, "0.1");
      (0x1p53, "9007199254740992"); (1. /. 3., "0.33333333333333331");
      (nan, "null"); (infinity, "null"); (neg_infinity, "null") ];
  Alcotest.(check string) "integers print without a fraction" "[0,7,-1]"
    (J.to_string (J.List [ J.int 0; J.int 7; J.int (-1) ]))

(* [get_int] takes only integers the printer writes exactly: an integral
   double past 2^53 is [None], not a wrapped or saturated int *)
let test_get_int_range () =
  List.iter
    (fun (doc, want) ->
      Alcotest.(check (option int)) doc want (J.get_int (J.of_string doc) "n"))
    [ ({|{"n":1e19}|}, None); ({|{"n":4611686018427387904}|}, None);
      ({|{"n":6e18}|}, None); ({|{"n":-1e300}|}, None); ({|{"n":2.5}|}, None);
      ({|{"n":"8"}|}, None); ({|{"n":9007199254740992}|}, Some 9007199254740992);
      ({|{"n":-9007199254740992}|}, Some (-9007199254740992)); ({|{"n":-0}|}, Some 0);
      ({|{"n":42}|}, Some 42); ({|{}|}, None) ]

let test_rejections () =
  List.iter
    (fun (what, input) ->
      match J.of_string input with
      | _ -> Alcotest.failf "%s accepted: %S" what input
      | exception J.Error _ -> ())
    [ ("raw control character", "\"a\nb\"");
      ("bad escape", {|"\q"|});
      ("bad \\u digit", {|"\u12g4"|});
      ("unpaired high surrogate", {|"\ud800"|});
      ("unpaired low surrogate", {|"\udc00x"|});
      ("high surrogate without low", {|"\ud800A"|});
      ("trailing garbage", "{} x");
      ("empty number", "[1,]");
      ("lone minus", "-");
      ("bad literal", "tru");
      ("bad literal null", "nul") ]

(* nesting is capped: a document exactly [max_depth] deep (arrays and
   objects mixed) parses, one level more is an error, not a deep
   recursion *)
let test_depth_cap () =
  let nest depth =
    let b = Buffer.create (8 * depth) in
    for i = 1 to depth do
      Buffer.add_string b (if i mod 2 = 0 then {|{"k":|} else "[")
    done;
    Buffer.add_string b "0";
    for i = depth downto 1 do
      Buffer.add_char b (if i mod 2 = 0 then '}' else ']')
    done;
    Buffer.contents b
  in
  let doc = nest J.max_depth in
  Alcotest.(check string) "max_depth levels round-trip" doc
    (J.to_string (J.of_string doc));
  match J.of_string (nest (J.max_depth + 1)) with
  | _ -> Alcotest.fail "a document one level deeper than max_depth parsed"
  | exception J.Error msg ->
      let want = Printf.sprintf "nesting deeper than %d" J.max_depth in
      Alcotest.(check string) "error names the cap" want
        (String.sub msg 0 (min (String.length msg) (String.length want)))

(* ---- measurement-window reset (the CLI calls Iset.Stats.reset at every
   subcommand entry; windows over a warm cache must be reproducible, and
   reset must zero every counter) ---- *)

let window_counters =
  [ Iset.Stats.sat_lookups; Iset.Stats.sat_hits;
    Iset.Stats.sat_prefilter_kills; Iset.Stats.simplify_lookups;
    Iset.Stats.simplify_hits; Iset.Stats.gist_lookups; Iset.Stats.gist_hits;
    Iset.Stats.implies_lookups; Iset.Stats.implies_hits;
    Iset.Stats.subset_lookups; Iset.Stats.subset_hits; Iset.Stats.evictions ]

let test_stats_window_reset () =
  let src = Codes.jacobi ~n:12 ~iters:1 () in
  let compile () = ignore (Dhpf.Gen.compile (Hpf.Sema.analyze_source src)) in
  (* warm the (persistent) caches so the windows below are steady-state *)
  compile ();
  Iset.Stats.reset ();
  List.iter
    (fun c -> Alcotest.(check int) "reset zeroes counter" 0 (Iset.Stats.count c))
    window_counters;
  compile ();
  let w1 = List.map Iset.Stats.count window_counters in
  Alcotest.(check bool) "window sees activity" true
    (Iset.Stats.count Iset.Stats.sat_lookups > 0
    || Iset.Stats.count Iset.Stats.simplify_lookups > 0);
  (* without a reset, a second compile leaks into the same window *)
  compile ();
  let leaked = List.map Iset.Stats.count window_counters in
  Alcotest.(check bool) "counters accumulate without reset" true
    (List.exists2 (fun a b -> b > a) w1 leaked);
  (* with a reset, an identical compile over the warm cache reproduces the
     window exactly *)
  Iset.Stats.reset ();
  compile ();
  let w2 = List.map Iset.Stats.count window_counters in
  Alcotest.(check (list int)) "windows reproducible after reset" w1 w2

(* ---- random stencil programs: every send flow has a matching recv flow
   (the same generator family as test_exec's engine-differential test) ---- *)

type ed_spec = {
  ed_dist : int;
  ed_align_a : int;
  ed_align_b : int;
  ed_stmts : ((string * (int * int)) * (string * (int * int)) list) list;
}

let ed_dists =
  [|
    ("processors p(2)", "distribute t(block,*) onto p");
    ("processors p(2)", "distribute t(*,block) onto p");
    ("processors p(2,2)", "distribute t(block,block) onto p");
    ("processors p(2)", "distribute t(cyclic,*) onto p");
    ("processors p(2,2)", "distribute t(cyclic,cyclic) onto p");
  |]

let ed_align name = function
  | 0 -> Printf.sprintf "align %s(i,j) with t(i,j)" name
  | 1 -> Printf.sprintf "align %s(i,j) with t(i+1,j)" name
  | _ -> Printf.sprintf "align %s(i,j) with t(j,i)" name

let ed_src spec =
  let buf = Buffer.create 1024 in
  let pf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let procs, dist = ed_dists.(spec.ed_dist) in
  pf "program obsflow\n";
  pf "  parameter n = 8\n";
  pf "  real a(n,n), b(n,n)\n";
  pf "  %s\n" procs;
  pf "  template t(n+1,n+1)\n";
  pf "  %s\n" (ed_align "a" spec.ed_align_a);
  pf "  %s\n" (ed_align "b" spec.ed_align_b);
  pf "  %s\n" dist;
  pf "  do i = 1, n\n    do j = 1, n\n";
  pf "      a(i,j) = i + 2*j\n      b(i,j) = 2*i - j\n";
  pf "    end do\n  end do\n";
  List.iter
    (fun ((lhs, (li, lj)), refs) ->
      let sub (di, dj) =
        let f v d = if d = 0 then v else Printf.sprintf "%s%+d" v d in
        Printf.sprintf "%s,%s" (f "i" di) (f "j" dj)
      in
      pf "  do i = 2, n-1\n    do j = 2, n-1\n";
      let rhs =
        String.concat " + "
          (List.map (fun (arr, d) -> Printf.sprintf "0.5*%s(%s)" arr (sub d)) refs)
      in
      pf "      %s(%s) = %s + 1.0\n" lhs (sub (li, lj)) rhs;
      pf "    end do\n  end do\n")
    spec.ed_stmts;
  pf "end\n";
  Buffer.contents buf

let ed_gen =
  QCheck.Gen.(
    let shift = int_range (-1) 1 in
    let ref_ = pair (oneofl [ "a"; "b" ]) (pair shift shift) in
    let stmt =
      pair (pair (oneofl [ "a"; "b" ]) (pair shift shift))
        (list_size (int_range 1 2) ref_)
    in
    map
      (fun (dist, (aa, ab), stmts) ->
        { ed_dist = dist; ed_align_a = aa; ed_align_b = ab; ed_stmts = stmts })
      (triple (int_range 0 4)
         (pair (int_range 0 2) (int_range 0 2))
         (list_size (int_range 1 2) stmt)))

let flows_matched ?faults prog =
  let (stats : Spmdsim.Exec.stats), evs =
    with_trace (fun () ->
        let sim = Spmdsim.Exec.make ?faults ~nprocs:4 prog in
        Spmdsim.Exec.run sim)
  in
  let ids ph =
    List.filter (fun e -> e.Obs.e_ph = ph) evs
    |> List.map (fun e -> e.Obs.e_id)
    |> List.sort compare
  in
  let starts = ids Obs.FlowStart and ends = ids Obs.FlowEnd in
  if List.length starts <> stats.Spmdsim.Exec.s_msgs then
    QCheck.Test.fail_reportf "flow starts %d <> transport messages %d"
      (List.length starts) stats.Spmdsim.Exec.s_msgs;
  if starts <> ends then
    QCheck.Test.fail_reportf "unmatched flows: %d starts vs %d ends"
      (List.length starts) (List.length ends);
  true

let prop_flows_matched =
  QCheck.Test.make ~count:20
    ~name:"every traced send has a matching recv flow (incl. under faults)"
    (QCheck.make ~print:ed_src ed_gen)
    (fun spec ->
      match Hpf.Sema.analyze_source (ed_src spec) with
      | exception Hpf.Sema.Error _ -> QCheck.assume_fail ()
      | chk -> (
          match Dhpf.Gen.compile chk with
          | exception Dhpf.Gen.Unsupported _ -> QCheck.assume_fail ()
          | exception Dhpf.Layout.Unsupported _ -> QCheck.assume_fail ()
          | compiled ->
              flows_matched compiled.Dhpf.Gen.cprog
              && flows_matched
                   ~faults:(Spmdsim.Fault.default ~seed:3)
                   compiled.Dhpf.Gen.cprog))

(* ---- tracing must not perturb the simulation: values, clocks and
   counters of a traced run are bit-identical to an untraced one ---- *)

let run_jacobi ~engine ?faults () =
  let src = Codes.jacobi ~n:12 ~iters:2 () in
  let compiled = Dhpf.Gen.compile (Hpf.Sema.analyze_source src) in
  let sim = Spmdsim.Exec.make ~engine ?faults ~nprocs:4 compiled.Dhpf.Gen.cprog in
  let stats = Spmdsim.Exec.run sim in
  let values =
    List.concat_map
      (fun arr ->
        List.concat_map
          (fun i ->
            List.map (fun j -> Spmdsim.Exec.get_elem sim arr [ i; j ])
              (List.init 12 succ))
          (List.init 12 succ))
      [ "a"; "b" ]
  in
  (stats, values, Spmdsim.Exec.get_scalar sim "eps")

let test_traced_untraced_identical () =
  List.iter
    (fun (engine, faults) ->
      let plain = run_jacobi ~engine ?faults () in
      let traced, _evs = with_trace (fun () -> run_jacobi ~engine ?faults ()) in
      let (s1, v1, e1) = plain and (s2, v2, e2) = traced in
      Alcotest.(check (list (float 0.0))) "element values identical" v1 v2;
      Alcotest.(check (float 0.0)) "scalar identical" e1 e2;
      Alcotest.(check bool) "stats identical (incl. clocks)" true (s1 = s2))
    [ (`Closure, None);
      (`Interp, None);
      (`Closure, Some (Spmdsim.Fault.default ~seed:7)) ]

let () =
  Alcotest.run "obs"
    [
      ( "spans",
        [
          Alcotest.test_case "disabled path" `Quick test_disabled_path;
          Alcotest.test_case "nesting" `Quick test_span_nesting;
          Alcotest.test_case "exception safety" `Quick test_span_exception;
        ] );
      ( "export",
        [
          Alcotest.test_case "JSON escaping" `Quick test_json_escaping;
          Alcotest.test_case "flight NaN is null" `Quick test_flight_nan;
          Alcotest.test_case "atomic writes race" `Quick test_atomic_write_race;
        ] );
      ( "codec",
        [
          QCheck_alcotest.to_alcotest prop_round_trip;
          QCheck_alcotest.to_alcotest prop_no_control_bytes;
          Alcotest.test_case "number rule" `Quick test_number_rule;
          Alcotest.test_case "rejections" `Quick test_rejections;
          Alcotest.test_case "get_int range" `Quick test_get_int_range;
          Alcotest.test_case "nesting depth cap" `Quick test_depth_cap;
        ] );
      ( "windows",
        [ Alcotest.test_case "stats reset at subcommand entry" `Quick
            test_stats_window_reset ] );
      ( "simulator",
        [
          QCheck_alcotest.to_alcotest prop_flows_matched;
          Alcotest.test_case "traced run bit-identical" `Quick
            test_traced_untraced_identical;
        ] );
    ]
