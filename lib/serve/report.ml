(* dhpf-report/2 (see report.mli). *)

let schema = "dhpf-report/2"

let compile_report ?telemetry ~version ~src ~domains ~phase ~events
    ~statements () =
  let phases =
    List.map
      (fun l ->
        Obs.Json.Obj
          [
            ("phase", Obs.Json.Str l);
            ("seconds", Obs.Json.Num (Dhpf.Phase.total phase l));
          ])
      (Dhpf.Phase.labels phase)
  in
  let counters =
    List.map (fun (n, v) -> (n, Obs.Json.int v)) (Iset.Stats.report ())
  in
  let diskcache =
    Obs.Json.Obj
      [
        ("enabled", Obs.Json.Bool (Iset.Diskcache.enabled ()));
        ( "dir",
          match Iset.Diskcache.dir () with
          | Some d -> Obs.Json.Str d
          | None -> Obs.Json.Null );
        ("max_bytes", Obs.Json.int (Iset.Diskcache.max_bytes ()));
        ("bytes", Obs.Json.int (Iset.Diskcache.bytes_used ()));
      ]
  in
  Obs.Json.Obj
    ([
       ("schema", Obs.Json.Str schema);
       ("version", Obs.Json.Str version);
       ("src", Obs.Json.Str src);
       ("domains", Obs.Json.int domains);
       ("total_s", Obs.Json.Num (Dhpf.Phase.elapsed phase));
       ("phases", Obs.Json.List phases);
       ("events", Obs.Json.int events);
       ("statements", Obs.Json.int statements);
       ( "cache",
         Obs.Json.Obj
           [
             ("enabled", Obs.Json.Bool (Iset.Cache.enabled ()));
             ("counters", Obs.Json.Obj counters);
           ] );
       ("diskcache", diskcache);
     ]
    @ match telemetry with Some t -> [ ("telemetry", t) ] | None -> [])
