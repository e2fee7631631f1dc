(* The persistent on-disk analysis cache (Iset.Diskcache) and its wire
   codec:

   - Wire roundtrips (ints incl. min_int, strings with embedded NULs,
     nested lists) and Malformed on garbage;
   - store/find roundtrip with hit/miss accounting, read by the metrics
     registry from the Stats counters even after a registry reset;
   - corruption tolerance: truncated entries, corrupted magic (the
     format-version tag) and digest collisions with a different key are
     all misses, never errors;
   - two racing writers publishing with atomic renames: a concurrent
     reader only ever observes a complete value, never a torn one;
   - the size bound: automatic eviction keeps the footprint within
     budget;
   - group-aware pruning (the native kernel cache's GC): a kernel's
     .ml/.cmxs/.log live and die together, oldest group first;
   - the differential contract: with the disk layer enabled, analysis
     results equal the cache-disabled ones, including when the in-memory
     tables are cleared so every hit is served from disk. *)

open Iset

let counter = ref 0

let fresh_dir () =
  incr counter;
  let d =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "dhpf-test-diskcache-%d-%d" (Unix.getpid ()) !counter)
  in
  (try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  d

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

(* every plain file under [d], recursively *)
let rec files_under d =
  match Sys.readdir d with
  | names ->
      Array.to_list names
      |> List.concat_map (fun n ->
             let p = Filename.concat d n in
             if Sys.is_directory p then files_under p else [ p ])
  | exception Sys_error _ -> []

let with_cache f =
  let d = fresh_dir () in
  Diskcache.set_dir (Some d);
  Fun.protect
    ~finally:(fun () ->
      Diskcache.set_dir None;
      rm_rf d)
    (fun () -> f d)

(* ------------------------------------------------------------------ *)
(* Wire codec                                                          *)
(* ------------------------------------------------------------------ *)

let test_wire_roundtrip () =
  let b = Buffer.create 64 in
  Wire.int b 0;
  Wire.int b (-7);
  Wire.int b max_int;
  Wire.int b min_int;
  Wire.string b "";
  Wire.string b "with \000 nul and \n newline";
  Wire.bool b true;
  Wire.bool b false;
  Wire.list Wire.int b [ 3; -1; 4 ];
  let c = Wire.cursor (Buffer.contents b) in
  Alcotest.(check int) "zero" 0 (Wire.read_int c);
  Alcotest.(check int) "negative" (-7) (Wire.read_int c);
  Alcotest.(check int) "max_int" max_int (Wire.read_int c);
  Alcotest.(check int) "min_int" min_int (Wire.read_int c);
  Alcotest.(check string) "empty string" "" (Wire.read_string c);
  Alcotest.(check string)
    "nul string" "with \000 nul and \n newline" (Wire.read_string c);
  Alcotest.(check bool) "true" true (Wire.read_bool c);
  Alcotest.(check bool) "false" false (Wire.read_bool c);
  Alcotest.(check (list int))
    "list" [ 3; -1; 4 ]
    (Wire.read_list Wire.read_int c);
  Alcotest.(check bool) "at end" true (Wire.at_end c)

let test_wire_malformed () =
  let raises s f =
    Alcotest.(check bool)
      s true
      (try
         ignore (f ());
         false
       with Wire.Malformed -> true)
  in
  raises "no digits" (fun () -> Wire.read_int (Wire.cursor "x"));
  raises "no terminator" (fun () -> Wire.read_int (Wire.cursor "12"));
  raises "short string" (fun () -> Wire.read_string (Wire.cursor "9 ab"));
  raises "negative length" (fun () -> Wire.read_string (Wire.cursor "-1 "));
  raises "truncated list" (fun () ->
      Wire.read_list Wire.read_int (Wire.cursor "3 1 2 "))

(* Length and integer fields at and past the int range: a corrupt length
   near [max_int] must not overflow the bounds check, and a decimal outside
   [min_int, max_int] must not wrap *)
let test_wire_overflow () =
  let malformed s f =
    match f () with
    | _ -> Alcotest.failf "%s: decoded" s
    | exception Wire.Malformed -> ()
  in
  malformed "max_int length" (fun () ->
      Wire.read_string (Wire.cursor ~pos:1 "x4611686018427387903 abc"));
  malformed "20-digit int" (fun () -> Wire.read_int (Wire.cursor "99999999999999999999 "));
  malformed "2^64" (fun () -> Wire.read_int (Wire.cursor "18446744073709551616 "));
  malformed "max_int + 1" (fun () -> Wire.read_int (Wire.cursor "4611686018427387904 "));
  malformed "min_int - 1" (fun () -> Wire.read_int (Wire.cursor "-4611686018427387905 "));
  Alcotest.(check int) "max_int" max_int
    (Wire.read_int (Wire.cursor "4611686018427387903 "));
  Alcotest.(check int) "min_int" min_int
    (Wire.read_int (Wire.cursor "-4611686018427387904 "))

(* Every decoder on hostile bytes: random strings, and truncations and
   one-byte mutations of valid Lin and Conj encodings, decode to a value
   or raise [Malformed] — nothing else escapes *)
let decoders : (string * (Wire.cursor -> unit)) list =
  [
    ("int", fun c -> ignore (Wire.read_int c));
    ("string", fun c -> ignore (Wire.read_string c));
    ("int list", fun c -> ignore (Wire.read_list Wire.read_int c));
    ("var", fun c -> ignore (Var.wire_read c));
    ("lin", fun c -> ignore (Lin.wire_read c));
    ("constr", fun c -> ignore (Constr.wire_read c));
    ("conj", fun c -> ignore (Conj.wire_read c));
  ]

let valid_encodings =
  let enc put x =
    let b = Buffer.create 64 in
    put b x;
    Buffer.contents b
  in
  let lin = Lin.of_list [ (3, Var.In 0); (-2, Var.Param "n"); (7, Var.Ex 1) ] (-5) in
  [
    enc Lin.wire_put lin;
    enc Lin.wire_put (Lin.of_list [ (max_int, Var.Out 4) ] min_int);
    enc Conj.wire_put
      (Conj.make ~n_ex:1
         [ Constr.geq lin; Constr.geq (Lin.of_list [ (-1, Var.In 0) ] 9) ]);
  ]

let gen_hostile =
  QCheck.Gen.(
    let mutate s =
      map2
        (fun i ch ->
          let b = Bytes.of_string s in
          Bytes.set b (i mod String.length s) ch;
          Bytes.to_string b)
        nat char
    in
    let truncate s = map (fun n -> String.sub s 0 (n mod (String.length s + 1))) nat in
    oneof
      [
        string_size ~gen:(oneofl [ '0'; '9'; '-'; ' '; 'i'; 'p'; '='; '>'; 'x' ]) (int_range 0 40);
        string_size ~gen:char (int_range 0 40);
        oneofl valid_encodings >>= truncate;
        oneofl valid_encodings >>= mutate;
      ])

let prop_decoders_total =
  QCheck.Test.make ~count:2000 ~name:"decoders yield a value or Malformed"
    (QCheck.make ~print:String.escaped gen_hostile)
    (fun s ->
      List.for_all
        (fun (name, dec) ->
          match dec (Wire.cursor s) with
          | () | (exception Wire.Malformed) -> true
          | exception e ->
              QCheck.Test.fail_reportf "%s decoder raised %s" name (Printexc.to_string e))
        decoders)

let test_wire_canonical () =
  (* structurally equal conjuncts encode to equal bytes, whatever path
     built them — the property content-addressing rests on *)
  let mk lo hi =
    Conj.make ~n_ex:0
      [
        Constr.geq (Lin.of_list [ (1, Var.In 0) ] (-lo));
        Constr.geq (Lin.of_list [ (-1, Var.In 0) ] hi);
      ]
  in
  let enc c =
    let b = Buffer.create 32 in
    Conj.wire_put b c;
    Buffer.contents b
  in
  Alcotest.(check string) "equal conjuncts, equal bytes" (enc (mk 1 9))
    (enc (mk 1 9));
  Alcotest.(check bool)
    "distinct conjuncts, distinct bytes" true
    (enc (mk 1 9) <> enc (mk 1 8));
  let c = mk 2 5 in
  let rt = Conj.wire_read (Wire.cursor (enc c)) in
  Alcotest.(check bool) "roundtrip is equal" true (Conj.equal c (Conj.intern rt))

(* ------------------------------------------------------------------ *)
(* Entry robustness                                                    *)
(* ------------------------------------------------------------------ *)

let test_roundtrip_and_counters () =
  with_cache @@ fun _d ->
  Stats.reset ();
  Diskcache.store ~kind:"t" "some key" "some value";
  Alcotest.(check (option string))
    "hit" (Some "some value")
    (Diskcache.find ~kind:"t" "some key");
  Alcotest.(check (option string))
    "other kind misses" None
    (Diskcache.find ~kind:"u" "some key");
  Alcotest.(check (option string))
    "other key misses" None
    (Diskcache.find ~kind:"t" "other key");
  Alcotest.(check int) "one store" 1 (Stats.count Stats.disk_stores);
  Alcotest.(check int) "three lookups" 3 (Stats.count Stats.disk_lookups);
  Alcotest.(check int) "one hit" 1 (Stats.count Stats.disk_hits);
  Alcotest.(check bool) "bytes tracked" true (Diskcache.bytes_used () > 0)

let entry_file d =
  match files_under d with
  | [ f ] -> f
  | fs -> Alcotest.failf "expected exactly one entry, found %d" (List.length fs)

let test_truncated_entry_is_miss () =
  with_cache @@ fun d ->
  Diskcache.store ~kind:"t" "key" (String.make 4096 'v');
  let f = entry_file d in
  let full = In_channel.with_open_bin f In_channel.input_all in
  (* chop the value in half: decode must fail cleanly *)
  Out_channel.with_open_bin f (fun oc ->
      Out_channel.output_string oc
        (String.sub full 0 (String.length full / 2)));
  Alcotest.(check (option string))
    "truncated entry is a miss" None
    (Diskcache.find ~kind:"t" "key");
  (* and an outright garbage file too *)
  Out_channel.with_open_bin f (fun oc ->
      Out_channel.output_string oc "not a cache entry at all");
  Alcotest.(check (option string))
    "garbage entry is a miss" None
    (Diskcache.find ~kind:"t" "key")

let test_wrong_version_is_miss () =
  with_cache @@ fun d ->
  Diskcache.store ~kind:"t" "key" "value";
  let f = entry_file d in
  let full = In_channel.with_open_bin f In_channel.input_all in
  (* flip the format tag inside the magic: an entry written by another
     cache version must be unreadable *)
  let other = Bytes.of_string full in
  Bytes.set other 6 '9' (* "DHPFDC1\n" -> "DHPFDC9\n" *);
  Out_channel.with_open_bin f (fun oc ->
      Out_channel.output_bytes oc other);
  Alcotest.(check (option string))
    "wrong-version entry is a miss" None
    (Diskcache.find ~kind:"t" "key")

let test_colliding_key_is_miss () =
  with_cache @@ fun d ->
  Diskcache.store ~kind:"t" "real key" "value";
  let f = entry_file d in
  (* simulate an md5 collision: an entry whose embedded key differs from
     the probe sits at the probed path *)
  let b = Buffer.create 64 in
  Buffer.add_string b "DHPFDC1\n";
  Wire.string b "t";
  Wire.string b "impostor key";
  Wire.string b "impostor value";
  Out_channel.with_open_bin f (fun oc ->
      Out_channel.output_string oc (Buffer.contents b));
  Alcotest.(check (option string))
    "mismatched embedded key is a miss" None
    (Diskcache.find ~kind:"t" "real key")

(* the crash this guards against: a length field of [max_int] used to
   overflow the reader's bounds check and escape as [Invalid_argument] *)
let test_max_int_length_is_miss () =
  with_cache @@ fun d ->
  Diskcache.store ~kind:"t" "key" "value";
  let f = entry_file d in
  Out_channel.with_open_bin f (fun oc ->
      Out_channel.output_string oc
        (Printf.sprintf "DHPFDC1\n1 t%d key value" max_int));
  Alcotest.(check (option string))
    "max_int length field is a miss" None
    (Diskcache.find ~kind:"t" "key")

(* disk traffic reaches the metrics registry from the [Stats.disk_*]
   counters, where it is counted, so a registry reset cannot detach it *)
let test_metrics_survive_reset () =
  with_cache @@ fun _d ->
  let module M = Obs.Metrics in
  M.enable ();
  Fun.protect ~finally:(fun () ->
      M.disable ();
      M.reset ())
  @@ fun () ->
  M.reset ();
  Alcotest.(check (option string))
    "absent entry is a miss" None
    (Diskcache.find ~kind:"t" "absent key");
  match
    List.find_opt
      (fun (s : M.sample) -> s.m_name = "iset/disk lookups")
      (M.snapshot ())
  with
  | Some { m_value = M.VCounter v; _ } ->
      Alcotest.(check bool) "iset/disk lookups >= 1" true (v >= 1.0)
  | Some _ -> Alcotest.fail "iset/disk lookups is not a counter"
  | None -> Alcotest.fail "iset/disk lookups missing after a reset"

(* ------------------------------------------------------------------ *)
(* Racing writers                                                      *)
(* ------------------------------------------------------------------ *)

let test_racing_writers_no_torn_reads () =
  with_cache @@ fun _d ->
  let rounds = 60 in
  let value tag = String.make 65536 tag in
  let torn = Atomic.make 0 and seen = Atomic.make 0 in
  let writers_live = Atomic.make 2 in
  (* two writers fight over one key with distinguishable values while a
     reader polls until both finish: every successful read must be one
     complete value *)
  Par.spawn_join 3 (fun who ->
      if who > 0 then begin
        let tag = if who = 1 then 'a' else 'b' in
        for _ = 1 to rounds do
          Diskcache.store ~kind:"race" "contended" (value tag)
        done;
        Atomic.decr writers_live
      end
      else
        while Atomic.get writers_live > 0 || Atomic.get seen = 0 do
          match Diskcache.find ~kind:"race" "contended" with
          | None -> Domain.cpu_relax ()
          | Some v ->
              Atomic.incr seen;
              if not (v = value 'a' || v = value 'b') then Atomic.incr torn
        done);
  Alcotest.(check int) "no torn reads" 0 (Atomic.get torn);
  Alcotest.(check bool)
    "reader observed published values" true
    (Atomic.get seen > 0);
  match Diskcache.find ~kind:"race" "contended" with
  | Some v ->
      Alcotest.(check bool)
        "final value is complete" true
        (v = value 'a' || v = value 'b')
  | None -> Alcotest.fail "final value missing"

(* ------------------------------------------------------------------ *)
(* Size bounds and pruning                                             *)
(* ------------------------------------------------------------------ *)

let test_gc_bounds_footprint () =
  with_cache @@ fun _d ->
  Stats.reset ();
  Diskcache.set_max_bytes 1 (* clamps to the 64 KiB floor *);
  Alcotest.(check int) "budget floor" (64 * 1024) (Diskcache.max_bytes ());
  let v = String.make 16384 'x' in
  for i = 1 to 200 do
    Diskcache.store ~kind:"gc" (Printf.sprintf "key-%d" i) v
  done;
  (* 200 * 16K = 3.1 MiB offered against a 64 KiB budget *)
  Alcotest.(check bool)
    (Printf.sprintf "footprint %d within budget" (Diskcache.bytes_used ()))
    true
    (Diskcache.bytes_used () <= Diskcache.max_bytes ());
  Alcotest.(check bool)
    "evictions recorded" true
    (Stats.count Stats.disk_evictions > 0);
  Alcotest.(check bool)
    "newest entry survived" true
    (Diskcache.find ~kind:"gc" "key-200" <> None);
  Diskcache.set_max_bytes (256 * 1024 * 1024)

let test_prune_dir_groups () =
  let d = fresh_dir () in
  Fun.protect ~finally:(fun () -> rm_rf d)
  @@ fun () ->
  let put name ~age contents =
    let p = Filename.concat d name in
    Obs.write_atomic p contents;
    (* explicit mtimes make age deterministic: [old] predates [new] *)
    Unix.utimes p age age
  in
  (* one old kernel group and one new one, multi-file each, plus sizes
     that force the old group out *)
  put "dhpf_kernel_old.ml" ~age:1000. (String.make 400 'o');
  put "dhpf_kernel_old.cmxs" ~age:1000. (String.make 400 'o');
  put "dhpf_kernel_old.log" ~age:1200. (String.make 100 'o');
  put "dhpf_kernel_new.ml" ~age:2000. (String.make 400 'n');
  put "dhpf_kernel_new.cmxs" ~age:2000. (String.make 400 'n');
  let removed =
    Diskcache.prune_dir ~group:Spmdsim.Native.kernel_group ~max_bytes:1000 d
  in
  Alcotest.(check int) "whole old group removed" 3 removed;
  let left = List.sort compare (Array.to_list (Sys.readdir d)) in
  Alcotest.(check (list string))
    "new group intact"
    [ "dhpf_kernel_new.cmxs"; "dhpf_kernel_new.ml" ]
    left;
  Alcotest.(check string)
    "kernel_group strips from the first dot" "dhpf_kernel_x"
    (Spmdsim.Native.kernel_group "dhpf_kernel_x.cmxs")

(* ------------------------------------------------------------------ *)
(* The differential contract                                           *)
(* ------------------------------------------------------------------ *)

let mk_interval lo hi =
  Conj.make ~n_ex:0
    [
      Constr.geq (Lin.of_list [ (1, Var.In 0) ] (-lo));
      Constr.geq (Lin.of_list [ (-1, Var.In 0) ] hi);
    ]

let test_disk_memo_differential () =
  with_cache @@ fun _d ->
  Cache.set_enabled true;
  let probes =
    List.init 12 (fun i -> mk_interval (i - 4) (2 * i)) @ [ mk_interval 5 1 ]
  in
  let observe () =
    List.map
      (fun c ->
        ( Conj.sat c,
          Option.map Conj.to_string (Conj.simplify c),
          Conj.to_string (Conj.gist c ~given:(mk_interval 0 100)) ))
      probes
  in
  let cold = observe () in
  (* clear the in-memory tables: the rerun must be fed from disk *)
  Cache.clear_all ();
  Stats.reset ();
  let warm = observe () in
  Alcotest.(check bool) "disk-warm equals cold" true (cold = warm);
  Alcotest.(check bool)
    (Printf.sprintf "disk hits recorded (%d)" (Stats.count Stats.disk_hits))
    true
    (Stats.count Stats.disk_hits > 0);
  (* and both agree with the cache-disabled truth *)
  Cache.set_enabled false;
  let plain = observe () in
  Cache.set_enabled true;
  Alcotest.(check bool) "plain equals disk-warm" true (plain = warm)

let test_disabled_cache_disables_disk () =
  with_cache @@ fun _d ->
  Cache.set_enabled false;
  Stats.reset ();
  ignore (Conj.sat (mk_interval 1 3));
  ignore (Conj.simplify (mk_interval 1 3));
  Alcotest.(check int)
    "no disk lookups when the cache layer is off" 0
    (Stats.count Stats.disk_lookups);
  Cache.set_enabled true

let () =
  Alcotest.run "diskcache"
    [
      ( "wire",
        [
          Alcotest.test_case "roundtrip" `Quick test_wire_roundtrip;
          Alcotest.test_case "malformed" `Quick test_wire_malformed;
          Alcotest.test_case "canonical encoding" `Quick test_wire_canonical;
          Alcotest.test_case "overflowing fields" `Quick test_wire_overflow;
          QCheck_alcotest.to_alcotest prop_decoders_total;
        ] );
      ( "entries",
        [
          Alcotest.test_case "roundtrip and counters" `Quick
            test_roundtrip_and_counters;
          Alcotest.test_case "truncated entry" `Quick
            test_truncated_entry_is_miss;
          Alcotest.test_case "wrong version" `Quick test_wrong_version_is_miss;
          Alcotest.test_case "digest collision" `Quick
            test_colliding_key_is_miss;
          Alcotest.test_case "max_int length" `Quick test_max_int_length_is_miss;
          Alcotest.test_case "metrics survive reset" `Quick
            test_metrics_survive_reset;
        ] );
      ( "concurrency",
        [
          Alcotest.test_case "racing writers" `Quick
            test_racing_writers_no_torn_reads;
        ] );
      ( "bounds",
        [
          Alcotest.test_case "gc footprint" `Quick test_gc_bounds_footprint;
          Alcotest.test_case "prune groups" `Quick test_prune_dir_groups;
        ] );
      ( "differential",
        [
          Alcotest.test_case "disk memo differential" `Quick
            test_disk_memo_differential;
          Alcotest.test_case "disabled is disabled" `Quick
            test_disabled_cache_disables_disk;
        ] );
    ]
