(* Content-addressed on-disk analysis cache (see diskcache.mli).

   Layout: <root>/v<format_version>/<kind>/<md5(key)>. An entry file is
   a magic line followed by the Wire encoding of (kind, key, value); the
   full key is stored so a digest collision reads as a miss instead of a
   wrong answer. Publication is write-to-temp + atomic rename, reads
   treat any malformation as a miss, and the footprint is bounded by
   oldest-first whole-entry eviction. *)

(* bumped whenever the Wire codec of any cached structure changes; part
   of every entry path, so entries from another format are unreachable
   rather than misread *)
let format_version = 1
let magic = "DHPFDC1\n"

(* -- configuration -------------------------------------------------- *)

let dir_ref : string option Atomic.t = Atomic.make None
let max_bytes_ref = Atomic.make (256 * 1024 * 1024)

(* tracked footprint of the enabled directory; -1 = not yet scanned *)
let bytes_ref = Atomic.make (-1)
let mu = Mutex.create ()

let set_dir d =
  Atomic.set dir_ref d;
  Atomic.set bytes_ref (-1)

let dir () = Atomic.get dir_ref
let enabled () = Atomic.get dir_ref <> None
let max_bytes () = Atomic.get max_bytes_ref
let set_max_bytes n = Atomic.set max_bytes_ref (max (64 * 1024) n)

(* -- metrics -------------------------------------------------------- *)

(* lookups, hits, stores and evictions are counted once, in [Stats.disk_*]
   (the registry reads them as [iset/disk ...]); the footprint gauge is
   resolved at each use, so [Obs.Metrics.reset] cannot detach it *)
let note_bytes () =
  if Obs.Metrics.enabled () then
    let b = Atomic.get bytes_ref in
    if b >= 0 then
      Obs.Metrics.set (Obs.Metrics.gauge "diskcache/bytes") (float_of_int b)

(* -- filesystem helpers --------------------------------------------- *)

let rec mkdir_p d =
  if d <> "" && d <> "/" && not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Sys.mkdir d 0o755 with Sys_error _ -> ()
  end

let read_file path =
  try
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> Some (really_input_string ic (in_channel_length ic)))
  with Sys_error _ | End_of_file -> None

let file_size path =
  try (Unix.stat path).Unix.st_size with Unix.Unix_error _ -> 0

(* in-flight temp files (Obs.write_atomic names them <path>.tmp.<pid>.<n>)
   are not entries: scans and GC skip them so a concurrent writer's rename
   cannot be raced away *)
let is_tmp name =
  let rec has i =
    i + 5 <= String.length name
    && (String.sub name i 5 = ".tmp." || has (i + 1))
  in
  has 0

(* -- entry paths ---------------------------------------------------- *)

let version_dir root = Filename.concat root (Printf.sprintf "v%d" format_version)

let entry_path root ~kind key =
  Filename.concat
    (Filename.concat (version_dir root) kind)
    (Digest.to_hex (Digest.string key))

(* every plain file under <root>/v*/<kind>/ that is not an in-flight temp *)
let entries root =
  let acc = ref [] in
  let subdirs d =
    match Sys.readdir d with
    | names -> Array.to_list names
    | exception Sys_error _ -> []
  in
  List.iter
    (fun v ->
      let vdir = Filename.concat root v in
      if String.length v > 1 && v.[0] = 'v' && Sys.is_directory vdir then
        List.iter
          (fun kind ->
            let kdir = Filename.concat vdir kind in
            if Sys.is_directory kdir then
              List.iter
                (fun name ->
                  if is_tmp name then ()
                  else
                    let p = Filename.concat kdir name in
                    match Unix.stat p with
                  | { Unix.st_kind = Unix.S_REG; st_mtime; st_size; _ } ->
                      acc := (p, st_mtime, st_size) :: !acc
                  | _ -> ()
                  | exception Unix.Unix_error _ -> ())
                (subdirs kdir))
          (subdirs vdir))
    (subdirs root);
  !acc

let scanned_bytes root =
  List.fold_left (fun a (_, _, sz) -> a + sz) 0 (entries root)

(* footprint, scanning the directory once per configuration *)
let tracked_bytes root =
  let b = Atomic.get bytes_ref in
  if b >= 0 then b
  else
    Mutex.protect mu (fun () ->
        let b = Atomic.get bytes_ref in
        if b >= 0 then b
        else begin
          let b = scanned_bytes root in
          Atomic.set bytes_ref b;
          b
        end)

let bytes_used () =
  match dir () with None -> 0 | Some root -> tracked_bytes root

let add_bytes root delta =
  ignore (tracked_bytes root);
  ignore (Atomic.fetch_and_add bytes_ref delta : int);
  note_bytes ()

(* -- eviction ------------------------------------------------------- *)

(* oldest-first until within [max_bytes]; group age is the newest member
   so freshly completed multi-file entries are evicted last *)
let prune_dir ?(group = fun name -> name) ~max_bytes d =
  let files =
    match Sys.readdir d with
    | names ->
        Array.to_list names
        |> List.filter_map (fun name ->
               if is_tmp name then None
               else
                 let p = Filename.concat d name in
                 match Unix.stat p with
               | { Unix.st_kind = Unix.S_REG; st_mtime; st_size; _ } ->
                   Some (name, p, st_mtime, st_size)
               | _ -> None
               | exception Unix.Unix_error _ -> None)
    | exception Sys_error _ -> []
  in
  let total = List.fold_left (fun a (_, _, _, sz) -> a + sz) 0 files in
  if total <= max_bytes then 0
  else begin
    let tbl = Hashtbl.create 32 in
    List.iter
      (fun (name, p, mt, sz) ->
        let g = group name in
        let mt', sz', ps =
          Option.value (Hashtbl.find_opt tbl g) ~default:(neg_infinity, 0, [])
        in
        Hashtbl.replace tbl g (Float.max mt mt', sz + sz', p :: ps))
      files;
    let groups =
      Hashtbl.fold (fun _ g acc -> g :: acc) tbl []
      |> List.sort (fun (a, _, _) (b, _, _) -> Float.compare a b)
    in
    let removed = ref 0 in
    let remaining = ref total in
    List.iter
      (fun (_, sz, ps) ->
        if !remaining > max_bytes then begin
          List.iter
            (fun p ->
              try
                Sys.remove p;
                incr removed
              with Sys_error _ -> ())
            ps;
          remaining := !remaining - sz
        end)
      groups;
    !removed
  end

(* whole-store GC: rescan (cheap relative to eviction, and immune to
   counter drift), evict oldest entries down to 3/4 of the budget so one
   overflow does not trigger a GC per store *)
let gc () =
  match dir () with
  | None -> 0
  | Some root ->
      Mutex.protect mu (fun () ->
          let budget = max_bytes () in
          let files = entries root in
          let total = List.fold_left (fun a (_, _, sz) -> a + sz) 0 files in
          Atomic.set bytes_ref total;
          if total <= budget then begin
            note_bytes ();
            0
          end
          else begin
            let files =
              List.sort (fun (_, a, _) (_, b, _) -> Float.compare a b) files
            in
            let target = budget * 3 / 4 in
            let removed = ref 0 in
            let remaining = ref total in
            List.iter
              (fun (p, _, sz) ->
                if !remaining > target then (
                  try
                    Sys.remove p;
                    remaining := !remaining - sz;
                    incr removed;
                    Stats.bump Stats.disk_evictions
                  with Sys_error _ -> ()))
              files;
            Atomic.set bytes_ref !remaining;
            note_bytes ();
            if Obs.Log.enabled Obs.Log.Info then begin
              let before = total and after = !remaining in
              Obs.Log.info "diskcache.gc"
                ~fields:(fun () ->
                  [
                    ("evicted", Obs.Int !removed);
                    ("bytes_before", Obs.Int before);
                    ("bytes_after", Obs.Int after);
                    ("budget", Obs.Int budget);
                  ])
            end;
            !removed
          end)

let clear () =
  match dir () with
  | None -> ()
  | Some root ->
      Mutex.protect mu (fun () ->
          List.iter
            (fun (p, _, _) -> try Sys.remove p with Sys_error _ -> ())
            (entries root);
          Atomic.set bytes_ref 0;
          note_bytes ())

(* -- entry access --------------------------------------------------- *)

let encode_entry ~kind key value =
  let b = Buffer.create (String.length value + String.length key + 64) in
  Buffer.add_string b magic;
  Wire.string b kind;
  Wire.string b key;
  Wire.string b value;
  Buffer.contents b

(* any malformation — short file, bad magic, foreign kind, digest
   collision — is [None]; never an exception *)
let decode_entry ~kind key bytes =
  let n = String.length magic in
  if String.length bytes < n || String.sub bytes 0 n <> magic then None
  else
    match
      let c = Wire.cursor ~pos:n bytes in
      let k = Wire.read_string c in
      let key' = Wire.read_string c in
      let v = Wire.read_string c in
      if Wire.at_end c then Some (k, key', v) else None
    with
    | Some (k, key', v) when String.equal k kind && String.equal key' key ->
        Some v
    | Some _ | None -> None
    | exception Wire.Malformed -> None

let find ~kind key =
  match dir () with
  | None -> None
  | Some root -> (
      Stats.bump Stats.disk_lookups;
      let path = entry_path root ~kind key in
      match read_file path with
      | None -> None
      | Some bytes -> (
          match decode_entry ~kind key bytes with
          | Some v ->
              Stats.bump Stats.disk_hits;
              (* refresh the entry's age so eviction approximates LRU *)
              (try Unix.utimes path 0.0 0.0 with Unix.Unix_error _ -> ());
              Some v
          | None ->
              (* a readable file that fails to decode is a cache fault
                 (corruption or digest collision), not a routine miss *)
              if Obs.Log.enabled Obs.Log.Warn then
                Obs.Log.warn "diskcache.corrupt_entry"
                  ~fields:(fun () ->
                    [
                      ("kind", Obs.Str kind);
                      ("path", Obs.Str path);
                      ("bytes", Obs.Int (String.length bytes));
                    ]);
              None))

let store ~kind key value =
  match dir () with
  | None -> ()
  | Some root -> (
      let path = entry_path root ~kind key in
      mkdir_p (Filename.dirname path);
      let bytes = encode_entry ~kind key value in
      let before = file_size path in
      match Obs.write_atomic path bytes with
      | () ->
          Stats.bump Stats.disk_stores;
          add_bytes root (String.length bytes - before);
          if Atomic.get bytes_ref > max_bytes () then ignore (gc () : int)
      | exception Sys_error _ -> ())

let memo ~kind ~key ~encode ~decode f =
  if not (enabled ()) then f ()
  else
    let key = key () in
    let decoded =
      match find ~kind key with
      | None -> None
      | Some v -> (
          match decode (Wire.cursor v) with
          | r -> Some r
          | exception Wire.Malformed -> None)
    in
    match decoded with
    | Some r -> r
    | None ->
        let r = f () in
        store ~kind key (encode r);
        r
