(* Native execution engine: the program's kernel ({!Imp}) -> generated
   OCaml -> cmxs.

   [make] takes the closure engine's setup ({!Compile.prepare} — the one
   lowering, dense storage, transport), prints the stored kernel with
   {!Emit.emit}, compiles it out-of-process with
   [ocamlfind ocamlopt -shared] into a cache directory keyed on a hash of
   the emitted source (plus compiler version and the libraries' .cmi/.cmx
   digests, so a rebuilt tree never reuses stale kernels), dynlinks the result, and
   installs the generated entry point as the csim's [c_main]. Everything
   outside the kernel body — run loop, reductions, result inspection,
   checkpoint capture — is {!Compile}'s code operating on the same state
   records, and the kernel is the one the closure engine runs, so the two
   engines differ only in how the kernel is executed ({!Diffcheck.engines}
   checks them bit-exactly).

   The generated unit calls back into this module only through
   [register], which hands over the entry point at load time; its
   communication, reduction and failure paths are {!Compile}'s own
   functions, called directly.

   Loading requires the host executable to be linked with [-linkall]
   (dune [link_flags]); the emitted unit references library modules the
   host may not otherwise retain. *)

let errf = Runtime.errf

(* ------------------------------------------------------------------ *)
(* Kernel handoff                                                      *)
(* ------------------------------------------------------------------ *)

type kernel_fn = Compile.link -> Compile.rt -> unit

(* handoff slot: the dynlinked unit's top-level [let () = N.register ...]
   runs during loadfile, and [obtain] picks the closure up right after *)
let pending : kernel_fn option ref = ref None
let register f = pending := Some f

(* ------------------------------------------------------------------ *)
(* Out-of-process build, hash-keyed cache, dynlink                     *)
(* ------------------------------------------------------------------ *)

let libs = [ "iset"; "hpf"; "dhpf"; "obs"; "par"; "spmdsim" ]

let default_cache_dir () =
  match Sys.getenv_opt "DHPF_NATIVE_CACHE" with
  | Some d when d <> "" -> d
  | _ -> Filename.concat (Filename.get_temp_dir_name ()) "dhpf-native-cache"

let rec mkdir_p d =
  if d <> "" && d <> "/" && not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Sys.mkdir d 0o755 with Sys_error _ -> ()
  end

(* The emitted unit compiles against the very build tree this process was
   linked from: walk up from the executable to the dune context root
   (where lib/<l>/.<l>.objs lives). DHPF_NATIVE_INCLUDES overrides with an
   explicit colon-separated include list (used by installed binaries). *)
let include_dirs () =
  match Sys.getenv_opt "DHPF_NATIVE_INCLUDES" with
  | Some s when s <> "" -> List.filter (fun d -> d <> "") (String.split_on_char ':' s)
  | _ -> (
      let probe root =
        Sys.file_exists
          (Filename.concat root "lib/spmdsim/.spmdsim.objs/byte/spmdsim.cmi")
      in
      let rec up dir n =
        if probe dir then Some dir
        else if n = 0 then None
        else
          let parent = Filename.dirname dir in
          if parent = dir then None else up parent (n - 1)
      in
      match up (Filename.dirname Sys.executable_name) 10 with
      | Some root ->
          List.concat_map
            (fun l ->
              let objs = Filename.concat root (Printf.sprintf "lib/%s/.%s.objs" l l) in
              [ Filename.concat objs "byte"; Filename.concat objs "native" ])
            libs
      | None ->
          errf
            "native engine: cannot locate the dune build tree from %s (set DHPF_NATIVE_INCLUDES to the library include directories)"
            Sys.executable_name)

(* .cmi/.cmx digests of every module the kernel can compile against (each
   library's modules, not just its alias module): part of the cache key,
   so an .ml-identical kernel never links against interfaces or inlined
   implementations it was not built with. What a process is linked with
   cannot change under it, so the digests are computed once per process. *)
let cmi_digests_memo : (string list * string list) option Atomic.t = Atomic.make None

let lib_cmi_digests dirs =
  match Atomic.get cmi_digests_memo with
  | Some (d, digests) when d = dirs -> digests
  | _ ->
      let digests =
        List.concat_map
          (fun dir ->
            match Sys.readdir dir with
            | names ->
                Array.to_list names
                |> List.filter (fun n ->
                       Filename.check_suffix n ".cmi" || Filename.check_suffix n ".cmx")
                |> List.sort compare
                |> List.map (fun n -> Digest.to_hex (Digest.file (Filename.concat dir n)))
            | exception Sys_error _ -> [])
          dirs
      in
      Atomic.set cmi_digests_memo (Some (dirs, digests));
      digests

let cache_key ~dirs src =
  Digest.to_hex
    (Digest.string
       (String.concat "\x00" (src :: Sys.ocaml_version :: lib_cmi_digests dirs)))

(* Size bound for the kernel cache: 512 MiB. A kernel is a group of files
   sharing one basename prefix (its .ml and .cmxs) that live and die
   together; eviction is whole-group oldest-first (group age = newest
   member). *)
let cache_budget = 512 * 1024 * 1024

let kernel_group name =
  match String.index_opt name '.' with
  | Some i -> String.sub name 0 i
  | None -> name

let prune_cache dir =
  ignore
    (Iset.Diskcache.prune_dir ~group:kernel_group ~max_bytes:cache_budget dir
      : int)

let read_file path =
  try
    let ic = open_in_bin path in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    s
  with Sys_error _ -> ""

(* kernels this process has loaded, by a digest of the [Imp.kernel] itself:
   a kernel met before needs neither emission nor the source hash *)
let memo : (Digest.t, kernel_fn) Hashtbl.t = Hashtbl.create 8

(* [pending], [memo] and Dynlink itself are all shared mutable state;
   one lock over the whole emit-or-reuse-then-load path makes [obtain]
   safe to call from concurrent domains (the serve daemon's workers) *)
let obtain_mu = Mutex.create ()

(* resolved at each use, not cached: [Obs.Metrics.reset] detaches every
   handle taken before it *)
let m_build () = Obs.Metrics.histogram "native/build_s"
let m_hits () = Obs.Metrics.counter "native/cache_hit"

(* ocamlopt writes .cmi/.cmx/.o beside its source, so processes building
   one kernel side by side in the shared cache directory would overwrite
   each other's objects: each build runs in a private directory, and only
   the finished .cmxs is renamed (atomically) into the cache *)
let compile_plugin ~dirs ~src ~ml ~cmxs =
  (* atomic: concurrent servers building one kernel never expose a torn
     file, the last rename simply wins *)
  Obs.write_atomic ml src;
  let work = Filename.temp_dir ~temp_dir:(Filename.dirname cmxs) "dhpf_build_" "" in
  let clean () =
    try
      Array.iter (fun f -> Sys.remove (Filename.concat work f)) (Sys.readdir work);
      Sys.rmdir work
    with Sys_error _ -> ()
  in
  Fun.protect ~finally:clean @@ fun () ->
  let wml = Filename.concat work (Filename.basename ml) in
  let tmp = Filename.concat work (Filename.basename cmxs) in
  let log = Filename.concat work "build.log" in
  Obs.write_atomic wml src;
  let cmd =
    Printf.sprintf "ocamlfind ocamlopt -shared -w -a -package fmt %s -o %s %s > %s 2>&1"
      (String.concat " " (List.map (fun d -> "-I " ^ Filename.quote d) dirs))
      (Filename.quote tmp) (Filename.quote wml) (Filename.quote log)
  in
  let rc = Sys.command cmd in
  if rc <> 0 then
    errf "native engine: kernel compilation failed (exit %d):\n%s" rc (read_file log);
  Sys.rename tmp cmxs

(* Emit + build (or reuse) + dynlink one kernel, returning its entry
   point. The cmxs file name carries the cache key, so its module name is
   unique per kernel and repeated loads of distinct kernels cannot clash;
   an in-process memo, consulted before emitting, avoids re-emitting and
   re-dynlinking a kernel this process already holds. The kernel is plain
   data, so structurally equal kernels marshal (without sharing) to equal
   bytes and emit equal source. *)
let obtain ~cache_dir (kernel : Imp.kernel) : kernel_fn =
  let kdigest =
    Digest.string (Marshal.to_string kernel [ Marshal.No_sharing ])
  in
  Mutex.protect obtain_mu @@ fun () ->
  match Hashtbl.find_opt memo kdigest with
  | Some f ->
      if Obs.Metrics.enabled () then Obs.Metrics.incr (m_hits ());
      if Obs.Log.enabled Obs.Log.Debug then
        Obs.Log.debug "native.cache_hit"
          ~fields:(fun () ->
            [
              ("kernel", Obs.Str (Digest.to_hex kdigest));
              ("where", Obs.Str "memo");
            ]);
      f
  | None ->
      let src = Emit.emit kernel in
      let dirs = include_dirs () in
      let key = cache_key ~dirs src in
      mkdir_p cache_dir;
      let base = "dhpf_kernel_" ^ key in
      let ml = Filename.concat cache_dir (base ^ ".ml") in
      let cmxs = Filename.concat cache_dir (base ^ ".cmxs") in
      if Sys.file_exists cmxs then begin
        if Obs.Metrics.enabled () then Obs.Metrics.incr (m_hits ());
        if Obs.Log.enabled Obs.Log.Debug then
          Obs.Log.debug "native.cache_hit"
            ~fields:(fun () -> [ ("key", Obs.Str key); ("where", Obs.Str "disk") ])
      end
      else begin
        if Obs.Log.enabled Obs.Log.Info then
          Obs.Log.info "native.build_start"
            ~fields:(fun () -> [ ("key", Obs.Str key) ]);
        (* a failed build records no sample and logs no build_done *)
        let built = ref false in
        Obs.span ~cat:"native" "native build"
          ~on_end:(fun dt ->
            if !built then begin
              if Obs.Metrics.enabled () then
                Obs.Metrics.observe (m_build ()) dt;
              if Obs.Log.enabled Obs.Log.Info then
                Obs.Log.info "native.build_done"
                  ~fields:(fun () ->
                    [ ("key", Obs.Str key); ("build_s", Obs.Float dt) ])
            end)
          (fun () ->
            compile_plugin ~dirs ~src ~ml ~cmxs;
            built := true);
        (* a build added bytes: re-bound the cache (freshly built groups
           are the newest, so they survive) *)
        prune_cache cache_dir
      end;
      pending := None;
      (try Dynlink.loadfile_private cmxs
       with
      | Dynlink.Error e ->
          errf "native engine: loading %s failed: %s (is the host linked with -linkall?)"
            cmxs (Dynlink.error_message e));
      (match !pending with
      | Some f ->
          pending := None;
          Hashtbl.replace memo kdigest f;
          f
      | None -> errf "native engine: kernel %s loaded but did not register" base)

(* ------------------------------------------------------------------ *)
(* Engine construction                                                 *)
(* ------------------------------------------------------------------ *)

let make ?machine ?faults ?domains ?cache_dir ~nprocs ?params
    (prog : Dhpf.Spmd.program) : Compile.csim =
  let cs = Compile.prepare ?machine ?faults ?domains ~nprocs ?params prog in
  let cache_dir =
    match cache_dir with Some d -> d | None -> default_cache_dir ()
  in
  let fn = obtain ~cache_dir cs.Compile.c_kernel in
  let link = Compile.link cs in
  { cs with Compile.c_main = (fun rt -> fn link rt) }
