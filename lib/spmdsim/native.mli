(** Native execution engine — the third engine behind {!Exec.make}.

    Takes the kernel that {!Compile.prepare} lowered once ({!Imp}),
    prints it as a standalone OCaml compilation unit ({!Emit}), compiles
    that unit out-of-process with [ocamlfind ocamlopt -shared] into a
    cache directory keyed on a hash of the emitted source (plus the
    compiler version and the digests of every library .cmi/.cmx),
    dynlinks the result, and runs it in place of the closure engine's
    closures over the same kernel. Setup, storage, transport, scheduling and result inspection
    are {!Compile}'s, shared verbatim — [make] returns a plain
    {!Compile.csim} — so the engine is bit-identical to the closure engine
    (and hence the interpreter) in element values, clocks, counters and
    per-pair communication cells; {!Diffcheck.engines} asserts this
    three-way.

    The cache directory defaults to [$DHPF_NATIVE_CACHE] or
    [<tmpdir>/dhpf-native-cache]; a warm cache skips the compiler
    entirely ([native/cache_hit] in {!Obs.Metrics}; builds record a
    [native/build_s] histogram sample and a ["native build"] trace span).
    Host executables must link with [-linkall] so the dynlinked kernel
    finds every library module. *)

type kctx = Compile.link
(** Per-sim context threaded through the generated kernel: transport,
    VP-to-physical mapping, array ids, [vm$k] slots. *)

type kernel_fn = kctx -> Compile.rt -> unit

val register : kernel_fn -> unit
(** Called by the dynlinked unit's top-level initializer to hand its entry
    point to the loader. *)

(** {1 Kernel runtime}

    Called from emitted code only; each is the closure engine's own path
    ({!Compile.send}, {!Compile.recv}, ...), so clock charges, effects and
    error texts are shared, not copied. *)

val bad_step : Compile.rt -> string -> 'a
val unbound_int : Compile.rt -> string -> 'a
val unknown_sub : Compile.rt -> string -> 'a

val do_send :
  kctx ->
  Compile.rt ->
  event:int ->
  inplace:bool ->
  rect:bool ->
  int list ->
  unit

val do_recv :
  kctx ->
  Compile.rt ->
  event:int ->
  recv_o:float ->
  unpack:float ->
  int list ->
  unit

val do_reduce_arr : string -> Dhpf.Spmd.reduce_op -> unit
val do_reduce_scalar : Compile.rt -> int -> Dhpf.Spmd.reduce_op -> unit

(** {1 Engine construction} *)

val kernel_group : string -> string
(** The eviction group of a cache file name: its basename up to the first
    dot, so one kernel's [.ml] and [.cmxs] live and die together. *)

val make :
  ?machine:Machine.t ->
  ?faults:Fault.spec ->
  ?domains:int ->
  ?cache_dir:string ->
  nprocs:int ->
  ?params:(string * int) list ->
  Dhpf.Spmd.program ->
  Compile.csim
(** Build the sim with the generated kernel installed as its main.
    Parameters are as in {!Exec.make}; [cache_dir] overrides
    the default cache directory: [$DHPF_NATIVE_CACHE] when set, else
    [<tmpdir>/dhpf-native-cache]. After every out-of-process build the
    directory is bounded to 512 MiB by whole-kernel oldest-first eviction
    ({!Iset.Diskcache.prune_dir}).
    @raise Runtime.Error when the kernel fails to compile or load (the
    compiler log is included), or when the build tree cannot be located
    (see [DHPF_NATIVE_INCLUDES]). *)
