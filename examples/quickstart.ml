(* Quickstart: the public API end to end in five steps.

   1. build and manipulate integer sets (the Omega-style core),
   2. write a small HPF program,
   3. compile it to an SPMD node program,
   4. look at the communication sets the compiler derived,
   5. execute it on the simulated message-passing machine and compare with
      a serial run.

   Run with: dune exec examples/quickstart.exe *)

open Iset

let section title = Fmt.pr "@.=== %s ===@." title

let () =
  (* ---- 1. integer sets ---- *)
  section "1. Integer sets and relations";
  let evens = Parse.set "{[i] : exists(a : i = 2a) && 0 <= i <= 20}" in
  let small = Parse.set "{[i] : 0 <= i <= 9}" in
  Fmt.pr "evens           = %a@." Rel.pp evens;
  Fmt.pr "evens n small   = %a@." Rel.pp (Rel.inter evens small);
  Fmt.pr "small - evens   = %a@." Rel.pp (Rel.diff small evens);
  let shift = Parse.rel "{[i] -> [j] : j = i + 3}" in
  Fmt.pr "shift(evens)    = %a@." Rel.pp (Rel.apply shift evens);
  Fmt.pr "is 7 in evens?    %b@." (Rel.mem_set evens [ 7 ]);
  Fmt.pr "is 8 in evens?    %b@." (Rel.mem_set evens [ 8 ]);

  (* generate a loop nest that scans a non-convex set *)
  section "2. Code generation from a set";
  let tri = Parse.set "{[i,j] : 1 <= i <= 6 && i <= j <= 6 && exists(a : j = 2a)}" in
  let asts = Codegen.gen ~names:(Rel.in_names tri) [ { Codegen.tag = "S1"; dom = tri } ] in
  print_string (Codegen.ast_to_string asts);

  (* ---- 3. a small HPF program ---- *)
  section "3. Compile a mini-HPF program";
  let src =
    {|
program demo
  parameter n = 16
  real a(n), b(n)
  processors p(4)
  template t(n)
  align a(i) with t(i)
  align b(i) with t(i)
  distribute t(block) onto p
  do i = 1, n
    a(i) = i
  end do
  do i = 2, n
    b(i) = a(i-1) + 1.0
  end do
end
|}
  in
  let chk = Hpf.Sema.analyze_source src in
  let compiled = Dhpf.Gen.compile chk in
  Fmt.pr "%d communication event(s)@." (List.length compiled.cevents);

  section "4. Communication sets (Figure 3 of the paper)";
  List.iter
    (fun (e : Dhpf.Gen.event) ->
      Fmt.pr "event: %s@." e.ev_desc;
      Fmt.pr "  SendCommMap(m) = %a@." Rel.pp e.ev_maps.Dhpf.Comm.send_map;
      Fmt.pr "  RecvCommMap(m) = %a@." Rel.pp e.ev_maps.Dhpf.Comm.recv_map;
      Fmt.pr "  contiguous (in-place)? %b@." e.ev_inplace.Dhpf.Inplace.contiguous)
    compiled.cevents;

  section "5. Generated SPMD node program";
  print_string (Dhpf.Spmd.program_to_string compiled.cprog);

  section "6. Execute on the simulated machine";
  let serial = Spmdsim.Serial.run chk in
  let sim = Spmdsim.Exec.make ~nprocs:4 compiled.cprog in
  let stats = Spmdsim.Exec.run sim in
  Fmt.pr "serial time (model): %.3f ms@." (serial.r_time *. 1e3);
  Fmt.pr "4-processor time   : %.3f ms (%d messages)@." (stats.s_time *. 1e3)
    stats.s_msgs;
  let ok = ref true in
  for i = 1 to 16 do
    if
      abs_float (Spmdsim.Serial.get_elem serial "b" [ i ] -. Spmdsim.Exec.get_elem sim "b" [ i ])
      > 1e-9
    then ok := false
  done;
  Fmt.pr "SPMD result matches serial: %b@." !ok
