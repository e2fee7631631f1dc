(* The one built-in input whose run copies between co-located virtual
   processors: Gauss with both processor-grid extents symbolic, where
   the pivot row's template-cell VP sends to VPs on its own processor.
   It reaches the [local] branch of [Runtime.send] and the diagonal of
   [--check-comm], which no concrete grid does. *)

let src = Codes.gauss ~n:12 ~procs:Codes.SymbolicBoth ()

(* messages a fault-free closure run delivers between co-located VPs *)
let copies ~nprocs =
  let prog =
    (Dhpf.Gen.compile (Hpf.Sema.analyze_source src)).Dhpf.Gen.cprog
  in
  let sim = Spmdsim.Exec.make ~nprocs prog in
  ignore (Spmdsim.Exec.run sim);
  List.fold_left
    (fun n (c : Spmdsim.Exec.comm_cell) ->
      if c.cm_src = c.cm_dst then n + c.cm_msgs else n)
    0
    (Spmdsim.Exec.comm_cells sim)

let check_copies ~nprocs =
  Alcotest.(check bool) "the run makes co-located VP copies" true
    (copies ~nprocs > 0)
