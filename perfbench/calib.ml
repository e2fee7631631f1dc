(* Calibration helper for perfbench/main.exe: measures how fast the host
   is running right now.

   Each line read on standard input names a fixed piece of reference work,
   which links and runs no repository code; the helper does it and writes
   back the CPU seconds it took, as one line. The runner asks before every
   operation it times, from the CPU the operation runs on, for the
   reference that resembles the operation:

   - "c", a compile's mix: maps, hash tables, sorting and the collections
     they cause;
   - "s", a simulation's mix: a stencil over float arrays evaluated through
     closures compiled from an expression tree, as the closure engine
     evaluates SPMD code.

   On an unloaded host each takes about 20 ms. Its own process keeps the
   measurement free of the runner's heap and of anything the repository's
   code changes. Exits on end of input or on a line "q". *)

module IM = Map.Make (Int)

let compile_mix () =
  let h = Hashtbl.create 16 in
  let m = ref IM.empty in
  for i = 0 to 20_000 do
    let k = i * 7919 land 0x3ffff in
    Hashtbl.replace h k [ i; k ];
    m := IM.add k (i, k) !m
  done;
  let l = List.init 20_000 (fun i -> i * 31337 mod 20011) in
  ignore (Sys.opaque_identity (List.sort compare l, IM.cardinal !m, Hashtbl.length h))

type expr = Get of int * int | Const of float | Add of expr * expr | Mul of expr * expr

let n = 384
let src = Array.init (n * n) (fun k -> float_of_int (k mod 97))
let dst = Array.make (n * n) 0.0

let rec closure = function
  | Get (di, dj) -> fun i j -> Array.unsafe_get src (((i + di) * n) + j + dj)
  | Const c -> fun _ _ -> c
  | Add (a, b) ->
      let fa = closure a and fb = closure b in
      fun i j -> fa i j +. fb i j
  | Mul (a, b) ->
      let fa = closure a and fb = closure b in
      fun i j -> fa i j *. fb i j

let stencil =
  closure (Mul (Const 0.25, Add (Add (Get (-1, 0), Get (1, 0)), Add (Get (0, -1), Get (0, 1)))))

let simulate_mix () =
  for _ = 1 to 4 do
    for i = 1 to n - 2 do
      for j = 1 to n - 2 do
        Array.unsafe_set dst ((i * n) + j) (stencil i j)
      done
    done
  done

let cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.tms_stime

let () =
  let timed f =
    Gc.full_major ();
    let u0 = cpu () in
    f ();
    Printf.printf "%.9f\n%!" (cpu () -. u0)
  in
  let rec loop () =
    match input_line stdin with
    | exception End_of_file -> ()
    | "c" ->
        timed compile_mix;
        loop ()
    | "s" ->
        timed simulate_mix;
        loop ()
    | _ -> ()
  in
  loop ()
