(* The access modes loop splitting fixes by construction
   ([Split.fixed_mode]) against the Omega queries they stand in for
   ([Split.access_in]), over every section of every nest a compile split.
   [check] returns how many fixed modes it compared and one line per
   disagreement. *)

open Dhpf

let sections = [ Split.Local; Split.Nl_ro; Split.Nl_wo; Split.Nl_rw ]

let pp_mode = function
  | Split.AllLocal -> "all-local"
  | Split.AllNonLocal -> "all-non-local"
  | Split.Mixed -> "mixed"

let check (c : Gen.compiled) =
  let n = ref 0 and bad = ref [] in
  List.iter
    (fun (s : Split.sections) ->
      List.iter
        (fun sec ->
          List.iter
            (fun (rc : Split.ref_class) ->
              match Split.fixed_mode sec rc with
              | None -> ()
              | Some fixed ->
                  incr n;
                  let queried = Split.access_in (Split.section_set s sec) rc in
                  if queried <> fixed then
                    bad :=
                      Printf.sprintf "%s section, %s %s: fixed %s, queried %s"
                        (Split.section_name sec) (fst rc.rc_ref)
                        (match rc.rc_kind with `Read -> "read" | `Write -> "write")
                        (pp_mode fixed) (pp_mode queried)
                      :: !bad)
            s.ref_classes)
        sections)
    c.csplits;
  (!n, List.rev !bad)
