(* Old name of Obs.Json, kept because perfbench/ names Serve.Jsonx and must build unchanged. *)
include Obs.Json
