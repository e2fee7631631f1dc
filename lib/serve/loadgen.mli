(** Nearest-rank percentiles over sorted samples: the serve daemon's
    rolling-window gauges in the [stats] op, and the benchmark runner's
    medians. *)

val percentile : float -> float array -> float
(** [percentile q sorted] by nearest-rank; [0.] on an empty array. *)
