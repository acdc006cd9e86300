(** The benchmark's only clock: [CLOCK_MONOTONIC] in nanoseconds, read
    through [bechamel.monotonic_clock]. Every timing the harness reports
    goes through this module, never through [Sys.time] (process CPU time
    summed over domains) or the program's own microsecond-quantized
    [Obs.Clock]. *)

val now_ns : unit -> int

val time : (unit -> 'a) -> 'a * int
(** [time f] is [f ()] together with its wall time in nanoseconds. *)

val percentile : int array -> float -> int
(** [percentile sorted p] is the nearest-rank [p]th percentile
    ([0. < p <= 100.]) of an ascending array; [0] when it is empty. *)

val median : float list -> float
(** Median of a list ([0.] when empty). *)
