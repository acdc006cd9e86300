(** Compilation-time experiments: Table 10 (method comparison) and
    Figure 14 (Heron's compile-time breakdown).

    Hardware-measurement wall time is simulated: each measurement is
    charged its program's simulated latency (times repetitions) plus a
    fixed per-measurement harness overhead, matching how the paper's
    compile time is dominated by on-device measurement. Search and
    cost-model times are real wall-clock seconds of this implementation. *)

val table10 : ?budget:int -> ?seed:int -> unit -> string

val fig14 : ?budget:int -> ?seed:int -> ?pool:Heron_util.Pool.t -> unit -> string
(** [?pool] parallelizes tuning's CSP solving; the search time in the
    reported breakdown is then parallel wall-clock. *)
