(** Exploration-efficiency experiments: Figure 2 (RAND vs SA vs GA in the
    irregular space), Figure 12 (CGA vs the same) and Figure 13 (CGA vs
    constraint-handling GA variants across problem sizes). *)

val fig2 : ?budget:int -> ?seed:int -> unit -> string

val fig12 : ?budget:int -> ?seed:int -> ?pool:Heron_util.Pool.t -> unit -> string
(** [?pool] parallelizes the CGA runs' CSP solving without changing
    results for a fixed seed. *)

val fig13 : ?budget:int -> ?seed:int -> ?pool:Heron_util.Pool.t -> unit -> string

val trace_rows :
  checkpoints:int list ->
  (string * Heron_search.Env.point list) list ->
  string list list
(** Best-so-far GFLOPS-equivalent (1000/latency) of each method at each
    checkpoint step, for rendering exploration curves as a table. *)
