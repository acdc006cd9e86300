(** Ablations of the design choices DESIGN.md calls out: the number and
    source of CGA key variables, constraint-based mutation, the
    epsilon-greedy measurement split, and CSP propagation strength. *)

val cga_knobs : ?budget:int -> ?seed:int -> unit -> string
(** Top-k / mutation / epsilon ablation on GEMM G1 (V100). The process
    default pool parallelizes each CGA run without changing its result. *)

val propagation : ?seed:int -> unit -> string
(** Solver cost with exact binary PROD/SUM pruning vs bounds-only, on the
    GEMM and C2D spaces. *)
