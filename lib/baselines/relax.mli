(** Search-space relaxations modeling what competing paradigms do NOT
    know about the DLA.

    Dropping a constraint class keeps the same tunables but admits
    assignments that real hardware rejects — recreating the paper's
    low-quality search spaces (e.g. ~95% invalid programs for AutoTVM on
    TensorCore). Fixing a tunable to a single value models a paradigm that
    cannot explore that dimension (e.g. AMOS and compute locations). *)

module Problem = Heron_csp.Problem

val drop_memory_limits : Problem.t -> Problem.t
(** Removes the C5 family: per-tensor footprint products, per-scope sums
    and capacity bounds. *)

val fix_vars : (string * int) list -> Problem.t -> Problem.t
(** Pins each listed variable (when present) to a single value by domain
    restriction; values absent from the domain fall back to the domain
    minimum. *)
