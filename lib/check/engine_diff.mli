(** Differential properties between the production solver engine
    ({!Heron_csp.Solver}: compiled-template cache, bitset domains,
    trail-based backtracking) and the frozen pre-overhaul reference
    ({!Solver_ref}).

    Where {!Diff} checks the solver against a brute-force oracle for
    soundness/completeness, these properties pin something stronger: the
    two engines must be observationally *identical* — same solutions in
    the same order for the same seeds (same RNG consumption), same
    search statistics, same propagation fixpoints — across [solve],
    [rand_sat], [solve_all], [enumerate], [propagate_domains] and
    [solve_biased], including the [with_extra] incremental template-reuse
    path and compile-cache hits. Five of them run a second time, under
    "engine: heron-shaped ..." names, over {!Csp_gen.heron_arbitrary}
    spaces, which reach every exact-support path of the solver.

    One more property holds the id path of CGA breeding to the CSP path:
    [solve_children] equals [solve_all] on the [with_extra] renderings of
    the same restrictions — solutions, RNG state and [solver.*] counter
    deltas — over both generators and over bases that carry [In] extras
    of their own. *)

val tests : ?count:int -> unit -> QCheck.Test.t list
