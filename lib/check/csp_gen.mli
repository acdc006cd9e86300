(** QCheck generators for random-but-well-formed CSPs.

    A [spec] is a shrink-friendly intermediate form: variables are indices,
    domains are value lists, constraints refer to variables by index, so
    every spec converts to a well-formed {!Heron_csp.Problem.t} by
    construction (no unknown variables, no empty domains). Shrinking drops
    constraints, removes domain values and halves values, so a failing
    property reports a minimal problem.

    Generated spaces are bounded ([space_size] of the resulting problem is
    at most 10^4 before the repair pass, barely above after), small enough
    for the brute-force {!Oracle}. A repair pass seeds each generated
    constraint with one witness combination so a healthy fraction of
    problems is satisfiable; the rest exercise UNSAT agreement. *)

type cons_spec =
  | SProd of int * int list
  | SSum of int * int list
  | SEq of int * int
  | SLe of int * int
  | SIn of int * int list
  | SSel of int * int * int list

type spec = { doms : int list array; cons : cons_spec list }

val to_problem : spec -> Heron_csp.Problem.t
(** Variables are named ["v0"], ["v1"], ... in index order. *)

val print : spec -> string

val arbitrary :
  ?max_vars:int -> ?max_value:int -> ?max_dom:int -> ?max_cons:int -> unit ->
  spec QCheck.arbitrary
(** Defaults: up to 5 variables, values in [0, 24], up to 6 values per
    domain, up to 4 constraints (PROD/SUM arity up to 3, self-references
    allowed — aliased operands are prime propagation-bug bait). *)

val heron_arbitrary : unit -> spec QCheck.arbitrary
(** Heron-shaped spaces: 3–5 variables, variable 0 and about a third of
    the rest over wide, sparse universes (100–1500 values), the others
    over tile-size-like domains (up to 12 values in [0, 96]); about half
    the domains contain 0. One to four constraints, mostly binary
    PROD/SUM, a quarter of them with aliased operands (v = a op a,
    v = a op v), plus the odd LE or IN. Binary constraints over such
    domains drive every exact-support path: the pair walk over wide and
    narrow targets, the x = 0 product case and the aliased fallback.
    Spaces are far beyond the brute-force {!Oracle}; use them for
    engine-vs-engine differentials only. *)

val permute_cons : spec -> Heron_util.Rng.t -> spec
(** Same problem, constraints in a random order — the metamorphic twin for
    reorder-invariance properties. *)
