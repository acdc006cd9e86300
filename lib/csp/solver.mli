(** Propagation-based randomized CSP solving.

    The solver combines fixpoint constraint propagation (bounds reasoning
    for n-ary PROD/SUM, exact support pruning for binary ones) with a
    randomized backtracking search, giving the paper's [RandSAT]: draw
    random valid assignments of a CSP without enumerating the space.

    Internally each problem is lowered once to a compiled template
    (bitset domain layout, watcher lists, propagated root fixpoint) that
    an LRU cache keyed by problem physical identity reuses across
    solves; [Problem.with_extra] offspring whose extras are all [In]
    constraints share their base's template and re-propagate only what
    the extras change. Search backtracks by trail rewinding rather than
    domain copying. None of this is observable: results are byte
    identical to a compile-per-solve engine (see [Solver_ref] and the
    [engine] differential properties in [lib/check]), and cache traffic
    shows up in the [solver.compiles] / [solver.compile_cache_hits] /
    [solver.trail_pushes] counters documented in OBSERVABILITY.md, and
    the work of exact binary PROD/SUM pruning in [solver.support_checks].

    Every solving entry point runs on one core: a problem is planned as a
    template plus restrictions (a [with_extra] problem's [In] extras,
    or {!solve_children}'s restrictions by variable id), and each search
    copies the template's root fixpoint into its domain's engine, narrows
    it by them and searches in that same engine. A domain keeps one
    engine and reuses it for every search of the same template. *)

type stats = {
  mutable nodes : int;     (** search nodes explored *)
  mutable fails : int;     (** dead ends encountered *)
  mutable restarts : int;  (** randomized restarts *)
}

val solve :
  ?max_fails:int ->
  ?max_restarts:int ->
  ?exact_limit:int ->
  ?stats:stats ->
  Heron_util.Rng.t ->
  Problem.t ->
  Assignment.t option
(** One random valid total assignment, or [None] if the problem looks
    unsatisfiable (definitely, or after exhausting the fail budget).
    [exact_limit] caps the domain-size product for exact binary PROD/SUM
    support pruning (default 10,000; the other entry points always use
    the default); 0 disables it (bounds reasoning only). *)

val rand_sat :
  ?max_fails:int ->
  ?pool:Heron_util.Pool.t ->
  Heron_util.Rng.t ->
  Problem.t ->
  int ->
  Assignment.t list
(** [rand_sat rng p n] draws up to [n] valid assignments (duplicates
    possible on tiny spaces, fewer than [n] on hard/unsat problems). Draw
    [i] runs on its own generator split from [rng] in index order, so the
    result is identical with or without a [pool] and for any pool size. *)

val rand_sat_values :
  ?max_fails:int ->
  ?pool:Heron_util.Pool.t ->
  Heron_util.Rng.t ->
  Problem.t ->
  int ->
  int array list
(** {!rand_sat}'s draws — the same RNG use, solutions and counters — each
    as an array of values indexed by variable id (the variable's position
    in {!Problem.vars}), without building an assignment. *)

val solve_all :
  ?max_fails:int ->
  ?max_restarts:int ->
  ?pool:Heron_util.Pool.t ->
  Heron_util.Rng.t ->
  Problem.t list ->
  Assignment.t option list
(** Solve a batch of independent problems, optionally on a domain pool,
    with per-task generators split from [rng] in index order. Results are
    in input order and identical for any pool size. *)

type restriction = int * int array
(** [(v, values)]: variable [v] (its position in {!Problem.vars}) keeps
    only [values], which ascend without repeats — an [In] constraint
    addressed by variable id. *)

val solve_children :
  max_fails:int ->
  max_restarts:int ->
  ?pool:Heron_util.Pool.t ->
  Heron_util.Rng.t ->
  Problem.t ->
  restriction list list ->
  int array option list
(** [solve_children ~max_fails ~max_restarts rng p children] solves one
    child of [p] per restriction list, as value arrays indexed by variable
    id. It gives the same solutions, RNG use and [solver.*] counters as
    {!solve_all} on the children rendered as [Problem.with_extra p] of one
    [In] constraint per restriction, but builds no problem: each child
    starts from the base's cached template, ANDs [p]'s own [In] extras (if
    [p] was built with [with_extra]) and then its restrictions into the
    root fixpoint in list order, and is searched in the same engine.
    @raise Invalid_argument when [p] carries an extra that is not an [In]
    constraint. *)

val propagate_domains : Problem.t -> (string * Domain.t) list option
(** Runs propagation alone and returns the narrowed domains, or [None] on a
    wipeout (the CSP is unsatisfiable). Exposed for tests and diagnostics. *)

val enumerate : ?limit:int -> Problem.t -> Assignment.t list
(** Exhaustive enumeration (deterministic order) of up to [limit] solutions.
    Only for small test problems. *)

val fresh_stats : unit -> stats

val solve_biased :
  ?max_fails:int ->
  Heron_util.Rng.t ->
  Problem.t ->
  Assignment.t ->
  Assignment.t option
(** Like {!solve}, but when branching on a variable, tries the value the
    bias assignment proposes first (if still in the domain). This is the
    decoding step of SAT-decoder genetic algorithms: it maps an arbitrary
    chromosome to a nearby valid one. *)
