(** Reference CSP solver engine — the pre-overhaul implementation, kept
    verbatim as an executable specification.

    [Solver] is the production engine (compiled-template cache, bitset
    domains, trail-based backtracking); this module is the sorted-array,
    copy-per-node engine it replaced. The check layer
    (lib/check/engine_diff.ml) asserts the two are observationally
    identical — same solutions, same RNG consumption — on random CSPs.

    Sequential only: no pool plumbing, no observability counters. Do not
    use outside tests, and do not optimize it. *)

type stats = { mutable nodes : int; mutable fails : int; mutable restarts : int }

val fresh_stats : unit -> stats

val solve :
  ?max_fails:int ->
  ?max_restarts:int ->
  ?exact_limit:int ->
  ?stats:stats ->
  Heron_util.Rng.t ->
  Problem.t ->
  Assignment.t option

val rand_sat :
  ?max_fails:int ->
  ?exact_limit:int ->
  ?stats:stats ->
  Heron_util.Rng.t ->
  Problem.t ->
  int ->
  Assignment.t list
(** Sequential replay of [Solver.rand_sat]: same per-draw split
    generators, so the solution list is byte-identical to the production
    engine's for the same seed. *)

val solve_all :
  ?max_fails:int ->
  ?max_restarts:int ->
  ?exact_limit:int ->
  ?stats:stats ->
  Heron_util.Rng.t ->
  Problem.t list ->
  Assignment.t option list

val propagate_domains : Problem.t -> (string * Domain.t) list option

val enumerate : ?limit:int -> Problem.t -> Assignment.t list

val solve_biased :
  ?max_fails:int -> Heron_util.Rng.t -> Problem.t -> Assignment.t -> Assignment.t option
