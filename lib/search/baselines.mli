(** Baseline exploration algorithms.

    These reproduce the searchers Heron is compared against: random valid
    sampling (RAND), simulated annealing and a classic genetic algorithm
    operating on concrete chromosomes (Fig. 2 and 12), and the three
    constraint-handling GA variants of Fig. 13 — stochastic ranking (GA-1),
    SAT-decoding (GA-2) and multi-objective selection (GA-3). *)

val random_search : Env.t -> budget:int -> Env.result
(** RAND: every step draws a fresh valid assignment with the CSP solver. *)

type sa_params = {
  initial_temp : float;
  cooling : float;  (** multiplicative decay per step *)
  moves_per_step : int;  (** tunable variables mutated per neighbor *)
  restart_after : int;  (** steps without improvement before a fresh start *)
}

val default_sa_params : sa_params

val simulated_annealing : ?params:sa_params -> Env.t -> budget:int -> Env.result

type ga_params = {
  pop_size : int;
  mutation_rate : float;  (** per-gene mutation probability *)
  elite : int;  (** best chromosomes carried over unchanged *)
}

val genetic : ?params:ga_params -> Env.t -> budget:int -> Env.result
(** Classic GA: crossover/mutation on concrete chromosomes; invalid
    offspring score zero fitness (no repair). *)

val ga_stochastic_ranking : ?params:ga_params -> ?pf:float -> Env.t -> budget:int -> Env.result
(** GA-1: survivors chosen by stochastic ranking over (fitness, constraint
    violations); [pf] is the probability of comparing by fitness only. *)

val ga_sat_decoder : ?params:ga_params -> Env.t -> budget:int -> Env.result
(** GA-2: every offspring is decoded to a valid assignment by a biased CSP
    solve before evaluation. *)

val ga_multi_objective : ?params:ga_params -> Env.t -> budget:int -> Env.result
(** GA-3: violations are a second objective; selection is by Pareto
    dominance tournament. *)
