module Problem = Heron_csp.Problem
module Assignment = Heron_csp.Assignment
module Solver = Heron_csp.Solver
module Domain = Heron_csp.Domain
module Concrete = Heron_sched.Concrete
module Validate = Heron_dla.Validate
module Cga = Heron_search.Cga
module Env = Heron_search.Env
module Rng = Heron_util.Rng
module Pool = Heron_util.Pool
module Hashing = Heron_util.Hashing

let exhaustive = 1_000_000

let with_seed arb = QCheck.pair arb QCheck.small_int

(* Crossover on random generated CSPs: every offspring the solver can
   materialize from a crossover CSP must satisfy the *original* problem. *)
let crossover_on_random ~count =
  QCheck.Test.make ~name:"search: crossover offspring satisfy the original CSP" ~count
    (with_seed (Csp_gen.arbitrary ())) (fun (sp, seed) ->
      let p = Csp_gen.to_problem sp in
      QCheck.assume (Oracle.space_size p <= 10_000 && Oracle.is_sat p);
      let rng = Rng.create seed in
      let parents =
        Array.of_list (Solver.rand_sat ~max_fails:exhaustive rng p 2)
      in
      QCheck.assume (Array.length parents = 2);
      let vars = Array.to_list (Problem.vars p) in
      let keys = List.filteri (fun i _ -> i mod 2 = 0) vars in
      let csps = Cga.crossover_csps rng p ~keys ~parents ~n:4 in
      List.for_all
        (fun csp ->
          match Solver.solve ~max_fails:exhaustive ~max_restarts:0 rng csp with
          | Some a -> Problem.check p a = Ok ()
          | None -> true (* an over-constrained child is discarded, not wrong *))
        csps)

(* Crossover on the real V100 GEMM space: offspring must instantiate to
   validator-clean programs, the Algorithm 3 guarantee end to end. *)
let crossover_on_dla ~count =
  QCheck.Test.make ~name:"search: crossover offspring are valid DLA programs" ~count
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 1_000_000))
    (fun seed ->
      let desc, (gen : Heron.Generator.t) = List.hd (Lazy.force Dla_props.spaces) in
      let rng = Rng.create seed in
      let parents = Array.of_list (Solver.rand_sat rng gen.problem 2) in
      if Array.length parents <> 2 then false
      else
        let keys =
          match Problem.vars_of_category gen.problem Problem.Tunable with
          | [] -> Array.to_list (Problem.vars gen.problem)
          | vs -> List.filteri (fun i _ -> i < 4) vs
        in
        let csps = Cga.crossover_csps rng gen.problem ~keys ~parents ~n:3 in
        List.for_all
          (fun csp ->
            match Solver.solve rng csp with
            | Some a ->
                Problem.check gen.problem a = Ok ()
                && Validate.check desc (Concrete.instantiate gen.template a) = Ok ()
            | None -> true)
          csps)

(* A small fixed satisfiable problem for end-to-end CGA runs: c = a * b
   with power-of-two domains, the shape of a tiling sub-space. *)
let toy_problem () =
  Problem.of_parts
    [
      ("a", Domain.of_list [ 1; 2; 4; 8 ]);
      ("b", Domain.of_list [ 1; 2; 4; 8 ]);
      ("c", Domain.of_list [ 1; 2; 4; 8; 16; 32; 64 ]);
      ("u", Domain.of_list [ 1; 2; 3; 4 ]);
    ]
    [ Heron_csp.Cons.Prod ("c", [ "a"; "b" ]) ]

(* Deterministic, configuration-dependent "latency": a pure hash of the
   assignment, so any trace divergence is the search's fault alone. *)
let hash_measure a =
  let h = Int64.to_int (Hashing.fnv1a (Assignment.key a)) land 0xFFFF in
  Some (1.0 +. (float_of_int h /. 4096.0))

let small_params =
  Cga.
    {
      default_params with
      pop_size = 8;
      generations = 2;
      batch = 4;
      top_k = 2;
      survivors = 2;
    }

let run_cga ~jobs seed =
  let env =
    Env.{ problem = toy_problem (); measure = hash_measure; rng = Rng.create seed }
  in
  let outcome = Pool.with_jobs jobs (fun () -> Cga.run ~params:small_params env ~budget:12) in
  outcome.Cga.result

let cga_pool_invariance ~count =
  QCheck.Test.make ~name:"search: CGA trace is identical with and without a pool" ~count
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 1_000_000))
    (fun seed ->
      let seq = run_cga ~jobs:1 seed in
      let par = run_cga ~jobs:3 seed in
      seq.Env.trace = par.Env.trace
      && seq.Env.best_latency = par.Env.best_latency
      && seq.Env.best_assignment = par.Env.best_assignment
      && seq.Env.invalid = par.Env.invalid
      && seq.Env.invalid = 0)

let tests ?(count = 20) () =
  [
    crossover_on_random ~count;
    crossover_on_dla ~count;
    cga_pool_invariance ~count:(max 1 (count / 3));
  ]
