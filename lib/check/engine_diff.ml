module Problem = Heron_csp.Problem
module Assignment = Heron_csp.Assignment
module Solver = Heron_csp.Solver
module Cons = Heron_csp.Cons
module Domain = Heron_csp.Domain
module Rng = Heron_util.Rng
module Obs = Heron_obs.Obs

(* Tight budgets on purpose: Give_up and restart paths must also be
   byte-identical between the engines, so we want a healthy fraction of
   searches to exhaust them. *)
let max_fails = 500

let with_seed arb = QCheck.pair arb QCheck.small_int

let keys_in_order l = List.map Assignment.key l
let opt_key = Option.map Assignment.key

(* The production solver keeps no per-search record: its nodes, fails
   and restarts over [f ()] are how far these counters move. *)
let tally = List.map Obs.Counter.make [ "solver.nodes"; "solver.fails"; "solver.restarts" ]

let counted f =
  let before = List.map Obs.Counter.value tally in
  let r = f () in
  (r, List.map2 (fun c v -> Obs.Counter.value c - v) tally before)

(* Random [In] extras over the problem's own variables — the shape CGA
   crossover layers on the base CSP. Value subsets may be empty (an
   unsatisfiable extension) or the full domain (a no-op one); both sides
   must agree on those edges too. *)
let random_in_extras rng p =
  let vars = Problem.vars p in
  let k = Rng.int rng (Array.length vars + 1) in
  List.init k (fun _ ->
      let v = vars.(Rng.int rng (Array.length vars)) in
      let dom = Domain.to_list (Problem.domain p v) in
      Cons.In (v, List.filter (fun _ -> Rng.int rng 3 > 0) dom))

(* [tag] names the generator profile, so the same property can run over
   several profiles under distinct names. *)
let name tag what = if tag = "" then "engine: " ^ what else "engine: " ^ tag ^ " " ^ what

let solve_identical ?(tag = "") arb ~count =
  QCheck.Test.make ~name:(name tag "solve byte-identical to reference") ~count (with_seed arb)
    (fun (sp, seed) ->
      let p = Csp_gen.to_problem sp in
      let a, moved = counted (fun () -> Solver.solve ~max_fails ~max_restarts:2 (Rng.create seed) p) in
      let r = Solver_ref.fresh_stats () in
      let b = Solver_ref.solve ~max_fails ~max_restarts:2 ~stats:r (Rng.create seed) p in
      opt_key a = opt_key b && moved = [ r.Solver_ref.nodes; r.Solver_ref.fails; r.Solver_ref.restarts ])

let solve_bounds_only_identical arb ~count =
  QCheck.Test.make ~name:"engine: bounds-only solve byte-identical to reference" ~count
    (with_seed arb) (fun (sp, seed) ->
      let p = Csp_gen.to_problem sp in
      let a = Solver.solve ~exact_limit:0 ~max_fails ~max_restarts:2 (Rng.create seed) p in
      let b = Solver_ref.solve ~exact_limit:0 ~max_fails ~max_restarts:2 (Rng.create seed) p in
      opt_key a = opt_key b)

let rand_sat_identical ?(tag = "") arb ~count =
  QCheck.Test.make ~name:(name tag "rand_sat byte-identical to reference") ~count
    (with_seed arb) (fun (sp, seed) ->
      let p = Csp_gen.to_problem sp in
      let a = Solver.rand_sat ~max_fails (Rng.create seed) p 4 in
      let b = Solver_ref.rand_sat ~max_fails (Rng.create seed) p 4 in
      keys_in_order a = keys_in_order b)

(* [space_cap] skips spaces too big to enumerate in full; without it the
   first [limit] solutions are compared. *)
let enumerate_identical ?(tag = "") ?(space_cap = Some 10_000) ?(limit = 20_000) arb ~count =
  QCheck.Test.make ~name:(name tag "enumerate byte-identical (incl. order) to reference")
    ~count arb (fun sp ->
      let p = Csp_gen.to_problem sp in
      Option.iter (fun cap -> QCheck.assume (Oracle.space_size p <= cap)) space_cap;
      keys_in_order (Solver.enumerate ~limit p) = keys_in_order (Solver_ref.enumerate ~limit p))

let propagate_domains_identical ?(tag = "") arb ~count =
  QCheck.Test.make ~name:(name tag "propagate_domains identical to reference") ~count arb
    (fun sp ->
      let p = Csp_gen.to_problem sp in
      let norm = Option.map (List.map (fun (v, d) -> (v, Domain.to_list d))) in
      norm (Solver.propagate_domains p) = norm (Solver_ref.propagate_domains p))

let solve_biased_identical arb ~count =
  QCheck.Test.make ~name:"engine: solve_biased byte-identical to reference" ~count
    (with_seed arb) (fun (sp, seed) ->
      let p = Csp_gen.to_problem sp in
      let rngb = Rng.create (seed + 7) in
      let bias =
        Assignment.of_list
          (Array.to_list
             (Array.map
                (fun v -> (v, Domain.random rngb (Problem.domain p v)))
                (Problem.vars p)))
      in
      opt_key (Solver.solve_biased ~max_fails (Rng.create seed) p bias)
      = opt_key (Solver_ref.solve_biased ~max_fails (Rng.create seed) p bias))

(* The compiled-template fast path: offspring built with [with_extra]
   (including nested extension) reuse the cached base template and layer
   only the [In] filters on its propagated root. Results must match a
   reference full compile of each offspring, and a repeat run — now a
   guaranteed compile-cache hit — must reproduce itself. *)
let incremental_identical ?(tag = "") arb ~count =
  QCheck.Test.make ~name:(name tag "with_extra template reuse byte-identical to reference")
    ~count (with_seed arb) (fun (sp, seed) ->
      let p = Csp_gen.to_problem sp in
      let rng = Rng.create (seed + 1) in
      let offspring =
        Problem.with_extra
          (Problem.with_extra p (random_in_extras rng p))
          (random_in_extras rng p)
        :: List.init 3 (fun _ -> Problem.with_extra p (random_in_extras rng p))
      in
      let a = Solver.solve_all ~max_fails ~max_restarts:1 (Rng.create seed) offspring in
      let b = Solver_ref.solve_all ~max_fails ~max_restarts:1 (Rng.create seed) offspring in
      List.map opt_key a = List.map opt_key b
      &&
      let o = List.hd offspring in
      let r1 = Solver.rand_sat ~max_fails (Rng.create seed) o 3 in
      let r2 = Solver.rand_sat ~max_fails (Rng.create seed) o 3 in
      let rr = Solver_ref.rand_sat ~max_fails (Rng.create seed) o 3 in
      keys_in_order r1 = keys_in_order rr
      && keys_in_order r2 = keys_in_order rr
      &&
      let norm = Option.map (List.map (fun (v, d) -> (v, Domain.to_list d))) in
      norm (Solver.propagate_domains o) = norm (Solver_ref.propagate_domains o))

(* Every [solver.*] counter, for deltas around one call. *)
let solver_counters () =
  List.filter
    (fun (n, _) -> String.length n > 7 && String.sub n 0 7 = "solver.")
    (Obs.Counter.snapshot ())

(* The id path of CGA breeding against the CSP path it replaces:
   [solve_children] must equal [solve_all] on the [with_extra] renderings
   of the same restrictions, child for child — same solutions, same RNG
   state afterwards, same [solver.*] counter deltas. Most restrictions
   cross two parents drawn with [rand_sat_values]; the rest are random
   value subsets, which may be empty or repeat a variable. The base is
   the problem itself or the problem with [In] extras (applied before
   each child's). The base template is compiled once beforehand, so both
   sides meet a warm cache. *)
let children_identical arb ~count =
  QCheck.Test.make ~name:(name "" "solve_children = solve_all on with_extra renderings") ~count
    (with_seed arb) (fun (sp, seed) ->
      let p = Csp_gen.to_problem sp in
      let vars = Problem.vars p in
      let n = Array.length vars in
      let rng = Rng.create (seed + 3) in
      let base = if seed mod 2 = 1 then Problem.with_extra p (random_in_extras rng p) else p in
      let parents = Array.of_list (Solver.rand_sat_values ~max_fails (Rng.create seed) p 3) in
      let restriction () =
        let v = Rng.int rng n in
        if Array.length parents >= 2 && Rng.int rng 4 > 0 then begin
          let a = (Rng.choice rng parents).(v) and b = (Rng.choice rng parents).(v) in
          (v, Array.of_list (List.sort_uniq Int.compare [ a; b ]))
        end
        else begin
          let dom = Domain.to_list (Problem.domain p vars.(v)) in
          (v, Array.of_list (List.filter (fun _ -> Rng.int rng 3 > 0) dom))
        end
      in
      let children =
        List.init 5 (fun _ ->
            if n = 0 then [] else List.init (Rng.int rng (n + 1)) (fun _ -> restriction ()))
      in
      ignore (Solver.propagate_domains base);
      let run f =
        let before = solver_counters () and r = Rng.create seed in
        let out = f r in
        let deltas = List.map2 (fun (k, a) (_, b) -> (k, b - a)) before (solver_counters ()) in
        (out, Rng.state_hex r, deltas)
      in
      let by_ids =
        run (fun r ->
            Solver.solve_children ~max_fails ~max_restarts:1 r base children
            |> List.map (Option.map (fun vs -> Assignment.key (Assignment.of_values vars vs))))
      and by_csps =
        run (fun r ->
            children
            |> List.map (fun rs ->
                   Problem.with_extra base
                     (List.map (fun (v, values) -> Cons.In (vars.(v), Array.to_list values)) rs))
            |> Solver.solve_all ~max_fails ~max_restarts:1 r
            |> List.map opt_key)
      in
      by_ids = by_csps)

let tests ?(count = 300) () =
  let arb = Csp_gen.arbitrary () in
  (* Heron-shaped spaces (wide sparse universes, 0 in domains, aliased
     operands) reach every exact-support path: pair walk, zero product
     and aliased fallback. Each case is far costlier for the reference
     engine, hence the smaller count. *)
  let heron = Csp_gen.heron_arbitrary () and tag = "heron-shaped" and hcount = max 1 (count / 4) in
  [
    solve_identical arb ~count;
    solve_bounds_only_identical arb ~count;
    rand_sat_identical arb ~count;
    enumerate_identical arb ~count;
    propagate_domains_identical arb ~count;
    solve_biased_identical arb ~count;
    incremental_identical arb ~count;
    children_identical (QCheck.oneof [ arb; heron ]) ~count:(max 1 (count / 2));
    solve_identical ~tag heron ~count:hcount;
    rand_sat_identical ~tag heron ~count:hcount;
    incremental_identical ~tag heron ~count:hcount;
    enumerate_identical ~tag ~space_cap:None ~limit:50 heron ~count:hcount;
    propagate_domains_identical ~tag heron ~count:hcount;
  ]
