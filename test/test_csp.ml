(* Tests for the CSP substrate: domains, constraint semantics, propagation
   strength and the randomized solver, including exhaustiveness checks
   against brute-force enumeration on small problems. *)

module Domain = Heron_csp.Domain
module Cons = Heron_csp.Cons
module Problem = Heron_csp.Problem
module Assignment = Heron_csp.Assignment
module Solver = Heron_csp.Solver
module Rng = Heron_util.Rng

let dl = Domain.of_list

let test_domain_basics () =
  let d = dl [ 3; 1; 2; 3; 1 ] in
  Alcotest.(check (list int)) "sorted dedup" [ 1; 2; 3 ] (Domain.to_list d);
  Alcotest.(check int) "min" 1 (Domain.min_value d);
  Alcotest.(check int) "max" 3 (Domain.max_value d);
  Alcotest.(check bool) "mem" true (Domain.mem 2 d);
  Alcotest.(check bool) "not mem" false (Domain.mem 5 d);
  Alcotest.(check (option int)) "not singleton" None (Domain.value d);
  Alcotest.(check (option int)) "singleton" (Some 7) (Domain.value (Domain.singleton 7))

let test_domain_set_ops =
  QCheck.Test.make ~name:"inter/union are set ops" ~count:200
    QCheck.(pair (list (int_range 0 30)) (list (int_range 0 30)))
    (fun (a, b) ->
      let da = dl a and db = dl b in
      let inter = Domain.to_list (Domain.inter da db) in
      let union = Domain.to_list (Domain.union da db) in
      let sa = List.sort_uniq compare a and sb = List.sort_uniq compare b in
      inter = List.filter (fun x -> List.mem x sb) sa
      && union = List.sort_uniq compare (sa @ sb))

let test_domain_range () =
  Alcotest.(check (list int)) "range" [ 2; 3; 4 ] (Domain.to_list (Domain.range 2 4));
  Alcotest.(check bool) "empty range" true (Domain.is_empty (Domain.range 4 2))

let test_domain_random () =
  let rng = Rng.create 1 in
  let d = dl [ 5; 9; 11 ] in
  for _ = 1 to 50 do
    Alcotest.(check bool) "random member" true (Domain.mem (Domain.random rng d) d)
  done

let test_cons_holds () =
  let env = function "a" -> 6 | "b" -> 2 | "c" -> 3 | "u" -> 1 | _ -> 0 in
  Alcotest.(check bool) "prod" true (Cons.holds env (Cons.Prod ("a", [ "b"; "c" ])));
  Alcotest.(check bool) "sum" false (Cons.holds env (Cons.Sum ("a", [ "b"; "c" ])));
  Alcotest.(check bool) "le" true (Cons.holds env (Cons.Le ("b", "c")));
  Alcotest.(check bool) "in" true (Cons.holds env (Cons.In ("c", [ 1; 3 ])));
  Alcotest.(check bool) "select" true (Cons.holds env (Cons.Select ("c", "u", [ "b"; "c" ])));
  Alcotest.(check bool) "select oob" false
    (Cons.holds (fun _ -> 5) (Cons.Select ("c", "u", [ "b"; "c" ])))

let chain_problem () =
  (* 24 = x * y * z with small domains, plus y <= z. *)
  let b = Problem.builder () in
  Problem.add_var b "n" (Domain.singleton 24);
  Problem.add_var b "x" (dl [ 1; 2; 3; 4; 6 ]);
  Problem.add_var b "yz" (dl [ 4; 6; 8; 12; 24 ]);
  Problem.add_var b "y" (dl [ 1; 2; 3; 4 ]);
  Problem.add_var b "z" (dl [ 2; 3; 4; 6; 8; 12 ]);
  Problem.add_cons b (Cons.Prod ("n", [ "x"; "yz" ]));
  Problem.add_cons b (Cons.Prod ("yz", [ "y"; "z" ]));
  Problem.add_cons b (Cons.Le ("y", "z"));
  Problem.freeze b

let brute_force p =
  (* Enumerate the full cross product and filter by check. *)
  let vars = Array.to_list (Problem.vars p) in
  let rec go acc = function
    | [] -> [ acc ]
    | v :: rest ->
        Domain.to_list (Problem.domain p v)
        |> List.concat_map (fun value -> go (Assignment.set acc v value) rest)
  in
  go Assignment.empty vars |> List.filter (fun a -> Problem.check p a = Ok ())

let test_enumerate_matches_brute_force () =
  let p = chain_problem () in
  let brute = brute_force p in
  let enum = Solver.enumerate p in
  Alcotest.(check int) "same count" (List.length brute) (List.length enum);
  let keys l = List.sort compare (List.map Assignment.key l) in
  Alcotest.(check (list string)) "same solutions" (keys brute) (keys enum)

let test_solver_valid () =
  let p = chain_problem () in
  let rng = Rng.create 5 in
  for _ = 1 to 30 do
    match Solver.solve rng p with
    | None -> Alcotest.fail "satisfiable problem must be solved"
    | Some a -> Alcotest.(check bool) "solution valid" true (Problem.check p a = Ok ())
  done

let test_solver_unsat () =
  let b = Problem.builder () in
  Problem.add_var b "x" (dl [ 2; 3 ]);
  Problem.add_var b "y" (dl [ 5; 7 ]);
  Problem.add_cons b (Cons.Eq ("x", "y"));
  let p = Problem.freeze b in
  Alcotest.(check bool) "unsat" true (Solver.solve (Rng.create 1) p = None)

let test_rand_sat_count_and_validity () =
  let p = chain_problem () in
  let sols = Solver.rand_sat (Rng.create 9) p 20 in
  Alcotest.(check int) "twenty solutions" 20 (List.length sols);
  List.iter
    (fun a -> Alcotest.(check bool) "valid" true (Problem.check p a = Ok ()))
    sols

let test_rand_sat_diversity () =
  let p = chain_problem () in
  let sols = Solver.rand_sat (Rng.create 11) p 30 in
  let distinct = List.sort_uniq compare (List.map Assignment.key sols) in
  Alcotest.(check bool) "several distinct solutions" true (List.length distinct >= 3)

let test_propagation_prunes () =
  (* x * y = 12 with x even forces y in {2, 3, 6} given y <= 6 domain. *)
  let b = Problem.builder () in
  Problem.add_var b "n" (Domain.singleton 12);
  Problem.add_var b "x" (dl [ 2; 4; 6 ]);
  Problem.add_var b "y" (dl [ 1; 2; 3; 4; 5; 6 ]);
  Problem.add_cons b (Cons.Prod ("n", [ "x"; "y" ]));
  let p = Problem.freeze b in
  match Solver.propagate_domains p with
  | None -> Alcotest.fail "satisfiable"
  | Some doms ->
      Alcotest.(check (list int)) "y pruned" [ 2; 3; 6 ]
        (Domain.to_list (List.assoc "y" doms))

let test_propagation_wipeout () =
  let b = Problem.builder () in
  Problem.add_var b "x" (dl [ 2; 3 ]);
  Problem.add_var b "y" (dl [ 10; 11 ]);
  Problem.add_var b "n" (Domain.singleton 7);
  Problem.add_cons b (Cons.Prod ("n", [ "x"; "y" ]));
  Alcotest.(check bool) "wipeout" true (Solver.propagate_domains (Problem.freeze b) = None)

(* ---------- Empty domains ---------- *)

(* A variable with an empty domain makes a problem unsatisfiable: every
   entry point reports that instead of raising. *)
let check_refuted p =
  Alcotest.(check bool) "solve" true (Solver.solve (Rng.create 1) p = None);
  Alcotest.(check bool) "solve_biased" true
    (Solver.solve_biased (Rng.create 1) p Assignment.empty = None);
  Alcotest.(check int) "rand_sat" 0 (List.length (Solver.rand_sat (Rng.create 1) p 4));
  Alcotest.(check int) "enumerate" 0 (List.length (Solver.enumerate p));
  Alcotest.(check bool) "propagate_domains" true (Solver.propagate_domains p = None)

let test_empty_le_upper () =
  check_refuted
    (Problem.of_parts [ ("a", dl [ 1; 2 ]); ("b", dl []) ] [ Cons.Le ("a", "b") ])

let test_empty_le_lower () =
  check_refuted
    (Problem.of_parts [ ("a", dl []); ("b", dl [ 1; 2 ]) ] [ Cons.Le ("a", "b") ])

let test_empty_nary_operand () =
  check_refuted
    (Problem.of_parts
       [ ("v", Domain.range 0 10); ("a", dl [ 1; 2 ]); ("b", dl [ 1; 2 ]); ("c", dl []) ]
       [ Cons.Sum ("v", [ "a"; "b"; "c" ]) ])

(* [declare_var] intersects domains, so a generated space can declare a
   variable empty without any constraint mentioning it. *)
let test_empty_unconstrained () =
  let b = Problem.builder () in
  Problem.declare_var b "x" (dl [ 1; 2 ]);
  Problem.declare_var b "x" (dl [ 3 ]);
  Problem.add_var b "y" (dl [ 1; 2 ]);
  Problem.add_var b "z" (dl [ 2; 3 ]);
  Problem.add_cons b (Cons.Eq ("y", "z"));
  check_refuted (Problem.freeze b)

let test_select_propagation () =
  let b = Problem.builder () in
  Problem.add_var b "v" (dl [ 10; 20; 30 ]);
  Problem.add_var b "u" (dl [ 0; 1; 2 ]);
  Problem.add_var b "a" (Domain.singleton 10);
  Problem.add_var b "b" (Domain.singleton 99);
  Problem.add_var b "c" (Domain.singleton 30);
  Problem.add_cons b (Cons.Select ("v", "u", [ "a"; "b"; "c" ]));
  let p = Problem.freeze b in
  (match Solver.propagate_domains p with
  | None -> Alcotest.fail "satisfiable"
  | Some doms ->
      (* b = 99 intersects v nowhere, so index 1 is pruned. *)
      Alcotest.(check (list int)) "u pruned" [ 0; 2 ] (Domain.to_list (List.assoc "u" doms)));
  let sols = Solver.enumerate p in
  Alcotest.(check int) "two solutions" 2 (List.length sols)

(* The index of a Select can also be one of its sources. Here the first
   pass keeps u = 1 because source 1 (u itself) still holds 3, then drops
   3 from u as out of range; only a second pass sees that source 1 no
   longer meets v. So a Select revise re-queues itself. *)
let test_select_index_among_sources () =
  let p =
    Problem.of_parts
      [ ("v", dl [ 3 ]); ("u", dl [ 0; 1; 3 ]); ("a", dl [ 3 ]) ]
      [ Cons.Select ("v", "u", [ "a"; "u" ]) ]
  in
  let got = Solver.propagate_domains p in
  let norm = Option.map (List.map (fun (v, d) -> (v, Domain.to_list d))) in
  Alcotest.(check bool) "same fixpoint as the reference engine" true
    (norm got = norm (Heron_csp.Solver_ref.propagate_domains p));
  match got with
  | None -> Alcotest.fail "satisfiable (u = 0)"
  | Some doms -> Alcotest.(check (list int)) "u" [ 0 ] (Domain.to_list (List.assoc "u" doms))

let test_sum_constraint () =
  let b = Problem.builder () in
  Problem.add_var b "t" (dl [ 5; 6 ]);
  Problem.add_var b "x" (dl [ 1; 2; 3 ]);
  Problem.add_var b "y" (dl [ 3; 4 ]);
  Problem.add_cons b (Cons.Sum ("t", [ "x"; "y" ]));
  let p = Problem.freeze b in
  let sols = Solver.enumerate p in
  List.iter
    (fun a ->
      Alcotest.(check int) "sum holds"
        (Assignment.get a "x" + Assignment.get a "y")
        (Assignment.get a "t"))
    sols;
  Alcotest.(check int) "solution count" 4 (List.length sols)

let test_with_extra () =
  let p = chain_problem () in
  let p' = Problem.with_extra p [ Cons.In ("x", [ 4 ]) ] in
  Alcotest.(check int) "one more constraint" (Problem.n_cons p + 1) (Problem.n_cons p');
  List.iter
    (fun a -> Alcotest.(check int) "x pinned" 4 (Assignment.get a "x"))
    (Solver.enumerate p');
  (* Unknown variables are rejected. *)
  Alcotest.check_raises "unknown var" (Invalid_argument
    "Problem.with_extra: unknown variable nope in IN(nope, [1])")
    (fun () -> ignore (Problem.with_extra p [ Cons.In ("nope", [ 1 ]) ]))

let test_solve_biased () =
  let p = chain_problem () in
  (* A feasible full bias must be returned verbatim. *)
  let feasible = Assignment.of_list [ ("n", 24); ("x", 2); ("yz", 12); ("y", 3); ("z", 4) ] in
  (match Solver.solve_biased (Rng.create 3) p feasible with
  | None -> Alcotest.fail "must decode"
  | Some a -> Alcotest.(check bool) "bias kept" true (Assignment.equal a feasible));
  (* An infeasible bias still decodes to some valid solution. *)
  let infeasible = Assignment.of_list [ ("x", 6); ("y", 4); ("z", 12) ] in
  match Solver.solve_biased (Rng.create 3) p infeasible with
  | None -> Alcotest.fail "must decode to something"
  | Some a -> Alcotest.(check bool) "valid" true (Problem.check p a = Ok ())

let test_violations_count () =
  let p = chain_problem () in
  let bad = Assignment.of_list [ ("n", 24); ("x", 100); ("yz", 4); ("y", 1); ("z", 2) ] in
  (* x=100 violates its domain; n = x*yz and yz = y*z both fail. *)
  Alcotest.(check bool) "violations > 1" true (Problem.violations p bad >= 2);
  let good = Assignment.of_list [ ("n", 24); ("x", 6); ("yz", 4); ("y", 2); ("z", 2) ] in
  Alcotest.(check int) "no violations" 0 (Problem.violations p good)

let test_categories () =
  let b = Problem.builder () in
  Problem.add_var b ~category:Problem.Architectural "a" (Domain.singleton 1);
  Problem.add_var b ~category:Problem.Tunable "t" (Domain.singleton 1);
  Problem.add_var b ~category:Problem.Auxiliary "x" (Domain.singleton 1);
  let p = Problem.freeze b in
  Alcotest.(check (list string)) "tunables" [ "t" ] (Problem.vars_of_category p Problem.Tunable);
  Alcotest.(check bool) "category" true (Problem.category p "a" = Problem.Architectural)

(* Random chain problems: any solver answer must satisfy the checker, and
   solvability must agree with brute force. *)
let random_chain_agrees =
  QCheck.Test.make ~name:"solver agrees with brute force on random chains" ~count:40
    QCheck.(triple (int_range 1 60) (int_range 1 8) small_int)
    (fun (n, dcap, seed) ->
      let b = Problem.builder () in
      Problem.add_var b "n" (Domain.singleton n);
      Problem.add_var b "x" (dl (List.init dcap (fun i -> i + 1)));
      Problem.add_var b "y" (dl (List.init dcap (fun i -> i + 1)));
      Problem.add_cons b (Cons.Prod ("n", [ "x"; "y" ]));
      let p = Problem.freeze b in
      let brute_sat =
        List.exists
          (fun x -> List.exists (fun y -> x * y = n) (List.init dcap (fun i -> i + 1)))
          (List.init dcap (fun i -> i + 1))
      in
      match Solver.solve (Rng.create seed) p with
      | Some a -> brute_sat && Problem.check p a = Ok ()
      | None -> not brute_sat)

let test_bounds_only_still_sound () =
  (* With exact support pruning disabled, the solver is slower but still
     sound and complete on satisfiable problems. *)
  let p = chain_problem () in
  for seed = 1 to 10 do
    match Solver.solve ~exact_limit:0 (Rng.create seed) p with
    | None -> Alcotest.fail "satisfiable with bounds-only propagation"
    | Some a -> Alcotest.(check bool) "valid" true (Problem.check p a = Ok ())
  done

let test_exact_vs_bounds_agree_on_unsat () =
  let b = Problem.builder () in
  Problem.add_var b "n" (Domain.singleton 7);
  Problem.add_var b "x" (dl [ 2; 3 ]);
  Problem.add_var b "y" (dl [ 2; 3 ]);
  Problem.add_cons b (Cons.Prod ("n", [ "x"; "y" ]));
  let p = Problem.freeze b in
  Alcotest.(check bool) "exact unsat" true (Solver.solve (Rng.create 1) p = None);
  Alcotest.(check bool) "bounds unsat" true
    (Solver.solve ~exact_limit:0 (Rng.create 1) p = None)

(* Regression: the binary exact-support path of PROD/SUM used to filter
   stale domain snapshots. With the target aliased to an operand (v = x * v)
   the snapshot resurrected freshly pruned values and propagation oscillated
   forever. Shrunk from the fuzzer's counterexample (seed 4242, case 613):
   v0 in {0,2}, v1 in {0,2}, PROD(v0, [v1; v0]). *)
let test_aliased_prod_terminates () =
  let p =
    Problem.of_parts
      [ ("v0", dl [ 0; 2 ]); ("v1", dl [ 0; 2 ]) ]
      [ Cons.Prod ("v0", [ "v1"; "v0" ]) ]
  in
  (match Solver.propagate_domains p with
  | None -> Alcotest.fail "satisfiable (v0 = 0)"
  | Some doms ->
      Alcotest.(check (list int)) "v0 fixed to 0" [ 0 ]
        (Domain.to_list (List.assoc "v0" doms)));
  (match Solver.solve (Rng.create 1) p with
  | Some a -> Alcotest.(check bool) "solution valid" true (Problem.check p a = Ok ())
  | None -> Alcotest.fail "must find v0 = 0");
  (* The original (pre-shrink) fuzzer counterexample, for good measure. *)
  let full =
    Problem.of_parts
      [ ("v0", dl [ 0; 2; 23 ]); ("v1", dl [ 0; 2; 4; 5; 7; 12 ]) ]
      [
        Cons.Select ("v1", "v1", [ "v1"; "v1"; "v1" ]);
        Cons.Eq ("v0", "v0");
        Cons.Prod ("v0", [ "v1"; "v0" ]);
        Cons.Prod ("v0", [ "v1" ]);
      ]
  in
  Alcotest.(check int) "one solution" 1 (List.length (Solver.enumerate full))

let test_aliased_sum_terminates () =
  (* Same stale-snapshot shape through the SUM exact path: v = x + v. *)
  let p =
    Problem.of_parts
      [ ("v0", dl [ 0; 2 ]); ("v1", dl [ 0; 2 ]) ]
      [ Cons.Sum ("v0", [ "v1"; "v0" ]) ]
  in
  match Solver.propagate_domains p with
  | None -> Alcotest.fail "satisfiable (v1 = 0)"
  | Some _ ->
      (* Propagation relaxes aliased occurrences, so it only needs to
         terminate without wiping out; search settles the rest. *)
      Alcotest.(check int) "two solutions" 2 (List.length (Solver.enumerate p))

(* ---------- Exact binary support paths ---------- *)

module Obs = Heron_obs.Obs

let support_checks () = Obs.Counter.value (Obs.Counter.make "solver.support_checks")
let revises () = Obs.Counter.value (Obs.Counter.make "solver.revise")

(* Propagate [p] and check each variable's narrowed domain, agreement
   with the reference engine, the number of support probes and the
   number of revises — the probe count is what shows which path ran,
   since the pair walk, the zero product and the live-read path each
   probe differently, and the revise count shows whether the revise
   re-queued itself. *)
let check_exact_path ~probes ~revise p expected =
  let c0 = support_checks () and r0 = revises () in
  let got = Solver.propagate_domains p in
  Alcotest.(check int) "support probes" probes (support_checks () - c0);
  Alcotest.(check int) "revises" revise (revises () - r0);
  let norm = Option.map (List.map (fun (v, d) -> (v, Domain.to_list d))) in
  Alcotest.(check bool) "same fixpoint as the reference engine" true
    (norm got = norm (Heron_csp.Solver_ref.propagate_domains p));
  match got with
  | None -> Alcotest.fail "unexpected wipeout"
  | Some doms ->
      List.iter
        (fun (v, want) ->
          Alcotest.(check (list int)) ("domain of " ^ v) want
            (Domain.to_list (List.assoc v doms)))
        expected

(* v has at least as many live values as b: for each x of a, walk b and
   look x + y up in v. 40 and 100 have no partner. Probes: 3 + 3 + 3 + 1
   (each walk ends on the first sum past max v). The revise is
   idempotent, so its own narrowing does not run it again. *)
let test_exact_pair_walk () =
  check_exact_path ~probes:10 ~revise:1
    (Problem.of_parts
       [
         ("v", dl [ 0; 5; 11; 12; 13; 20; 21; 30 ]);
         ("a", dl [ 1; 2; 3; 40 ]);
         ("b", dl [ 10; 20; 100 ]);
       ]
       [ Cons.Sum ("v", [ "a"; "b" ]) ])
    [ ("v", [ 11; 12; 13; 21 ]); ("a", [ 1; 2; 3 ]); ("b", [ 10; 20 ]) ]

(* x = 0 in a product supports every y at once when 0 is live in v, and
   nothing otherwise. Probes in the first case: 1 for x = 0 and 3 for
   x = 3 (the walk ends at 3 * 5 past max v); in the second, 1 for x = 0
   and 2 for x = 3. One revise each. *)
let test_exact_zero_product () =
  check_exact_path ~probes:4 ~revise:1
    (Problem.of_parts
       [ ("v", dl [ 0; 7; 9 ]); ("a", dl [ 0; 3 ]); ("b", dl [ 2; 3; 5 ]) ]
       [ Cons.Prod ("v", [ "a"; "b" ]) ])
    [ ("v", [ 0; 9 ]); ("a", [ 0; 3 ]); ("b", [ 2; 3; 5 ]) ];
  check_exact_path ~probes:3 ~revise:1
    (Problem.of_parts
       [ ("v", dl [ 6; 7 ]); ("a", dl [ 0; 3 ]); ("b", dl [ 2; 5 ]) ]
       [ Cons.Prod ("v", [ "a"; "b" ]) ])
    [ ("v", [ 6 ]); ("a", [ 3 ]); ("b", [ 2 ]) ]

(* v = x * x keeps the live-read path: the a-filter sees x before the
   b-filter narrows it, so 1 falls but the squares 4 and 9 (and 10 =
   2 * 5) stay. Probes: 16 + 11 + 4, then 9 + 4 + 4 on the re-revise —
   the aliased path is not idempotent, so it re-queues itself. *)
let test_exact_aliased_square () =
  check_exact_path ~probes:48 ~revise:2
    (Problem.of_parts
       [ ("v", dl [ 4; 9; 10; 11 ]); ("x", dl [ 1; 2; 3; 5 ]) ]
       [ Cons.Prod ("v", [ "x"; "x" ]) ])
    [ ("v", [ 4; 9; 10 ]); ("x", [ 2; 3; 5 ]) ]

(* A pair table and the universe index find the same results. A SUM and a
   PROD, each once with universes of 64 pairs and once widened past the
   table bound (78 x 76 pairs each); the wide values fall at the
   root, so both shapes start from the same fixpoint. The base is
   compiled first, so the [In] extra's plan is a cache hit: the narrow
   template gets its tables there, and the one revise counted reads
   them. Same fixpoint, same probes, same revises.
   SUM, a cut to 2, 3, 7: walks of 5 (y = 8..12), 6 (y = 7..12) and 8
   (y = 5..12) probes. PROD, a cut to 2, 5: 5 (y = 3..8) and 4 probes,
   the last y = 5 stopping at 25 > 20. *)
let test_exact_lookup_paths () =
  let r lo hi = List.init (hi - lo + 1) (fun k -> lo + k) in
  let check ~op ~probes ~v ~a ~b ~wide_a ~wide_b extra expected =
    List.iter
      (fun (a, b) ->
        let base =
          Problem.of_parts [ ("v", dl v); ("a", dl a); ("b", dl b) ] [ op ("v", [ "a"; "b" ]) ]
        in
        ignore (Solver.propagate_domains base);
        check_exact_path ~probes ~revise:1
          (Problem.with_extra base [ Cons.In ("a", extra) ])
          expected)
      [ (a, b); (a @ wide_a, b @ wide_b) ]
  in
  check
    ~op:(fun (v, vs) -> Cons.Sum (v, vs))
    ~probes:19 ~v:[ 10; 12; 15; 20; 30 ] ~a:(r 1 8) ~b:(r 5 12) ~wide_a:(r 100 169)
    ~wide_b:(r 200 267) [ 2; 3; 7 ]
    [ ("v", [ 10; 12; 15 ]); ("a", [ 2; 3; 7 ]); ("b", [ 5; 7; 8; 9; 10; 12 ]) ];
  check
    ~op:(fun (v, vs) -> Cons.Prod (v, vs))
    ~probes:9 ~v:[ 6; 8; 12; 20; 45 ] ~a:(r 1 8) ~b:(r 1 8) ~wide_a:(r 100 169)
    ~wide_b:(r 100 167) [ 2; 5; 7 ]
    [ ("v", [ 6; 8; 12; 20 ]); ("a", [ 2; 5 ]); ("b", [ 3; 4; 6 ]) ]

(* A with_extra problem whose [In] extra narrows its base's template runs
   [rand_sat_values] from a start that [prepare] narrowed in the domain's
   engine. That start must be the engine's store copied, not the store
   itself, which every draw overwrites: the draws equal the reference
   engine's, twice over with a [solve_children] batch on the same base's
   template in between. *)
let test_engine_reuse_keeps_starts () =
  let p = chain_problem () in
  let q = Problem.with_extra p [ Cons.In ("x", [ 1; 2; 3 ]) ] in
  let names = Problem.vars q in
  let id name =
    let rec go i = if names.(i) = name then i else go (i + 1) in
    go 0
  in
  let draws () = Solver.rand_sat_values (Rng.create 5) q 8 in
  let reference =
    List.map
      (fun a -> Array.map (Assignment.get a) names)
      (Heron_csp.Solver_ref.rand_sat (Rng.create 5) q 8)
  in
  let first = draws () in
  Alcotest.(check (list (array int))) "draws equal the reference engine's" reference first;
  Alcotest.(check bool) "the draws differ" true (List.length (List.sort_uniq compare first) > 1);
  ignore
    (Solver.solve_children ~max_fails:100 ~max_restarts:2 (Rng.create 9) p
       [ [ (id "x", [| 2; 4 |]) ]; [ (id "y", [| 1; 2 |]) ]; [] ]);
  Alcotest.(check (list (array int))) "a batch in between changes nothing" first (draws ())

(* ---------- Scheduling ---------- *)

(* A SELECT whose target and index are not among its sources reaches its
   fixpoint in one pass (u loses index 1, v loses 20), so its own writes
   do not queue it again. No exact revise runs: zero probes. *)
let test_select_unaliased_idempotent () =
  check_exact_path ~probes:0 ~revise:1
    (Problem.of_parts
       [
         ("v", dl [ 10; 20; 30 ]);
         ("u", dl [ 0; 1; 2 ]);
         ("a", dl [ 10 ]);
         ("b", dl [ 99 ]);
         ("c", dl [ 30 ]);
       ]
       [ Cons.Select ("v", "u", [ "a"; "b"; "c" ]) ])
    [ ("u", [ 0; 2 ]); ("v", [ 10; 30 ]) ]

(* The wide binary SUM (5,123 universe values in all) comes first in the
   problem but sits downstream of a chain of cheap constraints: IN
   narrows c, then a <= c and b <= c narrow a and b. The queue runs the
   cheap classes first, so the SUM is revised once, on a and b already
   cut to 0..5: 6 * 6 probes and 4 revises in all. A FIFO queue would
   run it on the full 61 * 61 pairs first and then again. *)
let test_cheap_classes_first () =
  let r k = List.init k Fun.id in
  check_exact_path ~probes:36 ~revise:4
    (Problem.of_parts
       [ ("v", dl (r 5001)); ("a", dl (r 61)); ("b", dl (r 61)); ("c", dl (r 61)) ]
       [
         Cons.Sum ("v", [ "a"; "b" ]);
         Cons.Le ("a", "c");
         Cons.Le ("b", "c");
         Cons.In ("c", [ 3; 4; 5 ]);
       ])
    [ ("v", r 11); ("a", r 6); ("b", r 6); ("c", [ 3; 4; 5 ]) ]

(* solver.support_checks is tallied per engine and flushed once, so its
   total does not depend on how draws are spread over domains. *)
let test_support_checks_jobs_independent () =
  let p = (Heron.Generator.generate Heron_dla.Descriptor.v100
             (Heron_tensor.Op.gemm ~m:512 ~n:512 ~k:512 ())).Heron.Generator.problem in
  let run pool =
    let c0 = support_checks () in
    let sols = Solver.rand_sat ?pool (Rng.create 11) p 16 in
    (List.map Assignment.key sols, support_checks () - c0)
  in
  let sols1, checks1 = run None in
  let sols2, checks2 = Heron_util.Pool.with_pool ~domains:2 (fun pool -> run (Some pool)) in
  Alcotest.(check bool) "probes were made" true (checks1 > 0);
  Alcotest.(check (list string)) "same draws" sols1 sols2;
  Alcotest.(check int) "support checks at jobs 1 and jobs 2" checks1 checks2

(* ---------- Bitset domains vs the sorted-array reference ---------- *)

module Bitdom = Heron_csp.Bitdom

(* A pure pseudo-random predicate so both representations filter by the
   exact same membership function. *)
let pred_of seed v = (v * 2654435761 + seed) land 7 > 2

let test_bitdom_matches_domain =
  QCheck.Test.make ~name:"bitdom ops agree with Domain reference" ~count:300
    QCheck.(pair (list_of_size Gen.(1 -- 80) (int_range 0 200)) small_int)
    (fun (xs, seed) ->
      let d = dl xs in
      let b = Bitdom.of_domain d in
      let n = Domain.size d in
      (* Construction and the whole-universe queries. *)
      Bitdom.to_list b = Domain.to_list d
      && Bitdom.size b = n
      && (not (Bitdom.is_empty b))
      && Bitdom.min_value b = Domain.min_value d
      && Bitdom.max_value b = Domain.max_value d
      && List.for_all (fun v -> Bitdom.mem v b) (Domain.to_list d)
      && (not (Bitdom.mem 201 b))
      && Bitdom.value b = (if n = 1 then Some (List.hd xs) else None)
      (* Filtering, intersection, iteration order. *)
      &&
      let p1 = pred_of seed and p2 = pred_of (seed + 1) in
      let b1 = Bitdom.restrict p1 b and b2 = Bitdom.restrict p2 b in
      Bitdom.to_list b1 = Domain.to_list (Domain.filter p1 d)
      && Domain.to_list (Bitdom.to_domain b2) = Domain.to_list (Domain.filter p2 d)
      && Bitdom.to_list (Bitdom.inter b1 b2)
         = Domain.to_list (Domain.inter (Domain.filter p1 d) (Domain.filter p2 d))
      && (let seen = ref [] in
          Bitdom.iter (fun v -> seen := v :: !seen) b1;
          List.rev !seen = Bitdom.to_list b1)
      && Bitdom.fold (fun acc _ -> acc + 1) 0 b1 = Bitdom.size b1
      (* Slice primitives underneath: the live words of a full domain are
         exactly [fill], and cardinality/extrema come from the words. *)
      &&
      let nw = Bitdom.nwords n in
      let fresh = Array.make nw 0 in
      Bitdom.fill fresh ~off:0 ~n;
      Bitdom.equal_slices fresh 0 b.Bitdom.words 0 ~nw
      && Bitdom.popcount b1.Bitdom.words ~off:0 ~nw = Bitdom.size b1
      && Bitdom.is_empty_slice b1.Bitdom.words ~off:0 ~nw = Bitdom.is_empty b1
      && (Bitdom.is_empty b1
         || Bitdom.min_bit b1.Bitdom.words ~off:0 ~nw
            = Bitdom.count_lt b.Bitdom.values (Bitdom.min_value b1)
            && Bitdom.max_bit b1.Bitdom.words ~off:0 ~nw
               = Bitdom.count_lt b.Bitdom.values (Bitdom.max_value b1)))

(* Sorted universes of the shapes the solver indexes: skewed (powers of
   two, so buckets fill unevenly), single values, sets holding 0, dense
   runs and wide sparse sets. *)
let universe_gen =
  let open QCheck.Gen in
  let sorted xs = List.sort_uniq Int.compare xs in
  oneof
    [
      map (fun k -> sorted (List.init k (fun i -> 1 lsl i))) (1 -- 45);
      map (fun k -> sorted (0 :: List.init k (fun i -> 1 lsl i))) (0 -- 45);
      map (fun x -> [ x ]) (0 -- 1_000_000);
      map (fun xs -> sorted (0 :: xs)) (list_size (0 -- 60) (0 -- 300));
      map2 (fun lo k -> List.init k (fun i -> lo + i)) (0 -- 1000) (1 -- 200);
      map sorted (list_size (1 -- 300) (0 -- 100_000));
    ]

let universe_arb =
  QCheck.make universe_gen ~print:(fun xs -> String.concat "," (List.map string_of_int xs))

(* Every member maps to its position. Every non-member in
   [min - 1, max + 1] maps to -1: all of them when the span is small
   enough to scan, else each member's neighbours and the midpoints
   between consecutive members. *)
let test_universe_index =
  QCheck.Test.make ~name:"universe index: members to positions, the rest to -1" ~count:300
    universe_arb (fun xs ->
      let values = Array.of_list xs in
      let n = Array.length values in
      let ix = Bitdom.index values in
      let absent x = Bitdom.position ix x = -1 in
      let lo = values.(0) and hi = values.(n - 1) in
      let members_ok = List.for_all (fun i -> Bitdom.position ix values.(i) = i) (List.init n Fun.id) in
      let is_member x = Bitdom.count_lt values x < n && values.(Bitdom.count_lt values x) = x in
      let others_ok =
        if hi - lo <= 200_000 then
          List.for_all (fun x -> is_member x || absent x) (List.init (hi - lo + 3) (fun k -> lo - 1 + k))
        else
          List.for_all
            (fun i ->
              let v = values.(i) in
              (is_member (v - 1) || absent (v - 1))
              && (is_member (v + 1) || absent (v + 1))
              && (i = n - 1 || is_member ((v + values.(i + 1)) / 2) || absent ((v + values.(i + 1)) / 2)))
            (List.init n Fun.id)
      in
      members_ok && others_ok && absent (lo - 1) && absent (hi + 1))

(* The range mask keeps exactly the live values in [lo, hi], like a
   per-value filter: universes of up to 200 values put range ends on
   the word boundaries (bit positions 61/62 and 123/124), and ranges
   may be empty or inverted (lo > hi). *)
let test_range_mask =
  let open QCheck in
  let boundary = Gen.oneofl [ 0; 1; 60; 61; 62; 63; 122; 123; 124; 125; 199; 200 ] in
  let gen =
    Gen.(
      map2
        (fun (n, step, seed) (plo, phi, off) -> (n, step, seed, plo, phi, off))
        (triple (1 -- 200) (1 -- 3) (0 -- 1000))
        (triple (oneof [ boundary; 0 -- 200 ]) (oneof [ boundary; 0 -- 200 ]) (0 -- 2)))
  in
  Test.make ~name:"range mask equals the per-value filter" ~count:500
    (make gen ~print:(fun (n, step, seed, plo, phi, off) ->
         Printf.sprintf "n=%d step=%d seed=%d lo=%d hi=%d off=%d" n step seed plo phi off))
    (fun (n, step, seed, plo, phi, off) ->
      let values = Array.init n (fun i -> i * step) in
      let nw = Bitdom.nwords n in
      (* A live set over the universe, at word offset [off] of the store. *)
      let store = Array.make (off + nw) 0 in
      for i = 0 to n - 1 do
        if pred_of seed i then
          store.(off + (i / Bitdom.bits_per_word)) <-
            store.(off + (i / Bitdom.bits_per_word)) lor (1 lsl (i mod Bitdom.bits_per_word))
      done;
      (* Range ends as values: a position times the step, so lo > hi
         happens whenever plo > phi. *)
      let lo = plo * step and hi = phi * step in
      let dst = Array.make nw (-1) in
      Bitdom.mask_range store ~off ~nw (Bitdom.count_lt values lo) (Bitdom.count_le values hi) dst;
      let expect = Array.make nw 0 in
      for i = 0 to n - 1 do
        if Bitdom.mem_bit store ~off i && values.(i) >= lo && values.(i) <= hi then
          expect.(i / Bitdom.bits_per_word) <-
            expect.(i / Bitdom.bits_per_word) lor (1 lsl (i mod Bitdom.bits_per_word))
      done;
      dst = expect && (plo <= phi || Bitdom.is_empty_slice dst ~off:0 ~nw))

(* ---------- Word kernels vs per-bit references ---------- *)

let bpw = Bitdom.bits_per_word

(* The words of a slice of [nw] words whose set bits are [bits]. *)
let words_of_bits nw bits =
  let w = Array.make nw 0 in
  List.iter (fun i -> w.(i / bpw) <- w.(i / bpw) lor (1 lsl (i mod bpw))) bits;
  w

let bits_of_word w = List.filter (fun b -> w land (1 lsl b) <> 0) (List.init bpw Fun.id)

(* Random 62-bit words: dense ones, ones with bit 0 or bit 61 forced
   (the ends of the word), and sparse ones (one or two bits set), where
   a dropped smear step or an off-by-one count shows. *)
let word_arb =
  let open QCheck.Gen in
  let full = (1 lsl bpw) - 1 in
  let dense = map2 (fun hi lo -> ((hi lsl 31) lxor lo) land full) (0 -- max_int) (0 -- max_int) in
  let bit = 0 -- (bpw - 1) in
  QCheck.make ~print:(Printf.sprintf "0x%x")
    (oneof
       [
         dense;
         map (fun w -> w lor 1) dense;
         map (fun w -> w lor (1 lsl (bpw - 1))) dense;
         map (fun w -> w lor 1 lor (1 lsl (bpw - 1))) dense;
         map (fun b -> 1 lsl b) bit;
         map2 (fun a b -> (1 lsl a) lor (1 lsl b)) bit bit;
       ])

let test_word_primitives =
  QCheck.Test.make ~name:"word primitives equal per-bit counts" ~count:1000 word_arb (fun w ->
      let bits = bits_of_word w in
      Bitdom.popcount_word w = List.length bits
      && (w = 0 || Bitdom.lowest_bit_word w = List.hd bits)
      && Bitdom.highest_bit_word w = List.fold_left Int.max (-1) bits)

(* Live sets over universes of up to 200 values, at word offset [off]:
   bits at the word boundaries (61/62 and 123/124) are forced in when
   the universe reaches them. The slice kernels must agree with the
   list of set bits they were built from. A second slice after the
   first, over another universe, is what the membership kernels test
   against, and the trail undo must restore two words rewritten in the
   first slice together with its live count. *)
let test_slice_kernels =
  let open QCheck in
  let gen =
    Gen.(
      map2
        (fun (n, seed, off) at -> (n, seed, off, at))
        (triple (1 -- 200) (0 -- 1000) (0 -- 2))
        (0 -- 3))
  in
  Test.make ~name:"slice kernels equal per-bit references" ~count:500
    (make gen ~print:(fun (n, seed, off, at) ->
         Printf.sprintf "n=%d seed=%d off=%d at=%d" n seed off at))
    (fun (n, seed, off, at) ->
      let nw = Bitdom.nwords n in
      let bits =
        List.filter
          (fun i -> pred_of seed i || List.mem i [ 61; 62; 123; 124 ])
          (List.init n Fun.id)
      in
      let store = Array.append (Array.make off 0) (words_of_bits nw bits) in
      let values = Array.init n (fun i -> (3 * i) + 1) in
      let live = List.map (fun i -> values.(i)) bits in
      let k = List.length bits in
      let seen = ref [] in
      Bitdom.iter_bits (fun i -> seen := i :: !seen) store ~off ~nw;
      let vals = Array.make (at + k) (-1) and idx = Array.make (at + k) (-1) in
      Bitdom.gather store ~off ~nw values vals idx at;
      let p x = pred_of (seed + 1) x in
      let calls = ref [] and dst = Array.make nw (-1) in
      Bitdom.filter (fun x -> calls := x :: !calls; p x) store ~off ~nw values dst;
      Bitdom.popcount store ~off ~nw = k
      && Bitdom.min_bit store ~off ~nw = (match bits with [] -> -1 | b :: _ -> b)
      && Bitdom.max_bit store ~off ~nw = List.fold_left Int.max (-1) bits
      && List.rev !seen = bits
      && Array.to_list (Array.sub vals at k) = live
      && Array.to_list (Array.sub idx at k) = bits
      && List.rev !calls = live
      && dst = words_of_bits nw (List.filter (fun i -> p values.(i)) bits)
      && List.for_all
           (fun i ->
             let m = Array.make nw (-1) in
             Bitdom.singleton m ~nw i;
             m = words_of_bits nw [ i ])
           [ 0; n - 1; (7 * seed) mod n ]
      &&
      (* The second slice: odd values up to 2n, at word offset [src]. *)
      let values2 = Array.init n (fun i -> (2 * i) + 1) and src = off + nw in
      let bits2 = List.filter (fun i -> pred_of (seed + 2) i) (List.init n Fun.id) in
      let store2 = Array.append store (words_of_bits nw bits2) in
      let ix2 = Bitdom.index values2 in
      let live2 x = List.exists (fun i -> values2.(i) = x) bits2 in
      let common = List.filter (fun i -> live2 values.(i)) bits in
      let dst = Array.make nw (-1) in
      Bitdom.filter_members ix2 store2 ~src values ~off ~nw dst;
      let marked = Array.make nw 0 in
      Bitdom.mark_values (Bitdom.index values) [| -1; values.(0); 3 * n; values.(n - 1) |] marked;
      (* Rewrite two words of the first slice on a trail, as commits do
         (each owner's count set to its new popcount), then undo. *)
      let owner = Array.make (src + nw) 0 in
      Array.fill owner src nw 1;
      let sizes = [| k; List.length bits2 |] in
      let st = Array.copy store2 and tr_idx = Array.make 2 0 and tr_old = Array.make 2 0 in
      List.iteri
        (fun t wi ->
          tr_idx.(t) <- off + wi;
          tr_old.(t) <- st.(off + wi);
          st.(off + wi) <- st.(off + wi) land (seed + t);
          sizes.(0) <- Bitdom.popcount st ~off ~nw)
        [ 0; nw - 1 ];
      Bitdom.unwind st ~owner ~sizes tr_idx tr_old ~from:2 ~mark:0;
      dst = words_of_bits nw common
      && Bitdom.meets ix2 store2 ~src values ~off ~nw = (common <> [])
      && marked = words_of_bits nw (List.sort_uniq Int.compare [ 0; n - 1 ])
      && st = store2
      && sizes = [| k; List.length bits2 |])

(* One operand value [x] through [Bitdom.supports], with and without a
   pair table, against every pair at once: the hits are the y with
   [x op y] live in v, whatever the walk's order and stopping point, and
   the probes are the y from the cursor's start (the least y whose
   result can reach v's least live value) whose result is at most
   [vmax], plus the one that stops the walk; a zero product is one probe
   that supports every live y iff 0 is v's least live value. v's live
   values are a narrow window of its universe, and x = 0 comes up
   often. *)
let test_walk_kernel =
  let open QCheck in
  let gen =
    Gen.(
      map2
        (fun (prod, x, seed) (vu, lo, width) -> (prod, x, seed, vu, lo, width))
        (triple bool (oneof [ pure 0; 0 -- 20 ]) (0 -- 1000))
        (triple (list_size (1 -- 150) (0 -- 600)) (0 -- 150) (1 -- 40)))
  in
  Test.make ~name:"walk kernel equals brute-force pairs" ~count:500
    (make gen ~print:(fun (prod, x, seed, vu, lo, width) ->
         Printf.sprintf "prod=%b x=%d seed=%d lo=%d width=%d v=[%s]" prod x seed lo width
           (String.concat ";" (List.map string_of_int vu))))
    (fun (prod, x, seed, vu, lo, width) ->
      let vu = Array.of_list (List.sort_uniq Int.compare vu) in
      let nv = Array.length vu in
      let lo = lo mod nv in
      let vlive = List.init (Int.min width (nv - lo)) (fun k -> lo + k) in
      let nwv = Bitdom.nwords nv in
      let vmin = vu.(lo) and vmax = vu.(List.fold_left Int.max 0 vlive) in
      (* b's universe 0, 2, .., 158 and its live positions; a's universe
         0 .. 20, so x sits at position x. *)
      let bu = Array.init 80 (fun i -> 2 * i) and au = Array.init 21 Fun.id in
      let bidx = List.filter (fun i -> pred_of seed i) (List.init 80 Fun.id) in
      let nb = List.length bidx in
      (* A guard word, v's slice at word 1, then b's. *)
      let boff = 1 + nwv in
      let store = Array.concat [ [| -1 |]; words_of_bits nwv vlive; words_of_bits 2 bidx ] in
      let vals = Array.of_list (List.map (fun i -> bu.(i)) bidx @ [ x ]) in
      let idx = Array.of_list (bidx @ [ x ]) in
      let op y = if prod then x * y else x + y in
      let pos t = Bitdom.count_lt vu t in
      let expected =
        if prod && x = 0 then
          if vmin = 0 then
            (1, words_of_bits nwv [ lo ], words_of_bits 2 bidx, words_of_bits 1 [ x ])
          else (1, Array.make nwv 0, Array.make 2 0, Array.make 1 0)
        else begin
          let y0 = if prod then (vmin + x - 1) / x else vmin - x in
          let js = List.filter (fun j -> vals.(j) >= y0) (List.init nb Fun.id) in
          let hits = List.filter (fun j -> List.exists (fun i -> vu.(i) = op vals.(j)) vlive) js in
          let reach = List.length (List.filter (fun j -> op vals.(j) <= vmax) js) in
          ( (reach + if reach < List.length js then 1 else 0),
            words_of_bits nwv (List.map (fun j -> pos (op vals.(j))) hits),
            words_of_bits 2 (List.map (fun j -> idx.(j)) hits),
            words_of_bits 1 (if hits = [] then [] else [ x ]) )
        end
      in
      let run tab =
        let sup_v = Array.make nwv 0 and sup_a = Array.make 1 0 and sup_b = Array.make 2 0 in
        let probes =
          Bitdom.supports ~prod (Bitdom.index vu) tab ~stride:80 store ~off:1 ~nw:nwv vals idx ~nb
            ~na:1 ~boff ~bnw:2 sup_v sup_a sup_b
        in
        (probes, sup_v, sup_b, sup_a)
      in
      run [||] = expected && run (Bitdom.pair_table ~prod (Bitdom.index vu) au bu) = expected)

(* ---------- Pairwise-domain kernel ---------- *)

(* The reference: every pair, capped, through a list sort. *)
let brute_pairs ?cap ~prod a b =
  let op x y = if prod then x * y else x + y in
  List.concat_map (fun x -> List.map (op x) b) a
  |> List.filter (fun v -> match cap with None -> true | Some c -> v <= c)
  |> List.sort_uniq Int.compare

(* Non-negative domains of 0-300 values, half of them holding 0: small
   values, whose results a bitset covers in fewer words than there are
   pairs (the dense path), values up to 2^20, whose results spread too
   far for that (the sorted path), and powers of two. *)
let combine_domain_gen =
  let open QCheck.Gen in
  map2
    (fun zero xs -> if zero then 0 :: xs else xs)
    bool
    (oneof
       [
         list_size (0 -- 300) (0 -- 200);
         list_size (0 -- 300) (0 -- 5000);
         list_size (0 -- 300) (0 -- (1 lsl 20));
         map (fun k -> List.init k (fun i -> 1 lsl i)) (0 -- 20);
       ])

(* Both operations, with no cap or a cap below every result, between the
   smallest and the largest, equal to a result, or above every result. *)
let test_combine_kernel =
  let open QCheck in
  let ints xs = String.concat ";" (List.map string_of_int xs) in
  Test.make ~name:"combine kernel equals brute-force pairs" ~count:300
    (make
       Gen.(quad bool combine_domain_gen combine_domain_gen (pair (0 -- 4) (0 -- 1_000_000)))
       ~print:(fun (prod, a, b, (kind, r)) ->
         Printf.sprintf "prod=%b kind=%d r=%d a=[%s] b=[%s]" prod kind r (ints a) (ints b)))
    (fun (prod, a, b, (kind, r)) ->
      let all = brute_pairs ~prod a b in
      let cap =
        match all with
        | [] -> None
        | lo :: _ -> (
            let n = List.length all in
            let top = List.nth all (n - 1) in
            match kind with
            | 0 -> None
            | 1 -> Some (lo - 1 - (r mod 10))
            | 2 -> Some (lo + (r mod (top - lo + 1)))
            | 3 -> Some (List.nth all (r mod n))
            | _ -> Some (top + (r mod 1000)))
      in
      Domain.to_list (Bitdom.combine ?cap ~prod (dl a) (dl b)) = brute_pairs ?cap ~prod a b)

let test_combine_edges () =
  let check name ?cap ~prod a b =
    Alcotest.(check (list int)) name (brute_pairs ?cap ~prod a b)
      (Domain.to_list (Bitdom.combine ?cap ~prod (dl a) (dl b)))
  in
  List.iter
    (fun prod ->
      check "empty left" ~prod [] [ 1; 2 ];
      check "empty right" ~prod ~cap:10 [ 1; 2 ] [];
      check "both empty" ~prod [] [];
      check "cap below every result" ~prod ~cap:5 [ 2; 3 ] [ 4; 5 ];
      check "cap at the smallest result" ~prod ~cap:(if prod then 8 else 6) [ 2; 3 ] [ 4; 5 ])
    [ true; false ];
  (* Results on both sides of the word boundaries at bits 61/62 and
     123/124 of a bitset that starts at the smallest result, with it at
     0 and at 1000, and a cap on a boundary; each covers its results in
     fewer words than it has pairs. *)
  check "sum across words" ~prod:false [ 0; 61; 62; 123; 124 ] [ 0; 1; 62; 63; 124 ];
  check "sum across words from 1000" ~prod:false [ 1000; 1061; 1062 ] [ 0; 1; 61; 62; 123; 124 ];
  check "product across words" ~prod:true [ 1; 2 ] [ 0; 1; 30; 31; 61; 62; 63 ];
  check "cap on a word boundary" ~prod:false ~cap:62 [ 0; 1 ] [ 0; 60; 61; 62; 63 ];
  (* A zero row of a product, on the sorted path. *)
  check "zero row" ~prod:true [ 0; 1 lsl 10; 1 lsl 19 ] [ 0; 3; 1 lsl 12 ];
  let negative = Invalid_argument "Bitdom.combine: negative value" in
  Alcotest.check_raises "negative left operand" negative (fun () ->
      ignore (Bitdom.combine ~prod:true (dl [ -1; 2 ]) (dl [ 3 ])));
  Alcotest.check_raises "negative right operand" negative (fun () ->
      ignore (Bitdom.combine ~prod:false ~cap:9 (dl [ 1; 2 ]) (dl [ -3; 4 ])))

(* [to_array] hands out a copy; [of_sorted_array] checks its input. *)
let test_domain_arrays () =
  let d = dl [ 1; 5; 9 ] in
  let a = Domain.to_array d in
  a.(0) <- 100;
  Alcotest.(check (list int)) "mutating to_array's result" [ 1; 5; 9 ] (Domain.to_list d);
  Alcotest.(check (list int)) "of_sorted_array" [ 2; 3 ]
    (Domain.to_list (Domain.of_sorted_array [| 2; 3 |]));
  List.iter
    (fun a ->
      Alcotest.check_raises "not strictly ascending"
        (Invalid_argument "Domain.of_sorted_array: not strictly ascending") (fun () ->
          ignore (Domain.of_sorted_array a)))
    [ [| 3; 2 |]; [| 1; 1 |] ]

(* A range filter that keeps nothing is a wipeout, whether the range is
   inverted or misses the domain: a <= b with every a above every b, and
   an n-ary sum whose bounds cannot meet v. *)
let test_range_wipeout () =
  Alcotest.(check bool) "LE with a above b" true
    (Solver.propagate_domains
       (Problem.of_parts [ ("a", dl [ 70; 80 ]); ("b", dl [ 10; 20 ]) ] [ Cons.Le ("a", "b") ])
    = None);
  Alcotest.(check bool) "n-ary SUM out of reach" true
    (Solver.propagate_domains
       (Problem.of_parts
          [ ("v", dl [ 1; 2 ]); ("a", dl [ 3; 4 ]); ("b", dl [ 3; 4 ]); ("c", dl [ 3; 4 ]) ]
          [ Cons.Sum ("v", [ "a"; "b"; "c" ]) ])
    = None)

(* ---------- Compiled-template cache ---------- *)

(* Re-solving the same physical problem reuses its compiled template; a
   structurally equal but physically fresh problem does not. *)
let test_compile_cache () =
  let hits () = Obs.Counter.value (Obs.Counter.make "solver.compile_cache_hits") in
  let compiles () = Obs.Counter.value (Obs.Counter.make "solver.compiles") in
  let p = chain_problem () in
  ignore (Solver.solve (Rng.create 3) p);
  let h0 = hits () in
  for i = 0 to 4 do
    Alcotest.(check bool) "solution found" true (Solver.solve (Rng.create i) p <> None)
  done;
  Alcotest.(check bool) "repeat solves hit the template cache" true (hits () >= h0 + 5);
  let h1 = hits () and c1 = compiles () in
  ignore (Solver.solve (Rng.create 3) (chain_problem ()));
  Alcotest.(check int) "fresh problem misses the cache" h1 (hits ());
  Alcotest.(check bool) "fresh problem compiles" true (compiles () > c1);
  (* with_extra offspring reuse the base template rather than recompiling. *)
  let c2 = compiles () and h2 = hits () in
  let o = Problem.with_extra p [ Cons.In ("x", [ 1; 2; 3 ]) ] in
  Alcotest.(check bool) "offspring solvable" true (Solver.solve (Rng.create 9) o <> None);
  Alcotest.(check int) "offspring reuses base template" c2 (compiles ());
  Alcotest.(check bool) "offspring lookup is a cache hit" true (hits () > h2)

(* [solve_children] takes a frozen root or an [In]-extended base (the
   engine property compares both with [solve_all]); any other base is
   refused. *)
let test_solve_children_refuses_other_bases () =
  let base = Problem.with_extra (chain_problem ()) [ Cons.Le ("x", "y") ] in
  match Solver.solve_children ~max_fails:100 ~max_restarts:0 (Rng.create 1) base [ [] ] with
  | _ -> Alcotest.fail "a base with a non-In extra was accepted"
  | exception Invalid_argument _ -> ()

let qtest t =
  Heron_check.Replay.to_alcotest ~seed:(Heron_check.Replay.seed_from_env ()) t

let suite =
  [
    Alcotest.test_case "domain basics" `Quick test_domain_basics;
    qtest test_domain_set_ops;
    Alcotest.test_case "domain range" `Quick test_domain_range;
    Alcotest.test_case "domain random" `Quick test_domain_random;
    Alcotest.test_case "constraint semantics" `Quick test_cons_holds;
    Alcotest.test_case "enumerate = brute force" `Quick test_enumerate_matches_brute_force;
    Alcotest.test_case "solver returns valid" `Quick test_solver_valid;
    Alcotest.test_case "solver detects unsat" `Quick test_solver_unsat;
    Alcotest.test_case "rand_sat count/validity" `Quick test_rand_sat_count_and_validity;
    Alcotest.test_case "rand_sat diversity" `Quick test_rand_sat_diversity;
    Alcotest.test_case "propagation prunes products" `Quick test_propagation_prunes;
    Alcotest.test_case "propagation wipeout" `Quick test_propagation_wipeout;
    Alcotest.test_case "empty domain: LE upper side" `Quick test_empty_le_upper;
    Alcotest.test_case "empty domain: LE lower side" `Quick test_empty_le_lower;
    Alcotest.test_case "empty domain: n-ary SUM operand" `Quick test_empty_nary_operand;
    Alcotest.test_case "empty domain: unconstrained variable" `Quick test_empty_unconstrained;
    Alcotest.test_case "select propagation" `Quick test_select_propagation;
    Alcotest.test_case "select with its index among the sources" `Quick
      test_select_index_among_sources;
    Alcotest.test_case "sum constraint" `Quick test_sum_constraint;
    Alcotest.test_case "with_extra" `Quick test_with_extra;
    Alcotest.test_case "solve_children refuses other bases" `Quick
      test_solve_children_refuses_other_bases;
    Alcotest.test_case "solve_biased" `Quick test_solve_biased;
    Alcotest.test_case "violations count" `Quick test_violations_count;
    Alcotest.test_case "variable categories" `Quick test_categories;
    qtest random_chain_agrees;
    Alcotest.test_case "bounds-only propagation sound" `Quick test_bounds_only_still_sound;
    Alcotest.test_case "exact/bounds agree on unsat" `Quick test_exact_vs_bounds_agree_on_unsat;
    Alcotest.test_case "aliased PROD terminates (regression)" `Quick
      test_aliased_prod_terminates;
    Alcotest.test_case "aliased SUM terminates (regression)" `Quick
      test_aliased_sum_terminates;
    qtest test_bitdom_matches_domain;
    qtest test_universe_index;
    qtest test_range_mask;
    qtest test_word_primitives;
    qtest test_slice_kernels;
    qtest test_walk_kernel;
    qtest test_combine_kernel;
    Alcotest.test_case "combine kernel: edges" `Quick test_combine_edges;
    Alcotest.test_case "domain arrays" `Quick test_domain_arrays;
    Alcotest.test_case "range filter wipeout" `Quick test_range_wipeout;
    Alcotest.test_case "compile cache reuse" `Quick test_compile_cache;
    Alcotest.test_case "exact support: pair walk" `Quick test_exact_pair_walk;
    Alcotest.test_case "exact support: zero product" `Quick test_exact_zero_product;
    Alcotest.test_case "exact support: aliased square" `Quick test_exact_aliased_square;
    Alcotest.test_case "exact support: table and index agree" `Quick test_exact_lookup_paths;
    Alcotest.test_case "engine reuse keeps prepared starts" `Quick test_engine_reuse_keeps_starts;
    Alcotest.test_case "unaliased select is idempotent" `Quick test_select_unaliased_idempotent;
    Alcotest.test_case "cheap constraint classes run first" `Quick test_cheap_classes_first;
    Alcotest.test_case "support_checks jobs-independent" `Quick
      test_support_checks_jobs_independent;
  ]
