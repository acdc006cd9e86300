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

(* Propagate [p] and check each variable's narrowed domain, agreement
   with the reference engine, and the number of support probes — the
   probe count is what shows which path ran, since the pair walk, the
   zero product and the live-read path each probe differently. *)
let check_exact_path ~probes p expected =
  let c0 = support_checks () in
  let got = Solver.propagate_domains p in
  Alcotest.(check int) "support probes" probes (support_checks () - c0);
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
   on the first revise (each walk ends on the first sum past max v), then
   2 + 2 + 2 on the narrowed re-revise. *)
let test_exact_pair_walk () =
  check_exact_path ~probes:16
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
   x = 3 (the walk ends at 3 * 5 past max v), on the first revise and
   again on the narrowed re-revise. *)
let test_exact_zero_product () =
  check_exact_path ~probes:8
    (Problem.of_parts
       [ ("v", dl [ 0; 7; 9 ]); ("a", dl [ 0; 3 ]); ("b", dl [ 2; 3; 5 ]) ]
       [ Cons.Prod ("v", [ "a"; "b" ]) ])
    [ ("v", [ 0; 9 ]); ("a", [ 0; 3 ]); ("b", [ 2; 3; 5 ]) ];
  check_exact_path ~probes:4
    (Problem.of_parts
       [ ("v", dl [ 6; 7 ]); ("a", dl [ 0; 3 ]); ("b", dl [ 2; 5 ]) ]
       [ Cons.Prod ("v", [ "a"; "b" ]) ])
    [ ("v", [ 6 ]); ("a", [ 3 ]); ("b", [ 2 ]) ]

(* v = x * x keeps the live-read path: the a-filter sees x before the
   b-filter narrows it, so 1 falls but the squares 4 and 9 (and 10 =
   2 * 5) stay. Probes: 16 + 11 + 4, then 9 + 4 + 4 on the re-revise. *)
let test_exact_aliased_square () =
  check_exact_path ~probes:48
    (Problem.of_parts
       [ ("v", dl [ 4; 9; 10; 11 ]); ("x", dl [ 1; 2; 3; 5 ]) ]
       [ Cons.Prod ("v", [ "x"; "x" ]) ])
    [ ("v", [ 4; 9; 10 ]); ("x", [ 2; 3; 5 ]) ]

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
            = Bitdom.index_of b.Bitdom.values (Bitdom.min_value b1)
            && Bitdom.max_bit b1.Bitdom.words ~off:0 ~nw
               = Bitdom.index_of b.Bitdom.values (Bitdom.max_value b1)))

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
    Alcotest.test_case "select propagation" `Quick test_select_propagation;
    Alcotest.test_case "sum constraint" `Quick test_sum_constraint;
    Alcotest.test_case "with_extra" `Quick test_with_extra;
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
    Alcotest.test_case "compile cache reuse" `Quick test_compile_cache;
    Alcotest.test_case "exact support: pair walk" `Quick test_exact_pair_walk;
    Alcotest.test_case "exact support: zero product" `Quick test_exact_zero_product;
    Alcotest.test_case "exact support: aliased square" `Quick test_exact_aliased_square;
    Alcotest.test_case "support_checks jobs-independent" `Quick
      test_support_checks_jobs_independent;
  ]
