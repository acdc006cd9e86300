(* Tests for the domain pool: correctness of the parallel combinators
   (results by index), exception propagation, nested maps, degenerate
   inputs, and the graceful-shutdown/inline fallback behavior. *)

module Pool = Heron_util.Pool

let with_pool domains f = Pool.with_pool ~domains f

let test_map_matches_sequential () =
  with_pool 4 (fun pool ->
      let xs = Array.init 1000 (fun i -> i) in
      let f x = (x * x) + 1 in
      Alcotest.(check (array int))
        "parallel = sequential" (Array.map f xs)
        (Pool.parallel_map pool f xs))

let test_init_matches_sequential () =
  with_pool 3 (fun pool ->
      let f i = Printf.sprintf "item-%d" (i * 7) in
      Alcotest.(check (array string))
        "parallel_init = Array.init" (Array.init 257 f)
        (Pool.parallel_init pool 257 f))

let test_empty_inputs () =
  with_pool 4 (fun pool ->
      Alcotest.(check (array int)) "empty map" [||] (Pool.parallel_map pool (fun x -> x) [||]);
      Alcotest.(check (array int)) "empty init" [||] (Pool.parallel_init pool 0 (fun i -> i)))

let test_single_element () =
  with_pool 4 (fun pool ->
      Alcotest.(check (array int)) "one element" [| 42 |]
        (Pool.parallel_map pool (fun x -> x + 1) [| 41 |]))

exception Boom of int

let test_exception_propagates () =
  with_pool 4 (fun pool ->
      match Pool.parallel_map pool (fun i -> if i >= 100 then raise (Boom i) else i)
              (Array.init 400 (fun i -> i))
      with
      | _ -> Alcotest.fail "must raise"
      | exception Boom i ->
          (* The exception of the lowest-indexed failing element wins,
             whatever the completion order of the chunks. *)
          Alcotest.(check int) "lowest failing index" 100 i)

let test_pool_survives_exception () =
  with_pool 4 (fun pool ->
      (try ignore (Pool.parallel_map pool (fun _ -> raise Exit) [| 1; 2; 3 |])
       with Exit -> ());
      Alcotest.(check (array int)) "pool still works" [| 2; 4; 6 |]
        (Pool.parallel_map pool (fun x -> 2 * x) [| 1; 2; 3 |]))

let test_nested_maps () =
  (* A worker blocking on an inner batch must keep executing chunks itself
     rather than deadlocking the pool. *)
  with_pool 4 (fun pool ->
      let outer =
        Pool.parallel_init pool 8 (fun i ->
            Array.fold_left ( + ) 0
              (Pool.parallel_init pool 50 (fun j -> (i * 1000) + j)))
      in
      let expect = Array.init 8 (fun i -> (50 * 1000 * i) + (50 * 49 / 2)) in
      Alcotest.(check (array int)) "nested sums" expect outer)

let test_pool_of_one_runs_inline () =
  with_pool 1 (fun pool ->
      Alcotest.(check int) "jobs" 1 (Pool.jobs pool);
      let seen = ref [] in
      ignore (Pool.parallel_map pool (fun i -> seen := i :: !seen; i) (Array.init 5 (fun i -> i)));
      (* Inline execution is strictly in index order. *)
      Alcotest.(check (list int)) "index order" [ 4; 3; 2; 1; 0 ] !seen)

let test_shutdown_idempotent_and_inline_after () =
  let pool = Pool.create ~domains:4 in
  Pool.shutdown pool;
  Pool.shutdown pool;
  Alcotest.(check (array int)) "inline after shutdown" [| 1; 2; 3 |]
    (Pool.parallel_map pool (fun x -> x + 1) [| 0; 1; 2 |])

let installed_jobs () = Option.map Pool.jobs (Pool.default ())

let test_default_pool_resolution () =
  Alcotest.(check (option int)) "no default" None (installed_jobs ());
  Pool.with_jobs 2 (fun () ->
      Alcotest.(check (option int)) "with_jobs 2 installs 2 domains" (Some 2) (installed_jobs ()));
  Alcotest.(check (option int)) "cleared on return" None (installed_jobs ())

(* Inside [with_jobs 3], an inner [with_jobs 1] runs with no default and
   an inner [with_jobs 2] with its own pool; each puts the 3-domain pool
   back on return, also when its [f] raises. *)
let test_with_jobs_nests () =
  let check what expect = Alcotest.(check (option int)) what expect (installed_jobs ()) in
  Pool.with_jobs 3 (fun () ->
      let outer = Pool.default () in
      let restored what =
        check what (Some 3);
        Alcotest.(check bool) (what ^ ": same pool") true (Pool.default () == outer)
      in
      Pool.with_jobs 1 (fun () -> check "inner with_jobs 1" None);
      restored "after with_jobs 1";
      Pool.with_jobs 2 (fun () -> check "inner with_jobs 2" (Some 2));
      restored "after with_jobs 2";
      List.iter
        (fun jobs ->
          (try Pool.with_jobs jobs (fun () -> raise Exit) with Exit -> ());
          restored (Printf.sprintf "after with_jobs %d raised" jobs))
        [ 1; 2 ]);
  check "none after the outer" None

(* Property: under randomized task sets (random size, random failing
   subset, random per-task delays to scramble completion order), the
   re-raised exception is always the one from the lowest-indexed failing
   element, and fault-free runs equal Array.map. Shared pool across cases:
   spawning domains per case would dominate the test. *)
let test_exception_ordering_randomized pool =
  QCheck.Test.make ~name:"parallel_map raises the lowest-indexed failure" ~count:60
    QCheck.(
      pair (int_range 1 120)
        (pair (list_of_size (Gen.int_range 0 8) (int_range 0 119)) small_int))
    (fun (n, (failures, seed)) ->
      let failing = List.sort_uniq compare (List.filter (fun i -> i < n) failures) in
      let delay i =
        (* Deterministic, index-dependent busy work so chunks finish out of
           submission order. *)
        let spin = (i * 7919 * (seed + 1)) mod 257 in
        ignore (Sys.opaque_identity (Array.init spin (fun j -> j * j)))
      in
      let f i =
        delay i;
        if List.mem i failing then raise (Boom i) else i * 2
      in
      match Pool.parallel_map pool f (Array.init n (fun i -> i)) with
      | out -> failing = [] && out = Array.init n (fun i -> i * 2)
      | exception Boom i -> failing <> [] && i = List.hd failing)

(* Tasks that crash via the deterministic fault injector: whatever the
   pool size, the propagated exception is the one from the lowest-index
   faulting task — the Pool failure contract under a realistic fault
   workload. *)
exception Task_fault of int

let fault_spec = { Heron_dla.Faults.zero with Heron_dla.Faults.seed = 5; crash_rate = 0.06 }

let faulting_task i =
  match Heron_dla.Faults.decide fault_spec ~key:(string_of_int i) ~attempt:0 with
  | Heron_dla.Faults.Crash -> raise (Task_fault i)
  | _ -> (2 * i) + 1

let test_faulting_tasks_deterministic () =
  let n = 300 in
  let expected =
    (* the lowest index the injector crashes, found sequentially *)
    let rec first i =
      if i >= n then None
      else match faulting_task i with _ -> first (i + 1) | exception Task_fault j -> Some j
    in
    first 0
  in
  Alcotest.(check bool) "workload does fault" true (expected <> None);
  List.iter
    (fun domains ->
      with_pool domains (fun pool ->
          match Pool.parallel_map pool faulting_task (Array.init n (fun i -> i)) with
          | _ -> Alcotest.fail "faulting workload must raise"
          | exception Task_fault i ->
              Alcotest.(check (option int))
                (Printf.sprintf "lowest faulting index at %d domains" domains)
                expected (Some i)))
    [ 1; 2; 4; 8 ]

(* A fault-free (noise-only) workload: every pool size returns every
   result exactly once, by index — nothing lost, nothing duplicated. *)
let test_no_lost_or_duplicated_results () =
  let n = 500 in
  let noisy = { Heron_dla.Faults.zero with Heron_dla.Faults.seed = 9; noise = 0.3 } in
  let task i =
    match Heron_dla.Faults.decide noisy ~key:(string_of_int i) ~attempt:0 with
    | Heron_dla.Faults.Noise f -> float_of_int i *. f
    | _ -> Alcotest.fail "noise-only spec must never fault"
  in
  let expected = Array.init n task in
  List.iter
    (fun domains ->
      with_pool domains (fun pool ->
          Alcotest.(check (array (float 0.0)))
            (Printf.sprintf "results at %d domains" domains)
            expected
            (Pool.parallel_map pool task (Array.init n (fun i -> i)))))
    [ 1; 2; 4; 8 ]

let suite =
  [
    Alcotest.test_case "map matches sequential" `Quick test_map_matches_sequential;
    Alcotest.test_case "init matches sequential" `Quick test_init_matches_sequential;
    Alcotest.test_case "empty inputs" `Quick test_empty_inputs;
    Alcotest.test_case "single element" `Quick test_single_element;
    Alcotest.test_case "exception propagation" `Quick test_exception_propagates;
    Alcotest.test_case "pool survives exception" `Quick test_pool_survives_exception;
    Alcotest.test_case "nested maps" `Quick test_nested_maps;
    Alcotest.test_case "pool of one inline" `Quick test_pool_of_one_runs_inline;
    Alcotest.test_case "shutdown idempotent" `Quick test_shutdown_idempotent_and_inline_after;
    Alcotest.test_case "default pool resolution" `Quick test_default_pool_resolution;
    Alcotest.test_case "with_jobs nests" `Quick test_with_jobs_nests;
    Alcotest.test_case "faulting tasks: deterministic propagation" `Quick
      test_faulting_tasks_deterministic;
    Alcotest.test_case "faulting tasks: no lost or duplicated results" `Quick
      test_no_lost_or_duplicated_results;
    Alcotest.test_case "exception ordering (randomized)" `Quick (fun () ->
        with_pool 4 (fun pool ->
            Heron_check.Replay.run_test
              ~seed:(Heron_check.Replay.seed_from_env ())
              (test_exception_ordering_randomized pool)));
  ]
